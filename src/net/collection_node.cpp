#include "net/collection_node.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/byte_io.hpp"
#include "net/rx_phy_info.hpp"

namespace fourbit::net {

CollectionNode::CollectionNode(sim::Simulator& sim, mac::Mac& mac,
                               std::unique_ptr<link::LinkEstimator> estimator,
                               bool is_root, CollectionConfig config,
                               stats::Metrics* metrics, sim::Rng rng)
    : sim_(sim),
      mac_(mac),
      estimator_(std::move(estimator)),
      metrics_(metrics),
      routing_(sim, mac.id(), is_root, *estimator_, config,
               rng.fork("routing"), metrics),
      forwarding_(sim, mac.id(), routing_, *estimator_, config, metrics,
                  rng.fork("forwarding")) {
  FOURBIT_ASSERT(estimator_ != nullptr, "node needs a link estimator");
  estimator_->set_telemetry(&sim.telemetry(), mac.id());

  mac_.set_rx_handler([this](NodeId src, std::uint8_t dsn,
                             std::span<const std::uint8_t> payload,
                             const phy::RxInfo& info) {
    on_mac_rx(src, dsn, payload, info);
  });

  if (config.snoop) {
    mac_.set_snoop_handler([this](NodeId src, std::uint8_t,
                                  std::span<const std::uint8_t> payload,
                                  const phy::RxInfo&) {
      // Overheard unicast data: refresh the sender's advertised cost.
      // Header-only view parse — snooping every neighbor's traffic must
      // not copy every neighbor's payloads.
      if (payload.empty() || payload[0] != kDispatchData) return;
      const auto decoded = decode_data_view(payload.subspan(1));
      if (!decoded.has_value()) return;
      routing_.on_snooped_cost(src, decoded->header.sender_path_etx);
    });
  }

  routing_.set_beacon_sender([this](std::span<const std::uint8_t> payload) {
    // Dispatch byte, then the estimator's layer-2.5 wrapping of the
    // routing payload, built in the node's frame buffer and broadcast.
    frame_.clear();
    frame_.push_back(kDispatchBeacon);
    estimator_->wrap_beacon(payload, frame_);
    if (metrics_ != nullptr) metrics_->on_beacon_tx(id());
    sim_.telemetry().emit(sim::EventKind::kBeaconTx, id().value());
    mac_.send(kBroadcastId, frame_, nullptr);
  });

  forwarding_.set_data_sender(
      [this](NodeId dst, std::span<const std::uint8_t> packet) {
        frame_.clear();
        frame_.push_back(kDispatchData);
        frame_.insert(frame_.end(), packet.begin(), packet.end());
        mac_.send(dst, frame_, [this](const mac::TxResult& result) {
          forwarding_.on_send_done(result.acked);
        });
      });
}

void CollectionNode::boot() { routing_.start(); }

void CollectionNode::crash() {
  if (crashed_) return;
  crashed_ = true;
  // Order matters: the MAC reset drops its queue (and the send callbacks
  // forwarding is waiting on) before the upper layers are wiped, so no
  // completion can fire into half-dead state.
  mac_.reset();
  forwarding_.crash();
  routing_.crash();
  estimator_->reset();
}

void CollectionNode::reboot() {
  if (!crashed_) return;
  crashed_ = false;
  mac_.restart();
  boot();
}

void CollectionNode::on_mac_rx(NodeId src, std::uint8_t /*dsn*/,
                               std::span<const std::uint8_t> payload,
                               const phy::RxInfo& info) {
  if (crashed_) return;  // belt and braces; the radio should be off too
  if (payload.empty()) return;
  const std::uint8_t dispatch = payload[0];
  const auto body = payload.subspan(1);

  // The estimators read the bits they decide on; nothing is evaluated
  // here.
  const RxPhyInfo phy_info{info};

  switch (dispatch) {
    case kDispatchBeacon: {
      // One beacon-rx event regardless of which estimator is running (they
      // each parse their own layer-2.5 header).
      sim_.telemetry().emit(sim::EventKind::kBeaconRx, id().value(),
                            src.value());
      const auto routing_payload =
          estimator_->unwrap_beacon(src, body, phy_info);
      if (routing_payload.has_value()) {
        routing_.on_beacon(src, *routing_payload);
      }
      break;
    }
    case kDispatchData:
      forwarding_.on_data(src, body, phy_info);
      break;
    default:
      break;  // unknown layer 2.5 protocol; drop
  }
}

}  // namespace fourbit::net
