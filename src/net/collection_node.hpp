// One node's full collection stack: estimator + routing + forwarding,
// glued to a CSMA MAC.
//
// The glue owns the layer-2.5 dispatch byte that multiplexes estimator
// beacons and data packets over the MAC, builds every outgoing frame in
// one reused buffer, and hands the estimators the PHY's RxInfo through
// the narrow PacketPhyInfo interface (RxPhyInfo).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "link/estimator.hpp"
#include "mac/mac.hpp"
#include "net/config.hpp"
#include "net/forwarding_engine.hpp"
#include "net/routing_engine.hpp"
#include "stats/metrics.hpp"

namespace fourbit::net {

class CollectionNode {
 public:
  CollectionNode(sim::Simulator& sim, mac::Mac& mac,
                 std::unique_ptr<link::LinkEstimator> estimator, bool is_root,
                 CollectionConfig config, stats::Metrics* metrics,
                 sim::Rng rng);

  CollectionNode(const CollectionNode&) = delete;
  CollectionNode& operator=(const CollectionNode&) = delete;

  [[nodiscard]] NodeId id() const { return mac_.id(); }

  /// Starts routing (beacons, route evaluation). Call at the node's boot
  /// time; the radio listens from construction.
  void boot();

  /// Fault injection: wipes the whole stack — MAC queue and timers,
  /// forwarding queue and duplicate cache, routing state, estimator
  /// table (pins included, beacon seq restarted). The caller also turns
  /// the radio off; see runner::Network::crash_node. Idempotent.
  void crash();

  /// Ends a crash: restarts the MAC machinery and boots the (now empty)
  /// routing stack, exactly like a cold boot. No-op unless crashed.
  void reboot();

  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Originates an application payload toward the collection root.
  /// A crashed node generates nothing (returns false).
  bool send(std::span<const std::uint8_t> app_payload) {
    if (crashed_) return false;
    return forwarding_.send(app_payload);
  }

  void set_sink_handler(ForwardingEngine::SinkHandler h) {
    forwarding_.set_sink_handler(std::move(h));
  }

  [[nodiscard]] link::LinkEstimator& estimator() { return *estimator_; }
  [[nodiscard]] RoutingEngine& routing() { return routing_; }
  [[nodiscard]] const RoutingEngine& routing() const { return routing_; }
  [[nodiscard]] ForwardingEngine& forwarding() { return forwarding_; }

 private:
  // Layer 2.5 dispatch ids (arbitrary, just distinct on the wire).
  static constexpr std::uint8_t kDispatchBeacon = 0xF1;
  static constexpr std::uint8_t kDispatchData = 0xF2;

  void on_mac_rx(NodeId src, std::uint8_t dsn,
                 std::span<const std::uint8_t> payload,
                 const phy::RxInfo& info);

  sim::Simulator& sim_;
  mac::Mac& mac_;
  std::unique_ptr<link::LinkEstimator> estimator_;
  stats::Metrics* metrics_;
  RoutingEngine routing_;
  ForwardingEngine forwarding_;
  // Every outgoing frame is built here: the MAC copies it on send, so
  // one buffer per node serves beacons and data alike.
  std::vector<std::uint8_t> frame_;
  bool crashed_ = false;
};

}  // namespace fourbit::net
