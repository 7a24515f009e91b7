#include "net/forwarding_engine.hpp"

#include <utility>

#include "common/assert.hpp"

namespace fourbit::net {

ForwardingEngine::ForwardingEngine(sim::Simulator& sim, NodeId self,
                                   RoutingEngine& routing,
                                   link::LinkEstimator& estimator,
                                   CollectionConfig config,
                                   stats::Metrics* metrics, sim::Rng rng)
    : sim_(sim),
      self_(self),
      routing_(routing),
      estimator_(estimator),
      config_(config),
      metrics_(metrics),
      rng_(rng),
      dup_cache_(config.dup_cache_capacity),
      service_timer_(sim, [this] { service(); }),
      ctr_data_tx_(sim.telemetry().counter("fwd", "data_tx", self.value())),
      ctr_data_ack_(sim.telemetry().counter("fwd", "data_ack", self.value())),
      ctr_drops_(sim.telemetry().counter("fwd", "drops", self.value())) {}

bool ForwardingEngine::send(std::span<const std::uint8_t> app_payload) {
  const std::uint16_t seq = next_seq_++;
  if (metrics_ != nullptr) metrics_->on_generated(self_, seq, sim_.now());

  if (routing_.is_root()) {
    // A root's own packets are already home.
    DataHeader h;
    h.origin = self_;
    h.seq = seq;
    if (metrics_ != nullptr) metrics_->on_delivered(self_, seq);
    if (sink_handler_) sink_handler_(h, app_payload);
    return true;
  }

  if (queue_.size() >= config_.queue_capacity) {
    if (metrics_ != nullptr) metrics_->on_queue_drop(self_);
    DataHeader h;
    h.origin = self_;
    h.seq = seq;
    emit_drop(sim::DropReason::kQueueFullOrigin, h);
    return false;
  }

  Queued& q = queue_.push_back();
  q.header = DataHeader{};
  q.header.origin = self_;
  q.header.seq = seq;
  q.payload.assign(app_payload.begin(), app_payload.end());
  q.transmissions = 0;
  service();
  return true;
}

void ForwardingEngine::on_data(NodeId from,
                               std::span<const std::uint8_t> bytes,
                               const link::PacketPhyInfo& phy) {
  estimator_.on_data_rx(from, phy);

  // Zero-copy parse: duplicates, sink deliveries and drops never copy
  // the payload; only a packet that enters the queue gets owned bytes.
  const auto decoded = decode_data_view(bytes);
  if (!decoded.has_value()) return;
  const DataHeader& h = decoded->header;

  // Retransmissions whose ack was lost, and looped copies, die here.
  if (dup_cache_.check_and_insert(h.origin, h.seq)) {
    if (metrics_ != nullptr) metrics_->on_duplicate_rx(self_);
    return;
  }

  if (routing_.is_root()) {
    if (metrics_ != nullptr) metrics_->on_delivered(h.origin, h.seq);
    if (sink_handler_) sink_handler_(h, decoded->app_payload);
    return;
  }

  // Datapath validation: the sender routed *toward* us, so its advertised
  // cost must exceed ours. If not, the gradient is inconsistent (loop).
  if (routing_.has_route() && h.sender_path_etx < routing_.path_etx()) {
    routing_.on_loop_detected();
  }

  // Hop cap: a packet that has lived this long is circling. Drop it and
  // treat it as a loop signal.
  if (static_cast<int>(h.thl) + 1 > config_.max_thl) {
    routing_.on_loop_detected();
    if (metrics_ != nullptr) metrics_->on_queue_drop(self_);
    emit_drop(sim::DropReason::kThlExceeded, h);
    return;
  }

  if (queue_.size() >= config_.queue_capacity) {
    if (metrics_ != nullptr) metrics_->on_queue_drop(self_);
    emit_drop(sim::DropReason::kQueueFullForward, h);
    return;
  }

  Queued& q = queue_.push_back();
  q.header = h;
  q.header.thl = static_cast<std::uint8_t>(h.thl + 1);
  q.payload.assign(decoded->app_payload.begin(), decoded->app_payload.end());
  q.transmissions = 0;
  service();
}

void ForwardingEngine::schedule_service(sim::Duration delay) {
  service_timer_.start_one_shot(delay);
}

void ForwardingEngine::service() {
  if (in_flight_ || queue_.empty()) return;
  if (!routing_.has_route()) {
    // No parent yet; try again once routing has had a chance to converge.
    schedule_service(sim::Duration::from_seconds(1.0));
    return;
  }
  transmit_head();
}

void ForwardingEngine::transmit_head() {
  FOURBIT_ASSERT(!queue_.empty(), "transmit with an empty queue");
  FOURBIT_ASSERT(data_sender_ != nullptr, "forwarder has no data sender");

  Queued& q = queue_.front();
  q.header.sender_path_etx = routing_.path_etx();
  ++q.transmissions;
  in_flight_ = true;
  in_flight_dst_ = routing_.parent();
  if (metrics_ != nullptr) metrics_->on_data_tx(self_);
  ++*ctr_data_tx_;
  sim_.telemetry().emit(q.transmissions > 1 ? sim::EventKind::kDataRetx
                                            : sim::EventKind::kDataTx,
                        self_.value(), in_flight_dst_.value(), q.header.seq,
                        static_cast<std::uint16_t>(q.transmissions));

  packet_buf_.clear();
  q.header.append_to(packet_buf_, q.payload);
  data_sender_(in_flight_dst_, packet_buf_);
}

void ForwardingEngine::on_send_done(bool acked) {
  FOURBIT_ASSERT(in_flight_ && !queue_.empty(), "tx result with no packet");
  in_flight_ = false;

  // THE ACK BIT: every unicast outcome feeds the estimator. The outcome
  // belongs to the link the frame actually went over — the route may have
  // moved on while the frame was in flight.
  const NodeId parent = in_flight_dst_;
  estimator_.on_unicast_result(parent, acked);

  Queued& q = queue_.front();
  if (acked) {
    ++*ctr_data_ack_;
    sim_.telemetry().emit(sim::EventKind::kDataAck, self_.value(),
                          parent.value(), q.header.seq);
    routing_.on_delivery_success(parent);
    queue_.pop_front();
    const double lo = config_.tx_pacing_min.seconds();
    const double hi = config_.tx_pacing_max.seconds();
    schedule_service(sim::Duration::from_seconds(rng_.uniform(lo, hi)));
    return;
  }

  if (q.transmissions > config_.max_retransmissions) {
    const DataHeader dropped = q.header;
    queue_.pop_front();
    if (metrics_ != nullptr) metrics_->on_retx_drop(self_);
    emit_drop(sim::DropReason::kRetxExhausted, dropped);
    routing_.on_delivery_failure(parent);
    schedule_service(config_.retx_delay);
    return;
  }

  // Retry (possibly toward a different parent if routing moved on).
  schedule_service(config_.retx_delay);
}

void ForwardingEngine::emit_drop(sim::DropReason reason,
                                 const DataHeader& header) {
  ++*ctr_drops_;
  sim_.telemetry().emit(sim::EventKind::kDataDrop, self_.value(),
                        header.origin.value(), header.seq,
                        static_cast<std::uint16_t>(reason));
}

void ForwardingEngine::crash() {
  queue_.clear();
  in_flight_ = false;
  in_flight_dst_ = kInvalidNodeId;
  service_timer_.stop();
  dup_cache_.clear();
}

}  // namespace fourbit::net
