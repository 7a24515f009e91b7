// Data-plane forwarding: origination queue, per-hop retransmission, and
// duplicate suppression.
//
// Every unicast transmission outcome is reported to the link estimator —
// this is where the paper's ACK bit flows from layer 2 into the
// estimator, at a rate commensurate with the data traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/slot_queue.hpp"
#include "link/estimator.hpp"
#include "net/config.hpp"
#include "net/packets.hpp"
#include "net/routing_engine.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/metrics.hpp"

namespace fourbit::net {

/// Fixed-capacity FIFO set for (origin, seq) duplicate detection: one
/// flat ring of at most `capacity` distinct keys, searched linearly. At
/// capacity a new key overwrites the oldest.
class DupCache {
 public:
  /// A capacity of 0 keeps the last key, as 1 does.
  explicit DupCache(std::size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {
    keys_.reserve(capacity_);
  }

  /// Returns true if the key was already present; inserts it otherwise
  /// (evicting the oldest entry at capacity).
  bool check_and_insert(NodeId origin, std::uint16_t seq) {
    const std::uint32_t key =
        static_cast<std::uint32_t>(origin.value()) << 16 | seq;
    for (const std::uint32_t k : keys_) {
      if (k == key) return true;
    }
    if (keys_.size() < capacity_) {
      keys_.push_back(key);
    } else {
      keys_[oldest_] = key;
      if (++oldest_ == capacity_) oldest_ = 0;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  void clear() {
    keys_.clear();
    oldest_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<std::uint32_t> keys_;  // reserved to capacity_ up front
  std::size_t oldest_ = 0;           // next key to overwrite, once full
};

class ForwardingEngine {
 public:
  /// Sends an encoded data packet to `dst` over the MAC. The span is
  /// valid only for the call. The layer-2 outcome of that transmission
  /// comes back through on_send_done.
  using DataSender =
      std::function<void(NodeId dst, std::span<const std::uint8_t> packet)>;

  /// Invoked at a root for every (non-duplicate) delivered packet.
  using SinkHandler = std::function<void(const DataHeader&,
                                         std::span<const std::uint8_t>)>;

  ForwardingEngine(sim::Simulator& sim, NodeId self, RoutingEngine& routing,
                   link::LinkEstimator& estimator, CollectionConfig config,
                   stats::Metrics* metrics, sim::Rng rng);

  void set_data_sender(DataSender sender) { data_sender_ = std::move(sender); }
  void set_sink_handler(SinkHandler handler) {
    sink_handler_ = std::move(handler);
  }

  /// Originates a collection packet. Returns false on a full queue.
  bool send(std::span<const std::uint8_t> app_payload);

  /// A data frame arrived from the MAC (already ack'd at layer 2).
  void on_data(NodeId from, std::span<const std::uint8_t> bytes,
               const link::PacketPhyInfo& phy);

  /// The MAC finished the transmission the last DataSender call started:
  /// `acked` is its layer-2 ack outcome. Exactly one call per send,
  /// except that a crash drops the outstanding one.
  void on_send_done(bool acked);

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::uint16_t packets_originated() const {
    return next_seq_;
  }

  /// Node crash: drops the queue and duplicate cache, forgets the
  /// in-flight transmission (its MAC callback was dropped with the MAC
  /// queue) and stops the service timer. next_seq_ deliberately survives:
  /// it is the metrics layer's per-origin packet index, and restarting it
  /// would alias pre-crash packets in every duplicate filter downstream.
  void crash();

 private:
  struct Queued {
    DataHeader header;
    std::vector<std::uint8_t> payload;
    int transmissions = 0;
  };

  void service();
  void transmit_head();
  void schedule_service(sim::Duration delay);
  void emit_drop(sim::DropReason reason, const DataHeader& header);

  sim::Simulator& sim_;
  NodeId self_;
  RoutingEngine& routing_;
  link::LinkEstimator& estimator_;
  CollectionConfig config_;
  stats::Metrics* metrics_;
  sim::Rng rng_;

  DataSender data_sender_;
  SinkHandler sink_handler_;

  // Slots keep their payload buffers (common/slot_queue.hpp).
  SlotQueue<Queued> queue_;
  std::vector<std::uint8_t> packet_buf_;  // reused wire encoding
  bool in_flight_ = false;
  NodeId in_flight_dst_ = kInvalidNodeId;
  std::uint16_t next_seq_ = 0;
  DupCache dup_cache_;
  sim::Timer service_timer_;

  // Per-node registry slots (resolved once; hot paths just increment).
  std::uint64_t* ctr_data_tx_ = nullptr;
  std::uint64_t* ctr_data_ack_ = nullptr;
  std::uint64_t* ctr_drops_ = nullptr;
};

}  // namespace fourbit::net
