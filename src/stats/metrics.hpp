// Experiment accounting: the paper's three metrics.
//
//   cost           = data-frame transmissions (incl. every retransmission
//                    and duplicate) per unique packet delivered at a root
//   delivery ratio = unique packets delivered / packets generated,
//                    aggregate and per node (Figure 8 boxplots)
//   average depth  = mean hop distance of nodes to their root, sampled
//                    over time by the runner
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "sim/time.hpp"

namespace fourbit::stats {

class Metrics {
 public:
  // ---- data-plane events (called by the protocol stacks) -------------

  /// `now` classifies the packet against the registered outage windows
  /// (delivery during/after an outage); callers without a clock may omit
  /// it when no windows are registered.
  void on_generated(NodeId origin, std::uint16_t seq,
                    sim::Time now = sim::Time{});
  void on_delivered(NodeId origin, std::uint16_t seq);
  void on_data_tx(NodeId sender);
  void on_beacon_tx(NodeId sender);
  void on_retx_drop(NodeId at);
  void on_queue_drop(NodeId at);
  void on_duplicate_rx(NodeId at);

  /// Runner-sampled mean tree depth (hops to root over all routed nodes).
  void record_depth_sample(double mean_depth);

  // ---- fault / recovery events ---------------------------------------
  //
  // Route-availability transitions come from the routing engines; crash,
  // reboot and table-refill events from the fault harness. Together they
  // yield the recovery metrics: time-to-first-route, time-to-reroute,
  // neighbor-table re-fill time, delivery during/after outages.

  /// Registers a known outage window BEFORE the run (fault plans are
  /// deterministic, so windows are known upfront). Generated packets are
  /// classified as normal / during-outage / post-outage by generation
  /// time; "post" means at-or-after the end of the LAST window.
  void add_outage_window(sim::Time start, sim::Time end);

  /// First call per node marks its cold boot (reboots call again; only
  /// the first start anchors time-to-first-route).
  void on_node_started(NodeId n, sim::Time now);

  /// The node acquired a route. Ends the node's outstanding route-loss
  /// interval, if any (that interval's length is one reroute sample).
  void on_route_restored(NodeId n, sim::Time now);

  /// The node lost its route (or discovered, after the fact, that its
  /// parent died — callers may back-date `now` to when the wedge began).
  /// Ignored while a loss is already outstanding: the earliest time wins.
  void on_route_lost(NodeId n, sim::Time now);

  void on_node_crashed(NodeId n, sim::Time now);
  void on_node_rebooted(NodeId n, sim::Time now);

  /// The node's neighbor table regained half its pre-crash size, `took`
  /// after its reboot.
  void on_table_refill(NodeId n, sim::Duration took);

  /// The pin bit refused a table removal (dead-parent eviction hits this
  /// once per eviction, before unpinning).
  void on_pin_refusal(NodeId at);

  // ---- derived metrics -------------------------------------------------

  [[nodiscard]] std::uint64_t generated_total() const;
  [[nodiscard]] std::uint64_t delivered_unique_total() const;
  [[nodiscard]] std::uint64_t data_tx_total() const { return data_tx_total_; }
  [[nodiscard]] std::uint64_t beacon_tx_total() const {
    return beacon_tx_total_;
  }
  [[nodiscard]] std::uint64_t retx_drops() const { return retx_drops_; }
  [[nodiscard]] std::uint64_t queue_drops() const { return queue_drops_; }
  [[nodiscard]] std::uint64_t duplicate_rx() const { return duplicate_rx_; }

  /// Transmissions per unique delivered packet (lower is better).
  [[nodiscard]] double cost() const;

  /// Fraction of generated packets that reached a root.
  [[nodiscard]] double delivery_ratio() const;

  /// Delivery ratio per origin node (origins that generated nothing are
  /// omitted), for the per-node distribution plots.
  [[nodiscard]] std::vector<double> per_node_delivery() const;

  /// Time-average of the sampled mean tree depth.
  [[nodiscard]] double average_depth() const;

  // ---- derived recovery metrics --------------------------------------

  [[nodiscard]] std::uint64_t node_crashes() const { return node_crashes_; }
  [[nodiscard]] std::uint64_t node_reboots() const { return node_reboots_; }
  [[nodiscard]] std::uint64_t pin_refusals() const { return pin_refusals_; }
  [[nodiscard]] std::uint64_t route_losses() const { return route_losses_; }

  /// Completed route-loss -> route-restored intervals, seconds.
  [[nodiscard]] double mean_time_to_reroute_s() const;
  [[nodiscard]] double max_time_to_reroute_s() const;
  [[nodiscard]] std::size_t reroute_count() const {
    return reroute_s_.size();
  }

  /// Mean cold-boot -> first-route delay over nodes that ever routed.
  [[nodiscard]] double mean_time_to_first_route_s() const;

  /// Mean reboot -> table-half-refilled delay.
  [[nodiscard]] double mean_table_refill_s() const;
  [[nodiscard]] std::size_t table_refill_count() const {
    return refill_s_.size();
  }

  [[nodiscard]] std::uint64_t generated_during_outage() const {
    return generated_by_phase_[1];
  }
  [[nodiscard]] std::uint64_t generated_post_outage() const {
    return generated_by_phase_[2];
  }

  /// Delivery ratio of packets GENERATED during / after the registered
  /// outage windows (0 when nothing was generated in that phase).
  [[nodiscard]] double delivery_during_outage() const;
  [[nodiscard]] double delivery_post_outage() const;

  // ---- reporting -------------------------------------------------------

  /// Human-readable snapshot of the headline counters (multi-line).
  [[nodiscard]] std::string describe() const;

  /// One line of schema-versioned JSON ("fourbit.summary/1",
  /// stats/export.hpp), type "metrics"; no trailing newline.
  [[nodiscard]] std::string describe_json() const;

 private:
  struct PerOrigin {
    std::uint64_t generated = 0;
    // Outage phase (0 normal / 1 during / 2 post) per generated packet,
    // indexed by generation order == expanded sequence number (origins
    // number their packets 0,1,2,... and report every one).
    std::vector<std::uint8_t> gen_phase;
    // Dedup of delivered packets. The wire sequence number is 16 bits,
    // so an origin that generates more than 65536 packets wraps: a raw
    // set of uint16_t would collide across epochs and silently undercount
    // delivery on long runs. Instead each delivered seq is widened to a
    // 64-bit value near the highest expanded seq seen so far (tolerant of
    // reordering/late retransmissions within +-32768) and deduped on that,
    // in a bitset indexed by the expanded seq (bit i of word i / 64).
    std::vector<std::uint64_t> delivered_bits;
    std::uint64_t delivered = 0;  // bits set
    std::uint64_t highest_expanded = 0;
    bool has_delivered = false;

    [[nodiscard]] std::uint64_t expand_seq(std::uint16_t seq);
    /// Sets the bit of `expanded`; false if it was already set.
    bool mark_delivered(std::uint64_t expanded);
  };

  struct Recovery {
    bool started = false;
    sim::Time first_start;
    bool first_routed = false;
    double first_route_s = 0.0;
    bool loss_outstanding = false;
    sim::Time lost_since;
  };

  [[nodiscard]] std::uint8_t classify(sim::Time t) const;

  std::unordered_map<NodeId, PerOrigin> origins_;
  std::uint64_t data_tx_total_ = 0;
  std::uint64_t beacon_tx_total_ = 0;
  std::uint64_t retx_drops_ = 0;
  std::uint64_t queue_drops_ = 0;
  std::uint64_t duplicate_rx_ = 0;
  std::vector<double> depth_samples_;

  // Fault / recovery accounting.
  std::unordered_map<NodeId, Recovery> recovery_;
  std::vector<std::pair<sim::Time, sim::Time>> outage_windows_;
  sim::Time last_outage_end_;
  std::vector<double> reroute_s_;
  std::vector<double> refill_s_;
  std::uint64_t node_crashes_ = 0;
  std::uint64_t node_reboots_ = 0;
  std::uint64_t pin_refusals_ = 0;
  std::uint64_t route_losses_ = 0;
  std::uint64_t generated_by_phase_[3] = {0, 0, 0};
  std::uint64_t delivered_by_phase_[3] = {0, 0, 0};
};

}  // namespace fourbit::stats
