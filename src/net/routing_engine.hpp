// Collection-tree routing engine (CTP-style).
//
// Consumes link estimates from a LinkEstimator through the narrow
// interface, maintains per-neighbor route state, selects the parent with
// the lowest total path ETX (with hysteresis), and broadcasts routing
// beacons on a Trickle timer. It is also the network-layer half of two of
// the paper's four bits: it PINS the current parent's table entry and
// answers the estimator's COMPARE-bit queries from its route table.
//
// Every routing input (beacon, snooped frame, delivery failure, loop
// signal, route timer) asks for parent selection, but a selection pass
// runs only when something it reads has changed since the last pass that
// settled (kept its parent without resetting Trickle): the estimator's
// version(), the parent, or the route of a link-table node beyond a fresh
// re-hearing of the same parent and cost. Skipping is exact: a pass on
// unchanged inputs would leave every piece of state as it is, and time
// alone only expires candidates, which cannot unsettle a kept parent.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "link/estimator.hpp"
#include "net/config.hpp"
#include "net/packets.hpp"
#include "net/trickle.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/metrics.hpp"

namespace fourbit::net {

class RoutingEngine final : public link::CompareProvider {
 public:
  /// Hands a routing-beacon payload to the node glue for wrapping and
  /// broadcast. The span is valid only for the call.
  using BeaconSender = std::function<void(std::span<const std::uint8_t>)>;

  /// `metrics` (optional) receives route-availability transitions for
  /// the recovery metrics (time-to-first-route, time-to-reroute).
  RoutingEngine(sim::Simulator& sim, NodeId self, bool is_root,
                link::LinkEstimator& estimator, CollectionConfig config,
                sim::Rng rng, stats::Metrics* metrics = nullptr);

  void set_beacon_sender(BeaconSender sender) {
    beacon_sender_ = std::move(sender);
  }

  /// Starts beaconing and periodic route evaluation (call at node boot).
  void start();

  // ---- inputs ----------------------------------------------------------

  /// A routing beacon (already unwrapped by the estimator) from `from`.
  void on_beacon(NodeId from, std::span<const std::uint8_t> payload);

  /// A data frame from `from` toward somebody else was overheard; its
  /// header advertises the sender's route cost. Snooping keeps route
  /// state fresher than beacons alone (CTP does the same).
  void on_snooped_cost(NodeId from, double path_etx);

  /// The forwarder exhausted its retransmission budget toward `to`.
  /// Repeated failures toward the pinned parent eventually evict it
  /// (config.parent_evict_failures) instead of wedging on the pin bit.
  void on_delivery_failure(NodeId to);

  /// A unicast toward `to` was acknowledged: the link is alive, so any
  /// failure streak toward it ends here.
  void on_delivery_success(NodeId to);

  /// The forwarder saw a datapath inconsistency (possible loop).
  void on_loop_detected();

  /// Node crash: stops all timers and wipes route state (table, parent,
  /// cost, Trickle phase). start() afterwards models the reboot.
  void crash();

  // ---- route state -----------------------------------------------------

  [[nodiscard]] bool is_root() const { return is_root_; }
  [[nodiscard]] bool has_route() const;
  [[nodiscard]] NodeId parent() const { return parent_; }

  /// This node's advertised route cost (0 at a root, max when routeless).
  [[nodiscard]] double path_etx() const;

  /// Hop count to the root following current parents — computed by the
  /// caller (runner) across nodes; here we expose the neighbor route
  /// table for it and for tests.
  struct NeighborRoute {
    NodeId parent;
    double path_etx = 0.0;
    sim::Time last_heard;
  };
  struct RouteEntry {
    NodeId node;
    NeighborRoute route;
  };
  /// A copy of the route table: one entry per neighbor heard from, in no
  /// particular order. Snooped frames may add entries between beacons;
  /// the beacon handler trims the table back to nodes the estimator
  /// tracks once it exceeds the link table size + 4. The engine finds a
  /// node's route through a small hash index and links each link-table
  /// entry to its route and back, so parent selection, the compare bit
  /// and the trim never search.
  [[nodiscard]] std::vector<RouteEntry> route_table() const;
  /// `n`'s last advertised route, or nullopt if none is held.
  [[nodiscard]] std::optional<NeighborRoute> route(NodeId n) const;

  [[nodiscard]] std::uint64_t parent_changes() const {
    return parent_changes_;
  }
  [[nodiscard]] std::uint64_t beacons_sent() const { return beacons_sent_; }
  /// Parent-selection passes actually run; inputs whose pass was skipped
  /// (nothing it reads had changed) do not count.
  [[nodiscard]] std::uint64_t selection_passes() const {
    return selection_passes_;
  }
  [[nodiscard]] std::uint64_t parent_evictions() const {
    return parent_evictions_;
  }

  // ---- link::CompareProvider --------------------------------------------

  /// The compare bit: does `candidate`'s advertised route beat the route
  /// through at least one node currently in the estimator table?
  [[nodiscard]] bool compare_bit(
      NodeId candidate, std::span<const std::uint8_t> payload) override;

 private:
  /// Runs a selection pass unless the last one settled and nothing it
  /// reads has changed since; then reports route availability.
  void update_route();
  void recompute_route();
  /// Brings estimates_ up to the estimator's version (no read if current).
  void read_link_table();

  // A position in routes_ or in estimates_, or kNone.
  using Pos = std::uint16_t;
  static constexpr Pos kNone = 0xFFFF;

  // One held route: the node's last advertised route, with the node and
  // its position in estimates_ (kNone if the table does not hold it) in
  // what would otherwise be padding.
  struct HeldRoute {
    NodeId node;
    NodeId parent;
    Pos slot = kNone;
    double path_etx = 0.0;
    sim::Time last_heard;

    [[nodiscard]] NeighborRoute route() const {
      return {parent, path_etx, last_heard};
    }
  };
  static_assert(sizeof(HeldRoute) == 24);

  /// `n`'s route goes from `before` (null: none held) to `after`: clears
  /// settled_ if the next pass could read the difference. `in_table`: n
  /// is in estimates_.
  void note_route_update(NodeId n, bool in_table, const HeldRoute* before,
                         const NeighborRoute& after);
  void note_route_state();
  void evict_parent();
  void send_beacon();
  void reset_beacon_interval();
  void refresh_beacon_ceiling();

  /// Position of `n`'s route in routes_, or kNone.
  [[nodiscard]] Pos find_route(NodeId n) const {
    return route_index_.empty() ? kNone : route_index_[index_slot(n)];
  }
  /// The slot of route_index_ that holds `n`'s route, or the empty slot
  /// where it would go (route_index_ must not be empty).
  [[nodiscard]] std::size_t index_slot(NodeId n) const;
  /// Adds the route just appended at `j` to route_index_, growing the
  /// index first if it would be more than half full.
  void index_insert(Pos j);
  /// Indexes every route afresh, after an erase moved some.
  void rebuild_index();
  /// Stores `heard` as `n`'s route (at position `j`, or appended if `j`
  /// is kNone), noting the update for the skip state first.
  void store_route(NodeId n, Pos j, const NeighborRoute& heard);
  /// Erases the route at position `j` (the last route takes its place).
  /// Only a parent eviction erases a single route, so the index is
  /// rebuilt rather than kept up by backward shifts.
  void erase_route(Pos j);
  /// Drops every route whose node is not in estimates_.
  void trim_routes();
  /// Links the route at `j` (kNone: no route) and table entry `k`.
  void link(Pos k, Pos j);
  /// Path cost through link-table entry `k`, or nullopt if that neighbor
  /// cannot be a parent (see the definition for the rules).
  [[nodiscard]] std::optional<double> total_cost(std::size_t k) const;

  sim::Simulator& sim_;
  NodeId self_;
  bool is_root_;
  link::LinkEstimator& estimator_;
  CollectionConfig config_;
  sim::Rng rng_;
  stats::Metrics* metrics_;
  BeaconSender beacon_sender_;
  std::vector<std::uint8_t> beacon_buf_;  // reused RoutingBeacon encoding

  std::vector<HeldRoute> routes_;
  // Open-addressed NodeId -> routes_ position map: linear probing from a
  // multiplicative hash of the node, kNone in empty slots, rebuilt after
  // an erase. At most half full, so a lookup mostly reads one slot and
  // the route it names. Empty until the first route, then a power of two
  // of at least 16 slots that only grows.
  std::vector<Pos> route_index_;
  // The last bulk read of the link table (LinkEstimator::link_estimates),
  // reusing this buffer's capacity, and the estimator version it holds;
  // it is read again only once the version moves.
  std::vector<link::LinkEstimate> estimates_;
  std::uint64_t estimates_version_ = ~std::uint64_t{0};  // none read yet
  // table_links_[k]: estimates_[k]'s node and the position of its route
  // (kNone if none is held). It and the routes' slots mirror each other
  // exactly; every change to routes_ or estimates_ fixes both.
  struct TableLink {
    NodeId node;
    Pos route = kNone;
  };
  std::vector<TableLink> table_links_;
  NodeId parent_ = kInvalidNodeId;
  // A node's home slot in route_index_: (node * golden) >> index_shift_.
  std::uint8_t index_shift_ = 32;
  bool started_ = false;
  bool had_route_ = false;  // last route availability reported to metrics
  // Skip state for update_route: the last pass settled, at this
  // estimator version. Route changes the pass would read, parent
  // evictions and crashes clear it.
  bool settled_ = false;
  std::uint64_t settled_version_ = 0;
  double my_cost_;  // cached advertised cost
  std::uint64_t selection_passes_ = 0;

  TrickleTimer trickle_;       // adaptive beaconing (BeaconTiming::kTrickle)
  sim::Timer fixed_timer_;     // fixed-interval beaconing (kFixed)
  sim::Timer route_timer_;
  sim::Time last_reset_;

  std::uint64_t parent_changes_ = 0;
  std::uint64_t beacons_sent_ = 0;

  // Dead-parent detection: consecutive retx-budget exhaustions toward
  // the current parent, and when the streak began (the wedge duration
  // reported as time-to-reroute runs from that first failure).
  int parent_failures_ = 0;
  sim::Time failure_streak_start_;
  std::uint64_t parent_evictions_ = 0;
};

}  // namespace fourbit::net
