#include "net/routing_engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace fourbit::net {

RoutingEngine::RoutingEngine(sim::Simulator& sim, NodeId self, bool is_root,
                             link::LinkEstimator& estimator,
                             CollectionConfig config, sim::Rng rng,
                             stats::Metrics* metrics)
    : sim_(sim),
      self_(self),
      is_root_(is_root),
      estimator_(estimator),
      config_(config),
      rng_(rng),
      metrics_(metrics),
      my_cost_(is_root ? 0.0 : config.max_path_etx),
      trickle_(sim,
               TrickleConfig{.min_interval = config.trickle_min,
                             .max_interval = config.trickle_max,
                             .redundancy_k = 0},
               [this] {
                 send_beacon();
                 refresh_beacon_ceiling();
               },
               rng.fork("trickle")),
      fixed_timer_(sim, [this] { send_beacon(); }),
      route_timer_(sim, [this] { update_route(); }) {
  estimator_.set_compare_provider(this);
}

void RoutingEngine::start() {
  started_ = true;
  if (metrics_ != nullptr && !is_root_) {
    metrics_->on_node_started(self_, sim_.now());
  }
  if (config_.beacon_timing == BeaconTiming::kTrickle) {
    refresh_beacon_ceiling();
    trickle_.start();
  } else {
    // Fixed interval with +-10% jitter against beacon synchronization.
    const double base = config_.fixed_beacon_interval.seconds();
    fixed_timer_.start_periodic(
        sim::Duration::from_seconds(rng_.uniform(base * 0.9, base * 1.1)));
  }
  route_timer_.start_periodic(config_.route_update_interval);
}

void RoutingEngine::crash() {
  trickle_.stop();
  fixed_timer_.stop();
  route_timer_.stop();
  started_ = false;
  routes_.clear();
  std::fill(route_index_.begin(), route_index_.end(), kNone);
  for (TableLink& l : table_links_) l.route = kNone;
  parent_ = kInvalidNodeId;
  my_cost_ = is_root_ ? 0.0 : config_.max_path_etx;
  settled_ = false;
  last_reset_ = sim::Time{};
  parent_failures_ = 0;
  // No route_lost event: Metrics::on_node_crashed (emitted by the
  // harness) discards this node's pending reroute measurement, so the
  // reroute times only describe LIVE nodes routing around damage.
  had_route_ = false;
}

void RoutingEngine::refresh_beacon_ceiling() {
  // Routeless nodes keep shouting the pull bit at a moderate rate; roots
  // anchor the cost gradient and stay reasonably fresh; everyone else
  // decays to the configured steady-state maximum.
  sim::Duration ceiling = config_.trickle_max;
  if (!is_root_ && !has_route()) {
    ceiling = sim::Duration::from_seconds(4.0);
  } else if (is_root_) {
    ceiling = std::min(config_.root_trickle_max, config_.trickle_max);
  }
  trickle_.set_max_interval(ceiling);
}

void RoutingEngine::reset_beacon_interval() {
  if (!started_ || config_.beacon_timing != BeaconTiming::kTrickle) return;
  // Rate-limit resets: estimate noise after convergence must not be able
  // to hold the whole network at the fastest beacon rate (a reset storm
  // feeds itself: beacons change costs, cost changes trigger resets).
  const sim::Time now = sim_.now();
  if (last_reset_.us() > 0 &&
      now - last_reset_ < config_.min_reset_spacing) {
    return;
  }
  last_reset_ = now;
  refresh_beacon_ceiling();
  trickle_.reset();
}

void RoutingEngine::send_beacon() {
  if (!beacon_sender_) return;
  RoutingBeacon b;
  b.parent = is_root_ ? self_ : parent_;
  b.path_etx = path_etx();
  b.pull = !has_route();
  ++beacons_sent_;
  beacon_buf_.clear();
  b.append_to(beacon_buf_);
  beacon_sender_(beacon_buf_);
}

double RoutingEngine::path_etx() const {
  if (is_root_) return 0.0;
  return my_cost_;
}

bool RoutingEngine::has_route() const {
  return is_root_ ||
         (parent_ != kInvalidNodeId && my_cost_ < config_.max_path_etx);
}

std::vector<RoutingEngine::RouteEntry> RoutingEngine::route_table() const {
  std::vector<RouteEntry> table;
  for (const HeldRoute& r : routes_) {
    table.push_back(RouteEntry{r.node, r.route()});
  }
  return table;
}

std::optional<RoutingEngine::NeighborRoute> RoutingEngine::route(
    NodeId n) const {
  const Pos j = find_route(n);
  if (j == kNone) return std::nullopt;
  return routes_[j].route();
}

namespace {

std::size_t home_slot(NodeId n, int shift) {
  return (n.value() * 0x9E3779B1u) >> shift;
}

}  // namespace

std::size_t RoutingEngine::index_slot(NodeId n) const {
  const std::size_t mask = route_index_.size() - 1;
  for (std::size_t i = home_slot(n, index_shift_);; i = (i + 1) & mask) {
    const Pos j = route_index_[i];
    if (j == kNone || routes_[j].node == n) return i;
  }
}

void RoutingEngine::index_insert(Pos j) {
  if (2 * routes_.size() <= route_index_.size()) {
    route_index_[index_slot(routes_[j].node)] = j;
    return;
  }
  route_index_.resize(std::max<std::size_t>(16, 2 * route_index_.size()));
  index_shift_ =
      static_cast<std::uint8_t>(32 - std::countr_zero(route_index_.size()));
  rebuild_index();
}

void RoutingEngine::rebuild_index() {
  std::fill(route_index_.begin(), route_index_.end(), kNone);
  for (std::size_t j = 0; j < routes_.size(); ++j) {
    route_index_[index_slot(routes_[j].node)] = static_cast<Pos>(j);
  }
}

void RoutingEngine::link(Pos k, Pos j) {
  table_links_[k].route = j;
  if (j != kNone) routes_[j].slot = k;
}

void RoutingEngine::read_link_table() {
  // The estimator's version contract: an unchanged version means the
  // bulk read would return exactly what estimates_ already holds.
  const std::uint64_t version = estimator_.version();
  if (version == estimates_version_) return;
  estimator_.link_estimates(estimates_);
  estimates_version_ = version;
  FOURBIT_ASSERT(estimates_.size() < kNone, "link table too large");
  // Relink the positions whose node changed; a move that only changed
  // estimates changes none. Unlink them all first, so that a node that
  // only changed position is relinked from a clean state.
  const std::size_t old_size = table_links_.size();
  const std::size_t size = estimates_.size();
  for (std::size_t k = 0; k < old_size; ++k) {
    if (k < size && table_links_[k].node == estimates_[k].node) continue;
    if (table_links_[k].route != kNone) {
      routes_[table_links_[k].route].slot = kNone;
    }
  }
  table_links_.resize(size);
  for (std::size_t k = 0; k < size; ++k) {
    const NodeId n = estimates_[k].node;
    if (k < old_size && table_links_[k].node == n) continue;
    table_links_[k].node = n;
    link(static_cast<Pos>(k), find_route(n));
  }
}

void RoutingEngine::note_route_update(NodeId n, bool in_table,
                                      const HeldRoute* before,
                                      const NeighborRoute& after) {
  // Routes of nodes outside the link table are never read. The flag
  // describes estimates_, which holds the settled pass's table unless the
  // version has moved since, and then the next update runs a pass anyway.
  if (!settled_ || !in_table) return;
  // Same parent and cost, heard again while still fresh (or the parent,
  // which never expires): the settled pass counted this route exactly as
  // the next one would. Re-hearing a stale route revives a candidate.
  if (before != nullptr && before->parent == after.parent &&
      before->path_etx == after.path_etx &&
      (n == parent_ ||
       sim_.now() - before->last_heard <= config_.route_expiry)) {
    return;
  }
  settled_ = false;
}

void RoutingEngine::store_route(NodeId n, Pos j,
                                const NeighborRoute& heard) {
  if (j != kNone) {
    HeldRoute& r = routes_[j];
    note_route_update(n, r.slot != kNone, &r, heard);
    r.parent = heard.parent;
    r.path_etx = heard.path_etx;
    r.last_heard = heard.last_heard;
    return;
  }
  // A new route, linked to n's table entry if the table holds n.
  FOURBIT_ASSERT(routes_.size() < kNone, "route table too large");
  j = static_cast<Pos>(routes_.size());
  routes_.push_back(
      HeldRoute{n, heard.parent, kNone, heard.path_etx, heard.last_heard});
  index_insert(j);
  for (std::size_t k = 0; k < table_links_.size(); ++k) {
    if (table_links_[k].node == n) {
      link(static_cast<Pos>(k), j);
      break;
    }
  }
  note_route_update(n, routes_[j].slot != kNone, nullptr, heard);
}

void RoutingEngine::erase_route(Pos j) {
  if (routes_[j].slot != kNone) link(routes_[j].slot, kNone);
  const auto last = static_cast<Pos>(routes_.size() - 1);
  if (j != last) {
    routes_[j] = routes_[last];
    if (routes_[j].slot != kNone) table_links_[routes_[j].slot].route = j;
  }
  routes_.pop_back();
  rebuild_index();
}

void RoutingEngine::trim_routes() {
  // Keep the routes of table nodes, in order, and index them afresh.
  Pos kept = 0;
  for (const HeldRoute& r : routes_) {
    if (r.slot == kNone) continue;
    routes_[kept] = r;
    table_links_[r.slot].route = kept;
    ++kept;
  }
  routes_.resize(kept);
  rebuild_index();
}

std::optional<double> RoutingEngine::total_cost(std::size_t k) const {
  const link::LinkEstimate& link = estimates_[k];
  const Pos j = table_links_[k].route;
  if (!link.has_etx || j == kNone) return std::nullopt;
  const HeldRoute& r = routes_[j];
  // A neighbor routing through us would form a loop; a neighbor without a
  // route is useless; a stale advertisement cannot be trusted (stale
  // costs are what keep count-to-infinity loops alive).
  if (r.parent == self_) return std::nullopt;
  if (r.path_etx >= config_.max_path_etx) return std::nullopt;
  // Stale advertisements are rejected for *candidates* (stale costs are
  // what keep count-to-infinity loops alive) but not for the current
  // parent: that link is being validated continuously by datapath acks,
  // and beacons in steady state arrive at multi-minute Trickle intervals.
  if (link.node != parent_ &&
      sim_.now() - r.last_heard > config_.route_expiry) {
    return std::nullopt;
  }
  return r.path_etx + link.etx;
}

void RoutingEngine::on_beacon(NodeId from,
                              std::span<const std::uint8_t> payload) {
  const auto beacon = RoutingBeacon::decode(payload);
  if (!beacon.has_value()) return;
  const NeighborRoute heard{beacon->parent, beacon->path_etx, sim_.now()};
  store_route(from, find_route(from), heard);

  // The pull bit: a neighbor is starving for routing state; advertise
  // ours quickly (rate-limited like every other Trickle reset).
  if (beacon->pull && has_route()) {
    reset_beacon_interval();
  }

  // Drop route state for nodes the estimator no longer tracks; the route
  // table must not grow past the link table (the layer-agreement failure
  // the paper cites from the Potatoes deployment). The routes it erases
  // belong to nodes outside the link table, which parent selection never
  // reads.
  read_link_table();
  if (routes_.size() > estimates_.size() + 4) trim_routes();

  update_route();
}

void RoutingEngine::on_snooped_cost(NodeId from, double path_etx) {
  const Pos j = find_route(from);
  // Refresh the cost and the staleness clock; the advertised parent is
  // whatever the last beacon said.
  const NeighborRoute heard{
      j != kNone ? routes_[j].parent : kInvalidNodeId, path_etx,
      sim_.now()};
  store_route(from, j, heard);
  update_route();
}

void RoutingEngine::update_route() {
  // A pass is a deterministic function of the link table, the routes of
  // the table's nodes, the parent and the clock; run again on unchanged
  // inputs it changes nothing. The clock only expires candidates, and a
  // settled pass kept its parent with every candidate it had, so it keeps
  // it with fewer. So while the last pass settled and neither the table
  // nor a route it reads has moved, the pass is skipped.
  if (!settled_ || estimator_.version() != settled_version_) {
    recompute_route();
  }
  note_route_state();
}

void RoutingEngine::note_route_state() {
  if (is_root_ || metrics_ == nullptr) return;
  const bool routed = has_route();
  if (routed == had_route_) return;
  had_route_ = routed;
  if (routed) {
    metrics_->on_route_restored(self_, sim_.now());
  } else {
    metrics_->on_route_lost(self_, sim_.now());
  }
}

void RoutingEngine::recompute_route() {
  if (is_root_ || !started_) return;
  ++selection_passes_;
  settled_ = false;

  // One pass over the link table, in table order: the first strictly
  // cheapest candidate wins, and the current parent's cost comes from the
  // same pass (nullopt when the parent has left the table).
  read_link_table();
  NodeId best = kInvalidNodeId;
  double best_cost = config_.max_path_etx;
  std::optional<double> current_cost;
  for (std::size_t k = 0; k < estimates_.size(); ++k) {
    const NodeId node = estimates_[k].node;
    const auto cost = total_cost(k);
    if (node == parent_) current_cost = cost;
    if (cost.has_value() && *cost < best_cost) {
      best_cost = *cost;
      best = node;
    }
  }
  // The pass kept its parent and touched no timer: until an input moves,
  // another pass would leave everything as it is.
  const auto settle = [this] {
    settled_ = true;
    settled_version_ = estimates_version_;
  };

  if (best == kInvalidNodeId) {
    // No usable candidate at all. Keep the (possibly broken) parent and
    // beacon aggressively to find a way out.
    if (!current_cost.has_value() && parent_ != kInvalidNodeId) {
      my_cost_ = config_.max_path_etx;
      reset_beacon_interval();
      return;
    }
    settle();
    return;
  }

  bool switch_parent = false;
  if (parent_ == kInvalidNodeId || !current_cost.has_value()) {
    switch_parent = true;
  } else if (best != parent_ &&
             best_cost + config_.parent_switch_threshold < *current_cost) {
    switch_parent = true;
  }

  if (switch_parent) {
    const bool actually_changed = best != parent_;
    const NodeId old_parent = parent_;
    if (config_.pin_parent && parent_ != kInvalidNodeId) {
      estimator_.unpin(parent_);
    }
    parent_ = best;
    if (config_.pin_parent) estimator_.pin(parent_);
    my_cost_ = best_cost;
    if (actually_changed) {
      ++parent_changes_;
      parent_failures_ = 0;  // the failure streak belonged to the old link
      sim_.telemetry().emit(
          sim::EventKind::kRouteChange, self_.value(), parent_.value(),
          old_parent.value(),
          static_cast<std::uint16_t>(sim::RouteChangeReason::kBetterParent),
          best_cost);
      reset_beacon_interval();
    }
    return;
  }

  // Same parent: track its (possibly changed) cost. Ordinary estimate
  // drift does not reset the beacon timer — only topology events do.
  my_cost_ = current_cost.has_value() ? *current_cost : config_.max_path_etx;
  settle();
}

void RoutingEngine::on_delivery_failure(NodeId to) {
  // The estimator has already digested the unacked transmissions through
  // the ack bit. Toward the current parent a failure also feeds the
  // dead-parent detector: hysteresis plus the pin bit would otherwise let
  // a crashed parent wedge this node indefinitely (its route entry is
  // exempt from expiry and its table entry from eviction).
  if (to == parent_ && config_.parent_evict_failures > 0) {
    if (parent_failures_ == 0) failure_streak_start_ = sim_.now();
    if (++parent_failures_ >= config_.parent_evict_failures) {
      evict_parent();
      if (config_.datapath_feedback) reset_beacon_interval();
      return;
    }
  }
  update_route();
  if (config_.datapath_feedback) reset_beacon_interval();
}

void RoutingEngine::on_delivery_success(NodeId to) {
  if (to == parent_) parent_failures_ = 0;
}

void RoutingEngine::evict_parent() {
  const NodeId dead = parent_;
  FOURBIT_ASSERT(dead != kInvalidNodeId, "evicting without a parent");
  ++parent_evictions_;
  sim_.telemetry().emit(
      sim::EventKind::kRouteChange, self_.value(), kInvalidNodeId.value(),
      dead.value(),
      static_cast<std::uint16_t>(sim::RouteChangeReason::kParentEvicted));
  // The pin bit refuses the first removal — that refusal is the recorded
  // event the pin/eviction interplay tests look for — then the unpin
  // makes the retry succeed.
  if (!estimator_.remove(dead)) {
    if (metrics_ != nullptr) metrics_->on_pin_refusal(self_);
    estimator_.unpin(dead);
    (void)estimator_.remove(dead);
  }
  if (const Pos j = find_route(dead); j != kNone) {
    erase_route(j);
  }
  // The node has been wedged since the streak's first failed delivery;
  // report the route as lost from that moment so time-to-reroute covers
  // detection, not just the post-eviction search.
  if (metrics_ != nullptr && !is_root_ && had_route_) {
    metrics_->on_route_lost(self_, failure_streak_start_);
    had_route_ = false;
  }
  parent_ = kInvalidNodeId;
  my_cost_ = config_.max_path_etx;
  parent_failures_ = 0;
  settled_ = false;  // the parent and its route are gone
  update_route();  // an immediate alternative ends the outage right here
}

void RoutingEngine::on_loop_detected() {
  if (config_.datapath_feedback) reset_beacon_interval();
  update_route();
}

bool RoutingEngine::compare_bit(NodeId /*candidate*/,
                                std::span<const std::uint8_t> payload) {
  const auto beacon = RoutingBeacon::decode(payload);
  if (!beacon.has_value()) return false;  // cannot judge this packet
  if (beacon->parent == self_) return false;
  if (beacon->path_etx >= config_.max_path_etx) return false;

  // Optimistic link cost for the candidate: the white bit was set on its
  // packet, so assume a near-perfect link until measured.
  const double candidate_cost = beacon->path_etx + 1.0;

  // Better than the route provided by >= 1 current table entry? Entries
  // without a usable route are "trivially worse", but only a table MOSTLY
  // made of them justifies admission on that basis alone — otherwise each
  // still-maturing entry would green-light an eviction, and the resulting
  // churn would keep every entry immature forever (this matters for
  // probe-based estimators, whose entries need a neighbor's reverse
  // report before they become usable).
  read_link_table();
  const std::size_t total = estimates_.size();
  std::size_t useless = 0;
  double worst = -1.0;
  for (std::size_t k = 0; k < total; ++k) {
    const auto cost = total_cost(k);
    if (!cost.has_value()) {
      ++useless;
    } else {
      worst = std::max(worst, *cost);
    }
  }
  if (total == 0) return true;
  if (useless * 2 > total) return true;
  if (worst < 0.0) return false;
  return candidate_cost < worst;
}

}  // namespace fourbit::net
