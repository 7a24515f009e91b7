#include "stats/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "stats/export.hpp"

namespace fourbit::stats {

std::uint8_t Metrics::classify(sim::Time t) const {
  for (const auto& [start, end] : outage_windows_) {
    if (t >= start && t < end) return 1;  // during an outage
  }
  if (!outage_windows_.empty() && t >= last_outage_end_) return 2;  // post
  return 0;
}

void Metrics::on_generated(NodeId origin, std::uint16_t, sim::Time now) {
  PerOrigin& po = origins_[origin];
  po.generated += 1;
  const std::uint8_t phase = classify(now);
  po.gen_phase.push_back(phase);
  generated_by_phase_[phase] += 1;
}

void Metrics::on_delivered(NodeId origin, std::uint16_t seq) {
  // Duplicates at the sink (same origin, same seq epoch) count once.
  PerOrigin& po = origins_[origin];
  const std::uint64_t expanded = po.expand_seq(seq);
  if (!po.mark_delivered(expanded)) return;
  // The expanded seq IS the packet's generation index at its origin.
  if (expanded < po.gen_phase.size()) {
    delivered_by_phase_[po.gen_phase[expanded]] += 1;
  }
}

bool Metrics::PerOrigin::mark_delivered(std::uint64_t expanded) {
  const std::size_t word = static_cast<std::size_t>(expanded >> 6);
  const std::uint64_t bit = std::uint64_t{1} << (expanded & 63);
  // Growth goes through the vector's geometric capacity, so the log
  // allocates once per doubling, not once per delivery.
  if (word >= delivered_bits.size()) delivered_bits.resize(word + 1);
  if ((delivered_bits[word] & bit) != 0) return false;
  delivered_bits[word] |= bit;
  ++delivered;
  return true;
}

std::uint64_t Metrics::PerOrigin::expand_seq(std::uint16_t seq) {
  if (!has_delivered) {
    has_delivered = true;
    highest_expanded = seq;
    return seq;
  }
  // Candidate expansions in the epoch of the highest seq seen and its two
  // neighbors; pick the one closest to the highest (RFC 1982-style).
  const std::uint64_t epoch = highest_expanded >> 16;
  std::uint64_t best = (epoch << 16) | seq;
  std::uint64_t best_dist = best > highest_expanded ? best - highest_expanded
                                                    : highest_expanded - best;
  for (const int d : {-1, +1}) {
    if (d < 0 && epoch == 0) continue;  // epoch 0 has no predecessor
    const std::uint64_t candidate =
        ((epoch + static_cast<std::uint64_t>(d)) << 16) | seq;
    const std::uint64_t dist = candidate > highest_expanded
                                   ? candidate - highest_expanded
                                   : highest_expanded - candidate;
    if (dist < best_dist) {
      best = candidate;
      best_dist = dist;
    }
  }
  highest_expanded = std::max(highest_expanded, best);
  return best;
}

void Metrics::on_data_tx(NodeId) { ++data_tx_total_; }
void Metrics::on_beacon_tx(NodeId) { ++beacon_tx_total_; }
void Metrics::on_retx_drop(NodeId) { ++retx_drops_; }
void Metrics::on_queue_drop(NodeId) { ++queue_drops_; }
void Metrics::on_duplicate_rx(NodeId) { ++duplicate_rx_; }

void Metrics::record_depth_sample(double mean_depth) {
  depth_samples_.push_back(mean_depth);
}

std::uint64_t Metrics::generated_total() const {
  std::uint64_t total = 0;
  for (const auto& [node, po] : origins_) total += po.generated;
  return total;
}

std::uint64_t Metrics::delivered_unique_total() const {
  std::uint64_t total = 0;
  for (const auto& [node, po] : origins_) total += po.delivered;
  return total;
}

double Metrics::cost() const {
  const std::uint64_t delivered = delivered_unique_total();
  if (delivered == 0) return 0.0;
  return static_cast<double>(data_tx_total_) /
         static_cast<double>(delivered);
}

double Metrics::delivery_ratio() const {
  const std::uint64_t generated = generated_total();
  if (generated == 0) return 0.0;
  return static_cast<double>(delivered_unique_total()) /
         static_cast<double>(generated);
}

std::vector<double> Metrics::per_node_delivery() const {
  std::vector<double> out;
  out.reserve(origins_.size());
  for (const auto& [node, po] : origins_) {
    if (po.generated == 0) continue;
    out.push_back(static_cast<double>(po.delivered) /
                  static_cast<double>(po.generated));
  }
  return out;
}

double Metrics::average_depth() const {
  if (depth_samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const double d : depth_samples_) sum += d;
  return sum / static_cast<double>(depth_samples_.size());
}

// ---- fault / recovery ----------------------------------------------------

void Metrics::add_outage_window(sim::Time start, sim::Time end) {
  outage_windows_.emplace_back(start, end);
  last_outage_end_ = std::max(last_outage_end_, end);
}

void Metrics::on_node_started(NodeId n, sim::Time now) {
  Recovery& r = recovery_[n];
  if (r.started) return;  // a reboot, not the cold boot
  r.started = true;
  r.first_start = now;
}

void Metrics::on_route_restored(NodeId n, sim::Time now) {
  Recovery& r = recovery_[n];
  if (r.started && !r.first_routed) {
    r.first_routed = true;
    r.first_route_s = (now - r.first_start).seconds();
  }
  if (r.loss_outstanding) {
    r.loss_outstanding = false;
    reroute_s_.push_back((now - r.lost_since).seconds());
  }
}

void Metrics::on_route_lost(NodeId n, sim::Time now) {
  Recovery& r = recovery_[n];
  if (r.loss_outstanding) return;  // the earliest loss time wins
  r.loss_outstanding = true;
  r.lost_since = now;
  ++route_losses_;
}

void Metrics::on_node_crashed(NodeId n, sim::Time) {
  ++node_crashes_;
  // A crashed node's downtime is not a reroute: that is what the
  // delivery-during-outage metric describes. Only live nodes routing
  // around damage contribute reroute samples.
  recovery_[n].loss_outstanding = false;
}

void Metrics::on_node_rebooted(NodeId, sim::Time) { ++node_reboots_; }

void Metrics::on_table_refill(NodeId, sim::Duration took) {
  refill_s_.push_back(took.seconds());
}

void Metrics::on_pin_refusal(NodeId) { ++pin_refusals_; }

namespace {
double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}
}  // namespace

double Metrics::mean_time_to_reroute_s() const { return mean_of(reroute_s_); }

double Metrics::max_time_to_reroute_s() const {
  return reroute_s_.empty()
             ? 0.0
             : *std::max_element(reroute_s_.begin(), reroute_s_.end());
}

double Metrics::mean_time_to_first_route_s() const {
  std::vector<double> delays;
  for (const auto& [node, r] : recovery_) {
    if (r.first_routed) delays.push_back(r.first_route_s);
  }
  return mean_of(delays);
}

double Metrics::mean_table_refill_s() const { return mean_of(refill_s_); }

double Metrics::delivery_during_outage() const {
  if (generated_by_phase_[1] == 0) return 0.0;
  return static_cast<double>(delivered_by_phase_[1]) /
         static_cast<double>(generated_by_phase_[1]);
}

double Metrics::delivery_post_outage() const {
  if (generated_by_phase_[2] == 0) return 0.0;
  return static_cast<double>(delivered_by_phase_[2]) /
         static_cast<double>(generated_by_phase_[2]);
}

std::string Metrics::describe() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "generated %llu, delivered %llu (%.2f%%), cost %.2f tx/pkt\n"
      "data tx %llu, beacons %llu, drops %llu retx / %llu queue, "
      "%llu duplicates\n",
      static_cast<unsigned long long>(generated_total()),
      static_cast<unsigned long long>(delivered_unique_total()),
      delivery_ratio() * 100.0, cost(),
      static_cast<unsigned long long>(data_tx_total_),
      static_cast<unsigned long long>(beacon_tx_total_),
      static_cast<unsigned long long>(retx_drops_),
      static_cast<unsigned long long>(queue_drops_),
      static_cast<unsigned long long>(duplicate_rx_));
  return buf;
}

std::string Metrics::describe_json() const {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"schema\":\"%s\",\"type\":\"metrics\",\"generated\":%llu,"
      "\"delivered\":%llu,\"delivery_ratio\":%.17g,\"cost\":%.17g,"
      "\"mean_depth\":%.17g,\"data_tx\":%llu,\"beacon_tx\":%llu,"
      "\"retx_drops\":%llu,\"queue_drops\":%llu,\"duplicates\":%llu}",
      std::string{kSummarySchema}.c_str(),
      static_cast<unsigned long long>(generated_total()),
      static_cast<unsigned long long>(delivered_unique_total()),
      delivery_ratio(), cost(), average_depth(),
      static_cast<unsigned long long>(data_tx_total_),
      static_cast<unsigned long long>(beacon_tx_total_),
      static_cast<unsigned long long>(retx_drops_),
      static_cast<unsigned long long>(queue_drops_),
      static_cast<unsigned long long>(duplicate_rx_));
  return buf;
}

}  // namespace fourbit::stats
