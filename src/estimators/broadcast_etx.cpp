#include "estimators/broadcast_etx.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/byte_io.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::estimators {
namespace {

constexpr double kQuantum = 255.0;

std::uint8_t quantize_prr(double prr) {
  const double clamped = std::clamp(prr, 0.0, 1.0);
  return static_cast<std::uint8_t>(clamped * kQuantum + 0.5);
}

double dequantize_prr(std::uint8_t q) {
  return static_cast<double>(q) / kQuantum;
}

}  // namespace

BroadcastEtxEstimator::BroadcastEtxEstimator(NodeId self,
                                             BroadcastEtxConfig config,
                                             sim::Rng rng)
    : self_(self), config_(config), rng_(rng), table_(config.table_capacity) {}

void BroadcastEtxEstimator::wrap_beacon(
    std::span<const std::uint8_t> routing_payload,
    std::vector<std::uint8_t>& out) {
  // Header: seq, footer-count; footer: (node, inbound quality) pairs.
  // With more table entries than footer_max, consecutive beacons rotate
  // through the table so every neighbor is eventually reported. The
  // count byte is reserved first and patched once the footer is written.
  ByteWriter w{out};
  w.u8(beacon_seq_++);
  const std::size_t count_at = out.size();
  w.u8(0);

  const auto& entries = table_.entries();
  const std::size_t n = entries.size();
  std::size_t reported = 0;
  for (std::size_t i = 0; i < n && reported < config_.footer_max; ++i) {
    const auto& e = entries[(footer_rotation_ + i) % n];
    if (!e.data.inbound_prr.has_value()) continue;
    w.u16(e.node.value());
    w.u8(quantize_prr(e.data.inbound_prr.value()));
    ++reported;
  }
  if (n > 0) footer_rotation_ = (footer_rotation_ + config_.footer_max) % n;
  out[count_at] = static_cast<std::uint8_t>(reported);

  w.bytes(routing_payload);
}

std::optional<std::span<const std::uint8_t>>
BroadcastEtxEstimator::unwrap_beacon(NodeId from,
                                     std::span<const std::uint8_t> bytes,
                                     const link::PacketPhyInfo& phy) {
  ByteReader r{bytes};
  const std::uint8_t seq = r.u8();
  const std::uint8_t footer_count = r.u8();
  bool reported_us = false;
  double reported_prr = 0.0;
  for (std::uint8_t i = 0; i < footer_count; ++i) {
    const NodeId node{r.u16()};
    const std::uint8_t q = r.u8();
    // The footer entry about *us* carries the reverse-direction quality.
    if (node == self_) {
      reported_us = true;
      reported_prr = dequantize_prr(q);
    }
  }
  if (!r.ok()) return std::nullopt;
  const auto payload = r.rest();

  Table::Entry* entry = table_.find(from);
  const std::optional<double> etx_before =
      entry != nullptr ? link_etx(entry->data) : std::nullopt;
  if (entry == nullptr) {
    if (try_admit(from, phy, payload)) {
      entry = table_.insert(from, LinkState{config_});
      FOURBIT_ASSERT(entry != nullptr, "admission promised a free slot");
      entry->data.has_seq = true;
      entry->data.last_seq = seq;
      entry->data.window_received = 1;
      entry->data.window_expected = 1;
      // Bootstrap the inbound quality from this first beacon (the
      // bidirectional product still needs the neighbor's reverse report
      // before the link is usable — the in-degree limitation stands).
      entry->data.inbound_prr.seed(1.0);
      // Covers the eviction that made room, too: nothing reads between.
      bump_version();
    }
  } else {
    LinkState& st = entry->data;
    const std::uint8_t gap = static_cast<std::uint8_t>(seq - st.last_seq);
    st.window_expected += std::max<std::uint32_t>(gap, 1);
    st.window_received += 1;
    st.last_seq = seq;
    if (st.window_expected >= config_.beacon_window) {
      const double prr =
          std::min(1.0, static_cast<double>(st.window_received) /
                            static_cast<double>(st.window_expected));
      st.inbound_prr.update(prr);
      st.window_received = 0;
      st.window_expected = 0;
    }
  }

  if (entry != nullptr && reported_us) {
    entry->data.has_reverse = true;
    entry->data.reverse_prr = reported_prr;
  }
  // A closed inbound window or a new reverse report moves the estimate.
  if (entry != nullptr && link_etx(entry->data) != etx_before) {
    bump_version();
  }
  return payload;
}

bool BroadcastEtxEstimator::try_admit(
    NodeId from, const link::PacketPhyInfo& phy,
    std::span<const std::uint8_t> payload) {
  if (!table_.full()) return true;

  const auto evict = [this](sim::EvictReason reason) {
    const auto victim = table_.evict_random_unpinned(rng_);
    if (victim && telemetry_ != nullptr) {
      telemetry_->emit(sim::EventKind::kTableEvict, self_.value(),
                       victim->value(), 0,
                       static_cast<std::uint16_t>(reason));
    }
    return victim.has_value();
  };

  switch (config_.insertion) {
    case core::InsertionPolicy::kWhiteCompare:
      // White/compare is a fast path SUPPLEMENTING the baseline
      // probabilistic replacement (see FourBitEstimator::try_admit).
      if (compare_ != nullptr && phy.white() &&
          compare_->compare_bit(from, payload)) {
        return evict(sim::EvictReason::kWhiteCompare);
      }
      if (!rng_.bernoulli(config_.probabilistic_insert_p)) return false;
      return evict(sim::EvictReason::kProbabilistic);
    case core::InsertionPolicy::kProbabilistic:
      if (!rng_.bernoulli(config_.probabilistic_insert_p)) return false;
      return evict(sim::EvictReason::kProbabilistic);
    case core::InsertionPolicy::kNever:
      return false;
  }
  return false;
}

bool BroadcastEtxEstimator::pin(NodeId n) { return table_.pin(n); }
void BroadcastEtxEstimator::unpin(NodeId n) { table_.unpin(n); }
void BroadcastEtxEstimator::clear_pins() { table_.clear_pins(); }

std::optional<double> BroadcastEtxEstimator::etx(NodeId n) const {
  const Table::Entry* entry = table_.find(n);
  if (entry == nullptr) return std::nullopt;
  return link_etx(entry->data);
}

void BroadcastEtxEstimator::link_estimates(
    std::vector<link::LinkEstimate>& out) const {
  out.clear();
  for (const auto& e : table_.entries()) {
    const auto etx = link_etx(e.data);
    out.push_back(
        link::LinkEstimate{e.node, etx.has_value(), etx.value_or(0.0)});
  }
}

std::optional<double> BroadcastEtxEstimator::link_etx(
    const LinkState& st) const {
  // Bidirectional ETX needs both directions: our inbound measurement and
  // their reported reverse quality. Without the reverse report (we are
  // not in their table) the link cannot be used — the in-degree limit.
  if (!st.inbound_prr.has_value() || !st.has_reverse) return std::nullopt;
  const double product = st.inbound_prr.value() * st.reverse_prr;
  if (product <= 1.0 / config_.max_etx) return config_.max_etx;
  return std::max(1.0, 1.0 / product);
}

std::optional<double> BroadcastEtxEstimator::inbound_quality(NodeId n) const {
  const Table::Entry* e = table_.find(n);
  if (e == nullptr || !e->data.inbound_prr.has_value()) return std::nullopt;
  return e->data.inbound_prr.value();
}

std::optional<double> BroadcastEtxEstimator::reverse_quality(NodeId n) const {
  const Table::Entry* e = table_.find(n);
  if (e == nullptr || !e->data.has_reverse) return std::nullopt;
  return e->data.reverse_prr;
}

std::vector<NodeId> BroadcastEtxEstimator::neighbors() const {
  std::vector<NodeId> out;
  out.reserve(table_.size());
  for (const auto& e : table_.entries()) out.push_back(e.node);
  return out;
}

bool BroadcastEtxEstimator::remove(NodeId n) {
  const Table::Entry* entry = table_.find(n);
  if (entry == nullptr) return true;
  if (entry->pinned) {
    if (telemetry_ != nullptr) {
      telemetry_->emit(
          sim::EventKind::kTableEvict, self_.value(), n.value(), 0,
          static_cast<std::uint16_t>(sim::EvictReason::kRefusedPinned));
    }
    return false;
  }
  const bool removed = table_.remove(n);
  FOURBIT_ASSERT(removed, "unpinned entry must be removable");
  bump_version();
  return true;
}

}  // namespace fourbit::estimators
