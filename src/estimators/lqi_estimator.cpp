#include "estimators/lqi_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/byte_io.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::estimators {

LqiEstimator::LqiEstimator(LqiEstimatorConfig config, sim::Rng rng)
    : config_(config), rng_(rng), table_(config.table_capacity) {}

void LqiEstimator::wrap_beacon(std::span<const std::uint8_t> routing_payload,
                               std::vector<std::uint8_t>& out) {
  ByteWriter w{out};
  w.u8(beacon_seq_++);
  w.bytes(routing_payload);
}

std::optional<std::span<const std::uint8_t>> LqiEstimator::unwrap_beacon(
    NodeId from, std::span<const std::uint8_t> bytes,
    const link::PacketPhyInfo& phy) {
  ByteReader r{bytes};
  (void)r.u8();  // sequence number: LQI estimation does not need gaps
  if (!r.ok()) return std::nullopt;
  const auto payload = r.rest();
  note_lqi(from, phy.lqi());
  return payload;
}

void LqiEstimator::on_data_rx(NodeId from, const link::PacketPhyInfo& phy) {
  note_lqi(from, phy.lqi());
}

void LqiEstimator::note_lqi(NodeId from, int lqi) {
  Table::Entry* entry = table_.find(from);
  if (entry == nullptr) {
    if (table_.full()) {
      // PHY information is free, so eviction favors keeping the
      // best-looking links: drop the worst smoothed LQI.
      const auto victim = table_.evict_worst_unpinned(
          [](const Table::Entry& worst, const Table::Entry& e) {
            const double a =
                worst.data.lqi.has_value() ? worst.data.lqi.value() : 1e9;
            const double b = e.data.lqi.has_value() ? e.data.lqi.value() : 1e9;
            return b < a;  // e is worse than current worst
          });
      if (!victim) return;
      if (telemetry_ != nullptr) {
        telemetry_->emit(
            sim::EventKind::kTableEvict, self_, victim->value(), 0,
            static_cast<std::uint16_t>(sim::EvictReason::kProbabilistic));
      }
    }
    entry = table_.insert(from, LinkState{config_});
    if (entry == nullptr) return;
  }
  // The mapping is >= 1, so a new entry's 0.0 always differs and bumps
  // (covering the eviction that made room). An existing entry bumps only
  // when its estimate moves: on pristine links the mapping saturates.
  const double old_etx = entry->data.etx;
  entry->data.lqi.update(static_cast<double>(lqi));
  entry->data.etx = lqi_to_etx(entry->data.lqi.value());
  if (entry->data.etx != old_etx) bump_version();
}

double LqiEstimator::lqi_to_etx(double lqi) const {
  const double raw =
      std::pow(10.0, (config_.reference_lqi - lqi) / config_.slope);
  return std::clamp(raw, 1.0, config_.max_etx);
}

std::optional<double> LqiEstimator::etx(NodeId n) const {
  const Table::Entry* e = table_.find(n);
  if (e == nullptr || !e->data.lqi.has_value()) return std::nullopt;
  return e->data.etx;
}

void LqiEstimator::link_estimates(std::vector<link::LinkEstimate>& out) const {
  out.clear();
  for (const auto& e : table_.entries()) {
    out.push_back(
        link::LinkEstimate{e.node, e.data.lqi.has_value(), e.data.etx});
  }
}

std::optional<double> LqiEstimator::smoothed_lqi(NodeId n) const {
  const Table::Entry* e = table_.find(n);
  if (e == nullptr || !e->data.lqi.has_value()) return std::nullopt;
  return e->data.lqi.value();
}

bool LqiEstimator::pin(NodeId n) { return table_.pin(n); }
void LqiEstimator::unpin(NodeId n) { table_.unpin(n); }
void LqiEstimator::clear_pins() { table_.clear_pins(); }

std::vector<NodeId> LqiEstimator::neighbors() const {
  std::vector<NodeId> out;
  out.reserve(table_.size());
  for (const auto& e : table_.entries()) out.push_back(e.node);
  return out;
}

bool LqiEstimator::remove(NodeId n) {
  const Table::Entry* entry = table_.find(n);
  if (entry == nullptr) return true;
  if (entry->pinned) {
    if (telemetry_ != nullptr) {
      telemetry_->emit(
          sim::EventKind::kTableEvict, self_, n.value(), 0,
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
