#include "core/four_bit_estimator.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/byte_io.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::core {

FourBitEstimator::FourBitEstimator(FourBitConfig config, sim::Rng rng)
    : config_(config), rng_(rng), table_(config.table_capacity) {}

void FourBitEstimator::wrap_beacon(
    std::span<const std::uint8_t> routing_payload,
    std::vector<std::uint8_t>& out) {
  // Layer 2.5 header is a single sequence number; receivers measure the
  // beacon reception rate from the gaps. No per-neighbor footer — that is
  // the point: in-degree stays decoupled from table size.
  ByteWriter w{out};
  w.u8(beacon_seq_++);
  w.bytes(routing_payload);
}

std::optional<std::span<const std::uint8_t>> FourBitEstimator::unwrap_beacon(
    NodeId from, std::span<const std::uint8_t> bytes,
    const link::PacketPhyInfo& phy) {
  ByteReader r{bytes};
  const std::uint8_t seq = r.u8();
  if (!r.ok()) return std::nullopt;
  const auto payload = r.rest();

  if (Table::Entry* entry = table_.find(from)) {
    note_beacon(*entry, seq, phy);
    return payload;
  }

  if (try_admit(from, phy, payload)) {
    Table::Entry* entry = table_.insert(from, LinkState{config_});
    FOURBIT_ASSERT(entry != nullptr, "admission promised a free slot");
    if (telemetry_ != nullptr) {
      telemetry_->emit(sim::EventKind::kTableInsert, self_, from.value(),
                       seq);
    }
    // Seed the beacon window with this first beacon, and bootstrap the
    // link estimate optimistically from it: the paper's estimator uses
    // "incoming beacon estimates as bootstrapping values for the link
    // qualities, which are refined by the data-based estimates later".
    // Without a bootstrap, a freshly admitted link is unusable for
    // routing until two beacon windows complete — and under table churn
    // entries would be replaced before ever maturing.
    entry->data.has_seq = true;
    entry->data.last_seq = seq;
    entry->data.window_received = 1;
    entry->data.window_expected = 1;
    entry->data.beacon_prr.seed(1.0);
    entry->data.etx.seed(1.0);
    // One bump covers the whole admission: the eviction that made room
    // (if any) and the seeded entry; nothing reads the table in between.
    bump_version();
  }
  return payload;
}

bool FourBitEstimator::try_admit(NodeId from, const link::PacketPhyInfo& phy,
                                 std::span<const std::uint8_t> payload) {
  if (!table_.full()) return true;

  const auto evict = [this](NodeId from_node, sim::EvictReason reason) {
    const auto victim = table_.evict_random_unpinned(rng_);
    if (victim && telemetry_ != nullptr) {
      telemetry_->emit(sim::EventKind::kTableEvict, self_, victim->value(),
                       from_node.value(),
                       static_cast<std::uint16_t>(reason));
    }
    return victim.has_value();
  };

  switch (config_.insertion) {
    case InsertionPolicy::kWhiteCompare:
      // The paper's rule, which SUPPLEMENTS the standard (Woo et al.)
      // replacement policy: a white-bit packet whose sender's route wins
      // the compare-bit query flushes a random unpinned entry right away;
      // other senders still get the baseline probabilistic chance.
      if (compare_ != nullptr && phy.white()) {
        const bool wins = compare_->compare_bit(from, payload);
        if (telemetry_ != nullptr) {
          telemetry_->emit(sim::EventKind::kTableCompare, self_,
                           from.value(), wins ? 1 : 0);
        }
        if (wins) return evict(from, sim::EvictReason::kWhiteCompare);
      }
      if (!rng_.bernoulli(config_.probabilistic_insert_p)) return false;
      return evict(from, sim::EvictReason::kProbabilistic);

    case InsertionPolicy::kProbabilistic:
      if (!rng_.bernoulli(config_.probabilistic_insert_p)) return false;
      return evict(from, sim::EvictReason::kProbabilistic);

    case InsertionPolicy::kNever:
      return false;
  }
  return false;
}

void FourBitEstimator::note_beacon(Table::Entry& entry, std::uint8_t seq,
                                   const link::PacketPhyInfo& phy) {
  LinkState& st = entry.data;
  if (!st.has_seq) {
    st.has_seq = true;
    st.last_seq = seq;
    st.window_received = 1;
    st.window_expected = 1;
  } else {
    // Gap since the last beacon (mod-256 arithmetic handles wrap).
    std::uint32_t gap = static_cast<std::uint8_t>(seq - st.last_seq);
    // gap == 0 is a replayed/duplicated beacon (or exactly 256 losses,
    // which at any plausible beacon rate is indistinguishable from a
    // dead link anyway). Counting it would bump both received and
    // expected, letting duplicates inflate the measured reception rate.
    if (gap == 0) return;
    if (config_.seq_reset_gap > 0 && gap > config_.seq_reset_gap) {
      // An implausibly large gap is more likely a neighbor reboot (its
      // beacon sequence restarted near a random value) than that many
      // consecutive losses — IF the white bit on this very packet, or
      // an ack inside the current unicast window, says the link is
      // alive. Resynchronize instead of charging phantom losses.
      const bool alive = st.window_acked > 0 || phy.white();
      if (alive) {
        ++seq_resets_;
        gap = 1;
      } else {
        // No liveness evidence: still cap the charge so one wild gap
        // costs at most one saturated window, not up to 255 beacons of
        // debt that would take many windows to amortize.
        gap = static_cast<std::uint32_t>(config_.seq_reset_gap);
      }
    }
    st.window_expected += gap;
    st.window_received += 1;
    st.last_seq = seq;
  }

  if (st.window_expected >= config_.beacon_window) {
    const double prr =
        std::min(1.0, static_cast<double>(st.window_received) /
                          static_cast<double>(st.window_expected));
    st.beacon_prr.update(prr);
    st.window_received = 0;
    st.window_expected = 0;

    const double quality = st.beacon_prr.value();
    const double etx_sample =
        quality <= 0.0 ? config_.max_etx_sample : 1.0 / quality;
    feed_etx_sample(entry.node, st, etx_sample, /*from_data=*/false);
  }
}

void FourBitEstimator::feed_etx_sample(NodeId peer, LinkState& st,
                                       double sample, bool from_data) {
  const double old_etx = st.etx.has_value() ? st.etx.value() : 0.0;
  st.etx.update(std::clamp(sample, 1.0, config_.max_etx_sample));
  // The new value is >= 1, so a first sample always differs from 0.0. A
  // link seeded at 1.0 and fed perfect windows stays at 1.0 exactly.
  if (st.etx.value() != old_etx) bump_version();
  if (telemetry_ != nullptr) {
    telemetry_->emit(
        sim::EventKind::kEtxUpdate, self_, peer.value(),
        static_cast<std::uint16_t>(from_data ? sim::EtxStream::kData
                                             : sim::EtxStream::kBeacon),
        0, old_etx, st.etx.value());
  }
}

void FourBitEstimator::on_unicast_result(NodeId to, bool acked) {
  Table::Entry* entry = table_.find(to);
  if (entry == nullptr) return;
  LinkState& st = entry->data;

  ++st.window_tx;
  if (acked) {
    st.window_acked += 1;
    st.failures_since_success = 0;
  } else {
    st.failures_since_success += 1;
  }

  if (st.window_tx >= config_.unicast_window) {
    double sample;
    if (st.window_acked > 0) {
      sample = static_cast<double>(st.window_tx) /
               static_cast<double>(st.window_acked);
    } else {
      // No ack in the whole window: the estimate is the length of the
      // running failure streak (which may span windows).
      sample = static_cast<double>(st.failures_since_success);
    }
    feed_etx_sample(to, st, sample, /*from_data=*/true);
    st.window_tx = 0;
    st.window_acked = 0;
  }
}

bool FourBitEstimator::pin(NodeId n) {
  const bool pinned = table_.pin(n);
  if (pinned && telemetry_ != nullptr) {
    telemetry_->emit(sim::EventKind::kTablePin, self_, n.value());
  }
  return pinned;
}

void FourBitEstimator::unpin(NodeId n) {
  if (telemetry_ != nullptr && table_.find(n) != nullptr) {
    telemetry_->emit(sim::EventKind::kTableUnpin, self_, n.value());
  }
  table_.unpin(n);
}

void FourBitEstimator::clear_pins() { table_.clear_pins(); }

std::optional<double> FourBitEstimator::etx(NodeId n) const {
  const Table::Entry* entry = table_.find(n);
  if (entry == nullptr || !entry->data.etx.has_value()) return std::nullopt;
  return entry->data.etx.value();
}

std::optional<double> FourBitEstimator::beacon_quality(NodeId n) const {
  const Table::Entry* entry = table_.find(n);
  if (entry == nullptr || !entry->data.beacon_prr.has_value()) {
    return std::nullopt;
  }
  return entry->data.beacon_prr.value();
}

std::vector<NodeId> FourBitEstimator::neighbors() const {
  std::vector<NodeId> out;
  out.reserve(table_.size());
  for (const auto& e : table_.entries()) out.push_back(e.node);
  return out;
}

void FourBitEstimator::link_estimates(
    std::vector<link::LinkEstimate>& out) const {
  out.clear();
  for (const auto& e : table_.entries()) {
    out.push_back(
        link::LinkEstimate{e.node, e.data.etx.has_value(), e.data.etx.value()});
  }
}

bool FourBitEstimator::remove(NodeId n) {
  const Table::Entry* entry = table_.find(n);
  if (entry == nullptr) return true;  // already gone: nothing stale left
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
  if (telemetry_ != nullptr) {
    telemetry_->emit(
        sim::EventKind::kTableEvict, self_, n.value(), 0,
        static_cast<std::uint16_t>(sim::EvictReason::kNetworkRemove));
  }
  return true;
}

void FourBitEstimator::reset() {
  // A reboot loses everything in RAM: the table (pins included), every
  // window in progress, and the beacon sequence counter — neighbors will
  // see OUR seq restart, which is exactly what seq_reset_gap detects on
  // their side. seq_resets_ is harness accounting, not node state.
  table_.clear();
  bump_version();
  beacon_seq_ = 0;
}

}  // namespace fourbit::core
