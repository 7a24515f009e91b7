#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/crc16.hpp"

namespace fourbit::phy {

Channel::Channel(sim::Simulator& sim, PhyConfig phy, PropagationConfig prop,
                 std::unique_ptr<InterferenceModel> interference,
                 sim::Rng rng)
    : sim_(sim),
      phy_(phy),
      propagation_(prop, rng.fork("propagation")),
      interference_(std::move(interference)),
      reception_rng_(rng.fork("reception")),
      lqi_rng_(rng.fork("lqi")),
      ctr_frames_tx_(sim.telemetry().counter("phy", "frames_tx")),
      ctr_cache_rebuilds_(sim.telemetry().counter("phy", "cache_rebuilds")) {
  FOURBIT_ASSERT(interference_ != nullptr, "interference model required");
  bursts_ = dynamic_cast<GilbertElliottInterference*>(interference_.get());
}

Channel::~Channel() {
  // Pooled transmissions live in the Simulator's arena, which never
  // runs destructors; the frame/receiver vectors' deallocate is a no-op
  // but ~ActiveTx must still run for correctness of future changes.
  for (ActiveTx* tx : tx_pool_) tx->~ActiveTx();
}

void Channel::attach(Radio& radio) {
  FOURBIT_ASSERT(is_unicast(radio.id()),
                 "NodeId 0xFFFE/0xFFFF are reserved (invalid/broadcast "
                 "sentinels): the topology overflowed the 16-bit id space");
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    radios_[slot] = &radio;
    radio.set_channel_index(slot);
    // Reusing a tombstoned slot keeps every other slot's rows intact:
    // with a frozen cache only the touched entries need repair, so
    // fault-plan churn (crash/reboot = detach + re-attach) never pays a
    // full rebuild.
    if (cache_valid_) repair_reused_slot(slot);
    return;
  }
  radio.set_channel_index(radios_.size());
  radios_.push_back(&radio);
  // Growing past the all-time slot peak resizes every per-slot array;
  // only then is a full (lazy) rebuild required.
  cache_valid_ = false;
}

void Channel::detach(Radio& radio) {
  const std::size_t slot = radio.channel_index();
  if (slot < radios_.size() && radios_[slot] == &radio) {
    // Tombstone, don't erase: every other radio keeps its slot, so a
    // frozen cache stays frozen. Hot loops skip null slots — the same
    // visit order the compacted scan would have had.
    radios_[slot] = nullptr;
    free_slots_.push_back(slot);
    if (cache_valid_ && slot < slot_cell_.size() &&
        slot_cell_[slot] != kNoCell) {
      const std::size_t cell = slot_cell_[slot];
      std::erase(cells_[cell], static_cast<std::uint32_t>(slot));
      slot_cell_[slot] = kNoCell;
      // Senders near the departed position still hold links to this
      // slot. While it is tombstoned the null checks skip them, but a
      // reuse at a position in a DIFFERENT cell would only repair the new
      // neighborhood and leave these stale (old gains, old flags, applied
      // to the new radio). Scrub them now, while the old cell is known:
      // row construction is neighborhood-symmetric, so only rows in the
      // old 3x3 neighborhood can hold one.
      for_each_neighbor_slot(cell, [&](std::uint32_t s) {
        repair_link(s, static_cast<std::uint32_t>(slot));
      });
      rows_[slot].clear();
    }
  }
  for (ActiveTx* tx : active_) {
    // Tombstone the departing radio's own in-flight transmission: the
    // carrier is gone, so the frame is aborted and must never be
    // delivered (and tx->sender must never be dereferenced again).
    if (tx->sender == &radio) {
      tx->sender = nullptr;
      tx->cached = false;
    }
    // Drop the departing radio from in-flight receptions.
    std::erase_if(tx->receivers,
                  [&](const PendingRx& rx) { return rx.receiver == &radio; });
  }
}

std::uint64_t Channel::link_key(NodeId a, NodeId b) {
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return lo << 32 | hi;
}

void Channel::set_link_outage(NodeId a, NodeId b, double loss) {
  link_faults_[link_key(a, b)] = loss;
}

void Channel::clear_link_outage(NodeId a, NodeId b) {
  link_faults_.erase(link_key(a, b));
}

PowerDbm Channel::rx_power(const Radio& from, const Radio& to) const {
  const Decibels loss = propagation_.loss(from.id(), from.position(), to.id(),
                                          to.position());
  return from.effective_tx_power() - loss;
}

// --- one sender, many receivers -------------------------------------

void Channel::clear_batch() {
  batch_rx_.clear();
  batch_target_.clear();
}

// Inline: the gathers call this once per pair a row lacks, about 1,400
// times per frame at N=10k.
inline void Channel::push_batch(const Radio& receiver, std::uint32_t slot,
                                double* acc) {
  batch_rx_.push_back({receiver.id(), receiver.position()});
  batch_target_.push_back({acc, slot});
}

std::span<const double> Channel::batch_rx_dbm(const Radio& sender) {
  batch_out_.resize(batch_rx_.size());
  propagation_.rx_dbm_batch(sender.id(), sender.position(),
                            sender.effective_tx_power().value(), batch_rx_,
                            batch_out_);
  return batch_out_;
}

// Inline: called once per interferer and usually finding the batch
// empty (complete rows hold every pair); as a call it cost ~8 % of `lpl`.
inline void Channel::add_batch_interference(const Radio& sender) {
  if (!batch_rx_.empty()) evaluate_batch_interference(sender);
}

void Channel::evaluate_batch_interference(const Radio& sender) {
  batch_out_.resize(batch_rx_.size());
  propagation_.gain_mw_batch(sender.id(), sender.position(),
                             sender.effective_tx_power().value(), batch_rx_,
                             batch_out_);
  for (std::size_t j = 0; j < batch_out_.size(); ++j) {
    *batch_target_[j].acc += batch_out_[j];
  }
}

double Channel::snr_db(const Radio& from, const Radio& to) {
  return (rx_power(from, to) - to.noise_floor()).value();
}

double Channel::mean_prr(const Radio& from, const Radio& to,
                         std::size_t mpdu_bytes) {
  return modulation_.packet_reception_ratio(
      snr_db(from, to), mpdu_bytes + phy_.phy_overhead_bytes);
}

// --- link rows ---------------------------------------------------------

void Channel::ensure_cache() {
  if (!cache_valid_) rebuild_cache();
}

void Channel::rebuild_cache() {
  sim::PhaseTimer freeze_timer{sim_.telemetry(),
                               sim::ProfilePhase::kChannelFreeze};
  ++*ctr_cache_rebuilds_;
  n_ = radios_.size();

  rx_cutoff_dbm_.assign(n_, 0.0);
  noise_mw_.assign(n_, 0.0);
  noise_dbm_.assign(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    if (radios_[r] == nullptr) continue;
    rx_cutoff_dbm_[r] =
        (radios_[r]->noise_floor() + phy_.reception_cutoff_margin).value();
    // The exact doubles delivery derives from the radio when no cache is
    // frozen (noise_mw + 0.0 keeps the bit pattern), so the cached-noise
    // SINR is bit-identical.
    noise_mw_[r] = radios_[r]->noise_floor().milliwatts();
    noise_dbm_[r] = PowerDbm::from_milliwatts(noise_mw_[r]).value();
  }

  build_grid();
  rows_.assign(n_, {});
  planes_.assign(n_, {});
  row_candidates_.assign(rows_complete() ? n_ : 0, {});
  for (std::size_t s = 0; s < n_; ++s) rebuild_row(s);
  // Transmissions already in the air keep their flags: slots are stable,
  // and a sender without a slot (detached but alive) cannot gain one.
  cache_valid_ = true;
}

bool Channel::rows_complete() const { return std::isinf(radius_m_); }

Channel::SparseLink Channel::make_link(std::uint32_t r, PowerDbm p) const {
  SparseLink link;
  link.receiver = r;
  link.gain_dbm = p.value();
  link.gain_mw = p.milliwatts();
  link.candidate = p.value() >= rx_cutoff_dbm_[r];
  link.audible = p >= phy_.cca_threshold;
  return link;
}

void Channel::rebuild_row(std::size_t s) {
  std::vector<SparseLink>& row = rows_[s];
  row.clear();
  drop_prr_planes(s);
  const Radio* sender = radios_[s];
  if (sender == nullptr) return;  // tombstoned slot: empty row
  clear_batch();
  for_each_neighbor_slot(slot_cell_[s], [&](std::uint32_t r) {
    if (r != s) push_batch(*radios_[r], r);
  });
  // Exactly the doubles the no-row path computes, or the paths diverge
  // bitwise.
  const std::span<const double> rx_dbm = batch_rx_dbm(*sender);
  if (rows_complete()) {
    row.resize(n_);
    for (std::size_t r = 0; r < n_; ++r) {
      row[r].receiver = static_cast<std::uint32_t>(r);
    }
    for (std::size_t j = 0; j < rx_dbm.size(); ++j) {
      const std::uint32_t r = batch_target_[j].slot;
      row[r] = make_link(r, PowerDbm{rx_dbm[j]});
    }
    std::vector<std::uint32_t>& cands = row_candidates_[s];
    cands.clear();
    for (const SparseLink& link : row) {
      if (link.candidate) cands.push_back(link.receiver);
    }
    return;
  }
  for (std::size_t j = 0; j < rx_dbm.size(); ++j) {
    const std::uint32_t r = batch_target_[j].slot;
    const PowerDbm p{rx_dbm[j]};
    // Below every floor: not stored (and no pow() spent on it).
    if (p.value() < rx_cutoff_dbm_[r] && p < phy_.cca_threshold) continue;
    row.push_back(make_link(r, p));
  }
  // Ascending slot order == the attach order every sender's receivers
  // are visited in, so RNG draw sequences stay bit-identical.
  std::sort(row.begin(), row.end(),
            [](const SparseLink& a, const SparseLink& b) {
              return a.receiver < b.receiver;
            });
}

void Channel::repair_link(std::size_t s, std::uint32_t r) {
  SparseLink link;  // a tombstoned receiver: no link
  link.receiver = r;
  if (radios_[r] != nullptr) {
    link = make_link(r, rx_power(*radios_[s], *radios_[r]));
  }
  std::vector<SparseLink>& row = rows_[s];
  if (complete(row)) {
    row[r] = link;
    // The gain changed: forget its PRR in every plane.
    std::vector<double>& prr = planes_[s].prr;
    for (std::size_t k = r; k < prr.size(); k += n_) prr[k] = kNoPrr;
    std::vector<std::uint32_t>& cands = row_candidates_[s];
    const auto it = std::lower_bound(cands.begin(), cands.end(), r);
    const bool present = it != cands.end() && *it == r;
    if (link.candidate && !present) {
      cands.insert(it, r);
    } else if (!link.candidate && present) {
      cands.erase(it);
    }
    return;
  }
  const auto it = std::lower_bound(
      row.begin(), row.end(), r,
      [](const SparseLink& l, std::uint32_t v) { return l.receiver < v; });
  const bool present = it != row.end() && it->receiver == r;
  if (!link.candidate && !link.audible) {
    if (!present) return;
    row.erase(it);
  } else {
    // A live receiver is repaired only when attach reuses its slot, and
    // detach scrubbed the slot's links before the slot could be reused.
    FOURBIT_ASSERT(!present, "a culled row still holds a reused slot");
    row.insert(it, link);
  }
  // An insert or erase shifts the positions the planes are indexed by.
  drop_prr_planes(s);
}

double* Channel::prr_plane(std::size_t s, std::size_t frame_bytes) {
  PrrPlanes& planes = planes_[s];
  const std::size_t len = rows_[s].size();
  if (len == 0) return nullptr;
  const std::size_t used = planes.prr.size() / len;
  std::size_t k = 0;
  while (k < used && planes.bytes[k] != frame_bytes) ++k;
  if (k == kPrrPlanes) {
    // No plane for this size and no room: the least recently used size
    // gives way.
    k = kPrrPlanes - 1;
    std::fill_n(planes.prr.data() + planes.plane[k] * len, len, kNoPrr);
  } else if (k == used) {
    planes.plane[k] = static_cast<std::uint8_t>(used);
    planes.prr.reserve(planes.prr.size() + len);  // exactly one plane more
    planes.prr.resize(planes.prr.size() + len, kNoPrr);
  }
  // Most recently used first.
  const std::uint8_t plane = planes.plane[k];
  for (; k > 0; --k) {
    planes.bytes[k] = planes.bytes[k - 1];
    planes.plane[k] = planes.plane[k - 1];
  }
  planes.bytes[0] = frame_bytes;
  planes.plane[0] = plane;
  return planes.prr.data() + plane * len;
}

double Channel::receive_floor_radius(double max_tx_dbm,
                                     double floor_dbm) const {
  const PropagationConfig& pc = propagation_.config();
  const double headroom =
      phy_.spatial_headroom_sigmas *
      std::sqrt(pc.shadowing_sigma_db * pc.shadowing_sigma_db +
                pc.asymmetry_sigma_db * pc.asymmetry_sigma_db);
  // Strongest transmitter, weakest floor, headroom sigmas of favorable
  // shadowing: beyond this distance deterministic path loss alone keeps
  // every pair below every culling threshold.
  const double excess = (max_tx_dbm - floor_dbm + headroom) -
                        pc.reference_loss.value();
  if (excess <= 0.0) return 0.5;
  return std::max(0.5, std::pow(10.0, excess / (10.0 * pc.exponent)));
}

void Channel::build_grid() {
  double min_x = 1e300, min_y = 1e300, max_x = -1e300, max_y = -1e300;
  double max_tx = -1e300;
  double min_floor = 1e300;
  std::size_t live = 0;
  for (const Radio* r : radios_) {
    if (r == nullptr) continue;
    ++live;
    min_x = std::min(min_x, r->position().x);
    min_y = std::min(min_y, r->position().y);
    max_x = std::max(max_x, r->position().x);
    max_y = std::max(max_y, r->position().y);
    max_tx = std::max(max_tx, r->effective_tx_power().value());
    min_floor = std::min(
        min_floor, (r->noise_floor() + phy_.reception_cutoff_margin).value());
  }
  // The radius must also cover every CCA-audible pair, not just
  // reception candidates.
  min_floor = std::min(min_floor, phy_.cca_threshold.value());
  cells_.clear();
  slot_cell_.assign(n_, kNoCell);
  origin_x_ = origin_y_ = 0.0;
  if (!phy_.use_spatial_index) {
    // Nothing is culled: an infinite radius, one cell, complete rows,
    // and no tx power, floor or position can void the grid.
    radius_m_ = cell_size_m_ = std::numeric_limits<double>::infinity();
    grid_cols_ = grid_rows_ = 1;
    max_tx_dbm_ = std::numeric_limits<double>::infinity();
    min_floor_dbm_ = -std::numeric_limits<double>::infinity();
  } else if (live == 0) {
    radius_m_ = 0.5;
    cell_size_m_ = 1.0;
    grid_cols_ = grid_rows_ = 0;
    max_tx_dbm_ = -1e300;
    min_floor_dbm_ = 1e300;
    return;
  } else {
    max_tx_dbm_ = max_tx;
    min_floor_dbm_ = min_floor;
    radius_m_ = receive_floor_radius(max_tx, min_floor);
    cell_size_m_ = std::max(radius_m_, 1e-3);
    origin_x_ = min_x;
    origin_y_ = min_y;
    auto dims = [&]() {
      grid_cols_ =
          static_cast<std::size_t>((max_x - min_x) / cell_size_m_) + 1;
      grid_rows_ =
          static_cast<std::size_t>((max_y - min_y) / cell_size_m_) + 1;
    };
    dims();
    // A few nodes scattered over a huge extent must not allocate a huge
    // grid: coarsen cells until the grid is O(live). Cells only ever grow
    // past the radius, so the 3x3 neighborhood scan stays sufficient.
    while (grid_cols_ * grid_rows_ > 16 * live + 16) {
      cell_size_m_ *= 2.0;
      dims();
    }
  }
  cells_.assign(grid_cols_ * grid_rows_, {});
  for (std::size_t s = 0; s < n_; ++s) {
    if (radios_[s] == nullptr) continue;
    const std::size_t cell = cell_of(radios_[s]->position());
    cells_[cell].push_back(static_cast<std::uint32_t>(s));
    slot_cell_[s] = static_cast<std::uint32_t>(cell);
  }
}

std::size_t Channel::cell_of(const Position& p) const {
  // An infinite cell size puts every position in cell 0.
  const double fx = std::max(0.0, (p.x - origin_x_) / cell_size_m_);
  const double fy = std::max(0.0, (p.y - origin_y_) / cell_size_m_);
  const std::size_t cx =
      std::min(grid_cols_ - 1, static_cast<std::size_t>(fx));
  const std::size_t cy =
      std::min(grid_rows_ - 1, static_cast<std::size_t>(fy));
  return cy * grid_cols_ + cx;
}

bool Channel::grid_covers(const Position& p) const {
  if (rows_complete()) return true;
  if (grid_cols_ == 0 || grid_rows_ == 0) return false;
  return p.x >= origin_x_ && p.y >= origin_y_ &&
         p.x <= origin_x_ + static_cast<double>(grid_cols_) * cell_size_m_ &&
         p.y <= origin_y_ + static_cast<double>(grid_rows_) * cell_size_m_;
}

void Channel::repair_reused_slot(std::size_t slot) {
  FOURBIT_ASSERT(slot < n_, "slot reuse beyond the frozen cache");
  Radio& radio = *radios_[slot];
  const double cutoff_dbm =
      (radio.noise_floor() + phy_.reception_cutoff_margin).value();
  if (radio.effective_tx_power().value() > max_tx_dbm_ ||
      cutoff_dbm < min_floor_dbm_ || !grid_covers(radio.position())) {
    // A louder transmitter, a more sensitive receiver (reception cutoff
    // below the weakest floor the radius was derived from — senders
    // beyond the 3x3 neighborhood could now be audible), or a position
    // off the frozen grid voids the receive-floor cull; fall back to a
    // full rebuild on next use.
    cache_valid_ = false;
    return;
  }
  rx_cutoff_dbm_[slot] = cutoff_dbm;
  noise_mw_[slot] = radio.noise_floor().milliwatts();
  noise_dbm_[slot] = PowerDbm::from_milliwatts(noise_mw_[slot]).value();

  const std::size_t cell = cell_of(radio.position());
  cells_[cell].push_back(static_cast<std::uint32_t>(slot));
  slot_cell_[slot] = static_cast<std::uint32_t>(cell);
  rebuild_row(slot);
  // Touched-cell column repair: only senders within the 3x3 cell
  // neighborhood can be above a culling floor with this slot, and any
  // links held near the OLD position were scrubbed at detach — so the
  // new neighborhood is the whole column.
  for_each_neighbor_slot(cell, [&](std::uint32_t s) {
    if (s != slot) repair_link(s, static_cast<std::uint32_t>(slot));
  });
}

void Channel::on_tx_power_changed(const Radio& radio) {
  // A dirty cache re-derives everything on next use anyway; only a
  // frozen cache holds stale powers for this sender's row.
  if (!cache_valid_ || !has_cache_slot(radio)) return;
  if (radio.effective_tx_power().value() > max_tx_dbm_) {
    // Louder than the radius was derived for: the cull may now miss
    // candidates, so pay one full rebuild instead of guessing.
    cache_valid_ = false;
    return;
  }
  rebuild_row(radio.channel_index());
}

std::size_t Channel::candidate_count(const Radio& sender) {
  if (phy_.use_link_cache) ensure_cache();
  std::size_t count = 0;
  if (cache_valid_ && has_cache_slot(sender)) {
    for (const SparseLink& link : rows_[sender.channel_index()]) {
      if (link.candidate && radios_[link.receiver] != nullptr) ++count;
    }
    return count;
  }
  // No row: count per pair, without building any.
  for (const Radio* r : radios_) {
    if (r == nullptr || r == &sender) continue;
    if (rx_power(sender, *r) >=
        r->noise_floor() + phy_.reception_cutoff_margin) {
      ++count;
    }
  }
  return count;
}

// --- ActiveTx pool ----------------------------------------------------

Channel::ActiveTx* Channel::acquire_tx() {
  if (!tx_free_.empty()) {
    ActiveTx* tx = tx_free_.back();
    tx_free_.pop_back();
    return tx;
  }
  tx_pool_.push_back(sim_.arena().create<ActiveTx>(sim_.arena()));
  return tx_pool_.back();
}

void Channel::release_tx(ActiveTx* tx) {
  tx->sender = nullptr;
  tx->cached = false;
  tx->frame.clear();      // keeps capacity: the next frame reuses it
  tx->receivers.clear();  // likewise
  tx_free_.push_back(tx);
}

// --- air interface ----------------------------------------------------

bool Channel::busy_at(const Radio& listener) {
  const sim::Time now = sim_.now();
  if (phy_.use_link_cache) ensure_cache();
  // A detached-but-alive listener has no slot, so no row can hold it.
  const bool has_slot = cache_valid_ && has_cache_slot(listener);
  const auto li = static_cast<std::uint32_t>(listener.channel_index());
  for (const ActiveTx* tx : active_) {
    if (tx->sender == &listener || tx->sender == nullptr) continue;
    if (tx->end <= now) continue;
    if (has_slot && tx->cached) {
      // The row is authoritative for audibility: a pair it lacks is
      // below the CCA threshold.
      const SparseLink* link = find_link(tx->sender_index, li);
      if (link != nullptr && link->audible) return true;
    } else if (rx_power(*tx->sender, listener) >= phy_.cca_threshold) {
      // One listener against many senders has no one-sender batch to
      // form; the single pair is the same double the batch computes.
      return true;
    }
  }
  return false;
}

// Inline: pass A calls this once per interference-free reception, and an
// out-of-line call there cost ~5 % of `lpl` throughput on a 4-vCPU Xeon
// VM (DESIGN.md §8.15).
inline double* Channel::prr_memo(const ActiveTx& tx, const PendingRx& rx,
                                 double* plane) {
  // An entry is trusted only while the row still holds the gain this
  // reception captured: a mid-flight tx-power change re-derives the row,
  // and in-flight frames keep their old power.
  const SparseLink* link = find_link(tx.sender_index, rx.receiver_index);
  if (link == nullptr || link->gain_dbm != rx.rx_power.value()) {
    return nullptr;
  }
  return plane + (link - rows_[tx.sender_index].data());
}

void Channel::gather_receivers(const ActiveTx& tx, sim::Time now) {
  scratch_rx_.clear();
  scratch_slot_.clear();
  scratch_gain_dbm_.clear();
  const auto take = [&](std::uint32_t slot, double gain_dbm) {
    Radio* r = radios_[slot];
    if (r == nullptr) return;  // tombstoned slot: receiver is gone
    // A sleeping receiver (LPL between samples) hears nothing.
    if (!r->listening()) return;
    // Half-duplex: a radio mid-transmission cannot hear this packet. (A
    // radio that *starts* transmitting later overlaps too, but CSMA
    // makes that rare and the additive-interference model already
    // punishes it.)
    if (r->transmitting_until() > now) return;
    scratch_rx_.push_back(r);
    scratch_slot_.push_back(slot);
    scratch_gain_dbm_.push_back(gain_dbm);
  };
  if (tx.cached) {
    const std::vector<SparseLink>& row = rows_[tx.sender_index];
    if (complete(row)) {
      for (const std::uint32_t r : row_candidates_[tx.sender_index]) {
        take(r, row[r].gain_dbm);
      }
    } else {
      for (const SparseLink& link : row) {
        if (link.candidate) take(link.receiver, link.gain_dbm);
      }
    }
    return;
  }
  // No row: one batch over every other live radio, in slot order; the
  // reception cutoff then applies to the computed powers.
  clear_batch();
  for (std::size_t slot = 0; slot < radios_.size(); ++slot) {
    const Radio* r = radios_[slot];
    if (r != nullptr && r != tx.sender) {
      push_batch(*r, static_cast<std::uint32_t>(slot));
    }
  }
  const std::span<const double> rx_dbm = batch_rx_dbm(*tx.sender);
  for (std::size_t j = 0; j < rx_dbm.size(); ++j) {
    const std::uint32_t slot = batch_target_[j].slot;
    if (PowerDbm{rx_dbm[j]} >=
        radios_[slot]->noise_floor() + phy_.reception_cutoff_margin) {
      take(slot, rx_dbm[j]);
    }
  }
}

void Channel::start_transmission(Radio& sender,
                                 std::span<const std::uint8_t> frame,
                                 Radio::TxDoneHandler done) {
  FOURBIT_ASSERT(!sender.transmitting(),
                 "radio cannot start a second concurrent transmission");
  if (phy_.use_link_cache) ensure_cache();

  const sim::Time now = sim_.now();
  const sim::Duration airtime = phy_.airtime(frame.size());
  const sim::Time end = now + airtime;
  sender.set_transmitting_until(end);
  ++frames_transmitted_;
  ++*ctr_frames_tx_;
  // kDebug: per-frame events only ring/export when explicitly asked for.
  sim_.telemetry().emit(sim::EventKind::kPhyFrame, sender.id().value(),
                        0xFFFF, static_cast<std::uint16_t>(frame.size()));
  if (tx_observer_) {
    tx_observer_(sender.id(), airtime, sender.effective_tx_power());
  }

  ActiveTx* tx = acquire_tx();
  tx->sender = &sender;
  tx->cached = cache_valid_ && has_cache_slot(sender);
  tx->sender_index =
      tx->cached ? static_cast<std::uint32_t>(sender.channel_index()) : 0;
  tx->start = now;
  tx->end = end;
  tx->frame.assign(frame.begin(), frame.end());

  // Gather the candidate receivers (contiguous scratch arrays, slot
  // order), then seed their interference with the transmissions already
  // in the air: outer over active transmissions, inner over the gathered
  // receivers. Each receiver's accumulator adds its terms in active-set
  // order whichever source a term comes from, so every sum is the same
  // with or without rows.
  gather_receivers(*tx, now);
  const std::size_t m = scratch_rx_.size();
  scratch_interf_.assign(m, 0.0);
  double* acc = scratch_interf_.data();
  const std::uint32_t* slots = scratch_slot_.data();
  for (const ActiveTx* other : active_) {
    if (other->sender == nullptr || other->end <= now) continue;
    // Pairs in the interferer's row add the stored gain; the rest go
    // through one propagation batch. Each accumulator takes exactly one
    // term per interferer, so the deferred adds keep every sum's order.
    clear_batch();
    for (std::size_t i = 0; i < m; ++i) {
      if (const SparseLink* link = stored_link(*other, slots[i]);
          link != nullptr) {
        acc[i] += link->gain_mw;
      } else {
        push_batch(*scratch_rx_[i], slots[i], &acc[i]);
      }
    }
    add_batch_interference(*other->sender);
  }
  tx->receivers.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    tx->receivers.push_back(PendingRx{scratch_rx_[i], scratch_slot_[i],
                                      PowerDbm{scratch_gain_dbm_[i]},
                                      scratch_interf_[i]});
  }

  // This transmission interferes with every reception already in flight:
  // the per-receiver accumulators are maintained incrementally, never
  // rescanned. Receptions on the new sender's row add the stored gain;
  // every other one goes through one propagation batch. Each accumulator
  // takes exactly one term here, so deferring the batched adds reorders
  // nothing.
  clear_batch();
  for (ActiveTx* other : active_) {
    if (other->end <= now) continue;
    for (PendingRx& rx : other->receivers) {
      if (rx.receiver == &sender) continue;
      if (const SparseLink* link = stored_link(*tx, rx.receiver_index);
          link != nullptr) {
        rx.interference_mw += link->gain_mw;
      } else {
        push_batch(*rx.receiver, rx.receiver_index, &rx.interference_mw);
      }
    }
  }
  add_batch_interference(sender);

  active_.push_back(tx);

  sim_.schedule_at(end, [this, tx, done = std::move(done)]() {
    finish_transmission(tx);
    if (done) done();
  });
}

void Channel::deliver_corrupt(Radio& r, const ActiveTx& tx,
                              const PendingRx& rx, double sinr_db) {
  if (!phy_.deliver_corrupt_frames) return;
  if (sinr_db < phy_.corrupt_delivery_min_sinr_db) return;
  // The radio locked onto the preamble but the payload is damaged: flip
  // a few bytes and deliver with fcs_ok = false (crc_ok stays false). The
  // MAC drops it; only the "heard garbage" fact is observable. This is the
  // one path that needs a mutable copy of the frame bytes (it must
  // mangle them); the copy goes into a reused member buffer, safe
  // because deliveries never nest (finish events are never synchronous).
  std::vector<std::uint8_t>& mangled = corrupt_scratch_;
  mangled.assign(tx.frame.begin(), tx.frame.end());
  const std::size_t flips = 1 + reception_rng_.uniform_int(3);
  for (std::size_t i = 0; i < flips && !mangled.empty(); ++i) {
    const std::size_t pos = reception_rng_.uniform_int(mangled.size());
    mangled[pos] ^= static_cast<std::uint8_t>(
        1 + reception_rng_.uniform_int(255));
  }
  r.deliver(mangled, RxInfo::corrupt(rx.rx_power,
                                     (rx.rx_power - r.noise_floor()).value()));
}

void Channel::finish_transmission(ActiveTx* tx) {
  // End-time-ordered removal: each transmission's own finish event takes
  // it out of the active set, so CCA samples never pay a prune scan.
  std::erase(active_, tx);

  // Tombstoned sender (detached mid-flight): the frame died with it.
  if (tx->sender == nullptr) {
    release_tx(tx);
    return;
  }

  const std::size_t frame_bytes = tx->frame.size() + phy_.phy_overhead_bytes;

  // While the cache is frozen, every pending receiver_index is a live
  // slot it covers, so the passes can read the precomputed noise terms
  // and the sender's PRR plane for this frame size, found once per frame.
  // Otherwise — no rows at all, or an attach past the slot peak while
  // this frame was in the air — they derive the noise from the radio and
  // skip the memo.
  const bool frozen = cache_valid_;
  double* const plane =
      frozen && tx->cached ? prr_plane(tx->sender_index, frame_bytes)
                           : nullptr;

  // Pass A computes every receiver's SINR and PRR into contiguous
  // scratch arrays (memo hits served in place, the misses funneled
  // through Modulation::prr_batch in row order); pass B then runs the
  // sequential control flow — half-duplex check, fault draw, reception
  // draw, burst draw, corrupt delivery, LQI draw — consuming the
  // precomputed values. PRR evaluation draws no RNG and distinct receivers own
  // distinct memo slots, so hoisting it out of the sequential loop
  // (including for receivers pass B skips) leaves every random draw and
  // every delivered byte bitwise unchanged.
  const std::size_t m = tx->receivers.size();
  scratch_sinr_.resize(m);
  scratch_prr_.resize(m);
  scratch_miss_.clear();
  scratch_miss_sinr_.clear();
  scratch_miss_memo_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    const PendingRx& rx = tx->receivers[i];
    double* memo = nullptr;
    if (frozen && rx.interference_mw == 0.0) {
      // noise_dbm_ is from_milliwatts(noise_mw_), the same double the
      // general formula below yields with zero interference.
      scratch_sinr_[i] = rx.rx_power.value() - noise_dbm_[rx.receiver_index];
      // Interference-free PRR is a pure function of (pair gain, frame
      // size), so it is served from the plane when it holds one.
      if (plane != nullptr) memo = prr_memo(*tx, rx, plane);
      if (memo != nullptr && *memo != kNoPrr) {
        scratch_prr_[i] = *memo;
        continue;
      }
    } else {
      const double noise_mw = frozen ? noise_mw_[rx.receiver_index]
                                     : rx.receiver->noise_floor().milliwatts();
      scratch_sinr_[i] =
          rx.rx_power.value() -
          PowerDbm::from_milliwatts(noise_mw + rx.interference_mw).value();
    }
    scratch_miss_.push_back(static_cast<std::uint32_t>(i));
    scratch_miss_sinr_.push_back(scratch_sinr_[i]);
    scratch_miss_memo_.push_back(memo);  // written back after the batch
  }

  scratch_miss_prr_.resize(scratch_miss_.size());
  {
    sim::PhaseTimer kernel_timer{sim_.telemetry(),
                                 sim::ProfilePhase::kBatchKernel};
    modulation_.prr_batch(scratch_miss_sinr_, frame_bytes, scratch_miss_prr_);
  }
  for (std::size_t j = 0; j < scratch_miss_.size(); ++j) {
    const double prr = scratch_miss_prr_[j];
    scratch_prr_[scratch_miss_[j]] = prr;
    if (double* memo = scratch_miss_memo_[j]; memo != nullptr) *memo = prr;
  }

  // Every clean receiver gets the same bytes, so the FCS is checked once
  // per transmission, at the first clean delivery (the CC2420's AUTOCRC
  // does this in hardware). The check draws no RNG.
  std::optional<bool> crc_ok;
  const WhiteBitRule white_rule = WhiteBitRule::of(phy_);
  for (std::size_t i = 0; i < m; ++i) {
    const PendingRx& rx = tx->receivers[i];
    Radio& r = *rx.receiver;
    // The receiver may have begun transmitting after this packet started
    // (its CSMA lost the race); half-duplex kills the reception.
    if (r.transmitting_until() > tx->start) continue;

    // Fault injection: a forced outage on this pair drops the frame
    // before the physical model sees it (an obstructed or detuned path
    // leaves no LQI trace, like burst interference).
    if (!link_faults_.empty()) {
      const auto fault = link_faults_.find(link_key(tx->sender->id(), r.id()));
      if (fault != link_faults_.end() &&
          reception_rng_.bernoulli(fault->second)) {
        continue;
      }
    }

    const double sinr_db = scratch_sinr_[i];
    if (!reception_rng_.bernoulli(scratch_prr_[i])) {
      deliver_corrupt(r, *tx, rx, sinr_db);
      continue;
    }

    // External burst interference destroys whole packets independent of
    // chip quality (see header comment).
    const double burst =
        bursts_ != nullptr
            ? bursts_->destroy_probability(r.id(), tx->start, tx->end)
            : interference_->destroy_probability(r.id(), tx->start, tx->end);
    if (burst > 0.0 && reception_rng_.bernoulli(burst)) {
      deliver_corrupt(r, *tx, rx, sinr_db);
      continue;
    }

    // LQI reflects the thermal-only SNR of this (successfully received)
    // packet. Its noise is drawn here, in delivery order, whether or not
    // a layer reads it; RxInfo evaluates the reading on the first read.
    RxInfo info{rx.rx_power, (rx.rx_power - r.noise_floor()).value(),
                lqi_rng_.normal_draw(), white_rule};
    if (!crc_ok.has_value()) crc_ok = crc16_trailer_ok(tx->frame);
    info.crc_ok = *crc_ok;
    r.deliver(tx->frame, info);
  }

  release_tx(tx);
}

}  // namespace fourbit::phy
