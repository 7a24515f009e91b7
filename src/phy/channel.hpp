// The shared broadcast medium.
//
// Reception model per transmission and candidate receiver:
//   SINR = rx_power / (receiver noise floor + sum of concurrent
//          transmissions' powers at the receiver)
//   PRR  = (1 - BER(SINR))^(8 * frame bytes)           [O-QPSK DSSS]
// then an independent burst-interference process may destroy the packet
// outright (whole-packet loss that leaves no LQI trace). LQI and the
// white bit follow from the thermal-only SNR of packets that made it
// through — received packets look clean even on a lossy link, which is
// the physical effect the paper's white bit (and MultiHopLQI's failure
// mode) hinges on. Each clean delivery takes its LQI noise draw from the
// `lqi` stream in delivery order; RxInfo evaluates the reading and the
// white bit only when a layer reads them (DESIGN.md §8.22).
//
// One row store feeds that model. On topology freeze the channel bins
// live radios into a uniform grid and gives every sender a row of
// SparseLink entries sorted by receiver slot: rx power in dBm and mW, a
// reception-candidate flag (above noise_floor + reception_cutoff_margin)
// and a CCA-audible flag. Beside each row sit its PRR planes: one
// interference-free PRR memo per frame size the sender has used. Without
// PhyConfig::use_spatial_index the grid is one cell and every row is
// complete — one entry per slot, indexed by slot with no search, plus a
// list of the row's candidate slots. With it, the cell size is a
// conservative receive-floor radius and a row keeps only the pairs above
// the reception or CCA floor, found by a 3x3 cell scan: O(N·degree)
// memory and freeze cost instead of O(N²).
//
// Every kernel follows one rule: a pair's gain comes from the sender's
// row when the row holds it, and from the propagation model otherwise —
// PropagationModel::rx_dbm_batch / gain_mw_batch, one call per sender
// over all of its receivers that the row lacks. A sender with no row
// (PhyConfig::use_link_cache = false, or a radio detached while it still
// transmits) takes every term from the batch: the reference the
// delivery-digest tests compare against is the same loop run with no
// rows. A row is authoritative for who is a candidate and who hears the
// carrier; only interference sums reach past it. The stored doubles are
// the ones the model computes, receivers are visited in slot (attach)
// order and every sum adds the same terms in the same order, so RNG draw
// sequences and all metrics are bit-identical with or without rows
// (tests/channel_fastpath_test.cpp, tests/channel_sparse_test.cpp; with
// culled rows, up to the shadowing headroom of DESIGN.md §8.8).
//
// start_transmission gathers the sender's candidates into contiguous
// arrays and accumulates interference outer over the active
// transmissions; finish_transmission computes every receiver's SINR and
// PRR in one pass (misses batched through Modulation::prr_batch,
// interference-free pairs served from the sender's PRR plane for the
// frame's size while the cache is frozen) before the sequential pass
// that draws the RNG (fault, reception, burst, corruption and LQI
// noise).
//
// Radios occupy stable slots: detach tombstones a slot and attach reuses
// it (repairing only the touched rows when a cache is frozen), so
// fault-plan churn — crash/reboot cycles that destroy and re-create a
// radio — never forces a full rebuild. The `phy/cache_rebuilds`
// telemetry counter counts full rebuilds.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "phy/config.hpp"
#include "phy/interference.hpp"
#include "phy/modulation.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace fourbit::phy {

class Channel {
 public:
  /// Observer of every frame put on the air (sender, airtime, power) —
  /// the hook energy accounting attaches to.
  using TxObserver =
      std::function<void(NodeId, sim::Duration, PowerDbm)>;

  Channel(sim::Simulator& sim, PhyConfig phy, PropagationConfig prop,
          std::unique_ptr<InterferenceModel> interference, sim::Rng rng);

  /// Runs the destructors of the arena-pooled transmissions (the arena
  /// itself never frees; the Simulator must outlive the Channel).
  ~Channel();

  void set_tx_observer(TxObserver observer) {
    tx_observer_ = std::move(observer);
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] const PhyConfig& phy() const { return phy_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Adds `radio` to the medium in a stable slot (a tombstoned slot is
  /// reused before the slot count grows). Asserts the radio's NodeId is
  /// not one of the reserved addresses (0xFFFE/0xFFFF) — the fail-fast
  /// backstop against topologies overflowing the 16-bit id space. With a
  /// frozen cache, slot reuse repairs only the touched rows/cells;
  /// growing past the all-time slot peak still rebuilds.
  void attach(Radio& radio);

  /// Removes `radio` from the medium: it hears nothing from now on, and
  /// any of its own transmissions still in the air are aborted (the
  /// carrier died mid-frame; nothing is delivered). Safe to call with
  /// receptions or the radio's own transmission in flight — in-flight
  /// state is scrubbed/tombstoned, never left dangling. The slot is
  /// tombstoned, not erased, so a frozen cache stays frozen; every stored
  /// link to the slot is dropped, so a later reuse at any position starts
  /// from a clean column.
  ///
  /// Detach makes a radio deaf, not mute. A radio that outlives its
  /// detach (runner::Network detaches without destroying) can still
  /// transmit: its later frames go on the air and reach every attached
  /// receiver, and its CCA still senses them. Having no slot, it has no
  /// row, so every term of those frames comes from the propagation batch.
  void detach(Radio& radio);

  // --- Fault injection -------------------------------------------------

  /// Forces the (symmetric) link a<->b to drop each frame with
  /// probability `loss` on top of the physical model (1.0 = total
  /// blackout). Replaces any previous outage on the same pair. A random
  /// draw is consumed per frame ONLY on faulted links, so runs without
  /// faults keep their exact RNG sequence.
  void set_link_outage(NodeId a, NodeId b, double loss);

  /// Lifts a forced outage (no-op if none is active on the pair).
  void clear_link_outage(NodeId a, NodeId b);

  [[nodiscard]] std::size_t active_link_outages() const {
    return link_faults_.size();
  }

  /// Called by Radio::transmit. Copies the frame bytes into a pooled
  /// arena-backed buffer before returning, so the caller's buffer is
  /// reusable immediately and steady-state transmission allocates
  /// nothing.
  void start_transmission(Radio& sender,
                          std::span<const std::uint8_t> frame,
                          Radio::TxDoneHandler done);

  /// Energy-detect CCA at `listener`: any concurrent transmission whose
  /// power at the listener exceeds the CCA threshold reads busy.
  [[nodiscard]] bool busy_at(const Radio& listener);

  /// Called by Radio::set_tx_power: re-derives the sender's row of the
  /// link cache (its cached rx powers embed the old tx power).
  void on_tx_power_changed(const Radio& radio);

  // --- Analytic helpers (no randomness consumed, no interference) -----

  /// Thermal-only SNR of `from`'s signal at `to`.
  [[nodiscard]] double snr_db(const Radio& from, const Radio& to);

  /// Expected PRR of an isolated `mpdu_bytes` frame from->to, thermal
  /// noise only. Used by topology calibration and tests.
  [[nodiscard]] double mean_prr(const Radio& from, const Radio& to,
                                std::size_t mpdu_bytes);

  /// Total frames put on the air (all types), for overhead accounting.
  [[nodiscard]] std::uint64_t frames_transmitted() const {
    return frames_transmitted_;
  }

  // --- Introspection (tests, benchmarks) -------------------------------

  /// True once the fast-path link cache has been built and not
  /// invalidated since.
  [[nodiscard]] bool link_cache_frozen() const { return cache_valid_; }

  /// Reception candidates of `sender` (live receivers above the cutoff
  /// margin). With the link cache on this freezes the cache on demand and
  /// counts the sender's row; a sender with no row is counted per pair —
  /// introspection must not build rows in configs that run without them.
  [[nodiscard]] std::size_t candidate_count(const Radio& sender);

  /// Full cache rebuilds so far (also exported as the telemetry counter
  /// `phy/cache_rebuilds`). Incremental slot repair keeps this flat
  /// through fault-plan churn.
  [[nodiscard]] std::uint64_t cache_rebuilds() const {
    return *ctr_cache_rebuilds_;
  }

  /// Receive-floor radius of the frozen spatial index, in meters (0 when
  /// rows are complete or the cache is not frozen).
  [[nodiscard]] double spatial_radius_m() const {
    return cache_valid_ && !rows_complete() ? radius_m_ : 0.0;
  }

 private:
  struct PendingRx {
    Radio* receiver;
    std::uint32_t receiver_index;  // the receiver's slot
    PowerDbm rx_power;
    double interference_mw;  // accumulated concurrent-tx power
  };

  using ArenaBytes =
      std::vector<std::uint8_t, sim::ArenaAllocator<std::uint8_t>>;
  using ArenaRxVec = std::vector<PendingRx, sim::ArenaAllocator<PendingRx>>;

  /// One frame in the air. Pooled: acquired in start_transmission,
  /// released when the finish event fires. The object and its frame /
  /// receiver buffers all live in the Simulator's per-trial arena and
  /// keep their capacity across reuse, so steady-state transmission
  /// performs zero allocator round trips.
  struct ActiveTx {
    explicit ActiveTx(sim::Arena& arena)
        : frame(sim::ArenaAllocator<std::uint8_t>{arena}),
          receivers(sim::ArenaAllocator<PendingRx>{arena}) {}
    Radio* sender = nullptr;  // nullptr = tombstone (sender detached)
    std::uint32_t sender_index = 0;
    bool cached = false;  // sender had a row when this tx started
    sim::Time start;
    sim::Time end;
    ArenaBytes frame;
    ArenaRxVec receivers;
  };

  [[nodiscard]] PowerDbm rx_power(const Radio& from, const Radio& to) const;
  void finish_transmission(ActiveTx* tx);
  void deliver_corrupt(Radio& r, const ActiveTx& tx, const PendingRx& rx,
                       double sinr_db);

  // --- link rows ---------------------------------------------------------
  /// One stored link of a sender's row: rx power both in dBm (thresholds,
  /// SINR) and milliwatts (interference sums; stored so a term costs no
  /// pow()), and the candidate and audible flags. The PRR memo lives
  /// beside the row, in its PRR planes.
  struct SparseLink {
    std::uint32_t receiver = 0;   // slot index, ascending within a row
    bool candidate = false;       // above the receiver's reception cutoff
    bool audible = false;         // above the CCA threshold
    double gain_dbm = 0.0;
    double gain_mw = 0.0;
  };
  // Eight links per three cache lines; a link and its entry in one PRR
  // plane take 32 bytes.
  static_assert(sizeof(SparseLink) == 24);

  /// Frame sizes one row memoizes PRR for. A CTP-style sender uses three
  /// (ack, beacon, data), but a beacon that carries link-table entries
  /// changes size as the table fills. A further size takes over the
  /// plane of the least recently used size, so acks and data, sent all
  /// the time, keep theirs.
  static constexpr std::size_t kPrrPlanes = 4;
  /// A plane entry not computed yet (a PRR is never negative).
  static constexpr double kNoPrr = -1.0;
  /// One sender row's PRR memo. Interference-free PRR is a pure function
  /// of (pair gain, frame size), so the frame sizes the sender has used
  /// since its row was derived, kPrrPlanes at most, each get a plane: one
  /// double per link, indexed by the link's position in the row (its
  /// slot, in a complete row). An entry is trusted only while the link's `gain_dbm` still
  /// equals the power a reception captured: a mid-flight tx-power change
  /// re-derives the row, and in-flight frames keep their old power.
  struct PrrPlanes {
    // The sizes that have a plane, most recently used first, and where
    // each one's plane sits in `prr`. prr.size() / row size of them are
    // in use.
    std::array<std::size_t, kPrrPlanes> bytes{};
    std::array<std::uint8_t, kPrrPlanes> plane{};
    std::vector<double> prr;  // plane p: [p * row size, (p + 1) * row size)
  };

  void ensure_cache();
  void rebuild_cache();
  /// True when the frozen grid culls nothing (no spatial index): one
  /// cell, and every row complete.
  [[nodiscard]] bool rows_complete() const;
  /// A complete row holds one entry per slot (self and tombstones
  /// included, flags clear); a culled row never holds its own sender, so
  /// it is always shorter.
  [[nodiscard]] bool complete(const std::vector<SparseLink>& row) const {
    return row.size() == n_;
  }
  /// Re-derives sender `s`'s row from the propagation model: one batch
  /// over the live slots of its 3x3 cell neighborhood (every live slot
  /// when the grid is one cell). Drops the row's PRR planes.
  void rebuild_row(std::size_t s);
  /// Sender `s`'s PRR plane for `frame_bytes`-byte frames, allocated on
  /// the first frame of that size, or taken over from the least recently
  /// used size once the row has kPrrPlanes, with every entry kNoPrr; null
  /// when the row is empty. An empty row (a detached sender's) never
  /// serves a plane, so detach leaves its planes be: a reuse re-derives
  /// the row through rebuild_row, which drops them.
  [[nodiscard]] double* prr_plane(std::size_t s, std::size_t frame_bytes);
  /// Forgets every PRR memo of sender `s`'s row (its length or its links
  /// changed).
  void drop_prr_planes(std::size_t s) { planes_[s].prr.clear(); }
  /// The link from a pair's rx power, flags set against receiver `r`'s
  /// reception cutoff and the CCA threshold.
  [[nodiscard]] SparseLink make_link(std::uint32_t r, PowerDbm p) const;
  /// Re-derives sender `s`'s link to receiver slot `r` from the live
  /// pair: inserts or erases the entry of a culled row, rewrites the
  /// entry of a complete row. A tombstoned receiver gets no link. A
  /// culled row never holds a live receiver's entry when it is repaired
  /// (detach scrubs a slot's links before a reuse), which is asserted. A
  /// complete row clears the link's entry in every PRR plane; a culled
  /// row that changed drops its planes (an insert or erase shifts
  /// positions).
  void repair_link(std::size_t s, std::uint32_t r);
  /// Incremental repair when attach reuses tombstoned slot `slot` while
  /// a cache is frozen: re-derives the slot's own row plus every other
  /// sender's link to it — the senders in the 3x3 cell neighborhood of
  /// the new radio's position (links held near the OLD position were
  /// scrubbed at detach). A reused slot the frozen radius cannot vouch
  /// for — louder tx power than `max_tx_dbm_`, reception cutoff below
  /// `min_floor_dbm_`, or a position off the grid — invalidates the
  /// cache instead.
  void repair_reused_slot(std::size_t slot);
  /// True when `radio` currently owns cache slot `radio.channel_index()`
  /// (false for radios that were detached but kept transmitting).
  [[nodiscard]] bool has_cache_slot(const Radio& radio) const {
    return radio.channel_index() < radios_.size() &&
           radios_[radio.channel_index()] == &radio;
  }

  [[nodiscard]] double receive_floor_radius(double max_tx_dbm,
                                            double floor_dbm) const;
  void build_grid();
  [[nodiscard]] std::size_t cell_of(const Position& p) const;
  [[nodiscard]] bool grid_covers(const Position& p) const;
  /// Applies `fn` to every live slot in the 3x3 cell neighborhood of
  /// `cell`. Cell size >= the receive-floor radius, so this visits
  /// every slot that can be above any culling floor with a radio there.
  template <typename Fn>
  void for_each_neighbor_slot(std::size_t cell, Fn&& fn) const {
    const std::size_t cx = cell % grid_cols_;
    const std::size_t cy = cell / grid_cols_;
    for (std::size_t gy = cy == 0 ? 0 : cy - 1;
         gy <= std::min(cy + 1, grid_rows_ - 1); ++gy) {
      for (std::size_t gx = cx == 0 ? 0 : cx - 1;
           gx <= std::min(cx + 1, grid_cols_ - 1); ++gx) {
        for (const std::uint32_t s : cells_[gy * grid_cols_ + gx]) fn(s);
      }
    }
  }
  /// Sender `sender`'s stored link to receiver slot `receiver`, or null
  /// when the row does not hold the pair. Requires a frozen cache.
  /// Inline: the interference passes call it once per pair, and out of
  /// line it cost ~8 % of `tutornet` (DESIGN.md §8.17).
  [[nodiscard]] const SparseLink* find_link(std::size_t sender,
                                            std::uint32_t receiver) const {
    const std::vector<SparseLink>& row = rows_[sender];
    // Far-field pairs, nearly every lookup at large N, usually fall
    // outside a culled row's slot range; settle those first (testing
    // completeness first cost `sparse_10k` 2-5 %, DESIGN.md §8.17).
    if (row.empty() || receiver < row.front().receiver ||
        receiver > row.back().receiver) {
      return nullptr;
    }
    if (complete(row)) return &row[receiver];
    const auto it = std::lower_bound(
        row.begin(), row.end(), receiver,
        [](const SparseLink& l, std::uint32_t v) { return l.receiver < v; });
    return it->receiver == receiver ? &*it : nullptr;
  }
  [[nodiscard]] SparseLink* find_link(std::size_t sender,
                                      std::uint32_t receiver) {
    return const_cast<SparseLink*>(
        std::as_const(*this).find_link(sender, receiver));
  }
  /// `tx`'s stored link to receiver slot `receiver`; null when the
  /// sender has no row or its row lacks the pair.
  [[nodiscard]] const SparseLink* stored_link(const ActiveTx& tx,
                                              std::uint32_t receiver) const {
    return tx.cached ? find_link(tx.sender_index, receiver) : nullptr;
  }
  /// The entry of `plane` (sender `tx`'s PRR plane for the frame's size)
  /// that memoizes reception `rx`, or null when the row lacks the pair or
  /// its gain no longer matches the power the reception captured.
  /// Requires a frozen cache.
  [[nodiscard]] double* prr_memo(const ActiveTx& tx, const PendingRx& rx,
                                 double* plane);
  /// Gathers `tx`'s reception candidates that can hear at `now` into the
  /// scratch_rx_/scratch_slot_/scratch_gain_dbm_ arrays, in slot order:
  /// from the sender's row, or — no row — from one batch over every live
  /// radio.
  void gather_receivers(const ActiveTx& tx, sim::Time now);

  // --- one sender, many receivers: PropagationModel batches -------------
  /// Empties the receiver batch.
  void clear_batch();
  /// Appends `receiver` (slot `slot`) to the batch; `acc` is the
  /// interference accumulator its term goes to, if any.
  void push_batch(const Radio& receiver, std::uint32_t slot,
                  double* acc = nullptr);
  /// rx power in dBm from `sender` at every batched receiver, in batch
  /// order — the doubles rx_power() yields, bit for bit.
  [[nodiscard]] std::span<const double> batch_rx_dbm(const Radio& sender);
  /// Adds `sender`'s power in mW at every batched receiver to that
  /// receiver's accumulator (nothing when the batch is empty).
  void add_batch_interference(const Radio& sender);
  void evaluate_batch_interference(const Radio& sender);
  // --- ActiveTx pool ----------------------------------------------------
  [[nodiscard]] ActiveTx* acquire_tx();
  void release_tx(ActiveTx* tx);

  sim::Simulator& sim_;
  PhyConfig phy_;
  PropagationModel propagation_;
  OqpskModulation modulation_;
  std::unique_ptr<InterferenceModel> interference_;
  // interference_ when it is the Gilbert–Elliott model, else nullptr:
  // every clean reception asks the model, and outside scripted scenarios
  // it is this final class, whose query is inline when called directly.
  GilbertElliottInterference* bursts_ = nullptr;
  sim::Rng reception_rng_;
  sim::Rng lqi_rng_;
  // Slot-stable radio table: detach leaves a nullptr tombstone and
  // pushes the slot onto free_slots_; attach pops it (LIFO —
  // deterministic given the event order). Slot order therefore IS the
  // attach order all three execution paths visit receivers in.
  std::vector<Radio*> radios_;
  std::vector<std::size_t> free_slots_;

  // Transmissions currently in the air, in start order (interference
  // sums iterate this, so the order is part of the determinism
  // contract). Entries are removed by their own finish event — in
  // end-time order, driven by the event queue — so busy_at never pays a
  // prune scan.
  std::vector<ActiveTx*> active_;
  // Every ActiveTx ever created, arena-allocated; ~Channel runs their
  // destructors (the arena itself never frees).
  std::vector<ActiveTx*> tx_pool_;
  std::vector<ActiveTx*> tx_free_;  // recycled objects

  // Batch-kernel scratch: candidate gather arrays for
  // start_transmission and SINR/PRR arrays for the delivery pass.
  // Members so their capacity persists across calls; the two sets are
  // disjoint because a delivery handler may synchronously start a new
  // transmission.
  std::vector<Radio*> scratch_rx_;
  std::vector<std::uint32_t> scratch_slot_;
  std::vector<double> scratch_gain_dbm_;
  std::vector<double> scratch_interf_;
  std::vector<double> scratch_sinr_;
  std::vector<double> scratch_prr_;
  std::vector<std::uint32_t> scratch_miss_;  // receiver rows needing a PRR
  std::vector<double> scratch_miss_sinr_;
  std::vector<double> scratch_miss_prr_;
  std::vector<double*> scratch_miss_memo_;  // plane entry per miss, or null
  std::vector<std::uint8_t> corrupt_scratch_;  // deliver_corrupt buffer

  // Link rows: one per slot, rebuilt lazily after an attach past the
  // slot peak, repaired per slot on churn, one row re-derived on a
  // tx-power change. A tombstoned slot's row is empty.
  bool cache_valid_ = false;
  std::size_t n_ = 0;  // slots covered by the frozen cache
  std::vector<std::vector<SparseLink>> rows_;
  std::vector<PrrPlanes> planes_;  // per slot: the PRR memo of rows_[slot]
  // Complete rows only (empty when rows are culled): each row's
  // candidate receiver slots, ascending, so the gather visits the
  // candidates instead of all N entries. Culled rows go without: the
  // list cost sparse_10k memory and set-up time (DESIGN.md §8.17).
  std::vector<std::vector<std::uint32_t>> row_candidates_;
  std::vector<double> rx_cutoff_dbm_;  // per-receiver reception cutoff
  // Per-receiver noise floor in mW, and that floor round-tripped through
  // from_milliwatts (== the SINR denominator when interference is zero):
  // spares the delivery loop a pow10 and, usually, a log10 per reception.
  std::vector<double> noise_mw_;
  std::vector<double> noise_dbm_;

  // Uniform cell grid over live positions. Cell size >= the
  // receive-floor radius, so a 3x3 neighborhood scan covers every pair
  // above a culling floor (up to the documented shadowing headroom).
  // Without the spatial index the radius is infinite: one cell.
  std::vector<std::vector<std::uint32_t>> cells_;  // live slots per cell
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;
  std::vector<std::uint32_t> slot_cell_;  // per-slot cell id (or kNoCell)
  double radius_m_ = 0.0;                 // receive-floor radius
  double cell_size_m_ = 0.0;
  double origin_x_ = 0.0, origin_y_ = 0.0;
  std::size_t grid_cols_ = 0, grid_rows_ = 0;
  // Strongest effective tx power the frozen radius was derived from; a
  // set_tx_power or attach above it voids the cull guarantee and forces
  // a full rebuild.
  double max_tx_dbm_ = 0.0;
  // Weakest culling floor (min over live radios' reception cutoffs and
  // the CCA threshold) the frozen radius was derived from; an attach
  // with a more sensitive receiver voids the cull guarantee likewise.
  double min_floor_dbm_ = 0.0;

  std::uint64_t frames_transmitted_ = 0;
  std::uint64_t* ctr_frames_tx_ = nullptr;  // telemetry registry slot
  std::uint64_t* ctr_cache_rebuilds_ = nullptr;
  TxObserver tx_observer_;
  // Forced per-link loss (fault injection), keyed on the unordered pair.
  [[nodiscard]] static std::uint64_t link_key(NodeId a, NodeId b);
  std::unordered_map<std::uint64_t, double> link_faults_;

  // Receiver batch for PropagationModel's one-sender kernels (row
  // rebuilds, terms a row lacks, senders with no row). Filled and
  // consumed within one call that runs no user code, so it is never used
  // reentrantly. Declared last: placed among the hot members above it
  // cost `lpl` about 2 % (DESIGN.md §8.16).
  struct BatchTarget {
    double* acc;         // interference term: the accumulator it adds to
    std::uint32_t slot;  // row rebuild: the receiver's slot
  };
  std::vector<PropagationModel::Receiver> batch_rx_;
  std::vector<BatchTarget> batch_target_;
  std::vector<double> batch_out_;
};

}  // namespace fourbit::phy
