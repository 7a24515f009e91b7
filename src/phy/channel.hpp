// The shared broadcast medium.
//
// Reception model per transmission and candidate receiver:
//   SINR = rx_power / (receiver noise floor + sum of concurrent
//          transmissions' powers at the receiver)
//   PRR  = (1 - BER(SINR))^(8 * frame bytes)           [O-QPSK DSSS]
// then an independent burst-interference process may destroy the packet
// outright (whole-packet loss that leaves no LQI trace). LQI and the
// white bit are computed from the thermal-only SNR of packets that made
// it through — received packets look clean even on a lossy link, which
// is the physical effect the paper's white bit (and MultiHopLQI's
// failure mode) hinges on.
//
// Three representations feed that model:
//   * slow path (PhyConfig::use_link_cache = false) — per-pair
//     propagation-loss hash lookups, every radio scanned per
//     transmission. The reference the delivery-digest tests compare
//     against; with the cache on, only a detached-but-alive sender (no
//     cache slot) still scans per pair.
//   * dense link cache (default) — positions, tx powers and shadowing
//     are static per trial, so on topology freeze the channel
//     precomputes a flat N x N rx-power matrix (dBm and milliwatts) plus
//     per-sender culled neighbor lists: reception candidates (pairs
//     above noise_floor + reception_cutoff_margin) and a CCA-audible
//     bitset. start_transmission then iterates O(degree) and busy_at
//     tests precomputed bits. The cached doubles are the exact values
//     the slow path computes, and candidates are visited in the same
//     order, so RNG draw sequences — and therefore all metrics — are
//     bit-identical between paths (tests/channel_fastpath_test.cpp).
//   * sparse rows (PhyConfig::use_spatial_index on top of the link
//     cache) — the freeze bins radios into a uniform grid whose cell
//     size is a conservative receive-floor radius, then stores per
//     sender only the links above the reception or CCA floor as a
//     compressed row sorted by receiver slot (the same attach order the
//     other paths visit). O(N·degree) memory/freeze cost instead of
//     O(N²). Interference from a sender whose row lacks the receiver (a
//     far-field term) comes from the propagation model, batched per
//     sender through PropagationModel::gain_mw_batch: one call per
//     interferer in the forward pass, one per new sender over every
//     in-flight reception in the back-substitution. Those are the
//     doubles the per-pair path computes, added in the same order, so
//     sums stay bit-identical (tests/channel_sparse_test.cpp).
//
// One set of kernels serves all three. start_transmission gathers a
// cached sender's candidates into contiguous arrays and accumulates
// interference outer over the active transmissions; finish_transmission
// computes every receiver's SINR and PRR in one pass (misses batched
// through Modulation::prr_batch, interference-free pairs served from a
// per-pair memo while the cache is frozen) before the sequential pass
// that draws the RNG. Row rebuilds, like far-field terms, evaluate one
// sender's pairs in one propagation batch. Every sum adds the same terms
// in the same order, so results never depend on which representation is
// active.
//
// Radios occupy stable slots: detach tombstones a slot and attach reuses
// it (repairing only the touched rows/cells when a cache is frozen), so
// fault-plan churn — crash/reboot cycles that destroy and re-create a
// radio — never forces a full O(N²) rebuild. The `phy/cache_rebuilds`
// telemetry counter counts full rebuilds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
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
  /// tombstoned, not erased, so a frozen cache stays frozen (a frozen
  /// sparse index also drops every stored link to the slot, so a later
  /// reuse at any position starts from a clean column).
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

  /// Reception candidates of `sender` (receivers above the cutoff
  /// margin, in attach order). With the fast path on this freezes the
  /// cache on demand; with it off the count is computed per pair —
  /// introspection must not allocate the N² arrays in slow-path configs.
  [[nodiscard]] std::size_t candidate_count(const Radio& sender);

  /// Full cache rebuilds so far (also exported as the telemetry counter
  /// `phy/cache_rebuilds`). Incremental slot repair keeps this flat
  /// through fault-plan churn.
  [[nodiscard]] std::uint64_t cache_rebuilds() const {
    return *ctr_cache_rebuilds_;
  }

  /// Receive-floor radius of the frozen spatial index, in meters (0 when
  /// the sparse path is off or the cache is not frozen).
  [[nodiscard]] double spatial_radius_m() const {
    return cache_valid_ && sparse_mode_ ? radius_m_ : 0.0;
  }

 private:
  struct PendingRx {
    Radio* receiver;
    std::uint32_t receiver_index;  // cache slot; valid while frozen
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
    bool cached = false;  // sender had a cache slot when this tx started
    sim::Time start;
    sim::Time end;
    ArenaBytes frame;
    ArenaRxVec receivers;
  };

  [[nodiscard]] PowerDbm rx_power(const Radio& from, const Radio& to);
  /// Same value bitwise, but skips the propagation memo — used by cache
  /// rebuilds so freeze-time sweeps don't grow the memo by O(N·degree).
  [[nodiscard]] PowerDbm rx_power_uncached(const Radio& from,
                                           const Radio& to) const;
  void finish_transmission(ActiveTx* tx);
  void deliver_corrupt(Radio& r, const ActiveTx& tx, const PendingRx& rx,
                       double sinr_db);
  [[nodiscard]] bool white_bit(const RxInfo& info) const;

  // --- fast-path link cache --------------------------------------------
  void ensure_cache();
  void rebuild_cache();
  void rebuild_row(std::size_t s);
  /// Incremental repair when attach reuses tombstoned slot `slot` while
  /// a cache is frozen: re-derives the slot's own row plus every other
  /// sender's entry for it (dense: one column walk; sparse: only senders
  /// in the 3x3 cell neighborhood of the new radio's position — links
  /// held near the OLD position were already scrubbed at detach). A
  /// reused slot the frozen radius cannot vouch for — louder tx power
  /// than `max_tx_dbm_`, reception cutoff below `min_floor_dbm_`, or a
  /// position off the grid — invalidates the sparse cache instead.
  void repair_reused_slot(std::size_t slot);
  [[nodiscard]] bool cca_audible(std::size_t sender_idx,
                                 std::size_t listener_idx) const {
    return (cca_audible_[sender_idx * cca_words_ + listener_idx / 64] >>
            (listener_idx % 64)) &
           1u;
  }
  /// True when `radio` currently owns cache slot `radio.channel_index()`
  /// (false for radios that were detached but kept transmitting).
  [[nodiscard]] bool has_cache_slot(const Radio& radio) const {
    return radio.channel_index() < radios_.size() &&
           radios_[radio.channel_index()] == &radio;
  }

  // --- sparse spatial index --------------------------------------------
  /// One stored link of a sender's compressed row: a pair above the
  /// reception cutoff (candidate) and/or the CCA threshold (audible).
  /// Rows are sorted by receiver slot — the attach order every path
  /// visits — and carry the same memoized per-pair PRR the dense matrix
  /// keeps.
  struct SparseLink {
    std::uint32_t receiver = 0;   // slot index, ascending within a row
    std::uint32_t prr_bytes = 0;  // PRR memo: last frame size (0 = empty)
    double gain_dbm = 0.0;
    double gain_mw = 0.0;
    double prr_val = 0.0;
    bool candidate = false;
    bool audible = false;
  };

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
  void rebuild_sparse_row(std::size_t s);
  /// Erases every stored link to receiver slot `slot` from the rows of
  /// senders in the 3x3 neighborhood of `cell` (the slot's cell when it
  /// was live — row construction is neighborhood-symmetric, so those are
  /// the only rows that can hold one). Called at detach so a later slot
  /// reuse at a different position cannot inherit stale links from
  /// senders near the old occupant.
  void scrub_sparse_links_to(std::size_t slot, std::size_t cell);
  /// Recomputes sender `s`'s stored link to receiver slot `r` from the
  /// propagation model: inserts, updates or erases the row entry so it
  /// again reflects the live pair.
  void repair_sparse_link(std::size_t s, std::size_t r);
  [[nodiscard]] const SparseLink* find_link(std::size_t sender,
                                            std::uint32_t receiver) const;
  [[nodiscard]] SparseLink* find_link(std::size_t sender,
                                      std::uint32_t receiver);
  /// One pair's PRR memo entry (dense prr_bytes_/prr_val_ or a sparse
  /// link's fields); null when there is none to trust.
  struct PrrMemo {
    std::uint32_t* bytes = nullptr;  // last frame size (0 = empty)
    double* val = nullptr;
  };
  /// The memo slot of cached sender `tx` for reception `rx`, or null
  /// when the pair has no stored link or its gain no longer matches the
  /// power the reception captured. Requires a frozen cache.
  [[nodiscard]] PrrMemo prr_memo(const ActiveTx& tx, const PendingRx& rx);
  /// Interference term of active transmission `other` at receiver `r`
  /// (slot `ri`): cached gain when available, per-pair fallback
  /// otherwise — same double either way. Serves every pair with a side
  /// that has no cache row; cached sparse senders batch their far-field
  /// terms instead.
  [[nodiscard]] double interference_term(const ActiveTx& other,
                                         std::uint32_t ri, Radio& r);

  // --- one sender, many receivers: PropagationModel batches -------------
  /// Empties the receiver batch.
  void clear_batch();
  /// Appends `receiver` (slot `slot`) to the batch; `acc` is the
  /// interference accumulator its term goes to, if any.
  void push_batch(const Radio& receiver, std::uint32_t slot,
                  double* acc = nullptr);
  /// rx power in dBm from `sender` at every batched receiver, in batch
  /// order — the doubles rx_power_uncached() yields, bit for bit.
  [[nodiscard]] std::span<const double> batch_rx_dbm(const Radio& sender);
  /// Adds `sender`'s power in mW at every batched receiver to that
  /// receiver's accumulator — the same term interference_term() adds.
  void add_batch_interference(const Radio& sender);

  // --- ActiveTx pool ----------------------------------------------------
  [[nodiscard]] ActiveTx* acquire_tx();
  void release_tx(ActiveTx* tx);

  sim::Simulator& sim_;
  PhyConfig phy_;
  PropagationModel propagation_;
  OqpskModulation modulation_;
  std::unique_ptr<InterferenceModel> interference_;
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
  std::vector<PrrMemo> scratch_miss_memo_;  // write-back slot per miss
  std::vector<std::uint8_t> corrupt_scratch_;  // deliver_corrupt buffer

  // Link cache (fast path): row-major [sender][receiver] rx power, both
  // in dBm (thresholds, SINR) and milliwatts (interference sums; cached
  // so the fast path skips the pow() the slow path pays per term —
  // cached value == slow-path value bitwise). Rebuilt lazily after
  // attach/detach; one row re-derived on a tx-power change.
  bool cache_valid_ = false;
  bool sparse_mode_ = false;   // frozen cache is the spatial index
  std::size_t n_ = 0;          // slots covered by the frozen cache
  std::size_t cca_words_ = 0;  // 64-bit words per CCA bitset row
  std::vector<double> gain_dbm_;
  std::vector<double> gain_mw_;
  std::vector<double> rx_cutoff_dbm_;  // per-receiver reception cutoff
  // Per-receiver noise floor in mW, and that floor round-tripped through
  // from_milliwatts (== the SINR denominator when interference is zero):
  // spares the delivery loop a pow10 and, usually, a log10 per reception.
  std::vector<double> noise_mw_;
  std::vector<double> noise_dbm_;
  // Per-pair PRR memo for interference-free receptions (the common
  // case). Thermal SINR is fixed per pair, so PRR depends only on the
  // frame size; each slot remembers the last size seen. Entries are only
  // trusted while the pair's gain_dbm_ still equals the rx power the
  // reception captured (a mid-flight tx-power change re-derives the row,
  // and in-flight frames keep their old power). Zeroed size = empty.
  std::vector<std::uint32_t> prr_bytes_;
  std::vector<double> prr_val_;
  std::vector<std::vector<std::uint32_t>> candidates_;  // per-sender
  std::vector<std::uint64_t> cca_audible_;

  // Sparse spatial index (use_spatial_index): per-sender compressed
  // rows (see SparseLink) plus a uniform cell grid over live positions.
  // Cell size >= the receive-floor radius, so a 3x3 neighborhood scan
  // covers every pair the dense path would keep (up to the documented
  // shadowing headroom). The dense matrices above stay empty in this
  // mode and vice versa.
  std::vector<std::vector<SparseLink>> sparse_rows_;
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
  // rebuilds, far-field interference terms). Filled and consumed within
  // one call that runs no user code, so it is never used reentrantly.
  // Declared last so the members above keep their offsets: placed among
  // them it cost `lpl` about 2 % (DESIGN.md §8.16).
  struct BatchTarget {
    double* acc;         // far-field term: the accumulator it adds to
    std::uint32_t slot;  // row rebuild: the receiver's slot
  };
  std::vector<PropagationModel::Receiver> batch_rx_;
  std::vector<BatchTarget> batch_target_;
  std::vector<double> batch_out_;
};

}  // namespace fourbit::phy
