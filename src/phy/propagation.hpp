// Log-distance path loss with static log-normal shadowing and a
// directional asymmetry component.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "phy/config.hpp"
#include "sim/rng.hpp"

namespace fourbit::phy {

/// Computes the loss between node antennas.
///
/// loss(a->b) = ref_loss + 10 n log10(d) + S(a,b) + D(a->b)
/// where S is a symmetric per-pair shadowing draw and D a smaller
/// per-direction draw. Both are deterministic functions of (seed, pair),
/// so the radio environment is static across a run — matching the static
/// testbeds of the paper — and identical across protocols under test.
class PropagationModel {
 public:
  PropagationModel(PropagationConfig config, sim::Rng rng)
      : config_(config), rng_(rng) {}

  /// A pure function of (seed, ids, positions), computed on every call:
  /// nothing is memoized, so a NodeId that comes back at a new position
  /// gets the loss of the new geometry. Callers that need a pair's loss
  /// repeatedly keep it themselves (phy::Channel's link rows).
  [[nodiscard]] Decibels loss(NodeId from, const Position& from_pos,
                              NodeId to, const Position& to_pos) const;

  /// One receiver of a one-sender batch.
  struct Receiver {
    NodeId id;
    Position pos;
  };

  /// One sender, many receivers: out_dbm[i] = tx_dbm - loss(from ->
  /// to[i]), bit for bit. The pairs run stage by stage (uniforms and
  /// distance, log10, log, cos, combine) over reused member scratch, so a
  /// call allocates nothing once the scratch has grown. `to` and
  /// `out_dbm` have the same length.
  void rx_dbm_batch(NodeId from, const Position& from_pos, double tx_dbm,
                    std::span<const Receiver> to, std::span<double> out_dbm);

  /// rx_dbm_batch followed by the milliwatt conversion:
  /// out_mw[i] = pow(10, (tx_dbm - loss) / 10), the bits
  /// `(PowerDbm{tx_dbm} - loss(...)).milliwatts()` yields.
  void gain_mw_batch(NodeId from, const Position& from_pos, double tx_dbm,
                     std::span<const Receiver> to, std::span<double> out_mw);

  [[nodiscard]] const PropagationConfig& config() const { return config_; }

 private:
  [[nodiscard]] static std::uint32_t pair_key(NodeId a, NodeId b) {
    return static_cast<std::uint32_t>(a.value()) << 16 | b.value();
  }

  PropagationConfig config_;
  sim::Rng rng_;
  // Batch scratch, one slot per receiver: the shadowing and directional
  // draws' u1 (then the Box–Muller radius) and u2 (then the cosine).
  std::vector<double> batch_shadow_r_;
  std::vector<double> batch_shadow_c_;
  std::vector<double> batch_dir_r_;
  std::vector<double> batch_dir_c_;
};

}  // namespace fourbit::phy
