// Physical-layer configuration (802.15.4 / CC2420-class defaults).
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "sim/time.hpp"

namespace fourbit::phy {

/// Radio timing/packet parameters. Defaults model the CC2420: 250 kbps
/// O-QPSK, 6 bytes of PHY preamble+SFD+length, 192 us RX/TX turnaround.
struct PhyConfig {
  double bitrate_bps = 250000.0;
  std::size_t phy_overhead_bytes = 6;

  /// Thermal noise floor at the antenna (2 MHz channel + typical NF).
  PowerDbm noise_floor{-105.0};

  /// Clear-channel-assessment threshold: energy above this reads "busy".
  PowerDbm cca_threshold{-77.0};

  /// Received packets weaker than noise_floor + this margin are not even
  /// drawn against the PRR curve (saves work; PRR there is ~0 anyway).
  Decibels reception_cutoff_margin{-8.0};

  /// LQI value at or above which the PHY sets the white bit. 105 matches
  /// the conventional CC2420 "good packet" threshold.
  int white_bit_lqi_threshold = 105;

  /// Where the white bit comes from. The paper: radios with LQI/chip
  /// correlation use it directly; radios that only report signal and
  /// noise can threshold the SNR instead ("using a threshold derived
  /// from the signal-to-noise ratio / bit error rate curve"); radios
  /// with neither never set the bit.
  enum class WhiteBitSource { kLqi, kSnr, kNever };
  WhiteBitSource white_bit_source = WhiteBitSource::kLqi;
  double white_bit_snr_threshold_db = 3.0;

  /// Frames that fail decoding are still *heard* when their SINR is above
  /// this margin: the radio locks onto the preamble and hands up a frame
  /// whose FCS check then fails at the MAC. Below it, nothing is
  /// delivered at all.
  double corrupt_delivery_min_sinr_db = -3.0;
  bool deliver_corrupt_frames = true;

  /// RX/TX turnaround before a synchronous ACK goes on air.
  sim::Duration turnaround = sim::Duration::from_us(192);

  /// Link rows: on topology freeze the channel gives every sender a row
  /// of stored links (rx power in dBm and mW, candidate and CCA-audible
  /// flags) and a PRR memo per frame size the sender has used, so
  /// start_transmission and busy_at touch only a sender's candidates and
  /// stored gains instead of re-deriving every pair from the propagation
  /// model. Off, no row is built and every
  /// pair comes from the propagation batch: the same loop with no rows,
  /// kept as the reference the delivery-digest tests compare against.
  /// Results are bit-identical either way (same doubles, same RNG draw
  /// order); this flag selects no code of its own.
  bool use_link_cache = true;

  /// Culled rows (requires use_link_cache). Off, the freeze grid is one
  /// cell and every row is complete: one entry per slot, indexed by slot.
  /// On, the grid's cell size is a receive-floor radius — the distance
  /// at which deterministic path loss alone puts the strongest attached
  /// transmitter `spatial_headroom_sigmas` standard deviations of
  /// shadowing below both the weakest receiver's reception cutoff and
  /// the CCA threshold — and a row keeps only the pairs above one of
  /// those floors, found by a 3x3 cell scan. Memory and freeze cost
  /// scale O(N·degree) instead of O(N²), opening 10k+ node topologies;
  /// interference terms a row lacks come from the propagation batch, so
  /// results match complete rows bitwise as long as no shadowing draw
  /// exceeds the headroom (DESIGN.md §8.8, §8.17).
  bool use_spatial_index = false;

  /// Shadowing headroom, in combined standard deviations
  /// (sqrt(shadowing² + asymmetry²)), added to the receive-floor radius.
  /// 5σ puts the chance of a candidate link escaping the spatial cull
  /// below ~3e-7 per pair; raise it for strict bit-exactness at very
  /// large N, lower it to trade fidelity for memory.
  double spatial_headroom_sigmas = 5.0;

  [[nodiscard]] sim::Duration airtime(std::size_t mpdu_bytes) const {
    const double bits =
        static_cast<double>((phy_overhead_bytes + mpdu_bytes) * 8);
    return sim::Duration::from_seconds(bits / bitrate_bps);
  }
};

/// A PhyConfig's white-bit rule as a value: each clean reception carries
/// a copy, so RxInfo::white() can apply it when a layer reads the bit.
struct WhiteBitRule {
  PhyConfig::WhiteBitSource source = PhyConfig::WhiteBitSource::kNever;
  int lqi_threshold = 0;
  double snr_threshold_db = 0.0;

  [[nodiscard]] static WhiteBitRule of(const PhyConfig& phy) {
    return {phy.white_bit_source, phy.white_bit_lqi_threshold,
            phy.white_bit_snr_threshold_db};
  }
};

/// Propagation-environment configuration (log-distance + shadowing).
struct PropagationConfig {
  /// Path loss at the 1 m reference distance, 2.4 GHz free space.
  Decibels reference_loss{40.2};

  /// Path-loss exponent; ~3 models the cluttered indoor testbeds.
  double exponent = 3.0;

  /// Std-dev of the static per-pair log-normal shadowing (dB).
  double shadowing_sigma_db = 3.6;

  /// Std-dev of the *directional* shadowing component (dB) — one draw per
  /// ordered pair, modelling link asymmetry beyond hardware variation.
  double asymmetry_sigma_db = 1.0;
};

/// Per-node manufacturing spread (Zuniga & Krishnamachari's hardware
/// variation): TX power and receiver noise figure offsets.
struct HardwareVariationConfig {
  double tx_offset_sigma_db = 1.2;
  double noise_figure_sigma_db = 1.2;
};

}  // namespace fourbit::phy
