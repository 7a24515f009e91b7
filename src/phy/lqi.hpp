// CC2420-style Link Quality Indication synthesis.
#pragma once

#include "sim/rng.hpp"

namespace fourbit::phy {

/// Maps the SNR of a *received* packet to an LQI reading.
///
/// The CC2420 computes LQI from chip correlation over the first 8 symbols:
/// it saturates near 110 once the channel is comfortably above the decode
/// threshold and falls toward ~50 at sensitivity. Crucially it is only
/// defined for packets that were received — packets destroyed outright
/// (collisions, interference bursts) produce no reading at all, which is
/// exactly the blindness Figure 3 of the paper demonstrates.
class LqiModel {
 public:
  static constexpr int kMinLqi = 40;
  static constexpr int kMaxLqi = 110;

  /// Expected LQI at a given SNR (logistic ramp between 50 and 110).
  [[nodiscard]] static double mean_lqi(double snr_db);

  /// The reading at `snr_db` whose gaussian measurement noise is the
  /// standard normal `z` (scaled to 3 LQI units), clamped to range and
  /// rounded. The one LQI formula: RxInfo::lqi() evaluates it.
  [[nodiscard]] static int reading(double snr_db, double z);

  /// One noisy reading drawn now: reading(snr_db, rng.normal()). The
  /// reference the deferred RxInfo::lqi() is tested against.
  [[nodiscard]] static int sample(double snr_db, sim::Rng& rng);
};

}  // namespace fourbit::phy
