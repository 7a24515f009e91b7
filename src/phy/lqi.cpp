#include "phy/lqi.hpp"

#include <algorithm>
#include <cmath>

namespace fourbit::phy {

double LqiModel::mean_lqi(double snr_db) {
  // Logistic ramp: ~50 below the decode threshold, ~110 a few dB above it.
  // Midpoint 1 dB, slope 1.2 dB — tuned so links with PRR in the 0.5-0.9
  // "gray zone" still frequently read LQI > 100 on their received packets.
  return 50.0 + 60.0 / (1.0 + std::exp(-(snr_db - 1.0) / 1.2));
}

int LqiModel::reading(double snr_db, double z) {
  const double noisy = mean_lqi(snr_db) + 3.0 * z;
  const double clamped =
      std::clamp(noisy, static_cast<double>(kMinLqi),
                 static_cast<double>(kMaxLqi));
  return static_cast<int>(std::lround(clamped));
}

int LqiModel::sample(double snr_db, sim::Rng& rng) {
  return reading(snr_db, rng.normal());
}

}  // namespace fourbit::phy
