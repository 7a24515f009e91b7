#include "phy/modulation.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace fourbit::phy {
namespace {

double binomial(int n, int k) {
  double r = 1.0;
  for (int i = 1; i <= k; ++i) {
    r *= static_cast<double>(n - k + i) / static_cast<double>(i);
  }
  return r;
}

}  // namespace

double OqpskModulation::exact_bit_error_rate(double sinr_db) {
  // IEEE 802.15.4 2.4 GHz PHY (16-ary orthogonal signalling over 32-chip
  // sequences), symbol-error union bound converted to BER:
  //   Pb = 8/15 * 1/16 * sum_{k=2}^{16} (-1)^k C(16,k) exp(20*snr*(1/k - 1))
  const double snr_lin = std::pow(10.0, sinr_db / 10.0);
  double sum = 0.0;
  for (int k = 2; k <= 16; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    sum += sign * binomial(16, k) *
           std::exp(20.0 * snr_lin * (1.0 / static_cast<double>(k) - 1.0));
  }
  const double pb = (8.0 / 15.0) * (1.0 / 16.0) * sum;
  // The union bound can exceed valid probability at very low SNR; clamp.
  if (pb < 0.0) return 0.0;
  if (pb > 0.5) return 0.5;
  return pb;
}

OqpskModulation::OqpskModulation() {
  const auto points =
      static_cast<std::size_t>((kMaxSnrDb - kMinSnrDb) / kStepDb) + 2;
  table_.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double snr = kMinSnrDb + static_cast<double>(i) * kStepDb;
    table_.push_back(exact_bit_error_rate(snr));
  }
  // Full size up front: a frame size first seen late in a run must not
  // allocate on the receive path.
  floor_prr_.reserve(kFloorMemoCap);
}

double OqpskModulation::bit_error_rate(double sinr_db) const {
  if (sinr_db <= kMinSnrDb) return table_.front();
  if (sinr_db >= kMaxSnrDb) return table_.back();
  const double idx = (sinr_db - kMinSnrDb) / kStepDb;
  const auto lo = static_cast<std::size_t>(idx);
  const double frac = idx - static_cast<double>(lo);
  return table_[lo] * (1.0 - frac) + table_[lo + 1] * frac;
}

double OqpskModulation::floor_prr(std::size_t frame_bytes, double base,
                                  double bits) const {
  const auto it = std::lower_bound(
      floor_prr_.begin(), floor_prr_.end(), frame_bytes,
      [](const std::pair<std::size_t, double>& e, std::size_t b) {
        return e.first < b;
      });
  if (it != floor_prr_.end() && it->first == frame_bytes) return it->second;
  const double prr = std::pow(base, bits);
  // Capped: a workload with pathologically many frame sizes just pays
  // the pow instead of growing (and linearly re-scanning) forever.
  if (floor_prr_.size() < kFloorMemoCap) {
    floor_prr_.emplace(it, frame_bytes, prr);
  }
  return prr;
}

double OqpskModulation::prr_from_ber(double ber, double sinr_db,
                                     std::size_t frame_bytes) const {
  if (ber <= 0.0) return 1.0;
  const double base = 1.0 - ber;
  // High SNR: the BER underflows past double precision, the base rounds
  // to exactly 1.0 and pow(1.0, bits) == 1.0 — skip the pow. This is the
  // common case for in-range links and bit-identical to computing it.
  if (base == 1.0) return 1.0;
  const double bits = static_cast<double>(frame_bytes * 8);
  // Low SNR clamp: every sub-threshold candidate shares one BER, so the
  // pow depends only on the frame size — serve it from the memo.
  if (sinr_db <= kMinSnrDb) return floor_prr(frame_bytes, base, bits);
  return std::pow(base, bits);
}

double OqpskModulation::packet_reception_ratio(
    double sinr_db, std::size_t frame_bytes) const {
  FOURBIT_ASSERT(frame_bytes > 0, "frame must have at least one byte");
  return prr_from_ber(bit_error_rate(sinr_db), sinr_db, frame_bytes);
}

void OqpskModulation::prr_batch(std::span<const double> sinr_db,
                                std::size_t frame_bytes,
                                std::span<double> out) const {
  FOURBIT_ASSERT(frame_bytes > 0, "frame must have at least one byte");
  FOURBIT_ASSERT(out.size() >= sinr_db.size(), "prr_batch output too small");
  const std::size_t n = sinr_db.size();
  // Pass 1: table interpolation over the contiguous span, fixed order.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = bit_error_rate(sinr_db[i]);
  }
  // Pass 2: BER -> PRR finalization through the exact scalar helper, so
  // every output double is bitwise identical to the per-element path.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = prr_from_ber(out[i], sinr_db[i], frame_bytes);
  }
}

}  // namespace fourbit::phy
