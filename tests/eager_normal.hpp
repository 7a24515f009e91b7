// A test reference for sim::Rng's standard normals: Box–Muller written
// out eagerly from Rng::uniform(), the cosine variate first and the sine
// variate computed with it and held for the next call. It shares no code
// with Rng::normal_draw() or sim::detail::box_muller(), so a swapped
// half, a skipped draw or an extra draw in either shows up against it.
#pragma once

#include <cmath>
#include <numbers>

#include "sim/rng.hpp"

namespace fourbit::test_support {

class EagerNormal {
 public:
  explicit EagerNormal(sim::Rng rng) : rng_(rng) {}

  double next() {
    if (has_sine_) {
      has_sine_ = false;
      return sine_;
    }
    const double u1 = 1.0 - rng_.uniform();
    const double u2 = rng_.uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    sine_ = r * std::sin(theta);
    has_sine_ = true;
    return r * std::cos(theta);
  }

 private:
  sim::Rng rng_;
  double sine_ = 0.0;
  bool has_sine_ = false;
};

}  // namespace fourbit::test_support
