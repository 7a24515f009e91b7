// Deterministic random-number generation.
//
// One root seed fans out to named per-module streams (placement,
// shadowing, noise, MAC backoff, traffic jitter, ...), so changing how
// one module consumes randomness never perturbs the others and every
// experiment is exactly reproducible from (seed, config).
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <string_view>

namespace fourbit::sim {

namespace detail {

inline std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// The 53 high bits of a generator output as a double in [0, 1).
inline double unit_interval(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Box–Muller's radius and angle from its two uniforms (u1 in (0, 1]).
inline double box_muller_radius(double u1) {
  return std::sqrt(-2.0 * std::log(u1));
}
inline double box_muller_theta(double u2) {
  return 2.0 * std::numbers::pi * u2;
}
/// The Box–Muller pair of (u1, u2): its cosine variate, or with `sine`
/// its sine variate.
inline double box_muller(double u1, double u2, bool sine) {
  const double r = box_muller_radius(u1);
  const double theta = box_muller_theta(u2);
  return r * (sine ? std::sin(theta) : std::cos(theta));
}

}  // namespace detail

/// xoshiro256** with SplitMix64 seeding. Small, fast, and good enough
/// statistically for channel/workload modelling (not for cryptography).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value. The hot draws (this, uniform(), bernoulli())
  /// are defined here so that callers inline them.
  std::uint64_t next_u64() {
    const std::uint64_t result = detail::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = detail::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return detail::unit_interval(next_u64()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// true with probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// A standard normal variate, drawn but not yet evaluated: the two
  /// uniforms of its Box–Muller pair and which half of the pair it is.
  /// value() is a pure function of the three, so a draw may be
  /// evaluated late, twice or never without moving the stream.
  struct NormalDraw {
    double u1 = 1.0;  // in (0, 1]; the default draw's value is 0
    double u2 = 0.0;
    bool sine = false;  // the pair's second variate
    [[nodiscard]] double value() const {
      return detail::box_muller(u1, u2, sine);
    }
  };

  /// Takes normal()'s next variate from the stream without evaluating
  /// it: two uniforms on the first half of a pair, none on the second.
  NormalDraw normal_draw() {
    if (pending_u1_ != 0.0) {
      const NormalDraw sine{pending_u1_, pending_u2_, true};
      pending_u1_ = 0.0;
      return sine;
    }
    // u1 in (0, 1] so log() is finite.
    pending_u1_ = 1.0 - uniform();
    pending_u2_ = uniform();
    return {pending_u1_, pending_u2_, false};
  }

  /// Standard normal via Box-Muller: normal_draw(), evaluated.
  double normal() { return normal_draw().value(); }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with given mean (> 0).
  double exponential(double mean);

  /// Derives an independent child stream. The label participates in the
  /// derivation so distinct subsystems get distinct streams even when
  /// forked in a different order.
  [[nodiscard]] Rng fork(std::string_view label) const;

  /// Derives an independent child stream keyed by an integer (node id,
  /// link pair hash, ...).
  [[nodiscard]] Rng fork(std::uint64_t key) const;

  /// The two uniforms `fork(key).normal()` draws first, without building
  /// the child: u1 = 1 - uniform() (in (0, 1]) and u2 = uniform().
  struct NormalUniforms {
    double u1;
    double u2;
  };

  /// Bit-identical to the first two draws of fork(key), at a fraction of
  /// the cost: the child's fourth state word never reaches its first two
  /// outputs, so only words 0..2 are expanded. Hot per-pair shadowing
  /// draws (PropagationModel) build on it.
  [[nodiscard]] NormalUniforms fork_normal_uniforms(std::uint64_t key) const {
    std::uint64_t sm = fork_mix(key);
    std::uint64_t child = detail::splitmix64(sm);  // the child's seed
    const std::uint64_t s0 = detail::splitmix64(child);
    const std::uint64_t s1 = detail::splitmix64(child);
    const std::uint64_t s2 = detail::splitmix64(child);
    // next_u64() twice: the first output reads s1; the second reads s1
    // after `s2 ^= s0; s1 ^= s2`.
    const std::uint64_t first = detail::rotl(s1 * 5, 7) * 9;
    const std::uint64_t second = detail::rotl((s1 ^ s2 ^ s0) * 5, 7) * 9;
    return {1.0 - detail::unit_interval(first),
            detail::unit_interval(second)};
  }

 private:
  /// The SplitMix64 input fork(key) derives the child seed from.
  [[nodiscard]] std::uint64_t fork_mix(std::uint64_t key) const {
    return state_[0] ^ detail::rotl(state_[2], 13) ^ key;
  }

  std::uint64_t state_[4];
  // The uniforms of the pair whose sine variate normal_draw() hands out
  // next; pending_u1_ is 0, which no drawn u1 is, when there is none.
  double pending_u1_ = 0.0;
  double pending_u2_ = 0.0;
};
// Per-node state embeds an Rng (burst chains, MACs, estimators): the
// pending pair takes the space the cached variate and its flag took.
static_assert(sizeof(Rng) == 48);

}  // namespace fourbit::sim
