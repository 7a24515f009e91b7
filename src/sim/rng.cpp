#include "sim/rng.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace fourbit::sim {
namespace {

using detail::rotl;
using detail::splitmix64;

// FNV-1a over the label, used to salt child streams.
std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // xoshiro must not start from an all-zero state; SplitMix64 expansion of
  // any seed (including 0) avoids that.
  std::uint64_t sm = seed;
  for (auto& s : state_) {
    s = splitmix64(sm);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() { return detail::unit_interval(next_u64()); }

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  FOURBIT_ASSERT(n > 0, "uniform_int needs a positive bound");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double mean) {
  FOURBIT_ASSERT(mean > 0.0, "exponential needs a positive mean");
  return -mean * std::log(1.0 - uniform());
}

Rng Rng::fork(std::string_view label) const {
  return fork(hash_label(label));
}

Rng Rng::fork(std::uint64_t key) const {
  // Mix the current state with the key through SplitMix64 so child streams
  // are decorrelated from the parent and from each other.
  std::uint64_t sm = fork_mix(key);
  Rng child{splitmix64(sm)};
  return child;
}

}  // namespace fourbit::sim
