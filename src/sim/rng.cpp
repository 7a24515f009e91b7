#include "sim/rng.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace fourbit::sim {
namespace {

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

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  FOURBIT_ASSERT(n > 0, "uniform_int needs a positive bound");
  // Rejection sampling to remove modulo bias: draws below the threshold
  // (2^64 mod n) are rejected. The threshold is below n, so a draw of at
  // least n is accepted without computing it.
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= n || r >= (0ULL - n) % n) {
      return r % n;
    }
  }
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
