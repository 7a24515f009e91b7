#include "phy/propagation.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace fourbit::phy {
namespace {

// The directional draw's fork key salt.
constexpr std::uint32_t kDirectionalSalt = 0x9E3779B9U;

using sim::detail::box_muller_radius;
using sim::detail::box_muller_theta;

// rng.fork(key).normal(0.0, sigma), bit for bit: the child's first normal
// is the cosine half of one Box–Muller pair, and normal(mean, sigma) is
// `mean + sigma * normal()`.
double forked_normal(const sim::Rng& rng, std::uint64_t key, double sigma) {
  const sim::Rng::NormalUniforms u = rng.fork_normal_uniforms(key);
  const double z = sim::detail::box_muller(u.u1, u.u2, /*sine=*/false);
  return 0.0 + sigma * z;
}

}  // namespace

Decibels PropagationModel::loss(NodeId from, const Position& from_pos,
                                NodeId to, const Position& to_pos) const {
  const double d = std::max(distance_m(from_pos, to_pos), 0.5);
  const double deterministic =
      config_.reference_loss.value() + 10.0 * config_.exponent * std::log10(d);

  // Symmetric shadowing: same draw for (a,b) and (b,a).
  const NodeId lo = std::min(from, to);
  const NodeId hi = std::max(from, to);
  const double shadowing =
      forked_normal(rng_, pair_key(lo, hi), config_.shadowing_sigma_db);

  // Directional component: independent draw per ordered pair.
  const double directional = forked_normal(
      rng_, pair_key(from, to) ^ kDirectionalSalt, config_.asymmetry_sigma_db);

  return Decibels{deterministic + shadowing + directional};
}

void PropagationModel::rx_dbm_batch(NodeId from, const Position& from_pos,
                                    double tx_dbm, std::span<const Receiver> to,
                                    std::span<double> out_dbm) {
  const std::size_t n = to.size();
  FOURBIT_ASSERT(out_dbm.size() == n,
                 "rx_dbm_batch needs one output per receiver");
  if (batch_shadow_r_.size() < n) {
    batch_shadow_r_.resize(n);
    batch_shadow_c_.resize(n);
    batch_dir_r_.resize(n);
    batch_dir_c_.resize(n);
  }
  double* const shadow_r = batch_shadow_r_.data();
  double* const shadow_c = batch_shadow_c_.data();
  double* const dir_r = batch_dir_r_.data();
  double* const dir_c = batch_dir_c_.data();

  // Each stage applies one of loss()'s operations to every pair, in
  // loss()'s order per pair, so each element sees the same roundings.
  // out_dbm holds the clamped distance, then the deterministic loss,
  // then the result. Stage 1: key mixing into uniforms, and distance.
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId lo = std::min(from, to[i].id);
    const NodeId hi = std::max(from, to[i].id);
    const sim::Rng::NormalUniforms s =
        rng_.fork_normal_uniforms(pair_key(lo, hi));
    const sim::Rng::NormalUniforms d = rng_.fork_normal_uniforms(
        pair_key(from, to[i].id) ^ kDirectionalSalt);
    shadow_r[i] = s.u1;
    shadow_c[i] = s.u2;
    dir_r[i] = d.u1;
    dir_c[i] = d.u2;
    out_dbm[i] = std::max(distance_m(from_pos, to[i].pos), 0.5);
  }
  const double ref = config_.reference_loss.value();
  const double exponent = config_.exponent;
  for (std::size_t i = 0; i < n; ++i) {
    out_dbm[i] = ref + 10.0 * exponent * std::log10(out_dbm[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    shadow_r[i] = box_muller_radius(shadow_r[i]);
    dir_r[i] = box_muller_radius(dir_r[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    shadow_c[i] = std::cos(box_muller_theta(shadow_c[i]));
    dir_c[i] = std::cos(box_muller_theta(dir_c[i]));
  }
  const double shadow_sigma = config_.shadowing_sigma_db;
  const double dir_sigma = config_.asymmetry_sigma_db;
  for (std::size_t i = 0; i < n; ++i) {
    const double shadowing = 0.0 + shadow_sigma * (shadow_r[i] * shadow_c[i]);
    const double directional = 0.0 + dir_sigma * (dir_r[i] * dir_c[i]);
    out_dbm[i] = tx_dbm - (out_dbm[i] + shadowing + directional);
  }
}

void PropagationModel::gain_mw_batch(NodeId from, const Position& from_pos,
                                     double tx_dbm, std::span<const Receiver> to,
                                     std::span<double> out_mw) {
  rx_dbm_batch(from, from_pos, tx_dbm, to, out_mw);
  for (double& v : out_mw) v = PowerDbm{v}.milliwatts();
}

}  // namespace fourbit::phy
