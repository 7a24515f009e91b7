// Tests of the physical layer: modulation, LQI, propagation, hardware
// variation, interference processes, and the channel/radio pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "phy/channel.hpp"
#include "phy/hardware.hpp"
#include "phy/interference.hpp"
#include "phy/lqi.hpp"
#include "phy/modulation.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"

namespace fourbit::phy {
namespace {

// ---- OqpskModulation -------------------------------------------------------

TEST(ModulationTest, BerEndpoints) {
  OqpskModulation mod;
  EXPECT_LT(mod.bit_error_rate(10.0), 1e-9);   // clean channel
  EXPECT_GT(mod.bit_error_rate(-10.0), 0.05);  // hopeless channel
}

TEST(ModulationTest, BerMonotoneNonIncreasing) {
  OqpskModulation mod;
  double prev = 1.0;
  for (double snr = -12.0; snr <= 12.0; snr += 0.25) {
    const double ber = mod.bit_error_rate(snr);
    EXPECT_LE(ber, prev + 1e-12) << "at snr " << snr;
    prev = ber;
  }
}

TEST(ModulationTest, TableMatchesExactFormula) {
  OqpskModulation mod;
  for (double snr = -8.0; snr <= 8.0; snr += 0.37) {
    const double exact = OqpskModulation::exact_bit_error_rate(snr);
    const double table = mod.bit_error_rate(snr);
    EXPECT_NEAR(table, exact, exact * 0.05 + 1e-9) << "at snr " << snr;
  }
}

TEST(ModulationTest, PrrDecreasesWithFrameLength) {
  OqpskModulation mod;
  const double snr = 0.5;  // in the transition region
  const double short_frame = mod.packet_reception_ratio(snr, 20);
  const double long_frame = mod.packet_reception_ratio(snr, 120);
  EXPECT_GT(short_frame, long_frame);
}

TEST(ModulationTest, PrrEndpoints) {
  OqpskModulation mod;
  EXPECT_NEAR(mod.packet_reception_ratio(10.0, 40), 1.0, 1e-6);
  EXPECT_LT(mod.packet_reception_ratio(-10.0, 40), 1e-6);
}

TEST(ModulationTest, PrrTransitionRegionIsGrayZone) {
  OqpskModulation mod;
  // There must exist SNRs giving intermediate PRR (the gray zone links
  // the paper cares about).
  bool found = false;
  for (double snr = -5.0; snr <= 5.0; snr += 0.1) {
    const double prr = mod.packet_reception_ratio(snr, 46);
    if (prr > 0.2 && prr < 0.8) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ModulationTest, FloorMemoCorrectAcrossManyFrameSizes) {
  // The sub-threshold PRR memo is a small sorted vector capped in size:
  // hammer it with far more distinct frame sizes than the cap holds, in
  // a worst-case (descending, so every insert lands at the front) order,
  // then verify every answer — memoized or recomputed — against a fresh
  // instance and against the closed form.
  OqpskModulation mod;
  const double sinr = -20.0;  // below kMinSnrDb: floor region
  const double ber = mod.bit_error_rate(sinr);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t bytes = 400; bytes >= 1; --bytes) {
      const double got = mod.packet_reception_ratio(sinr, bytes);
      const double want =
          std::pow(1.0 - ber, static_cast<double>(bytes * 8));
      EXPECT_EQ(got, want) << "frame_bytes " << bytes;
      OqpskModulation fresh;
      if (bytes % 97 == 0) {  // spot-check cross-instance consistency
        EXPECT_EQ(fresh.packet_reception_ratio(sinr, bytes), got);
      }
    }
  }
}

TEST(ModulationTest, PrrBatchMatchesScalarBitwise) {
  OqpskModulation mod;
  std::vector<double> sinr;
  for (double s = -25.0; s <= 15.0; s += 0.173) sinr.push_back(s);
  std::vector<double> batch(sinr.size());
  for (const std::size_t frame_bytes : {1u, 20u, 46u, 120u}) {
    mod.prr_batch(sinr, frame_bytes, batch);
    for (std::size_t i = 0; i < sinr.size(); ++i) {
      const double scalar =
          mod.packet_reception_ratio(sinr[i], frame_bytes);
      EXPECT_EQ(batch[i], scalar)
          << "sinr " << sinr[i] << " bytes " << frame_bytes;
    }
  }
}

// ---- LqiModel -----------------------------------------------------------------

TEST(LqiTest, MeanMonotoneInSnr) {
  double prev = 0.0;
  for (double snr = -10.0; snr <= 15.0; snr += 0.5) {
    const double lqi = LqiModel::mean_lqi(snr);
    EXPECT_GE(lqi, prev);
    prev = lqi;
  }
}

TEST(LqiTest, SaturatesHighAndLow) {
  EXPECT_NEAR(LqiModel::mean_lqi(15.0), 110.0, 1.0);
  EXPECT_NEAR(LqiModel::mean_lqi(-10.0), 50.0, 1.0);
}

TEST(LqiTest, SamplesClampedToRange) {
  sim::Rng rng{1};
  for (int i = 0; i < 1000; ++i) {
    const int lqi = LqiModel::sample(5.0, rng);
    EXPECT_GE(lqi, LqiModel::kMinLqi);
    EXPECT_LE(lqi, LqiModel::kMaxLqi);
  }
}

TEST(LqiTest, SampleMeanNearModel) {
  sim::Rng rng{2};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += LqiModel::sample(2.0, rng);
  EXPECT_NEAR(sum / n, LqiModel::mean_lqi(2.0), 0.3);
}

TEST(LqiTest, ReadingOfTheNextNormalIsSample) {
  // reading(snr, z) is the one LQI formula; sample() feeds it the
  // stream's next normal, so the two agree draw for draw across the ramp
  // and past both clamps.
  sim::Rng a{11};
  sim::Rng b{11};
  for (int i = 0; i < 20'000; ++i) {
    const double snr = -12.0 + 0.001 * i;
    ASSERT_EQ(LqiModel::reading(snr, a.normal()), LqiModel::sample(snr, b))
        << "snr " << snr;
  }
}

TEST(RxInfoTest, DefaultAndCorruptReadings) {
  const RxInfo none;
  EXPECT_EQ(none.lqi(), 0);
  EXPECT_FALSE(none.white());
  // A corrupt frame reads the bottom of the range and is never white,
  // even under an SNR rule its SNR would pass.
  const RxInfo corrupt = RxInfo::corrupt(PowerDbm{-60.0}, 40.0);
  EXPECT_FALSE(corrupt.fcs_ok);
  EXPECT_EQ(corrupt.lqi(), LqiModel::kMinLqi);
  EXPECT_FALSE(corrupt.white());
  // A clean reception applies its rule when read.
  PhyConfig phy;
  phy.white_bit_source = PhyConfig::WhiteBitSource::kSnr;
  const RxInfo by_snr{PowerDbm{-60.0}, 3.5, sim::Rng::NormalDraw{},
                      WhiteBitRule::of(phy)};
  EXPECT_TRUE(by_snr.white());
  EXPECT_EQ(by_snr.lqi(), LqiModel::reading(3.5, 0.0));
}

// ---- PropagationModel -----------------------------------------------------------

// Bit pattern of a double: the propagation tests compare exact bits,
// which EXPECT_DOUBLE_EQ (4 ULPs of slack) does not.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(PropagationTest, DeterministicPerPair) {
  PropagationConfig cfg;
  PropagationModel m1{cfg, sim::Rng{7}};
  PropagationModel m2{cfg, sim::Rng{7}};
  const Position a{0, 0};
  const Position b{10, 0};
  EXPECT_EQ(bits(m1.loss(NodeId{1}, a, NodeId{2}, b).value()),
            bits(m2.loss(NodeId{1}, a, NodeId{2}, b).value()));
}

TEST(PropagationTest, CachedValueStable) {
  // Nothing is memoized any more: a repeated call recomputes the pair
  // and must land on the same bits.
  PropagationModel m{PropagationConfig{}, sim::Rng{7}};
  const Position a{0, 0};
  const Position b{10, 0};
  const double first = m.loss(NodeId{1}, a, NodeId{2}, b).value();
  const double second = m.loss(NodeId{1}, a, NodeId{2}, b).value();
  EXPECT_EQ(bits(first), bits(second));
}

// The per-pair composition PropagationModel's fused kernel replaced,
// written out as the oracle: one forked child generator per draw, each
// running a full Box–Muller normal. `rng` is a copy of the generator the
// model was built with.
double fork_normal_reference(const sim::Rng& rng, const PropagationConfig& cfg,
                             NodeId from, const Position& from_pos, NodeId to,
                             const Position& to_pos) {
  const auto key = [](NodeId a, NodeId b) {
    return static_cast<std::uint32_t>(a.value()) << 16 | b.value();
  };
  const double d = std::max(distance_m(from_pos, to_pos), 0.5);
  const double deterministic =
      cfg.reference_loss.value() + 10.0 * cfg.exponent * std::log10(d);
  const double shadowing =
      rng.fork(key(std::min(from, to), std::max(from, to)))
          .normal(0.0, cfg.shadowing_sigma_db);
  const double directional =
      rng.fork(key(from, to) ^ 0x9E3779B9U).normal(0.0, cfg.asymmetry_sigma_db);
  return deterministic + shadowing + directional;
}

// Pairs for the oracle tests: ids over the whole 16-bit space, positions
// on a 10 km square (far-field pairs), every eighth receiver coincident
// with its sender (the 0.5 m clamp).
struct PairBatch {
  NodeId from;
  Position from_pos;
  double tx_dbm;
  std::vector<PropagationModel::Receiver> to;
};

PairBatch random_batch(sim::Rng& rng, std::size_t n) {
  const auto id = [&] {
    return NodeId{static_cast<std::uint16_t>(1 + rng.uniform_int(0xFFFF))};
  };
  const auto pos = [&] {
    return Position{rng.uniform(0.0, 1e4), rng.uniform(0.0, 1e4)};
  };
  PairBatch b{id(), pos(), rng.uniform(-25.0, 5.0), {}};
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId to = id();
    b.to.push_back({to, i % 8 == 7 ? b.from_pos : pos()});
  }
  return b;
}

// Checks every pair of `b`, in both orderings, through loss(),
// rx_dbm_batch() and gain_mw_batch() against the oracle, bit for bit.
// Ids repeat across batches with new positions, which loss() must follow
// (it memoizes nothing). Returns the number of ordered pairs checked.
std::size_t expect_matches_oracle(PropagationModel& m, const sim::Rng& rng,
                                  const PropagationConfig& cfg,
                                  const PairBatch& b) {
  const std::size_t n = b.to.size();
  std::vector<double> dbm(n, -1.0);
  std::vector<double> mw(n, -1.0);
  m.rx_dbm_batch(b.from, b.from_pos, b.tx_dbm, b.to, dbm);
  m.gain_mw_batch(b.from, b.from_pos, b.tx_dbm, b.to, mw);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [to, to_pos] = b.to[i];
    const double fwd =
        fork_normal_reference(rng, cfg, b.from, b.from_pos, to, to_pos);
    const double rev =
        fork_normal_reference(rng, cfg, to, to_pos, b.from, b.from_pos);
    const PowerDbm rx = PowerDbm{b.tx_dbm} - Decibels{fwd};
    EXPECT_EQ(bits(m.loss(b.from, b.from_pos, to, to_pos).value()),
              bits(fwd));
    EXPECT_EQ(bits(m.loss(to, to_pos, b.from, b.from_pos).value()),
              bits(rev));
    EXPECT_EQ(bits(dbm[i]), bits(rx.value())) << "batch element " << i;
    EXPECT_EQ(bits(mw[i]), bits(rx.milliwatts())) << "batch element " << i;
    if (::testing::Test::HasFailure()) return 0;  // one report, not 100k
  }
  return 2 * n;
}

TEST(PropagationTest, FusedKernelMatchesForkNormalReferenceBitwise) {
  const PropagationConfig cfg;
  std::size_t checked = 0;
  sim::Rng pairs{2026};
  for (const std::uint64_t seed : {7ULL, 11ULL, 0xC0FFEEULL}) {
    for (const int advance : {0, 3}) {
      // The model forks from its generator's live state, so a parent
      // stream advanced before the model takes it must still match.
      sim::Rng rng{seed};
      for (int k = 0; k < advance; ++k) (void)rng.next_u64();
      PropagationModel m{cfg, rng};
      // Odd and even sizes, growing and shrinking, so the scratch is
      // reused with stale tails.
      for (const std::size_t n :
           {1023u, 64u, 1u, 4001u, 7u, 2048u, 3u, 5001u}) {
        checked += expect_matches_oracle(m, rng, cfg, random_batch(pairs, n));
        ASSERT_FALSE(HasFailure()) << "seed " << seed << " advance " << advance
                                   << " batch " << n;
      }
    }
  }
  EXPECT_GE(checked, 100'000u);
}

TEST(PropagationTest, FusedKernelEdgeCasesMatchReferenceBitwise) {
  sim::Rng pairs{77};
  // Zero sigmas: the draws still run, and 0.0 + 0.0 * z is +0.0 for
  // either sign of z.
  PropagationConfig flat;
  flat.shadowing_sigma_db = 0.0;
  flat.asymmetry_sigma_db = 0.0;
  for (const PropagationConfig& cfg : {flat, PropagationConfig{}}) {
    const sim::Rng rng{5};
    PropagationModel m{cfg, rng};
    for (const std::size_t n : {0u, 1u, 9u}) {
      expect_matches_oracle(m, rng, cfg, random_batch(pairs, n));
    }
    // Coincident nodes: the 0.5 m clamp, in the scalar and batch paths.
    PairBatch same = random_batch(pairs, 5);
    for (PropagationModel::Receiver& r : same.to) r.pos = same.from_pos;
    expect_matches_oracle(m, rng, cfg, same);
  }
  // An empty batch is a no-op.
  PropagationModel m{PropagationConfig{}, sim::Rng{5}};
  m.gain_mw_batch(NodeId{1}, Position{}, 0.0, {}, {});
}

TEST(PropagationTest, LossGrowsWithDistanceOnAverage) {
  PropagationConfig cfg;
  cfg.shadowing_sigma_db = 0.0;
  cfg.asymmetry_sigma_db = 0.0;
  PropagationModel m{cfg, sim::Rng{7}};
  const double near = m.loss(NodeId{1}, {0, 0}, NodeId{2}, {5, 0}).value();
  const double far = m.loss(NodeId{1}, {0, 0}, NodeId{3}, {50, 0}).value();
  EXPECT_GT(far, near);
  // Log-distance slope: 10x distance = 10*n dB.
  EXPECT_NEAR(far - near, 10.0 * cfg.exponent, 1e-9);
}

TEST(PropagationTest, DirectionalAsymmetryBounded) {
  PropagationConfig cfg;
  cfg.shadowing_sigma_db = 3.0;
  cfg.asymmetry_sigma_db = 1.5;
  PropagationModel m{cfg, sim::Rng{11}};
  // The a->b / b->a difference comes only from the directional component,
  // so across many pairs its spread should reflect ~sqrt(2)*sigma_dir.
  double sum = 0.0;
  double sumsq = 0.0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    const NodeId a{static_cast<std::uint16_t>(2 * i)};
    const NodeId b{static_cast<std::uint16_t>(2 * i + 1)};
    const Position pa{0, 0};
    const Position pb{10, static_cast<double>(i % 7)};
    const double delta =
        m.loss(a, pa, b, pb).value() - m.loss(b, pb, a, pa).value();
    sum += delta;
    sumsq += delta * delta;
  }
  const double mean = sum / n;
  const double stddev = std::sqrt(sumsq / n - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.35);
  EXPECT_NEAR(stddev, cfg.asymmetry_sigma_db * std::sqrt(2.0), 0.5);
}

TEST(PropagationTest, MinimumDistanceClamped) {
  PropagationConfig cfg;
  cfg.shadowing_sigma_db = 0.0;
  cfg.asymmetry_sigma_db = 0.0;
  PropagationModel m{cfg, sim::Rng{3}};
  // Coincident nodes: distance clamps at 0.5 m, loss stays finite.
  const double loss = m.loss(NodeId{1}, {0, 0}, NodeId{2}, {0, 0}).value();
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(loss, 100.0);
}

// ---- HardwareProfile ---------------------------------------------------------------

TEST(HardwareTest, SampleSpreadMatchesConfig) {
  HardwareVariationConfig cfg;
  cfg.tx_offset_sigma_db = 2.0;
  cfg.noise_figure_sigma_db = 1.0;
  sim::Rng rng{5};
  double tx_sumsq = 0.0;
  double nf_sumsq = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto hw = HardwareProfile::sample(cfg, rng);
    tx_sumsq += hw.tx_power_offset.value() * hw.tx_power_offset.value();
    nf_sumsq +=
        hw.noise_figure_offset.value() * hw.noise_figure_offset.value();
  }
  EXPECT_NEAR(std::sqrt(tx_sumsq / n), 2.0, 0.15);
  EXPECT_NEAR(std::sqrt(nf_sumsq / n), 1.0, 0.1);
}

// ---- Interference -------------------------------------------------------------------

TEST(InterferenceTest, NullNeverDestroys) {
  NullInterference ni;
  EXPECT_EQ(ni.destroy_probability(NodeId{1}, sim::Time::from_us(0),
                                   sim::Time::from_us(1000)),
            0.0);
}

TEST(InterferenceTest, GilbertElliottTimeFractionMatchesDwells) {
  GilbertElliottInterference::Config cfg;
  cfg.mean_good = sim::Duration::from_seconds(90.0);
  cfg.mean_bad = sim::Duration::from_seconds(30.0);
  cfg.affected_fraction = 1.0;
  cfg.bad_loss_probability = 1.0;
  GilbertElliottInterference ge{cfg, sim::Rng{21}};
  // Sample the chain of one node over a long horizon; the bad-state
  // fraction should approach 30 / (90 + 30) = 0.25.
  int bad = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) {
    const auto t = sim::Time::from_us(static_cast<std::int64_t>(i) *
                                      1'000'000);  // 1 s grid
    if (ge.in_bad_state(NodeId{1}, t)) ++bad;
  }
  EXPECT_NEAR(static_cast<double>(bad) / samples, 0.25, 0.04);
}

TEST(InterferenceTest, UnaffectedNodesNeverBad) {
  GilbertElliottInterference::Config cfg;
  cfg.affected_fraction = 0.0;
  GilbertElliottInterference ge{cfg, sim::Rng{22}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(ge.in_bad_state(
        NodeId{3}, sim::Time::from_us(static_cast<std::int64_t>(i) * 1e7)));
  }
}

TEST(InterferenceTest, ExemptNodeNeverBad) {
  GilbertElliottInterference::Config cfg;
  cfg.affected_fraction = 1.0;
  cfg.exempt = NodeId{9};
  GilbertElliottInterference ge{cfg, sim::Rng{23}};
  for (int i = 0; i < 200; ++i) {
    const auto t = sim::Time::from_us(static_cast<std::int64_t>(i) * 1e7);
    EXPECT_FALSE(ge.in_bad_state(NodeId{9}, t));
  }
}

TEST(InterferenceTest, GilbertElliottStateIndependentOfQueryOrder) {
  // Each node's chain is seeded from its id alone, so two models with the
  // same seed see the same bursts whichever node they meet first. The
  // ids span the full NodeId range the state index must cover.
  GilbertElliottInterference::Config cfg;
  cfg.mean_good = sim::Duration::from_seconds(90.0);
  cfg.mean_bad = sim::Duration::from_seconds(30.0);
  cfg.affected_fraction = 1.0;
  cfg.exempt = NodeId{2};
  GilbertElliottInterference forward{cfg, sim::Rng{24}};
  GilbertElliottInterference backward{cfg, sim::Rng{24}};
  const std::vector<NodeId> ids{NodeId{1}, NodeId{2}, NodeId{93},
                                NodeId{65534}};
  const auto step = [&](sim::Time t, std::vector<bool>& fwd,
                        std::vector<bool>& bwd) {
    for (const NodeId id : ids) fwd.push_back(forward.in_bad_state(id, t));
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      bwd.push_back(backward.in_bad_state(*it, t));
    }
    std::reverse(bwd.end() - static_cast<std::ptrdiff_t>(ids.size()),
                 bwd.end());
  };
  std::vector<bool> fwd;
  std::vector<bool> bwd;
  int bad = 0;
  for (std::int64_t s = 0; s <= 2 * 3600; s += 5) {
    step(sim::Time::from_us(s * 1'000'000), fwd, bwd);
    bad += static_cast<int>(fwd[fwd.size() - 4]);  // node 1
  }
  EXPECT_EQ(fwd, bwd);
  EXPECT_GT(bad, 0);  // the chains did leave the good state
  for (std::size_t i = 1; i < fwd.size(); i += ids.size()) {
    EXPECT_FALSE(fwd[i]);  // node 2 is exempt
  }
}

/// The Gilbert–Elliott model as it answered before its per-node state
/// was split into an id-indexed dwell and a separate chain stream: one
/// record per node with an `affected` flag, a query that returns early
/// for unaffected nodes, and a virtual call. The oracle for the inline
/// query below.
class ReferenceGilbertElliott final : public InterferenceModel {
 public:
  using Config = GilbertElliottInterference::Config;

  struct NodeState {
    bool affected = false;
    bool bad = false;
    sim::Time state_until;
    sim::Rng rng;
  };

  ReferenceGilbertElliott(Config config, sim::Rng rng)
      : config_(config), rng_(rng) {}

  [[nodiscard]] double destroy_probability(NodeId rx, sim::Time start,
                                           sim::Time end) override {
    NodeState& st = state_for(rx);
    if (!st.affected) return 0.0;
    const sim::Time mid = start + (end - start) * 0.5;
    advance(st, mid);
    return st.bad ? config_.bad_loss_probability : 0.0;
  }

  [[nodiscard]] bool in_bad_state(NodeId rx, sim::Time t) {
    NodeState& st = state_for(rx);
    if (!st.affected) return false;
    advance(st, t);
    return st.bad;
  }

  /// The node's record, or nullptr before its first query.
  [[nodiscard]] const NodeState* state(NodeId rx) const {
    const auto it = std::find(ids_.begin(), ids_.end(), rx);
    return it == ids_.end() ? nullptr : &states_[it - ids_.begin()];
  }

 private:
  NodeState& state_for(NodeId rx) {
    const auto it = std::find(ids_.begin(), ids_.end(), rx);
    if (it != ids_.end()) return states_[it - ids_.begin()];
    NodeState st{.affected = false,
                 .bad = false,
                 .state_until = sim::Time{},
                 .rng = rng_.fork(rx.value())};
    st.affected =
        rx != config_.exempt && st.rng.bernoulli(config_.affected_fraction);
    st.state_until = sim::Time::from_us(0) +
                     sim::Duration::from_seconds(
                         st.rng.exponential(config_.mean_good.seconds()));
    ids_.push_back(rx);
    states_.push_back(st);
    return states_.back();
  }

  void advance(NodeState& st, sim::Time t) {
    while (st.state_until <= t) {
      st.bad = !st.bad;
      const sim::Duration mean =
          st.bad ? config_.mean_bad : config_.mean_good;
      st.state_until =
          st.state_until +
          sim::Duration::from_seconds(st.rng.exponential(mean.seconds()));
    }
  }

  Config config_;
  sim::Rng rng_;
  std::vector<NodeId> ids_;
  std::vector<NodeState> states_;
};

/// Whether two chain streams stand at the same place: their next draws
/// agree (copies are drawn from, so neither stream moves).
bool same_stream(sim::Rng a, sim::Rng b) {
  for (int i = 0; i < 4; ++i) {
    if (a.next_u64() != b.next_u64()) return false;
  }
  return true;
}

TEST(InterferenceTest, GilbertElliottMatchesReferenceOverRandomQueries) {
  // Short dwells, so a few simulated hours cross thousands of edges. Node
  // 3 is exempt; about half the rest are affected; id 300 sits far past
  // the others in the id-indexed state.
  GilbertElliottInterference::Config cfg;
  cfg.mean_good = sim::Duration::from_seconds(20.0);
  cfg.mean_bad = sim::Duration::from_seconds(5.0);
  cfg.bad_loss_probability = 0.8;
  cfg.affected_fraction = 0.45;
  cfg.exempt = NodeId{3};
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    GilbertElliottInterference fast{cfg, sim::Rng{seed}};
    ReferenceGilbertElliott ref{cfg, sim::Rng{seed}};
    const std::vector<NodeId> ids{NodeId{0}, NodeId{1}, NodeId{2},
                                  NodeId{3}, NodeId{4}, NodeId{5},
                                  NodeId{6}, NodeId{7}, NodeId{8},
                                  NodeId{9}, NodeId{10}, NodeId{300}};
    sim::Rng pick{seed + 100};
    std::int64_t now_us = 0;
    int late = 0;
    int edges = 0;
    int bad = 0;
    for (int step = 0; step < 40'000; ++step) {
      now_us += static_cast<std::int64_t>(pick.uniform_int(500'000));
      const NodeId rx = ids[pick.uniform_int(ids.size())];
      const auto kind = pick.uniform_int(10);
      if (kind < 6) {
        // A reception; one in five is late: it started well before the
        // node's latest query, so its midpoint is the earlier one.
        std::int64_t start_us = now_us;
        if (pick.bernoulli(0.2)) {
          start_us -= static_cast<std::int64_t>(pick.uniform_int(3'000'000));
          start_us = std::max<std::int64_t>(start_us, 0);
          ++late;
        }
        const auto start = sim::Time::from_us(start_us);
        const auto end =
            start + sim::Duration::from_us(static_cast<std::int64_t>(
                        300 + pick.uniform_int(8'000)));
        const double p = fast.destroy_probability(rx, start, end);
        ASSERT_EQ(p, ref.destroy_probability(rx, start, end))
            << "seed " << seed << " step " << step << " node " << rx.value();
        bad += static_cast<int>(p > 0.0);
      } else if (kind < 8) {
        const auto t = sim::Time::from_us(now_us);
        ASSERT_EQ(fast.in_bad_state(rx, t), ref.in_bad_state(rx, t))
            << "seed " << seed << " step " << step;
      } else if (const auto* st = ref.state(rx); st != nullptr) {
        // A dwell edge: the reference's dwell end, one microsecond
        // either side, or a frame whose midpoint is exactly the end.
        // For an unaffected node that is its never-advanced first draw.
        const sim::Time until = st->state_until;
        const auto off = static_cast<std::int64_t>(pick.uniform_int(4));
        ++edges;
        if (off == 3) {
          const auto start = until + sim::Duration::from_us(-1000);
          const auto end = until + sim::Duration::from_us(1000);
          ASSERT_EQ(fast.destroy_probability(rx, start, end),
                    ref.destroy_probability(rx, start, end))
              << "seed " << seed << " step " << step;
        } else {
          const auto t = until + sim::Duration::from_us(off - 1);
          ASSERT_EQ(fast.in_bad_state(rx, t), ref.in_bad_state(rx, t))
              << "seed " << seed << " step " << step;
        }
      }
      const auto* st = ref.state(rx);
      const sim::Rng* chain = fast.chain_rng(rx);
      ASSERT_EQ(chain == nullptr, st == nullptr);
      if (st != nullptr) {
        ASSERT_TRUE(same_stream(*chain, st->rng))
            << "seed " << seed << " step " << step << " node " << rx.value();
      }
    }
    EXPECT_GT(late, 1000);
    EXPECT_GT(edges, 1000);
    EXPECT_GT(bad, 100);
    for (const NodeId id : ids) {
      ASSERT_NE(ref.state(id), nullptr);
      EXPECT_TRUE(same_stream(*fast.chain_rng(id), ref.state(id)->rng));
    }
  }
}

TEST(InterferenceTest, ScheduledBurstWindowing) {
  std::vector<ScheduledBurstInterference::Burst> bursts = {
      {NodeId{1}, sim::Time::from_us(100), sim::Time::from_us(200), 0.5},
      {kBroadcastId, sim::Time::from_us(500), sim::Time::from_us(600), 0.9},
  };
  ScheduledBurstInterference si{bursts};
  // Inside the victim-specific window.
  EXPECT_EQ(si.destroy_probability(NodeId{1}, sim::Time::from_us(120),
                                   sim::Time::from_us(130)),
            0.5);
  // Wrong victim.
  EXPECT_EQ(si.destroy_probability(NodeId{2}, sim::Time::from_us(120),
                                   sim::Time::from_us(130)),
            0.0);
  // Broadcast burst hits everyone.
  EXPECT_EQ(si.destroy_probability(NodeId{2}, sim::Time::from_us(510),
                                   sim::Time::from_us(520)),
            0.9);
  // Outside every window.
  EXPECT_EQ(si.destroy_probability(NodeId{1}, sim::Time::from_us(300),
                                   sim::Time::from_us(310)),
            0.0);
  // Partial overlap counts.
  EXPECT_EQ(si.destroy_probability(NodeId{1}, sim::Time::from_us(90),
                                   sim::Time::from_us(110)),
            0.5);
}

// ---- Channel + Radio ------------------------------------------------------------------

class ChannelFixture : public ::testing::Test {
 protected:
  ChannelFixture() {
    PropagationConfig prop;
    prop.shadowing_sigma_db = 0.0;
    prop.asymmetry_sigma_db = 0.0;
    channel_ = std::make_unique<Channel>(
        sim_, PhyConfig{}, prop, std::make_unique<NullInterference>(),
        sim::Rng{42});
  }

  Radio make_radio(std::uint16_t id, double x) {
    return Radio{*channel_, NodeId{id}, Position{x, 0.0}, HardwareProfile{},
                 PowerDbm{0.0}};
  }

  sim::Simulator sim_;
  std::unique_ptr<Channel> channel_;
};

TEST_F(ChannelFixture, CloseRadiosAlwaysDeliver) {
  Radio a = make_radio(1, 0.0);
  Radio b = make_radio(2, 5.0);
  int received = 0;
  RxInfo last_info;
  b.set_rx_handler([&](std::span<const std::uint8_t> frame,
                       const RxInfo& info) {
    ++received;
    last_info = info;
    EXPECT_EQ(frame.size(), 10u);
  });
  for (int i = 0; i < 20; ++i) {
    a.transmit(std::vector<std::uint8_t>(10, 0x55), nullptr);
    sim_.run();
  }
  EXPECT_EQ(received, 20);
  EXPECT_GT(last_info.snr_db, 10.0);
  EXPECT_TRUE(last_info.white());  // clean channel -> white bit set
  EXPECT_GE(last_info.lqi(), 105);
}

TEST_F(ChannelFixture, FarRadiosNeverDeliver) {
  Radio a = make_radio(1, 0.0);
  Radio b = make_radio(2, 500.0);
  int received = 0;
  b.set_rx_handler(
      [&](std::span<const std::uint8_t>, const RxInfo&) { ++received; });
  for (int i = 0; i < 20; ++i) {
    a.transmit(std::vector<std::uint8_t>(10, 0x55), nullptr);
    sim_.run();
  }
  EXPECT_EQ(received, 0);
}

TEST_F(ChannelFixture, SenderDoesNotHearItself) {
  Radio a = make_radio(1, 0.0);
  int self_rx = 0;
  a.set_rx_handler(
      [&](std::span<const std::uint8_t>, const RxInfo&) { ++self_rx; });
  a.transmit(std::vector<std::uint8_t>(10, 1), nullptr);
  sim_.run();
  EXPECT_EQ(self_rx, 0);
}

TEST_F(ChannelFixture, TxDoneFiresAtAirtimeEnd) {
  Radio a = make_radio(1, 0.0);
  sim::Time done_at;
  a.transmit(std::vector<std::uint8_t>(10, 1),
             [&] { done_at = sim_.now(); });
  EXPECT_TRUE(a.transmitting());
  sim_.run();
  // 10-byte MPDU + 6 bytes PHY overhead at 250 kbps = 512 us.
  EXPECT_EQ(done_at.us(), 512);
  EXPECT_FALSE(a.transmitting());
}

TEST_F(ChannelFixture, StrongInterfererDestroysWeakerPacket) {
  // Capture: c sits next to interferer b and far from a. During overlap,
  // a's packet has deeply negative SINR at c and is lost; b's packet
  // shrugs off the weak interference and is received.
  Radio a = make_radio(1, 40.0);
  Radio b = make_radio(2, 2.0);
  Radio c = make_radio(3, 0.0);
  int from_a = 0;
  int from_b = 0;
  c.set_rx_handler(
      [&](std::span<const std::uint8_t> frame, const RxInfo& info) {
        if (!info.fcs_ok) return;
        (frame[0] == 1 ? from_a : from_b) += 1;
      });
  for (int i = 0; i < 20; ++i) {
    a.transmit(std::vector<std::uint8_t>(40, 1), nullptr);
    b.transmit(std::vector<std::uint8_t>(40, 2), nullptr);
    sim_.run();
  }
  EXPECT_EQ(from_a, 0);
  EXPECT_EQ(from_b, 20);
}

TEST_F(ChannelFixture, InterferenceDegradesMarginalLink) {
  // A link that is perfect in isolation loses packets when a concurrent
  // transmitter adds comparable interference power.
  Radio a = make_radio(1, 0.0);
  Radio c = make_radio(3, 30.0);
  Radio jammer = make_radio(2, 60.0);
  int received = 0;
  c.set_rx_handler([&](std::span<const std::uint8_t> frame,
                       const RxInfo& info) {
    if (info.fcs_ok && frame[0] == 1) ++received;
  });
  const int rounds = 50;
  for (int i = 0; i < rounds; ++i) {
    a.transmit(std::vector<std::uint8_t>(60, 1), nullptr);
    jammer.transmit(std::vector<std::uint8_t>(60, 2), nullptr);
    sim_.run();
  }
  EXPECT_LT(received, rounds);  // interference cost something
}

TEST_F(ChannelFixture, ReceiverBusyTransmittingMissesPacket) {
  Radio a = make_radio(1, 0.0);
  Radio b = make_radio(2, 5.0);
  int received = 0;
  b.set_rx_handler(
      [&](std::span<const std::uint8_t>, const RxInfo&) { ++received; });
  // b starts a long transmission; a transmits during it.
  b.transmit(std::vector<std::uint8_t>(100, 9), nullptr);
  a.transmit(std::vector<std::uint8_t>(10, 1), nullptr);
  sim_.run();
  EXPECT_EQ(received, 0);
}

TEST_F(ChannelFixture, CcaSeesNearbyTransmission) {
  Radio a = make_radio(1, 0.0);
  Radio b = make_radio(2, 5.0);
  EXPECT_TRUE(b.channel_clear());
  a.transmit(std::vector<std::uint8_t>(100, 1), nullptr);
  EXPECT_FALSE(b.channel_clear());
  EXPECT_FALSE(a.channel_clear());  // own transmission
  sim_.run();
  EXPECT_TRUE(b.channel_clear());
}

TEST_F(ChannelFixture, MeanPrrMatchesSnrCurve) {
  Radio a = make_radio(1, 0.0);
  Radio b = make_radio(2, 5.0);
  EXPECT_NEAR(channel_->mean_prr(a, b, 40), 1.0, 1e-6);
  Radio far = make_radio(3, 400.0);
  EXPECT_LT(channel_->mean_prr(a, far, 40), 0.01);
}

TEST_F(ChannelFixture, FramesTransmittedCounts) {
  Radio a = make_radio(1, 0.0);
  const auto before = channel_->frames_transmitted();
  a.transmit(std::vector<std::uint8_t>(10, 1), nullptr);
  sim_.run();
  a.transmit(std::vector<std::uint8_t>(10, 1), nullptr);
  sim_.run();
  EXPECT_EQ(channel_->frames_transmitted(), before + 2);
}

TEST_F(ChannelFixture, HardwareOffsetsShiftSnr) {
  Radio a = make_radio(1, 0.0);
  Radio b = make_radio(2, 30.0);
  HardwareProfile hot;
  hot.tx_power_offset = Decibels{4.0};
  Radio a_hot{*channel_, NodeId{3}, Position{0.0, 0.1}, hot, PowerDbm{0.0}};
  EXPECT_NEAR(channel_->snr_db(a_hot, b) - channel_->snr_db(a, b), 4.0, 0.5);
}

TEST(ChannelBurstTest, BurstDestroysWithoutLqiTrace) {
  // During a 100%-destroy burst nothing is received at all; after it,
  // packets arrive with HIGH LQI — the Figure 3 mechanism in miniature.
  sim::Simulator sim;
  PropagationConfig prop;
  prop.shadowing_sigma_db = 0.0;
  prop.asymmetry_sigma_db = 0.0;
  std::vector<ScheduledBurstInterference::Burst> bursts = {
      {NodeId{2}, sim::Time::from_us(0), sim::Time::from_us(10'000'000),
       1.0}};
  Channel channel{sim, PhyConfig{}, prop,
                  std::make_unique<ScheduledBurstInterference>(bursts),
                  sim::Rng{1}};
  Radio a{channel, NodeId{1}, {0, 0}, HardwareProfile{}, PowerDbm{0.0}};
  Radio b{channel, NodeId{2}, {5, 0}, HardwareProfile{}, PowerDbm{0.0}};
  int received = 0;
  int min_lqi = 200;
  b.set_rx_handler([&](std::span<const std::uint8_t>, const RxInfo& info) {
    if (!info.fcs_ok) return;  // the MAC would drop these
    ++received;
    min_lqi = std::min(min_lqi, info.lqi());
  });
  // 5 packets during the burst: all destroyed.
  for (int i = 0; i < 5; ++i) {
    a.transmit(std::vector<std::uint8_t>(20, 1), nullptr);
    sim.run();
  }
  EXPECT_EQ(received, 0);
  // After the burst: all received, all clean.
  sim.run_until(sim::Time::from_us(10'000'001));
  for (int i = 0; i < 5; ++i) {
    a.transmit(std::vector<std::uint8_t>(20, 1), nullptr);
    sim.run();
  }
  EXPECT_EQ(received, 5);
  EXPECT_GE(min_lqi, 100);
}

/// Every delivery (receiver, clean or corrupt, LQI) of a round-robin
/// broadcast run over 12 radios, under `interference`.
std::vector<std::int64_t> burst_run(
    std::unique_ptr<InterferenceModel> interference) {
  sim::Simulator sim;
  Channel channel{sim, PhyConfig{}, PropagationConfig{},
                  std::move(interference), sim::Rng{5}};
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::int64_t> deliveries;
  for (std::uint16_t i = 0; i < 12; ++i) {
    radios.push_back(std::make_unique<Radio>(
        channel, NodeId{static_cast<std::uint16_t>(i + 1)},
        Position{static_cast<double>(i % 4) * 12.0,
                 static_cast<double>(i / 4) * 12.0},
        HardwareProfile{}, PowerDbm{0.0}));
    radios.back()->set_rx_handler(
        [&deliveries, i](std::span<const std::uint8_t>, const RxInfo& info) {
          deliveries.push_back(i * 1000 + (info.fcs_ok ? 500 : 0) +
                               info.lqi());
        });
  }
  for (int k = 0; k < 3000; ++k) {
    radios[static_cast<std::size_t>(k) % radios.size()]->transmit(
        std::vector<std::uint8_t>(30, 7), nullptr);
    sim.run_until(sim.now() + sim::Duration::from_ms(700));
  }
  return deliveries;
}

TEST(ChannelBurstTest, DirectGilbertElliottQueryMatchesVirtualReference) {
  // The channel calls the Gilbert–Elliott model directly; the reference
  // model, being another type, goes through the virtual call. Every
  // delivery must agree, and the bursts must have destroyed some.
  GilbertElliottInterference::Config cfg;
  cfg.mean_good = sim::Duration::from_seconds(30.0);
  cfg.mean_bad = sim::Duration::from_seconds(10.0);
  cfg.exempt = NodeId{1};
  const auto direct = burst_run(
      std::make_unique<GilbertElliottInterference>(cfg, sim::Rng{9}));
  const auto reference =
      burst_run(std::make_unique<ReferenceGilbertElliott>(cfg, sim::Rng{9}));
  const auto calm = burst_run(std::make_unique<NullInterference>());
  EXPECT_EQ(direct, reference);
  const auto clean = [](const std::vector<std::int64_t>& d) {
    return std::count_if(d.begin(), d.end(),
                         [](std::int64_t v) { return v % 1000 >= 500; });
  };
  EXPECT_LT(clean(direct) + 100, clean(calm));
}

}  // namespace
}  // namespace fourbit::phy
