// Property-based tests: invariants that must hold across randomized
// inputs, seeds, and configurations (parameterized gtest sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/four_bit_estimator.hpp"
#include "phy/interference.hpp"
#include "phy/modulation.hpp"
#include "runner/experiment.hpp"
#include "sim/rng.hpp"
#include "topology/topology.hpp"

namespace fourbit {
namespace {

// ---- estimator invariants under random operation streams ------------------

class EstimatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EstimatorFuzz, InvariantsHoldUnderRandomOps) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng{seed};
  core::FourBitConfig cfg;
  cfg.table_capacity = 6;
  cfg.probabilistic_insert_p = 0.3;
  core::FourBitEstimator est{cfg, rng.fork("est")};

  // One node gets pinned once it appears and must survive forever.
  const NodeId precious{1};
  bool precious_pinned = false;
  std::uint8_t seqs[40] = {};

  for (int step = 0; step < 5000; ++step) {
    const auto op = rng.uniform_int(100);
    const NodeId n{static_cast<std::uint16_t>(1 + rng.uniform_int(40))};
    if (op < 50) {
      // Beacon (random white bit, advancing per-node sequence number).
      const bool white = rng.bernoulli(0.6);
      const link::FixedPhyInfo info{
          white, static_cast<int>(60 + rng.uniform_int(50))};
      auto& seq = seqs[n.value() - 1];
      seq = static_cast<std::uint8_t>(seq + 1 + rng.uniform_int(3));
      const std::vector<std::uint8_t> wire{seq};
      (void)est.unwrap_beacon(n, wire, info);
    } else if (op < 85) {
      est.on_unicast_result(n, rng.bernoulli(0.7));
    } else if (op < 92) {
      est.remove(n);
    } else if (n != precious) {
      // Random pin/unpin churn on non-precious nodes only — the test's
      // contract is that `precious` stays pinned once pinned.
      (void)est.pin(n);
      est.unpin(n);
    }

    if (!precious_pinned && est.etx(precious).has_value()) {
      ASSERT_TRUE(est.pin(precious));
      precious_pinned = true;
    }

    // Invariants.
    ASSERT_LE(est.table_size(), cfg.table_capacity);
    for (const NodeId nb : est.neighbors()) {
      const auto etx = est.etx(nb);
      if (etx.has_value()) {
        ASSERT_GE(*etx, 1.0);
        ASSERT_LE(*etx, cfg.max_etx_sample);
      }
      const auto q = est.beacon_quality(nb);
      if (q.has_value()) {
        ASSERT_GE(*q, 0.0);
        ASSERT_LE(*q, 1.0);
      }
    }
    if (precious_pinned) {
      ASSERT_TRUE(est.etx(precious).has_value())
          << "pinned entry vanished at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- modulation properties ---------------------------------------------------

class ModulationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModulationSweep, PrrMonotoneInSnr) {
  const std::size_t frame_bytes = GetParam();
  phy::OqpskModulation mod;
  double prev = 0.0;
  for (double snr = -12.0; snr <= 12.0; snr += 0.2) {
    const double prr = mod.packet_reception_ratio(snr, frame_bytes);
    ASSERT_GE(prr, prev - 1e-12) << "snr " << snr;
    ASSERT_GE(prr, 0.0);
    ASSERT_LE(prr, 1.0);
    prev = prr;
  }
}

INSTANTIATE_TEST_SUITE_P(FrameLengths, ModulationSweep,
                         ::testing::Values(10, 20, 46, 80, 127));

// ---- Gilbert-Elliott stationarity across configurations -------------------------

class GilbertElliottSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GilbertElliottSweep, BadFractionMatchesDwellRatio) {
  const auto [good_s, bad_s] = GetParam();
  phy::GilbertElliottInterference::Config cfg;
  cfg.mean_good = sim::Duration::from_seconds(good_s);
  cfg.mean_bad = sim::Duration::from_seconds(bad_s);
  cfg.affected_fraction = 1.0;
  phy::GilbertElliottInterference ge{cfg, sim::Rng{77}};
  int bad = 0;
  const int samples = 30000;
  for (int i = 0; i < samples; ++i) {
    const auto t =
        sim::Time::from_us(static_cast<std::int64_t>(i) * 500'000);
    if (ge.in_bad_state(NodeId{4}, t)) ++bad;
  }
  const double expected = bad_s / (good_s + bad_s);
  EXPECT_NEAR(static_cast<double>(bad) / samples, expected,
              0.2 * expected + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Dwells, GilbertElliottSweep,
    ::testing::Values(std::pair{300.0, 30.0}, std::pair{120.0, 60.0},
                      std::pair{60.0, 60.0}, std::pair{400.0, 45.0}));

// ---- full-experiment invariants across profiles and seeds -----------------------

class ExperimentSweep
    : public ::testing::TestWithParam<std::tuple<runner::Profile, int>> {};

TEST_P(ExperimentSweep, MetricsAreConsistent) {
  const auto [profile, seed] = GetParam();
  sim::Rng rng{static_cast<std::uint64_t>(seed)};
  runner::ExperimentConfig cfg;
  // A small, noisy testbed: 12 nodes over the Mirage environment.
  auto tb = topology::mirage(rng);
  tb.topology.nodes.resize(12);
  cfg.testbed = std::move(tb);
  cfg.profile = profile;
  cfg.duration = sim::Duration::from_minutes(4.0);
  cfg.traffic.period = sim::Duration::from_seconds(4.0);
  cfg.seed = static_cast<std::uint64_t>(seed);

  const auto r = runner::run_experiment(cfg);

  EXPECT_GE(r.delivery_ratio, 0.0);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_LE(r.delivered, r.generated);
  if (r.delivered > 0) {
    EXPECT_GE(r.cost, 1.0) << "cost below one transmission per packet";
  }
  EXPECT_GE(r.mean_depth, 0.0);
  EXPECT_LT(r.mean_depth, 12.0);
  // Every routed node's depth is sane.
  for (const int d : r.final_tree.depths) {
    EXPECT_GE(d, -1);
    EXPECT_LT(d, 12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndSeeds, ExperimentSweep,
    ::testing::Combine(::testing::Values(runner::Profile::kFourBit,
                                         runner::Profile::kCtpT2,
                                         runner::Profile::kMultihopLqi),
                       ::testing::Values(1, 7, 42)));

// ---- power sweep invariants -------------------------------------------------------

class PowerSweep : public ::testing::TestWithParam<double> {};

TEST_P(PowerSweep, FourBitStaysConnectedAcrossPowers) {
  const double power = GetParam();
  sim::Rng rng{9};
  runner::ExperimentConfig cfg;
  cfg.testbed = topology::mirage(rng);
  cfg.profile = runner::Profile::kFourBit;
  cfg.tx_power = PowerDbm{power};
  cfg.duration = sim::Duration::from_minutes(8.0);
  cfg.seed = 9;
  const auto r = runner::run_experiment(cfg);
  EXPECT_GT(r.delivery_ratio, 0.9) << "at " << power << " dBm";
  // Depth grows monotonically as power falls — checked loosely here,
  // exactly in bench/fig7.
  EXPECT_GT(r.mean_depth, 0.9);
}

INSTANTIATE_TEST_SUITE_P(Powers, PowerSweep,
                         ::testing::Values(0.0, -10.0, -20.0));

// ---- RNG distribution sweep ----------------------------------------------------------

class RngSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSweep, UniformMomentsAcrossSeeds) {
  sim::Rng rng{GetParam()};
  const int n = 50000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sumsq += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(sumsq / n - 0.25, 1.0 / 12.0, 0.005);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSweep,
                         ::testing::Values(0, 1, 42, 12345, 999999));

}  // namespace
}  // namespace fourbit
