// End-to-end integration tests: full protocol stacks over the simulated
// radio — collection on small topologies, failure injection, and the
// headline behavioural contrasts between 4B and the PHY-only baseline.
#include <gtest/gtest.h>

#include <memory>

#include "app/traffic.hpp"
#include "core/four_bit_estimator.hpp"
#include "mac/csma.hpp"
#include "phy/interference.hpp"
#include "runner/experiment.hpp"
#include "runner/network.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"
#include "topology/topology.hpp"

namespace fourbit {
namespace {

/// A benign, deterministic radio environment (no shadowing, no bursts).
topology::Environment clean_environment() {
  topology::Environment env;
  env.propagation.reference_loss = Decibels{37.0};
  env.propagation.exponent = 4.0;
  env.propagation.shadowing_sigma_db = 0.0;
  env.propagation.asymmetry_sigma_db = 0.0;
  env.hardware.tx_offset_sigma_db = 0.0;
  env.hardware.noise_figure_sigma_db = 0.0;
  env.burst_interference = false;
  return env;
}

topology::Testbed line_testbed(std::size_t n, double spacing) {
  topology::Testbed tb;
  tb.topology = topology::line(n, spacing);
  tb.environment = clean_environment();
  return tb;
}

runner::ExperimentConfig base_config(topology::Testbed tb,
                                     runner::Profile profile) {
  runner::ExperimentConfig cfg;
  cfg.testbed = std::move(tb);
  cfg.profile = profile;
  cfg.duration = sim::Duration::from_minutes(6.0);
  cfg.traffic.period = sim::Duration::from_seconds(5.0);
  cfg.boot_stagger = sim::Duration::from_seconds(5.0);
  cfg.seed = 11;
  return cfg;
}

TEST(IntegrationTest, TwoNodesPerfectLink) {
  const auto r = runner::run_experiment(
      base_config(line_testbed(2, 10.0), runner::Profile::kFourBit));
  EXPECT_GT(r.generated, 50u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0);
  // One perfect hop: cost within a few percent of 1 transmission/packet.
  EXPECT_NEAR(r.cost, 1.0, 0.05);
  EXPECT_NEAR(r.mean_depth, 1.0, 0.01);
}

TEST(IntegrationTest, LineTopologyCostApproachesDepth) {
  // 4 nodes, 30 m apart: each hop is clean, 60 m is undecodable, so the
  // tree must be the chain 3->2->1->0 and cost ~ mean depth = 2.
  const auto r = runner::run_experiment(
      base_config(line_testbed(4, 30.0), runner::Profile::kFourBit));
  EXPECT_GT(r.delivery_ratio, 0.99);
  ASSERT_EQ(r.final_tree.depths.size(), 4u);
  EXPECT_EQ(r.final_tree.depths[1], 1);
  EXPECT_EQ(r.final_tree.depths[2], 2);
  EXPECT_EQ(r.final_tree.depths[3], 3);
  EXPECT_NEAR(r.cost, 2.0, 0.2);
}

TEST(IntegrationTest, AllProfilesDeliverOnCleanNetwork) {
  for (const auto profile :
       {runner::Profile::kFourBit, runner::Profile::kCtpT2,
        runner::Profile::kCtpUnidirAck, runner::Profile::kCtpWhiteCompare,
        runner::Profile::kCtpUnconstrained,
        runner::Profile::kMultihopLqi}) {
    const auto r = runner::run_experiment(
        base_config(line_testbed(3, 25.0), profile));
    EXPECT_GT(r.delivery_ratio, 0.98)
        << "profile " << runner::profile_name(profile);
    EXPECT_LT(r.cost, 2.6) << "profile " << runner::profile_name(profile);
  }
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  const auto a = runner::run_experiment(
      base_config(line_testbed(4, 30.0), runner::Profile::kFourBit));
  const auto b = runner::run_experiment(
      base_config(line_testbed(4, 30.0), runner::Profile::kFourBit));
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_tx, b.data_tx);
  EXPECT_EQ(a.beacon_tx, b.beacon_tx);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(IntegrationTest, DifferentSeedsDiffer) {
  // A noisy testbed: the seed changes shadowing, bursts and jitter, so
  // transmission counts differ between seeds.
  sim::Rng rng_a{21};
  runner::ExperimentConfig cfg;
  cfg.testbed = topology::mirage(rng_a);
  cfg.profile = runner::Profile::kFourBit;
  cfg.duration = sim::Duration::from_minutes(3.0);
  cfg.seed = 21;
  const auto a = runner::run_experiment(cfg);
  sim::Rng rng_b{22};
  cfg.testbed = topology::mirage(rng_b);
  cfg.seed = 22;
  const auto b = runner::run_experiment(cfg);
  EXPECT_NE(a.data_tx, b.data_tx);
}

// ---- the diamond scenario ---------------------------------------------------
//
//        A (relay, closer to L)
//   R  <           > L
//        B (relay, farther)
//
// A's reception gets jammed mid-run. The ack bit lets 4B route L around
// the failure; MultiHopLQI keeps seeing pristine LQI on A's beacons and
// stays, losing packets.

topology::Testbed diamond_testbed() {
  topology::Testbed tb;
  tb.environment = clean_environment();
  tb.topology.root = NodeId{0};
  // 60 m root-to-leaf is undecodable in the clean environment, so the
  // leaf MUST relay through A or B; A is slightly better placed.
  tb.topology.nodes = {
      {NodeId{0}, Position{0.0, 0.0}},     // root R
      {NodeId{1}, Position{30.0, 8.0}},    // relay A (better placed)
      {NodeId{2}, Position{30.0, -16.0}},  // relay B (worse but clean)
      {NodeId{3}, Position{60.0, 0.0}},    // leaf L
  };
  return tb;
}

struct DiamondResult {
  double delivery;
  NodeId leaf_parent;
};

DiamondResult run_diamond(runner::Profile profile) {
  sim::Simulator sim;
  stats::Metrics metrics;

  runner::Network::Options options;
  options.profile = profile;
  options.seed = 5;
  // Relay A's receiver is jammed (90% whole-packet loss) from t=120 s on.
  std::vector<phy::ScheduledBurstInterference::Burst> bursts = {
      {NodeId{1}, sim::Time::from_us(0) + sim::Duration::from_seconds(120.0),
       sim::Time::from_us(0) + sim::Duration::from_hours(2.0), 0.9}};
  options.interference_override =
      std::make_unique<phy::ScheduledBurstInterference>(bursts);

  runner::Network net{sim, diamond_testbed(), std::move(options), &metrics};
  app::TrafficConfig traffic;
  traffic.period = sim::Duration::from_seconds(2.0);
  net.start(sim::Duration::from_seconds(5.0), traffic);
  sim.run_for(sim::Duration::from_minutes(12.0));

  return DiamondResult{metrics.delivery_ratio(),
                       net.node(3).routing().parent()};
}

TEST(IntegrationTest, FourBitRoutesAroundJammedRelay) {
  const auto r = run_diamond(runner::Profile::kFourBit);
  EXPECT_EQ(r.leaf_parent, NodeId{2}) << "leaf should have moved to relay B";
  EXPECT_GT(r.delivery, 0.93);
}

TEST(IntegrationTest, MultihopLqiBlindToJammedRelay) {
  const auto lqi = run_diamond(runner::Profile::kMultihopLqi);
  const auto fourb = run_diamond(runner::Profile::kFourBit);
  // The PHY-only estimator keeps losing packets that the 4B stack saves.
  EXPECT_GT(fourb.delivery, lqi.delivery + 0.1);
}

TEST(IntegrationTest, NetworkSurvivesRelayDeath) {
  sim::Simulator sim;
  stats::Metrics metrics;
  runner::Network::Options options;
  options.profile = runner::Profile::kFourBit;
  options.seed = 6;
  runner::Network net{sim, diamond_testbed(), std::move(options), &metrics};
  app::TrafficConfig traffic;
  traffic.period = sim::Duration::from_seconds(2.0);
  net.start(sim::Duration::from_seconds(5.0), traffic);

  sim.run_for(sim::Duration::from_minutes(3.0));
  // Kill whichever relay the leaf is using.
  const NodeId used = net.node(3).routing().parent();
  ASSERT_TRUE(used == NodeId{1} || used == NodeId{2});
  const std::size_t victim = used == NodeId{1} ? 1 : 2;
  // The relay goes deaf: from now on it receives nothing. It is not
  // mute — its own frames (beacons, retries of what it had queued) still
  // go on the air — and the leaf must route around it anyway.
  net.channel().detach(net.radio(victim));

  sim.run_for(sim::Duration::from_minutes(9.0));
  const auto snap = net.tree_snapshot();
  // The leaf found the other relay and still has a path to the root.
  EXPECT_GE(snap.depths[3], 1);
  EXPECT_NE(net.node(3).routing().parent(), used);
  EXPECT_GT(metrics.delivery_ratio(), 0.7);
}

TEST(IntegrationTest, MirageShortRunIsHealthy) {
  sim::Rng rng{31};
  runner::ExperimentConfig cfg;
  cfg.testbed = topology::mirage(rng);
  cfg.profile = runner::Profile::kFourBit;
  cfg.duration = sim::Duration::from_minutes(8.0);
  cfg.seed = 31;
  const auto r = runner::run_experiment(cfg);
  // 84 senders, 1 pkt / 10 s, 8 min => ~4000 packets.
  EXPECT_GT(r.generated, 3500u);
  EXPECT_LT(r.generated, 4500u);
  EXPECT_GT(r.delivery_ratio, 0.95);
  EXPECT_GE(r.cost, 1.0);
  EXPECT_GT(r.mean_depth, 1.0);
  EXPECT_LT(r.mean_depth, 5.0);
  EXPECT_GT(r.final_tree.routed, 80u);
}

TEST(IntegrationTest, EstimatorConvergesToTrueEtxOverRadio) {
  // One gray-zone link driven by real MAC traffic: the 4B unicast ETX
  // should approach 1 / (PRR_fwd * PRR_ack) within a modest tolerance.
  sim::Simulator sim;
  phy::PropagationConfig prop;
  prop.shadowing_sigma_db = 0.0;
  prop.asymmetry_sigma_db = 0.0;
  phy::Channel channel{sim, phy::PhyConfig{}, prop,
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{3}};
  phy::Radio a{channel, NodeId{1}, {0, 0}, phy::HardwareProfile{},
               PowerDbm{0.0}};
  // Find a distance with PRR in the gray zone.
  double d = 40.0;
  for (double trial = 40.0; trial < 200.0; trial += 0.5) {
    phy::Radio probe{channel,
                     NodeId{static_cast<std::uint16_t>(5000 + trial * 2)},
                     {trial, 0}, phy::HardwareProfile{}, PowerDbm{0.0}};
    const double prr = channel.mean_prr(a, probe, 40);
    if (prr < 0.75) {
      d = trial;
      break;
    }
  }
  phy::Radio b{channel, NodeId{2}, {d, 0}, phy::HardwareProfile{},
               PowerDbm{0.0}};
  mac::CsmaMac mac_a{sim, a, mac::CsmaConfig{}, sim::Rng{10}};
  mac::CsmaMac mac_b{sim, b, mac::CsmaConfig{}, sim::Rng{11}};
  mac_b.set_rx_handler([](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                          const phy::RxInfo&) {});

  core::FourBitEstimator est{core::FourBitConfig{}, sim::Rng{12}};
  {
    const link::FixedPhyInfo seed{true, 110};
    const std::vector<std::uint8_t> wire{0};
    (void)est.unwrap_beacon(NodeId{2}, wire, seed);
  }

  int acked = 0;
  int total = 0;
  std::function<void()> pump = [&] {
    if (total >= 2000) return;
    mac_a.send(NodeId{2}, std::vector<std::uint8_t>(34, 1),
               [&](const mac::TxResult& r) {
                 ++total;
                 if (r.acked) ++acked;
                 est.on_unicast_result(NodeId{2}, r.acked);
                 sim.schedule_in(sim::Duration::from_ms(30), pump);
               });
  };
  pump();
  sim.run();

  ASSERT_EQ(total, 2000);
  const double ack_rate = static_cast<double>(acked) / total;
  ASSERT_GT(ack_rate, 0.1);
  const double true_etx = 1.0 / ack_rate;
  EXPECT_NEAR(est.etx(NodeId{2}).value(), true_etx, true_etx * 0.35);
}

}  // namespace
}  // namespace fourbit
