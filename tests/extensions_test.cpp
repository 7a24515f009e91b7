// Tests of the extension modules: energy accounting, ASCII maps, the
// snoop tap, alternative white-bit sources, FCS behaviour over the air,
// and the runner's profile factory.
#include <gtest/gtest.h>

#include <memory>

#include "mac/csma.hpp"
#include "phy/channel.hpp"
#include "phy/interference.hpp"
#include "runner/experiment.hpp"
#include "runner/profile.hpp"
#include "sim/simulator.hpp"
#include "stats/ascii_map.hpp"
#include "stats/energy.hpp"
#include "topology/topology.hpp"

namespace fourbit {
namespace {

// ---- EnergyModel -----------------------------------------------------------

TEST(EnergyTest, TxCurrentInterpolation) {
  stats::EnergyConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.tx_current_ma(PowerDbm{0.0}), 17.4);
  EXPECT_DOUBLE_EQ(cfg.tx_current_ma(PowerDbm{5.0}), 17.4);  // clamped
  EXPECT_DOUBLE_EQ(cfg.tx_current_ma(PowerDbm{-10.0}), 11.0);
  EXPECT_DOUBLE_EQ(cfg.tx_current_ma(PowerDbm{-25.0}), 8.5);
  EXPECT_DOUBLE_EQ(cfg.tx_current_ma(PowerDbm{-40.0}), 8.5);  // clamped
  // Midpoints interpolate.
  EXPECT_NEAR(cfg.tx_current_ma(PowerDbm{-5.0}), (11.0 + 17.4) / 2, 1e-9);
}

TEST(EnergyTest, ChargeAccumulatesPerNode) {
  stats::EnergyModel model;
  const auto airtime = sim::Duration::from_seconds(3600.0);  // 1 hour
  model.on_transmit(NodeId{1}, airtime, PowerDbm{0.0});
  model.on_transmit(NodeId{1}, airtime, PowerDbm{0.0});
  model.on_transmit(NodeId{2}, airtime, PowerDbm{-10.0});

  const auto report = model.report(sim::Duration::from_hours(2.0),
                                   {NodeId{1}, NodeId{2}, NodeId{3}});
  ASSERT_EQ(report.nodes.size(), 3u);
  // Worst node is node 1: 2 h of TX at 17.4 mA + 2 h listen at 18.8 mA.
  EXPECT_EQ(report.nodes[0].node, NodeId{1});
  EXPECT_NEAR(report.nodes[0].tx_mah, 2.0 * 17.4, 1e-9);
  EXPECT_NEAR(report.nodes[0].listen_mah, 2.0 * 18.8, 1e-9);
  // Node 3 never transmitted but still listens.
  const auto& idle = report.nodes[2];
  EXPECT_EQ(idle.node, NodeId{3});
  EXPECT_DOUBLE_EQ(idle.tx_mah, 0.0);
  EXPECT_NEAR(idle.listen_mah, 2.0 * 18.8, 1e-9);
}

TEST(EnergyTest, LifetimeProjectionScales) {
  stats::EnergyModel model;
  model.on_transmit(NodeId{1}, sim::Duration::from_seconds(36.0),
                    PowerDbm{0.0});
  const auto report =
      model.report(sim::Duration::from_hours(1.0), {NodeId{1}});
  // Draw in 1 h: 17.4 mA * 0.01 h + 18.8 mAh listen = ~18.974 mAh.
  // Per day: ~455 mAh; 2000 mAh battery -> ~4.4 days.
  EXPECT_NEAR(report.projected_lifetime_days, 2000.0 / (18.974 * 24.0),
              0.05);
}

TEST(EnergyTest, ChannelObserverFeedsModel) {
  sim::Simulator sim;
  phy::PropagationConfig prop;
  prop.shadowing_sigma_db = 0.0;
  prop.asymmetry_sigma_db = 0.0;
  phy::Channel channel{sim, phy::PhyConfig{}, prop,
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{1}};
  stats::EnergyModel model;
  channel.set_tx_observer(
      [&](NodeId n, sim::Duration airtime, PowerDbm p) {
        model.on_transmit(n, airtime, p);
      });
  phy::Radio a{channel, NodeId{1}, {0, 0}, phy::HardwareProfile{},
               PowerDbm{0.0}};
  a.transmit(std::vector<std::uint8_t>(10, 1), nullptr);
  sim.run();
  const auto report = model.report(sim::Duration::from_seconds(1.0),
                                   {NodeId{1}});
  EXPECT_GT(report.nodes[0].tx_mah, 0.0);
  // 16 bytes on air at 250 kbps = 512 us.
  EXPECT_EQ(report.nodes[0].tx_airtime.us(), 512);
}

// ---- ASCII map --------------------------------------------------------------

TEST(AsciiMapTest, RendersRootAndDepths) {
  std::vector<stats::AsciiMapEntry> entries = {
      {Position{0.0, 0.0}, 0},
      {Position{10.0, 0.0}, 1},
      {Position{0.0, 10.0}, 2},
      {Position{10.0, 10.0}, -1},
      {Position{5.0, 5.0}, 12},
  };
  const std::string map = stats::render_ascii_map(entries, 20, 10);
  EXPECT_NE(map.find('R'), std::string::npos);
  EXPECT_NE(map.find('1'), std::string::npos);
  EXPECT_NE(map.find('2'), std::string::npos);
  EXPECT_NE(map.find('.'), std::string::npos);  // routeless
  EXPECT_NE(map.find('+'), std::string::npos);  // depth > 9
}

TEST(AsciiMapTest, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(stats::render_ascii_map({}).empty());
  EXPECT_TRUE(
      stats::render_ascii_map({{Position{0, 0}, 0}}, 1, 1).empty());
  // A single node still renders.
  const std::string one =
      stats::render_ascii_map({{Position{3, 3}, 0}}, 10, 4);
  EXPECT_NE(one.find('R'), std::string::npos);
}

TEST(AsciiMapTest, ShallowerNodeWinsCell) {
  // Two nodes collapsing onto the same cell: the shallower one shows.
  std::vector<stats::AsciiMapEntry> entries = {
      {Position{0.0, 0.0}, 5},
      {Position{0.0, 0.0}, 1},      // same cell, shallower
      {Position{100.0, 100.0}, 3},  // stretch the bounding box
  };
  const std::string map = stats::render_ascii_map(entries, 30, 10);
  EXPECT_NE(map.find('1'), std::string::npos);
  EXPECT_EQ(map.find('5'), std::string::npos);
}

// ---- snoop tap ----------------------------------------------------------------

TEST(SnoopTest, OverheardUnicastReachesSnoopHandlerOnly) {
  sim::Simulator sim;
  phy::PropagationConfig prop;
  prop.shadowing_sigma_db = 0.0;
  prop.asymmetry_sigma_db = 0.0;
  phy::Channel channel{sim, phy::PhyConfig{}, prop,
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{2}};
  phy::Radio ra{channel, NodeId{1}, {0, 0}, phy::HardwareProfile{},
                PowerDbm{0.0}};
  phy::Radio rb{channel, NodeId{2}, {5, 0}, phy::HardwareProfile{},
                PowerDbm{0.0}};
  phy::Radio rc{channel, NodeId{3}, {-5, 0}, phy::HardwareProfile{},
                PowerDbm{0.0}};
  mac::CsmaMac ma{sim, ra, mac::CsmaConfig{}, sim::Rng{10}};
  mac::CsmaMac mb{sim, rb, mac::CsmaConfig{}, sim::Rng{11}};
  mac::CsmaMac mc{sim, rc, mac::CsmaConfig{}, sim::Rng{12}};

  int b_rx = 0;
  int c_rx = 0;
  int c_snoop = 0;
  mb.set_rx_handler([&](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                        const phy::RxInfo&) { ++b_rx; });
  mc.set_rx_handler([&](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                        const phy::RxInfo&) { ++c_rx; });
  mc.set_snoop_handler([&](NodeId src, std::uint8_t,
                           std::span<const std::uint8_t>,
                           const phy::RxInfo&) {
    ++c_snoop;
    EXPECT_EQ(src, NodeId{1});
  });

  ma.send(NodeId{2}, std::vector<std::uint8_t>(6, 7), nullptr);
  sim.run();
  EXPECT_EQ(b_rx, 1);
  EXPECT_EQ(c_rx, 0);     // not addressed to c
  EXPECT_EQ(c_snoop, 1);  // but overheard
}

// ---- white-bit sources -----------------------------------------------------------

TEST(WhiteBitTest, SnrSourceThresholds) {
  sim::Simulator sim;
  phy::PhyConfig phy_cfg;
  phy_cfg.white_bit_source = phy::PhyConfig::WhiteBitSource::kSnr;
  phy_cfg.white_bit_snr_threshold_db = 3.0;
  phy::PropagationConfig prop;
  prop.shadowing_sigma_db = 0.0;
  prop.asymmetry_sigma_db = 0.0;
  phy::Channel channel{sim, phy_cfg, prop,
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{3}};
  phy::Radio a{channel, NodeId{1}, {0, 0}, phy::HardwareProfile{},
               PowerDbm{0.0}};
  phy::Radio near{channel, NodeId{2}, {5, 0}, phy::HardwareProfile{},
                  PowerDbm{0.0}};
  bool white = false;
  near.set_rx_handler([&](std::span<const std::uint8_t>,
                          const phy::RxInfo& info) { white = info.white(); });
  a.transmit(std::vector<std::uint8_t>(10, 1), nullptr);
  sim.run();
  EXPECT_TRUE(white) << "close link far above 3 dB must be white";
}

TEST(WhiteBitTest, NeverSourceNeverSets) {
  sim::Simulator sim;
  phy::PhyConfig phy_cfg;
  phy_cfg.white_bit_source = phy::PhyConfig::WhiteBitSource::kNever;
  phy::PropagationConfig prop;
  prop.shadowing_sigma_db = 0.0;
  prop.asymmetry_sigma_db = 0.0;
  phy::Channel channel{sim, phy_cfg, prop,
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{3}};
  phy::Radio a{channel, NodeId{1}, {0, 0}, phy::HardwareProfile{},
               PowerDbm{0.0}};
  phy::Radio b{channel, NodeId{2}, {5, 0}, phy::HardwareProfile{},
               PowerDbm{0.0}};
  bool any_white = false;
  b.set_rx_handler([&](std::span<const std::uint8_t>,
                       const phy::RxInfo& info) {
    any_white = any_white || info.white();
  });
  for (int i = 0; i < 10; ++i) {
    a.transmit(std::vector<std::uint8_t>(10, 1), nullptr);
    sim.run();
  }
  EXPECT_FALSE(any_white);
}

// ---- corrupted frames over the air -------------------------------------------------

TEST(FcsOverAirTest, BurstCorruptedFramesCountedAtMac) {
  sim::Simulator sim;
  phy::PropagationConfig prop;
  prop.shadowing_sigma_db = 0.0;
  prop.asymmetry_sigma_db = 0.0;
  std::vector<phy::ScheduledBurstInterference::Burst> bursts = {
      {NodeId{2}, sim::Time::from_us(0), sim::Time::from_us(100'000'000),
       1.0}};
  phy::Channel channel{sim, phy::PhyConfig{}, prop,
                       std::make_unique<phy::ScheduledBurstInterference>(
                           bursts),
                       sim::Rng{4}};
  phy::Radio ra{channel, NodeId{1}, {0, 0}, phy::HardwareProfile{},
                PowerDbm{0.0}};
  phy::Radio rb{channel, NodeId{2}, {5, 0}, phy::HardwareProfile{},
                PowerDbm{0.0}};
  mac::CsmaMac ma{sim, ra, mac::CsmaConfig{}, sim::Rng{20}};
  mac::CsmaMac mb{sim, rb, mac::CsmaConfig{}, sim::Rng{21}};
  int clean_rx = 0;
  mb.set_rx_handler([&](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                        const phy::RxInfo&) { ++clean_rx; });
  for (int i = 0; i < 10; ++i) {
    ma.send(NodeId{2}, std::vector<std::uint8_t>(20, 1), nullptr);
    sim.run();
  }
  EXPECT_EQ(clean_rx, 0);
  EXPECT_EQ(mb.fcs_failures(), 10u)
      << "jammed frames should be heard-but-rejected, not silent";
}

// ---- profile factory ------------------------------------------------------------------

TEST(ProfileTest, NamesAreDistinct) {
  EXPECT_NE(runner::profile_name(runner::Profile::kFourBit),
            runner::profile_name(runner::Profile::kCtpT2));
  EXPECT_EQ(runner::profile_name(runner::Profile::kFourBit), "4B");
  EXPECT_EQ(runner::profile_name(runner::Profile::kMultihopLqi),
            "MultiHopLQI");
}

TEST(ProfileTest, EveryProfileBuildsAnEstimator) {
  for (const auto p :
       {runner::Profile::kFourBit, runner::Profile::kCtpT2,
        runner::Profile::kCtpUnidirAck, runner::Profile::kCtpWhiteCompare,
        runner::Profile::kCtpUnconstrained,
        runner::Profile::kMultihopLqi}) {
    const auto est = runner::make_estimator(p, NodeId{1}, 10, sim::Rng{1});
    ASSERT_NE(est, nullptr) << runner::profile_name(p);
    EXPECT_TRUE(est->neighbors().empty());
  }
}

TEST(ProfileTest, MultihopLqiConfigDiffersFromCtp) {
  const auto ctp = runner::make_collection_config(runner::Profile::kCtpT2);
  const auto lqi =
      runner::make_collection_config(runner::Profile::kMultihopLqi);
  EXPECT_EQ(ctp.beacon_timing, net::BeaconTiming::kTrickle);
  EXPECT_EQ(lqi.beacon_timing, net::BeaconTiming::kFixed);
  EXPECT_GT(ctp.max_retransmissions, lqi.max_retransmissions);
  EXPECT_TRUE(ctp.datapath_feedback);
  EXPECT_FALSE(lqi.datapath_feedback);
  EXPECT_TRUE(ctp.snoop);
  EXPECT_FALSE(lqi.snoop);
}

TEST(ProfileTest, EnergyTrackingPopulatesResult) {
  sim::Rng rng{13};
  runner::ExperimentConfig cfg;
  auto tb = topology::mirage(rng);
  tb.topology.nodes.resize(10);
  cfg.testbed = std::move(tb);
  cfg.duration = sim::Duration::from_minutes(3.0);
  cfg.seed = 13;
  cfg.track_energy = true;
  const auto r = runner::run_experiment(cfg);
  EXPECT_GT(r.worst_node_mah, 0.0);
  EXPECT_GT(r.mean_tx_mah, 0.0);
  EXPECT_GT(r.projected_lifetime_days, 0.0);
  EXPECT_LT(r.projected_lifetime_days, 100.0);  // always-on listening
}

}  // namespace
}  // namespace fourbit
