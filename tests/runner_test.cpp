// Tests of the runner utilities (describe, CSV) and remaining protocol
// behaviours: fixed-interval beaconing, snooped route state, and the
// MAC's deferred-ack path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "mac/csma.hpp"
#include "net/routing_engine.hpp"
#include "phy/channel.hpp"
#include "phy/interference.hpp"
#include "runner/describe.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stats/csv.hpp"
#include "topology/topology.hpp"

namespace fourbit {
namespace {

// ---- describe -----------------------------------------------------------

TEST(DescribeTest, ConfigMentionsKeyParameters) {
  sim::Rng rng{1};
  runner::ExperimentConfig cfg;
  cfg.testbed = topology::mirage(rng);
  cfg.profile = runner::Profile::kMultihopLqi;
  cfg.tx_power = PowerDbm{-10.0};
  const std::string d = runner::describe(cfg);
  EXPECT_NE(d.find("MultiHopLQI"), std::string::npos);
  EXPECT_NE(d.find("85 nodes"), std::string::npos);
  EXPECT_NE(d.find("-10.0 dBm"), std::string::npos);
  EXPECT_NE(d.find("bursts"), std::string::npos);
}

TEST(DescribeTest, ResultMentionsMetrics) {
  runner::ExperimentResult r;
  r.cost = 2.5;
  r.delivery_ratio = 0.999;
  r.generated = 1000;
  r.delivered = 999;
  const std::string d = runner::describe(r);
  EXPECT_NE(d.find("2.50"), std::string::npos);
  EXPECT_NE(d.find("99.90%"), std::string::npos);
}

// ---- CSV -----------------------------------------------------------------

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = "/tmp/fourbit_csv_test.csv";
  {
    stats::CsvWriter csv{path, {"name", "value"}};
    ASSERT_TRUE(csv.ok());
    csv.row({"alpha", "1"});
    csv.row_values("beta", 2.5);
  }
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "name,value\nalpha,1\nbeta,2.5\n");
  std::remove(path.c_str());
}

TEST(CsvTest, QuotesSpecialCharacters) {
  const std::string path = "/tmp/fourbit_csv_quote_test.csv";
  {
    stats::CsvWriter csv{path, {"a"}};
    csv.row({"has,comma"});
    csv.row({"has\"quote"});
  }
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "a\n\"has,comma\"\n\"has\"\"quote\"\n");
  std::remove(path.c_str());
}

// ---- fixed-interval beaconing (MultiHopLQI mode) ---------------------------

TEST(FixedBeaconTest, BeaconsAtConstantRate) {
  sim::Simulator sim;

  class NullEstimator final : public link::LinkEstimator {
   public:
    void wrap_beacon(std::span<const std::uint8_t> p,
                     std::vector<std::uint8_t>& out) override {
      out.insert(out.end(), p.begin(), p.end());
    }
    std::optional<std::span<const std::uint8_t>> unwrap_beacon(
        NodeId, std::span<const std::uint8_t> b,
        const link::PacketPhyInfo&) override {
      return b;
    }
    void on_unicast_result(NodeId, bool) override {}
    bool pin(NodeId) override { return false; }
    void unpin(NodeId) override {}
    void clear_pins() override {}
    std::optional<double> etx(NodeId) const override { return std::nullopt; }
    std::vector<NodeId> neighbors() const override { return {}; }
    bool remove(NodeId) override { return true; }
    void set_compare_provider(link::CompareProvider*) override {}
  } estimator;

  net::CollectionConfig cfg;
  cfg.beacon_timing = net::BeaconTiming::kFixed;
  cfg.fixed_beacon_interval = sim::Duration::from_seconds(10.0);
  net::RoutingEngine routing{sim,  NodeId{1}, false,
                             estimator, cfg, sim::Rng{4}};
  int beacons = 0;
  routing.set_beacon_sender([&](std::span<const std::uint8_t>) { ++beacons; });
  routing.start();
  sim.run_for(sim::Duration::from_seconds(100.0));
  // ~10 beacons in 100 s at a 10 s interval (+-10% jitter).
  EXPECT_GE(beacons, 8);
  EXPECT_LE(beacons, 12);
}

// ---- snooped route state -----------------------------------------------------

TEST(SnoopRouteTest, OverheardCostEnablesRoute) {
  sim::Simulator sim;
  // A fixed one-entry table: link_estimates() never changes, so the
  // version never has to move.
  class MapEstimator final : public link::LinkEstimator {
   public:
    void wrap_beacon(std::span<const std::uint8_t> p,
                     std::vector<std::uint8_t>& out) override {
      out.insert(out.end(), p.begin(), p.end());
    }
    std::optional<std::span<const std::uint8_t>> unwrap_beacon(
        NodeId, std::span<const std::uint8_t> b,
        const link::PacketPhyInfo&) override {
      return b;
    }
    void on_unicast_result(NodeId, bool) override {}
    bool pin(NodeId) override { return true; }
    void unpin(NodeId) override {}
    void clear_pins() override {}
    std::optional<double> etx(NodeId n) const override {
      if (n == NodeId{7}) return 1.2;
      return std::nullopt;
    }
    std::vector<NodeId> neighbors() const override { return {NodeId{7}}; }
    bool remove(NodeId) override { return true; }
    void set_compare_provider(link::CompareProvider*) override {}
  } estimator;

  net::RoutingEngine routing{sim,       NodeId{1}, false,
                             estimator, net::CollectionConfig{}, sim::Rng{5}};
  routing.set_beacon_sender([](std::span<const std::uint8_t>) {});
  routing.start();
  EXPECT_FALSE(routing.has_route());
  // Node 7 is in the estimator table; we never heard its beacon, but we
  // snooped a data frame advertising cost 2.0.
  routing.on_snooped_cost(NodeId{7}, 2.0);
  EXPECT_TRUE(routing.has_route());
  EXPECT_EQ(routing.parent(), NodeId{7});
  EXPECT_NEAR(routing.path_etx(), 3.2, 1e-9);
}

// ---- deferred ack (receiver busy at turnaround) --------------------------------

TEST(DeferredAckTest, AckRetriesAfterOwnTransmission) {
  sim::Simulator sim;
  phy::PropagationConfig prop;
  prop.shadowing_sigma_db = 0.0;
  prop.asymmetry_sigma_db = 0.0;
  phy::Channel channel{sim, phy::PhyConfig{}, prop,
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{6}};
  phy::Radio ra{channel, NodeId{1}, {0, 0}, phy::HardwareProfile{},
                PowerDbm{0.0}};
  phy::Radio rb{channel, NodeId{2}, {5, 0}, phy::HardwareProfile{},
                PowerDbm{0.0}};
  mac::CsmaMac ma{sim, ra, mac::CsmaConfig{}, sim::Rng{30}};
  mac::CsmaMac mb{sim, rb, mac::CsmaConfig{}, sim::Rng{31}};
  mb.set_rx_handler([](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                       const phy::RxInfo&) {});

  // Force b's radio busy right when the ack turnaround would fire: start
  // a long raw transmission just after a's frame arrives. The ack must
  // still go out (retry), and a must see acked=true.
  bool acked = false;
  ma.send(NodeId{2}, std::vector<std::uint8_t>(10, 1),
          [&](const mac::TxResult& r) { acked = r.acked; });
  // a's frame (10+6+2 bytes payload+header+fcs, +6 PHY = 24 B) lands at
  // ~768 us; occupy b from ~800 us for ~200 us (a short blip).
  sim.schedule_at(sim::Time::from_us(800), [&] {
    if (!rb.transmitting()) {
      rb.transmit(std::vector<std::uint8_t>(1, 9), nullptr);
    }
  });
  sim.run();
  EXPECT_TRUE(acked) << "deferred ack should still arrive within the window";
}

// ---- boot staggering ------------------------------------------------------------

TEST(BootStaggerTest, NodesBootAcrossTheWindow) {
  sim::Simulator sim;
  stats::Metrics metrics;
  sim::Rng rng{9};
  auto tb = topology::mirage(rng);
  tb.topology.nodes.resize(20);
  runner::Network::Options options;
  options.seed = 9;
  runner::Network net{sim, tb, std::move(options), &metrics};
  net.start(sim::Duration::from_seconds(30.0), app::TrafficConfig{});
  // Nothing has booted at t=0.
  EXPECT_EQ(net.node(1).routing().beacons_sent(), 0u);
  sim.run_for(sim::Duration::from_seconds(35.0));
  // After the stagger window everyone beacons.
  std::size_t booted = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.node(i).routing().beacons_sent() > 0) ++booted;
  }
  EXPECT_EQ(booted, net.size());
}

}  // namespace
}  // namespace fourbit
