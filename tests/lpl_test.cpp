// Tests of the low-power-listening MAC: wake scheduling, packet trains,
// duplicate suppression, ack semantics, and full-stack operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "mac/csma.hpp"
#include "mac/lpl.hpp"
#include "phy/channel.hpp"
#include "phy/interference.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "topology/topology.hpp"

namespace fourbit::mac {
namespace {

class LplFixture : public ::testing::Test {
 protected:
  LplFixture() {
    phy::PropagationConfig prop;
    prop.shadowing_sigma_db = 0.0;
    prop.asymmetry_sigma_db = 0.0;
    channel_ = std::make_unique<phy::Channel>(
        sim_, phy::PhyConfig{}, prop,
        std::make_unique<phy::NullInterference>(), sim::Rng{5});
  }

  struct Node {
    std::unique_ptr<phy::Radio> radio;
    std::unique_ptr<CsmaMac> csma;
    std::unique_ptr<LplMac> lpl;
  };

  Node make_node(std::uint16_t id, double x, LplConfig cfg = {}) {
    Node n;
    n.radio = std::make_unique<phy::Radio>(*channel_, NodeId{id},
                                           Position{x, 0.0},
                                           phy::HardwareProfile{},
                                           PowerDbm{0.0});
    n.csma = std::make_unique<CsmaMac>(sim_, *n.radio, CsmaConfig{},
                                       sim::Rng{id});
    n.lpl = std::make_unique<LplMac>(sim_, *n.csma, cfg,
                                     sim::Rng{id + 100u});
    return n;
  }

  sim::Simulator sim_;
  std::unique_ptr<phy::Channel> channel_;
};

TEST_F(LplFixture, RadioSleepsBetweenSamples) {
  Node a = make_node(1, 0.0);
  // Sample the listening flag over several wake intervals: the duty
  // cycle should be near sample/interval (~2.3%), far below always-on.
  int awake = 0;
  int samples = 0;
  for (int i = 0; i < 4000; ++i) {
    sim_.run_for(sim::Duration::from_ms(1));
    ++samples;
    if (a.lpl->radio_listening()) ++awake;
  }
  const double duty = static_cast<double>(awake) / samples;
  EXPECT_LT(duty, 0.10);
  EXPECT_GT(duty, 0.005);
}

TEST_F(LplFixture, UnicastDeliversAcrossSleepSchedule) {
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  int delivered = 0;
  b.lpl->set_rx_handler([&](NodeId src, std::uint8_t,
                            std::span<const std::uint8_t> payload,
                            const phy::RxInfo&) {
    ++delivered;
    EXPECT_EQ(src, NodeId{1});
    EXPECT_EQ(payload.size(), 12u);
  });
  int acked = 0;
  for (int i = 0; i < 10; ++i) {
    bool done = false;
    a.lpl->send(NodeId{2}, std::vector<std::uint8_t>(12, 0x7),
                [&](const TxResult& r) {
                  done = true;
                  if (r.acked) ++acked;
                });
    sim_.run_for(sim::Duration::from_seconds(2.0));
    EXPECT_TRUE(done);
  }
  EXPECT_EQ(delivered, 10) << "every logical frame exactly once";
  EXPECT_EQ(acked, 10);
  // The trains cost real copies: strictly more than one per frame.
  EXPECT_GT(a.lpl->copies_transmitted(), 10u);
}

TEST_F(LplFixture, EarlyAckShortensTrain) {
  // With the receiver forced awake, the first copy is acked and the
  // train stops immediately.
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  b.lpl->set_rx_handler([](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                           const phy::RxInfo&) {});
  // Keep b awake by bombarding it with traffic first... simpler: send
  // during b's sample window by retrying until one lands fast.
  std::uint64_t shortest = ~0ull;
  for (int i = 0; i < 20; ++i) {
    const auto before = a.lpl->copies_transmitted();
    bool done = false;
    a.lpl->send(NodeId{2}, std::vector<std::uint8_t>(8, 1),
                [&](const TxResult&) { done = true; });
    sim_.run_for(sim::Duration::from_seconds(2.0));
    ASSERT_TRUE(done);
    shortest = std::min(shortest, a.lpl->copies_transmitted() - before);
  }
  // At least one send should have caught the receiver awake quickly.
  EXPECT_LE(shortest, 5u);
}

TEST_F(LplFixture, BroadcastTrainReachesAllSleepers) {
  LplConfig cfg;
  Node a = make_node(1, 0.0, cfg);
  Node b = make_node(2, 5.0, cfg);
  Node c = make_node(3, -5.0, cfg);
  int b_got = 0;
  int c_got = 0;
  b.lpl->set_rx_handler([&](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                            const phy::RxInfo&) { ++b_got; });
  c.lpl->set_rx_handler([&](NodeId, std::uint8_t, std::span<const std::uint8_t>,
                            const phy::RxInfo&) { ++c_got; });
  bool done = false;
  a.lpl->send(kBroadcastId, std::vector<std::uint8_t>(10, 2),
              [&](const TxResult& r) {
                done = true;
                EXPECT_FALSE(r.acked);
              });
  sim_.run_for(sim::Duration::from_seconds(3.0));
  EXPECT_TRUE(done);
  // Both sleepers woke at some point during the ~614 ms train and heard
  // exactly one (deduplicated) copy.
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
  EXPECT_GT(a.lpl->duplicates_suppressed() + b.lpl->duplicates_suppressed() +
                c.lpl->duplicates_suppressed(),
            0u)
      << "sleepers overlapping the train see multiple copies";
}

TEST_F(LplFixture, UnicastToAbsentNodeFailsAfterFullTrain) {
  Node a = make_node(1, 0.0);
  bool done = false;
  bool acked = true;
  const auto start = sim_.now();
  a.lpl->send(NodeId{99}, std::vector<std::uint8_t>(8, 1),
              [&](const TxResult& r) {
                done = true;
                acked = r.acked;
              });
  sim_.run_for(sim::Duration::from_seconds(3.0));
  EXPECT_TRUE(done);
  EXPECT_FALSE(acked);
  // The train must have lasted roughly a full wake interval.
  (void)start;
  EXPECT_GT(a.lpl->copies_transmitted(), 50u);
}

TEST_F(LplFixture, QueuedSendsServeInOrder) {
  Node a = make_node(1, 0.0);
  Node b = make_node(2, 5.0);
  std::vector<int> order;
  b.lpl->set_rx_handler([&](NodeId, std::uint8_t,
                            std::span<const std::uint8_t> payload,
                            const phy::RxInfo&) {
    order.push_back(payload[0]);
  });
  for (int i = 0; i < 3; ++i) {
    a.lpl->send(NodeId{2}, std::vector<std::uint8_t>(1, i), nullptr);
  }
  sim_.run_for(sim::Duration::from_seconds(5.0));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

/// The duplicate filter as a hash map that drops expired entries only
/// once it holds more than 64: the reference RecentFrames must decide
/// like.
class MapRecentFrames {
 public:
  bool check_and_insert(NodeId src, std::uint8_t dsn, sim::Time now,
                        sim::Duration hold) {
    const std::uint32_t key =
        static_cast<std::uint32_t>(src.value()) << 8 | dsn;
    if (recent_.size() > 64) {
      std::erase_if(recent_,
                    [now](const auto& kv) { return kv.second <= now; });
    }
    const auto [it, inserted] = recent_.try_emplace(key, now + hold);
    if (!inserted) {
      if (it->second > now) return true;
      it->second = now + hold;
    }
    return false;
  }

 private:
  std::unordered_map<std::uint32_t, sim::Time> recent_;
};

TEST(RecentFramesTest, DecidesLikeTheMapOverRandomTraffic) {
  // Copies from a few senders, DSNs that repeat, and time steps, some
  // of them zero, that cross the hold; two hold lengths.
  for (const std::int64_t hold_ms : {1126, 40}) {
    const auto hold = sim::Duration::from_ms(hold_ms);
    RecentFrames flat;
    MapRecentFrames map;
    sim::Rng rng{99 + static_cast<std::uint64_t>(hold_ms)};
    std::int64_t now_us = 0;
    std::size_t duplicates = 0;
    std::size_t peak = 0;
    for (int i = 0; i < 200'000; ++i) {
      if (rng.bernoulli(0.7)) {
        now_us += static_cast<std::int64_t>(rng.uniform_int(60'000));
      }
      const auto now = sim::Time::from_us(now_us);
      const NodeId src{static_cast<std::uint16_t>(1 + rng.uniform_int(6))};
      const auto dsn = static_cast<std::uint8_t>(rng.uniform_int(4));
      const bool dup = flat.check_and_insert(src, dsn, now, hold);
      ASSERT_EQ(dup, map.check_and_insert(src, dsn, now, hold))
          << "step " << i;
      duplicates += static_cast<std::size_t>(dup);
      peak = std::max(peak, flat.size());
    }
    EXPECT_GT(duplicates, 10'000u);
    EXPECT_LT(duplicates, 190'000u);
    // At most one entry per (src, dsn) pair.
    EXPECT_LE(peak, 24u);
  }
}

TEST(LplStackTest, CollectionRunsOverLpl) {
  // Full protocol stack over duty-cycled radios: a small clean line.
  topology::Testbed tb;
  tb.topology = topology::line(3, 25.0);
  tb.environment.propagation.shadowing_sigma_db = 0.0;
  tb.environment.propagation.asymmetry_sigma_db = 0.0;
  tb.environment.hardware.tx_offset_sigma_db = 0.0;
  tb.environment.hardware.noise_figure_sigma_db = 0.0;
  tb.environment.burst_interference = false;

  runner::ExperimentConfig cfg;
  cfg.testbed = tb;
  cfg.profile = runner::Profile::kFourBit;
  cfg.duration = sim::Duration::from_minutes(10.0);
  cfg.traffic.period = sim::Duration::from_seconds(10.0);
  cfg.boot_stagger = sim::Duration::from_seconds(5.0);
  cfg.lpl_wake_interval = sim::Duration::from_ms(512);
  cfg.seed = 3;
  const auto r = runner::run_experiment(cfg);

  EXPECT_GT(r.delivery_ratio, 0.95);
  // Under LPL, "cost" counts logical transmissions at the forwarding
  // layer, not radio copies — it stays comparable to the always-on run.
  EXPECT_LT(r.cost, 4.0);
  EXPECT_EQ(r.final_tree.routed, 2u);
}

}  // namespace
}  // namespace fourbit::mac
