// Tests of the PHY bits as the estimators read them: on demand, through
// link::PacketPhyInfo. Oracles feed every estimator the same random input
// twice, once as literal values and once as lazy readings of real
// deliveries, and require the same state; counting tests pin down which
// inputs read a bit at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/four_bit_estimator.hpp"
#include "estimators/broadcast_etx.hpp"
#include "estimators/lqi_estimator.hpp"
#include "link/packet_info.hpp"
#include "mac/mac.hpp"
#include "net/collection_node.hpp"
#include "net/packets.hpp"
#include "net/rx_phy_info.hpp"
#include "phy/config.hpp"
#include "phy/lqi.hpp"
#include "phy/radio.hpp"
#include "runner/profile.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace fourbit {
namespace {

/// A literal reading that counts how often each bit is read.
class CountingPhyInfo final : public link::PacketPhyInfo {
 public:
  CountingPhyInfo(bool white, int lqi) : white_(white), lqi_(lqi) {}

  [[nodiscard]] bool white() const override {
    ++white_reads;
    return white_;
  }
  [[nodiscard]] int lqi() const override {
    ++lqi_reads;
    return lqi_;
  }

  mutable int white_reads = 0;
  mutable int lqi_reads = 0;

 private:
  bool white_;
  int lqi_;
};

/// One clean delivery's RxInfo, and its bits computed independently of
/// RxInfo: the LQI formula applied to the drawn noise, and the white rule
/// applied to that reading or to the SNR.
struct Delivery {
  phy::RxInfo rx;
  bool white;
  int lqi;
};

Delivery draw_delivery(sim::Rng& rng, const phy::WhiteBitRule& rule) {
  const double snr_db = rng.uniform(-3.0, 20.0);
  const sim::Rng::NormalDraw noise = rng.normal_draw();
  const int lqi = phy::LqiModel::reading(snr_db, noise.value());
  bool white = false;
  switch (rule.source) {
    case phy::PhyConfig::WhiteBitSource::kLqi:
      white = lqi >= rule.lqi_threshold;
      break;
    case phy::PhyConfig::WhiteBitSource::kSnr:
      white = snr_db >= rule.snr_threshold_db;
      break;
    case phy::PhyConfig::WhiteBitSource::kNever:
      break;
  }
  return {phy::RxInfo{PowerDbm{-80.0}, snr_db, noise, rule}, white, lqi};
}

/// Answers the compare bit from the candidate's id alone, so both sides
/// of an oracle see the same answers however often they ask.
class ParityCompare final : public link::CompareProvider {
 public:
  bool compare_bit(NodeId candidate,
                   std::span<const std::uint8_t>) override {
    return candidate.value() % 3 != 0;
  }
};

void expect_same_state(const link::LinkEstimator& lazy,
                       const link::LinkEstimator& literal, int step) {
  std::vector<link::LinkEstimate> a;
  std::vector<link::LinkEstimate> b;
  lazy.link_estimates(a);
  literal.link_estimates(b);
  ASSERT_EQ(a.size(), b.size()) << "step " << step;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].node, b[i].node) << "step " << step;
    ASSERT_EQ(a[i].has_etx, b[i].has_etx) << "step " << step;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].etx),
              std::bit_cast<std::uint64_t>(b[i].etx))
        << "step " << step << " node " << a[i].node.value();
  }
  ASSERT_EQ(lazy.version(), literal.version()) << "step " << step;
  ASSERT_EQ(lazy.pinned(), literal.pinned()) << "step " << step;
}

/// Feeds two estimators of `profile`, seeded alike, one random input
/// sequence: beacons from 40 peers (some lost, some after a run of
/// losses longer than 4B's sequence-reset gap), data receptions, unicast
/// results, pins and removals. One side reads each delivery lazily
/// through net::RxPhyInfo; the other gets the literal bits. Their state
/// must agree after every step.
void lazy_matches_literal(runner::Profile profile,
                          const phy::WhiteBitRule& rule) {
  constexpr std::uint16_t kPeers = 40;
  const auto make = [profile](NodeId id) {
    return runner::make_estimator(profile, id, 6, sim::Rng{id.value()});
  };
  auto lazy = make(NodeId{0});
  auto literal = make(NodeId{0});
  std::vector<std::unique_ptr<link::LinkEstimator>> peers;
  for (std::uint16_t i = 1; i <= kPeers; ++i) peers.push_back(make(NodeId{i}));
  ParityCompare compare;
  lazy->set_compare_provider(&compare);
  literal->set_compare_provider(&compare);
  sim::Rng rng{4242};
  const std::vector<std::uint8_t> payload{9, 8, 7};
  int white_deliveries = 0;

  for (int step = 0; step < 6000; ++step) {
    const auto p = static_cast<std::uint16_t>(rng.uniform_int(kPeers));
    const NodeId peer{static_cast<std::uint16_t>(p + 1)};
    const Delivery d = draw_delivery(rng, rule);
    white_deliveries += static_cast<int>(d.white);
    const net::RxPhyInfo lazy_phy{d.rx};
    const link::FixedPhyInfo literal_phy{d.white, d.lqi};
    const auto op = rng.uniform_int(100);
    if (op < 45) {
      // A run of lost beacons first: mostly short, sometimes past the
      // reset gap.
      const auto lost = rng.bernoulli(0.05) ? 17 + rng.uniform_int(60)
                                            : rng.uniform_int(3);
      for (std::uint64_t i = 0; i < lost; ++i) {
        (void)link::wrapped_beacon(*peers[p], payload);
      }
      const auto wire = link::wrapped_beacon(*peers[p], payload);
      const auto a = lazy->unwrap_beacon(peer, wire, lazy_phy);
      const auto b = literal->unwrap_beacon(peer, wire, literal_phy);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a.has_value()) {
        ASSERT_TRUE(std::ranges::equal(*a, *b)) << "step " << step;
      }
    } else if (op < 58) {
      const auto wire = link::wrapped_beacon(*lazy, payload);
      ASSERT_EQ(wire, link::wrapped_beacon(*literal, payload))
          << "step " << step;
      (void)peers[p]->unwrap_beacon(NodeId{0}, wire, literal_phy);
    } else if (op < 75) {
      const bool acked = rng.bernoulli(0.6);
      lazy->on_unicast_result(peer, acked);
      literal->on_unicast_result(peer, acked);
    } else if (op < 88) {
      lazy->on_data_rx(peer, lazy_phy);
      literal->on_data_rx(peer, literal_phy);
    } else if (op < 93) {
      ASSERT_EQ(lazy->pin(peer), literal->pin(peer)) << "step " << step;
    } else if (op < 97) {
      lazy->unpin(peer);
      literal->unpin(peer);
    } else {
      ASSERT_EQ(lazy->remove(peer), literal->remove(peer))
          << "step " << step;
    }
    expect_same_state(*lazy, *literal, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Both values of the bit occurred.
  EXPECT_GT(white_deliveries, 600);
  EXPECT_LT(white_deliveries, 5400);
}

phy::WhiteBitRule lqi_rule() { return phy::WhiteBitRule::of(phy::PhyConfig{}); }

phy::WhiteBitRule snr_rule() {
  phy::PhyConfig cfg;
  cfg.white_bit_source = phy::PhyConfig::WhiteBitSource::kSnr;
  return phy::WhiteBitRule::of(cfg);
}

class LazyPhyOracle : public ::testing::TestWithParam<runner::Profile> {};

TEST_P(LazyPhyOracle, LazyReadingsLeaveLiteralState) {
  lazy_matches_literal(GetParam(), lqi_rule());
  lazy_matches_literal(GetParam(), snr_rule());
}

INSTANTIATE_TEST_SUITE_P(
    Estimators, LazyPhyOracle,
    ::testing::Values(runner::Profile::kFourBit,
                      runner::Profile::kCtpUnidirAck, runner::Profile::kCtpT2,
                      runner::Profile::kCtpWhiteCompare,
                      runner::Profile::kCtpUnconstrained,
                      runner::Profile::kMultihopLqi),
    [](const ::testing::TestParamInfo<runner::Profile>& info) {
      switch (info.param) {
        case runner::Profile::kFourBit:
          return "FourBit";
        case runner::Profile::kCtpUnidirAck:
          return "CtpUnidirAck";
        case runner::Profile::kCtpT2:
          return "CtpT2";
        case runner::Profile::kCtpWhiteCompare:
          return "CtpWhiteCompare";
        case runner::Profile::kCtpUnconstrained:
          return "CtpUnconstrained";
        case runner::Profile::kMultihopLqi:
          return "MultihopLqi";
      }
      return "Unknown";
    });

TEST(RxPhyInfoTest, ReadsInAnyOrderMatchTheFormula) {
  // White before LQI, LQI before white, and repeated reads: each answer
  // is the formula's, whichever read evaluated the reading.
  sim::Rng rng{77};
  for (const auto& rule : {lqi_rule(), snr_rule()}) {
    for (int i = 0; i < 2000; ++i) {
      const Delivery d = draw_delivery(rng, rule);
      const net::RxPhyInfo phy{d.rx};
      if (i % 2 == 0) {
        ASSERT_EQ(phy.white(), d.white);
        ASSERT_EQ(phy.lqi(), d.lqi);
      } else {
        ASSERT_EQ(phy.lqi(), d.lqi);
        ASSERT_EQ(phy.white(), d.white);
      }
      ASSERT_EQ(phy.white(), d.white);
      ASSERT_EQ(phy.lqi(), d.lqi);
    }
  }
}

// ---- Read counts ---------------------------------------------------------

std::vector<std::uint8_t> beacon_wire(std::uint8_t seq) {
  return {seq, 1, 2, 3, 4, 5};
}

TEST(PhyReadCountTest, FourBitReadsWhiteOnlyWhereItDecides) {
  core::FourBitConfig cfg;
  cfg.table_capacity = 3;
  cfg.insertion = core::InsertionPolicy::kWhiteCompare;
  core::FourBitEstimator est{cfg, sim::Rng{1}};
  ParityCompare compare;
  est.set_compare_provider(&compare);

  // Admission into a table with room decides nothing on the bit.
  for (std::uint16_t n = 1; n <= 3; ++n) {
    const CountingPhyInfo phy{true, 110};
    (void)est.unwrap_beacon(NodeId{n}, beacon_wire(0), phy);
    EXPECT_EQ(phy.white_reads + phy.lqi_reads, 0) << "admit " << n;
  }
  // Beacons from a member with gaps below the reset gap, and data frames:
  // no reading at all.
  std::uint8_t seq = 0;
  for (int i = 0; i < 50; ++i) {
    seq = static_cast<std::uint8_t>(seq + 1 + i % 3);
    const CountingPhyInfo beacon{i % 2 == 0, 100};
    (void)est.unwrap_beacon(NodeId{1}, beacon_wire(seq), beacon);
    const CountingPhyInfo data{true, 100};
    est.on_data_rx(NodeId{1}, data);
    EXPECT_EQ(beacon.white_reads + beacon.lqi_reads, 0) << "beacon " << i;
    EXPECT_EQ(data.white_reads + data.lqi_reads, 0) << "data " << i;
  }
  // A gap past the reset gap with no ack in the window: the bit decides
  // whether the link is alive, read once.
  seq = static_cast<std::uint8_t>(seq + cfg.seq_reset_gap + 5);
  {
    const CountingPhyInfo phy{true, 100};
    (void)est.unwrap_beacon(NodeId{1}, beacon_wire(seq), phy);
    EXPECT_EQ(phy.white_reads, 1);
    EXPECT_EQ(phy.lqi_reads, 0);
  }
  // With an ack in the window the cheaper test answers first.
  est.on_unicast_result(NodeId{1}, true);
  seq = static_cast<std::uint8_t>(seq + cfg.seq_reset_gap + 5);
  {
    const CountingPhyInfo phy{true, 100};
    (void)est.unwrap_beacon(NodeId{1}, beacon_wire(seq), phy);
    EXPECT_EQ(phy.white_reads + phy.lqi_reads, 0);
  }
  // An unknown sender at a full table: the insertion rule reads the bit
  // once.
  {
    const CountingPhyInfo phy{true, 100};
    (void)est.unwrap_beacon(NodeId{7}, beacon_wire(0), phy);
    EXPECT_EQ(phy.white_reads, 1);
    EXPECT_EQ(phy.lqi_reads, 0);
  }
  // ... but not without a compare provider to pair it with.
  est.set_compare_provider(nullptr);
  {
    const CountingPhyInfo phy{true, 100};
    (void)est.unwrap_beacon(NodeId{8}, beacon_wire(0), phy);
    EXPECT_EQ(phy.white_reads + phy.lqi_reads, 0);
  }
}

TEST(PhyReadCountTest, BroadcastEtxReadsWhiteOnlyForAFullTable) {
  estimators::BroadcastEtxConfig cfg;
  cfg.table_capacity = 2;
  cfg.insertion = core::InsertionPolicy::kWhiteCompare;
  estimators::BroadcastEtxEstimator est{NodeId{0}, cfg, sim::Rng{1}};
  ParityCompare compare;
  est.set_compare_provider(&compare);
  const std::vector<std::uint8_t> payload{1, 2};
  std::vector<std::unique_ptr<estimators::BroadcastEtxEstimator>> peers;
  for (std::uint16_t n = 1; n <= 3; ++n) {
    peers.push_back(std::make_unique<estimators::BroadcastEtxEstimator>(
        NodeId{n}, cfg, sim::Rng{n}));
  }
  for (int i = 0; i < 20; ++i) {
    for (std::uint16_t n = 1; n <= 2; ++n) {
      const CountingPhyInfo phy{true, 100};
      (void)est.unwrap_beacon(NodeId{n},
                              link::wrapped_beacon(*peers[n - 1], payload),
                              phy);
      est.on_data_rx(NodeId{n}, phy);
      EXPECT_EQ(phy.white_reads + phy.lqi_reads, 0) << "beacon " << i;
    }
  }
  const CountingPhyInfo phy{true, 100};
  (void)est.unwrap_beacon(NodeId{3}, link::wrapped_beacon(*peers[2], payload),
                          phy);
  EXPECT_EQ(phy.white_reads, 1);
  EXPECT_EQ(phy.lqi_reads, 0);
}

TEST(PhyReadCountTest, LqiEstimatorReadsLqiOncePerFrame) {
  estimators::LqiEstimator est{estimators::LqiEstimatorConfig{},
                               sim::Rng{1}};
  for (int i = 0; i < 40; ++i) {
    const NodeId from{static_cast<std::uint16_t>(1 + i % 20)};
    const CountingPhyInfo beacon{i % 2 == 0, 60 + i};
    (void)est.unwrap_beacon(from, beacon_wire(static_cast<std::uint8_t>(i)),
                            beacon);
    EXPECT_EQ(beacon.lqi_reads, 1);
    EXPECT_EQ(beacon.white_reads, 0);
    const CountingPhyInfo data{true, 100 - i};
    est.on_data_rx(from, data);
    EXPECT_EQ(data.lqi_reads, 1);
    EXPECT_EQ(data.white_reads, 0);
  }
}

// ---- Through the collection stack ---------------------------------------

/// A MAC that records what its node sends and hands the test the node's
/// receive handler.
class LoopbackMac final : public mac::Mac {
 public:
  explicit LoopbackMac(NodeId id) : id_(id) {}

  [[nodiscard]] NodeId id() const override { return id_; }
  void set_rx_handler(RxHandler h) override { rx_ = std::move(h); }
  void set_snoop_handler(RxHandler) override {}
  void send(NodeId, std::span<const std::uint8_t> payload,
            SendCallback done) override {
    sent.emplace_back(payload.begin(), payload.end());
    if (done) done(mac::TxResult{});
  }
  [[nodiscard]] std::size_t queue_depth() const override { return 0; }

  void deliver(NodeId src, std::span<const std::uint8_t> payload,
               const phy::RxInfo& info) {
    rx_(src, 0, payload, info);
  }

  std::vector<std::vector<std::uint8_t>> sent;

 private:
  NodeId id_;
  RxHandler rx_;
};

/// Which deliveries' LQI a node evaluated, over a beacon exchange: node 2
/// hears 30 of node 1's beacons, then one data frame.
std::vector<bool> evaluated_by_node(runner::Profile profile) {
  sim::Simulator sim;
  LoopbackMac mac1{NodeId{1}};
  LoopbackMac mac2{NodeId{2}};
  net::CollectionNode root{sim,
                           mac1,
                           runner::make_estimator(profile, NodeId{1}, 10,
                                                  sim::Rng{1}),
                           /*is_root=*/true,
                           net::CollectionConfig{},
                           nullptr,
                           sim::Rng{2}};
  net::CollectionNode node{sim,
                           mac2,
                           runner::make_estimator(profile, NodeId{2}, 10,
                                                  sim::Rng{3}),
                           /*is_root=*/false,
                           net::CollectionConfig{},
                           nullptr,
                           sim::Rng{4}};
  root.boot();
  sim::Rng rng{5};
  std::vector<bool> evaluated;
  const phy::WhiteBitRule rule = lqi_rule();
  while (evaluated.size() < 30 && sim.now() < sim::Time::from_us(0) +
                                                 sim::Duration::from_seconds(
                                                     3600.0)) {
    sim.run_until(sim.now() + sim::Duration::from_seconds(1.0));
    for (const auto& frame : mac1.sent) {
      const Delivery d = draw_delivery(rng, rule);
      mac2.deliver(NodeId{1}, frame, d.rx);
      evaluated.push_back(d.rx.lqi_known());
    }
    mac1.sent.clear();
  }
  // A data frame from node 1, as node 2's forwarding engine would get it.
  net::DataHeader h;
  h.origin = NodeId{1};
  h.seq = 1;
  std::vector<std::uint8_t> data{0xF2};
  const auto body = h.encode(std::vector<std::uint8_t>(4, 0));
  data.insert(data.end(), body.begin(), body.end());
  const Delivery d = draw_delivery(rng, rule);
  mac2.deliver(NodeId{1}, data, d.rx);
  evaluated.push_back(d.rx.lqi_known());
  return evaluated;
}

TEST(PhyReadCountTest, CollectionNodeLeavesTheBitsToTheEstimator) {
  // 4B admits node 1 into an empty table and then sees steady sequence
  // numbers: no delivery's LQI is ever evaluated. MultiHopLQI reads
  // every frame's.
  const auto four_bit = evaluated_by_node(runner::Profile::kFourBit);
  EXPECT_EQ(std::count(four_bit.begin(), four_bit.end(), true), 0);
  const auto lqi = evaluated_by_node(runner::Profile::kMultihopLqi);
  EXPECT_EQ(std::count(lqi.begin(), lqi.end(), false), 0);
  EXPECT_GE(lqi.size(), 31u);
}

}  // namespace
}  // namespace fourbit
