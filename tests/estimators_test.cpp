// Tests of the baseline estimators: broadcast-probe bidirectional ETX
// (CTP/MintRoute style) and the LQI estimator (MultiHopLQI style).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/four_bit_estimator.hpp"
#include "estimators/broadcast_etx.hpp"
#include "estimators/lqi_estimator.hpp"
#include "sim/rng.hpp"

namespace fourbit::estimators {
namespace {

link::FixedPhyInfo info(bool white = true, int lqi = 108) {
  return {white, lqi};
}

// ---- BroadcastEtxEstimator ---------------------------------------------------

TEST(BroadcastEtxTest, BeaconRoundTripCarriesPayload) {
  BroadcastEtxEstimator a{NodeId{1}, BroadcastEtxConfig{}, sim::Rng{1}};
  BroadcastEtxEstimator b{NodeId{2}, BroadcastEtxConfig{}, sim::Rng{2}};
  const std::vector<std::uint8_t> payload{5, 6, 7};
  const auto wire = link::wrapped_beacon(a, payload);
  const auto out = b.unwrap_beacon(NodeId{1}, wire, info());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(out->begin(), out->end()), payload);
}

TEST(BroadcastEtxTest, EtxRequiresBothDirections) {
  // b hears a's beacons, but a never reports b in a footer -> no ETX.
  BroadcastEtxEstimator a{NodeId{1}, BroadcastEtxConfig{}, sim::Rng{1}};
  BroadcastEtxEstimator b{NodeId{2}, BroadcastEtxConfig{}, sim::Rng{2}};
  const std::vector<std::uint8_t> payload;
  for (int i = 0; i < 6; ++i) {
    (void)b.unwrap_beacon(NodeId{1}, link::wrapped_beacon(a, payload), info());
  }
  EXPECT_TRUE(b.inbound_quality(NodeId{1}).has_value());
  EXPECT_FALSE(b.reverse_quality(NodeId{1}).has_value());
  EXPECT_FALSE(b.etx(NodeId{1}).has_value())
      << "link must be unusable without the reverse report";
}

TEST(BroadcastEtxTest, BidirectionalExchangeYieldsEtx) {
  BroadcastEtxEstimator a{NodeId{1}, BroadcastEtxConfig{}, sim::Rng{1}};
  BroadcastEtxEstimator b{NodeId{2}, BroadcastEtxConfig{}, sim::Rng{2}};
  const std::vector<std::uint8_t> payload;
  // Full exchange: each hears every beacon of the other.
  for (int i = 0; i < 8; ++i) {
    (void)b.unwrap_beacon(NodeId{1}, link::wrapped_beacon(a, payload), info());
    (void)a.unwrap_beacon(NodeId{2}, link::wrapped_beacon(b, payload), info());
  }
  ASSERT_TRUE(b.etx(NodeId{1}).has_value());
  // Perfect exchange in both directions: ETX ~ 1.
  EXPECT_NEAR(b.etx(NodeId{1}).value(), 1.0, 0.05);
  ASSERT_TRUE(a.etx(NodeId{2}).has_value());
  EXPECT_NEAR(a.etx(NodeId{2}).value(), 1.0, 0.05);
}

TEST(BroadcastEtxTest, LossyDirectionRaisesEtx) {
  BroadcastEtxEstimator a{NodeId{1}, BroadcastEtxConfig{}, sim::Rng{1}};
  BroadcastEtxEstimator b{NodeId{2}, BroadcastEtxConfig{}, sim::Rng{2}};
  const std::vector<std::uint8_t> payload;
  // b hears only every second beacon of a (inbound PRR 0.5); a hears all
  // of b's.
  for (int i = 0; i < 60; ++i) {
    const auto wire = link::wrapped_beacon(a, payload);
    if (i % 2 == 0) {
      (void)b.unwrap_beacon(NodeId{1}, wire, info());
    }
    (void)a.unwrap_beacon(NodeId{2}, link::wrapped_beacon(b, payload), info());
  }
  ASSERT_TRUE(b.etx(NodeId{1}).has_value());
  // fwd (a->b) ~0.5 measured at b; rev (b->a) ~1.0 reported by a.
  EXPECT_NEAR(b.etx(NodeId{1}).value(), 2.0, 0.4);
}

TEST(BroadcastEtxTest, AckBitIsIgnored) {
  BroadcastEtxEstimator a{NodeId{1}, BroadcastEtxConfig{}, sim::Rng{1}};
  const std::vector<std::uint8_t> payload;
  BroadcastEtxEstimator b{NodeId{2}, BroadcastEtxConfig{}, sim::Rng{2}};
  for (int i = 0; i < 8; ++i) {
    (void)b.unwrap_beacon(NodeId{1}, link::wrapped_beacon(a, payload), info());
    (void)a.unwrap_beacon(NodeId{2}, link::wrapped_beacon(b, payload), info());
  }
  const double before = b.etx(NodeId{1}).value();
  for (int i = 0; i < 50; ++i) b.on_unicast_result(NodeId{1}, false);
  EXPECT_DOUBLE_EQ(b.etx(NodeId{1}).value(), before)
      << "the probe-based baseline must not react to acks";
}

TEST(BroadcastEtxTest, FooterRotationEventuallyReportsEveryone) {
  BroadcastEtxConfig cfg;
  cfg.table_capacity = 10;
  cfg.footer_max = 3;
  BroadcastEtxEstimator hub{NodeId{100}, cfg, sim::Rng{1}};
  // Ten neighbors beacon to the hub.
  std::vector<std::unique_ptr<BroadcastEtxEstimator>> neighbors;
  for (std::uint16_t i = 1; i <= 10; ++i) {
    neighbors.push_back(std::make_unique<BroadcastEtxEstimator>(
        NodeId{i}, cfg, sim::Rng{i}));
  }
  const std::vector<std::uint8_t> payload;
  for (int round = 0; round < 8; ++round) {
    for (std::uint16_t i = 1; i <= 10; ++i) {
      (void)hub.unwrap_beacon(
          NodeId{i}, link::wrapped_beacon(*neighbors[i - 1], payload),
          info());
    }
    // Hub beacons; with footer_max=3 it takes ~4 beacons to cover all 10.
    const auto wire = link::wrapped_beacon(hub, payload);
    for (std::uint16_t i = 1; i <= 10; ++i) {
      (void)neighbors[i - 1]->unwrap_beacon(NodeId{100}, wire, info());
    }
  }
  int with_reverse = 0;
  for (std::uint16_t i = 1; i <= 10; ++i) {
    if (neighbors[i - 1]->reverse_quality(NodeId{100}).has_value()) {
      ++with_reverse;
    }
  }
  EXPECT_EQ(with_reverse, 10)
      << "rotation must eventually report every table entry";
}

TEST(BroadcastEtxTest, TableLimitCapsTrackedNeighbors) {
  BroadcastEtxConfig cfg;
  cfg.table_capacity = 4;
  cfg.insertion = core::InsertionPolicy::kNever;
  BroadcastEtxEstimator e{NodeId{0}, cfg, sim::Rng{1}};
  const std::vector<std::uint8_t> payload;
  BroadcastEtxEstimator peer{NodeId{1}, cfg, sim::Rng{9}};
  for (std::uint16_t i = 1; i <= 20; ++i) {
    BroadcastEtxEstimator sender{NodeId{i}, cfg, sim::Rng{i}};
    (void)e.unwrap_beacon(NodeId{i}, link::wrapped_beacon(sender, payload),
                          info());
  }
  EXPECT_EQ(e.table_size(), 4u);
}

TEST(BroadcastEtxTest, UnboundedTableTracksEveryone) {
  BroadcastEtxConfig cfg;
  cfg.table_capacity = 0;
  BroadcastEtxEstimator e{NodeId{0}, cfg, sim::Rng{1}};
  const std::vector<std::uint8_t> payload;
  for (std::uint16_t i = 1; i <= 50; ++i) {
    BroadcastEtxEstimator sender{NodeId{i}, cfg, sim::Rng{i}};
    (void)e.unwrap_beacon(NodeId{i}, link::wrapped_beacon(sender, payload),
                          info());
  }
  EXPECT_EQ(e.table_size(), 50u);
}

TEST(BroadcastEtxTest, MalformedBeaconRejected) {
  BroadcastEtxEstimator e{NodeId{0}, BroadcastEtxConfig{}, sim::Rng{1}};
  const std::vector<std::uint8_t> truncated{0, 5};  // claims 5 footer entries
  EXPECT_FALSE(e.unwrap_beacon(NodeId{1}, truncated, info()).has_value());
}

TEST(BroadcastEtxTest, PinProtectsEntry) {
  BroadcastEtxConfig cfg;
  cfg.table_capacity = 2;
  cfg.insertion = core::InsertionPolicy::kProbabilistic;
  cfg.probabilistic_insert_p = 1.0;
  BroadcastEtxEstimator e{NodeId{0}, cfg, sim::Rng{1}};
  const std::vector<std::uint8_t> payload;
  BroadcastEtxEstimator s1{NodeId{1}, cfg, sim::Rng{11}};
  (void)e.unwrap_beacon(NodeId{1}, link::wrapped_beacon(s1, payload), info());
  EXPECT_TRUE(e.pin(NodeId{1}));
  for (std::uint16_t i = 2; i <= 30; ++i) {
    BroadcastEtxEstimator s{NodeId{i}, cfg, sim::Rng{i}};
    (void)e.unwrap_beacon(NodeId{i}, link::wrapped_beacon(s, payload), info());
  }
  const auto n = e.neighbors();
  EXPECT_NE(std::find(n.begin(), n.end(), NodeId{1}), n.end());
}

// ---- LqiEstimator ---------------------------------------------------------------

TEST(LqiEstimatorTest, MappingMonotoneAndClamped) {
  LqiEstimator e{LqiEstimatorConfig{}, sim::Rng{1}};
  EXPECT_DOUBLE_EQ(e.lqi_to_etx(110.0), 1.0);
  EXPECT_DOUBLE_EQ(e.lqi_to_etx(200.0), 1.0);
  EXPECT_DOUBLE_EQ(e.lqi_to_etx(0.0), LqiEstimatorConfig{}.max_etx);
  double prev = 0.0;
  for (double lqi = 110.0; lqi >= 40.0; lqi -= 5.0) {
    const double etx = e.lqi_to_etx(lqi);
    EXPECT_GE(etx, prev);
    prev = etx;
  }
}

TEST(LqiEstimatorTest, BeaconLqiDrivesEtx) {
  LqiEstimator e{LqiEstimatorConfig{}, sim::Rng{1}};
  const std::vector<std::uint8_t> wire{0};
  (void)e.unwrap_beacon(NodeId{1}, wire, info(true, 108));
  ASSERT_TRUE(e.etx(NodeId{1}).has_value());
  EXPECT_NEAR(e.etx(NodeId{1}).value(), 1.0, 0.1);
  ASSERT_TRUE(e.smoothed_lqi(NodeId{1}).has_value());
  EXPECT_DOUBLE_EQ(e.smoothed_lqi(NodeId{1}).value(), 108.0);
}

TEST(LqiEstimatorTest, SmoothingBlendsReadings) {
  LqiEstimatorConfig cfg;
  cfg.lqi_history = 0.5;
  LqiEstimator e{cfg, sim::Rng{1}};
  const std::vector<std::uint8_t> wire{0};
  (void)e.unwrap_beacon(NodeId{1}, wire, info(true, 100));
  (void)e.unwrap_beacon(NodeId{1}, wire, info(true, 80));
  EXPECT_DOUBLE_EQ(e.smoothed_lqi(NodeId{1}).value(), 90.0);
}

TEST(LqiEstimatorTest, DataPacketsAlsoFeedLqi) {
  LqiEstimatorConfig cfg;
  cfg.lqi_history = 0.0;
  LqiEstimator e{cfg, sim::Rng{1}};
  e.on_data_rx(NodeId{4}, info(true, 95));
  ASSERT_TRUE(e.smoothed_lqi(NodeId{4}).has_value());
  EXPECT_DOUBLE_EQ(e.smoothed_lqi(NodeId{4}).value(), 95.0);
}

TEST(LqiEstimatorTest, AckBitDeliberatelyIgnored) {
  LqiEstimator e{LqiEstimatorConfig{}, sim::Rng{1}};
  const std::vector<std::uint8_t> wire{0};
  (void)e.unwrap_beacon(NodeId{1}, wire, info(true, 108));
  const double before = e.etx(NodeId{1}).value();
  for (int i = 0; i < 100; ++i) e.on_unicast_result(NodeId{1}, false);
  EXPECT_DOUBLE_EQ(e.etx(NodeId{1}).value(), before)
      << "MultiHopLQI has no link-layer feedback by definition";
}

TEST(LqiEstimatorTest, FullTableEvictsWorstLqi) {
  LqiEstimatorConfig cfg;
  cfg.table_capacity = 2;
  cfg.lqi_history = 0.0;
  LqiEstimator e{cfg, sim::Rng{1}};
  e.on_data_rx(NodeId{1}, info(true, 60));   // worst
  e.on_data_rx(NodeId{2}, info(true, 100));
  e.on_data_rx(NodeId{3}, info(true, 108));  // evicts node 1
  EXPECT_FALSE(e.smoothed_lqi(NodeId{1}).has_value());
  EXPECT_TRUE(e.smoothed_lqi(NodeId{2}).has_value());
  EXPECT_TRUE(e.smoothed_lqi(NodeId{3}).has_value());
}

TEST(LqiEstimatorTest, PinBlocksEviction) {
  LqiEstimatorConfig cfg;
  cfg.table_capacity = 1;
  cfg.lqi_history = 0.0;
  LqiEstimator e{cfg, sim::Rng{1}};
  e.on_data_rx(NodeId{1}, info(true, 60));
  EXPECT_TRUE(e.pin(NodeId{1}));
  e.on_data_rx(NodeId{2}, info(true, 110));
  EXPECT_TRUE(e.smoothed_lqi(NodeId{1}).has_value());
  EXPECT_FALSE(e.smoothed_lqi(NodeId{2}).has_value());
}

// ---- bulk read vs point queries -------------------------------------------

/// Answers compare-bit queries with a seeded coin, so white-bit
/// admissions keep evicting entries.
class CoinCompare final : public link::CompareProvider {
 public:
  explicit CoinCompare(std::uint64_t seed) : rng_(seed) {}
  bool compare_bit(NodeId, std::span<const std::uint8_t>) override {
    return rng_.bernoulli(0.5);
  }

 private:
  sim::Rng rng_;
};

/// link_estimates() must be neighbors() zipped with etx(): same order,
/// same presence, and the same double bit for bit.
void expect_bulk_read_matches(const link::LinkEstimator& est) {
  std::vector<link::LinkEstimate> bulk;
  est.link_estimates(bulk);
  const auto nodes = est.neighbors();
  ASSERT_EQ(bulk.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ASSERT_EQ(bulk[i].node, nodes[i]) << "entry " << i;
    const auto etx = est.etx(nodes[i]);
    ASSERT_EQ(bulk[i].has_etx, etx.has_value()) << "node " << nodes[i].value();
    if (etx.has_value()) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(bulk[i].etx),
                std::bit_cast<std::uint64_t>(*etx))
          << "node " << nodes[i].value();
    }
  }
}

using MakeEstimator =
    std::function<std::unique_ptr<link::LinkEstimator>(NodeId)>;

/// The input drive_and_check fed node 0's estimator on one step.
enum class Input {
  kNone,  // a lost beacon, or a reboot that was not drawn
  kBeacon,
  kOwnBeaconHeard,  // node 0's beacon reached a peer (input to the peer)
  kUnicastResult,
  kDataRx,
  kPin,
  kUnpin,
  kClearPins,
  kRemove,
  kReset,
};
using ExtraCheck = std::function<void(const link::LinkEstimator&, Input)>;

/// Drives node 0's estimator through a seeded random mix of every input
/// the stack feeds it — beacons from 30 peers (some lost, white and LQI
/// varied), node 0's own beacons reaching peers (so probe estimators get
/// reverse reports), unicast results, data receptions, pin/unpin,
/// removals and the occasional reboot — checking the bulk read after
/// every step. `extra` adds per-estimator checks.
void drive_and_check(const MakeEstimator& make,
                     const ExtraCheck& extra = nullptr) {
  constexpr std::uint16_t kPeers = 30;
  auto self = make(NodeId{0});
  std::vector<std::unique_ptr<link::LinkEstimator>> peers;
  for (std::uint16_t i = 1; i <= kPeers; ++i) peers.push_back(make(NodeId{i}));
  CoinCompare coin{7};
  self->set_compare_provider(&coin);
  sim::Rng rng{2024};
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};

  for (int step = 0; step < 5000; ++step) {
    const auto p = static_cast<std::uint16_t>(rng.uniform_int(kPeers));
    const NodeId peer{static_cast<std::uint16_t>(p + 1)};
    const bool white = rng.bernoulli(0.7);
    const link::FixedPhyInfo phy{
        white, 50 + static_cast<int>(rng.uniform_int(61))};
    const auto op = rng.uniform_int(100);
    Input input = Input::kNone;
    if (op < 45) {
      const auto wire = link::wrapped_beacon(*peers[p], payload);
      if (rng.bernoulli(0.8)) {
        (void)self->unwrap_beacon(peer, wire, phy);
        input = Input::kBeacon;
      }
    } else if (op < 60) {
      (void)peers[p]->unwrap_beacon(NodeId{0},
                                    link::wrapped_beacon(*self, payload),
                                    phy);
      input = Input::kOwnBeaconHeard;
    } else if (op < 75) {
      self->on_unicast_result(peer, rng.bernoulli(0.6));
      input = Input::kUnicastResult;
    } else if (op < 82) {
      self->on_data_rx(peer, phy);
      input = Input::kDataRx;
    } else if (op < 88) {
      (void)self->pin(peer);
      input = Input::kPin;
    } else if (op < 93) {
      self->unpin(peer);
      input = Input::kUnpin;
    } else if (op < 94) {
      self->clear_pins();
      input = Input::kClearPins;
    } else if (op < 99) {
      (void)self->remove(peer);
      input = Input::kRemove;
    } else if (rng.bernoulli(0.2)) {
      self->reset();
      input = Input::kReset;
    }
    expect_bulk_read_matches(*self);
    if (extra) extra(*self, input);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "after step " << step << " (op " << op << ")";
    }
  }
}

TEST(LinkEstimatesTest, FourBitBulkReadMatchesPointQueries) {
  drive_and_check([](NodeId id) {
    return std::make_unique<core::FourBitEstimator>(core::FourBitConfig{},
                                                    sim::Rng{id.value()});
  });
}

TEST(LinkEstimatesTest, BroadcastEtxBulkReadMatchesPointQueries) {
  std::size_t usable = 0;
  drive_and_check(
      [](NodeId id) {
        BroadcastEtxConfig cfg;
        cfg.insertion = core::InsertionPolicy::kWhiteCompare;
        return std::make_unique<BroadcastEtxEstimator>(id, cfg,
                                                       sim::Rng{id.value()});
      },
      [&usable](const link::LinkEstimator& est, Input) {
        std::vector<link::LinkEstimate> bulk;
        est.link_estimates(bulk);
        usable += static_cast<std::size_t>(std::count_if(
            bulk.begin(), bulk.end(),
            [](const link::LinkEstimate& l) { return l.has_etx; }));
      });
  // The sequence must reach bidirectional estimates, not only the
  // "no reverse report yet" case.
  EXPECT_GT(usable, 1000u);
}

TEST(LinkEstimatesTest, LqiBulkReadMatchesPointQueriesAndStoredMapping) {
  LqiEstimatorConfig cfg;
  cfg.table_capacity = 10;
  drive_and_check(
      [cfg](NodeId id) {
        return std::make_unique<LqiEstimator>(cfg, sim::Rng{id.value()});
      },
      [](const link::LinkEstimator& est, Input) {
        // The stored estimate is exactly the mapping of the stored
        // smoothed LQI: caching it changed no bit.
        const auto& lqi = static_cast<const LqiEstimator&>(est);
        for (const NodeId n : lqi.neighbors()) {
          const auto smoothed = lqi.smoothed_lqi(n);
          const auto etx = lqi.etx(n);
          ASSERT_EQ(smoothed.has_value(), etx.has_value());
          if (!etx.has_value()) continue;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(*etx),
                    std::bit_cast<std::uint64_t>(lqi.lqi_to_etx(*smoothed)))
              << "node " << n.value();
        }
      });
}

// ---- the version contract ---------------------------------------------------

/// Checks LinkEstimator::version() after every drive_and_check step: while
/// it stays put, link_estimates() must return the previous read bit for
/// bit, and pins must never move it. Counts the steps on each side, so a
/// test can tell the estimator neither bumps on every input nor never.
class VersionWatch {
 public:
  void operator()(const link::LinkEstimator& est, Input input) {
    std::vector<link::LinkEstimate> now;
    est.link_estimates(now);
    if (est.version() == version_) {
      ++held_;
      ASSERT_EQ(now.size(), last_.size()) << "table changed, same version";
      for (std::size_t i = 0; i < now.size(); ++i) {
        ASSERT_EQ(now[i].node, last_[i].node) << "entry " << i;
        ASSERT_EQ(now[i].has_etx, last_[i].has_etx) << "entry " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(now[i].etx),
                  std::bit_cast<std::uint64_t>(last_[i].etx))
            << "entry " << i;
      }
    } else {
      ++moved_;
      ASSERT_TRUE(input != Input::kPin && input != Input::kUnpin &&
                  input != Input::kClearPins)
          << "a pin moved the version";
    }
    version_ = est.version();
    last_ = std::move(now);
  }

  [[nodiscard]] std::size_t held() const { return held_; }
  [[nodiscard]] std::size_t moved() const { return moved_; }

 private:
  // A new estimator holds an empty table at version 0.
  std::uint64_t version_ = 0;
  std::vector<link::LinkEstimate> last_;
  std::size_t held_ = 0;
  std::size_t moved_ = 0;
};

/// Runs the watch over drive_and_check's 5,000 steps; both sides of the
/// contract must come up often.
void expect_version_contract(const MakeEstimator& make) {
  VersionWatch watch;
  drive_and_check(make, [&watch](const link::LinkEstimator& est, Input in) {
    watch(est, in);
  });
  EXPECT_GT(watch.held(), 1000u);
  EXPECT_GT(watch.moved(), 200u);
}

TEST(EstimatorVersionTest, FourBitBulkReadHoldsWhileVersionHolds) {
  expect_version_contract([](NodeId id) {
    return std::make_unique<core::FourBitEstimator>(core::FourBitConfig{},
                                                    sim::Rng{id.value()});
  });
}

TEST(EstimatorVersionTest, BroadcastEtxBulkReadHoldsWhileVersionHolds) {
  expect_version_contract([](NodeId id) {
    BroadcastEtxConfig cfg;
    cfg.insertion = core::InsertionPolicy::kWhiteCompare;
    return std::make_unique<BroadcastEtxEstimator>(id, cfg,
                                                   sim::Rng{id.value()});
  });
}

TEST(EstimatorVersionTest, LqiBulkReadHoldsWhileVersionHolds) {
  LqiEstimatorConfig cfg;
  cfg.table_capacity = 10;
  expect_version_contract([cfg](NodeId id) {
    return std::make_unique<LqiEstimator>(cfg, sim::Rng{id.value()});
  });
}

}  // namespace
}  // namespace fourbit::estimators
