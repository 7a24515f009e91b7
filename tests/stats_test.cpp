// Tests of the metrics/statistics module.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "sim/rng.hpp"
#include "stats/aggregate.hpp"
#include "stats/metrics.hpp"
#include "stats/summary.hpp"
#include "stats/time_series.hpp"

namespace fourbit::stats {
namespace {

// ---- Metrics -------------------------------------------------------------

TEST(MetricsTest, CostIsTxPerUniqueDelivered) {
  Metrics m;
  m.on_generated(NodeId{1}, 0);
  m.on_generated(NodeId{1}, 1);
  for (int i = 0; i < 6; ++i) m.on_data_tx(NodeId{1});
  m.on_delivered(NodeId{1}, 0);
  m.on_delivered(NodeId{1}, 1);
  EXPECT_DOUBLE_EQ(m.cost(), 3.0);
}

TEST(MetricsTest, DuplicateDeliveriesCountOnce) {
  Metrics m;
  m.on_generated(NodeId{1}, 0);
  m.on_delivered(NodeId{1}, 0);
  m.on_delivered(NodeId{1}, 0);
  EXPECT_EQ(m.delivered_unique_total(), 1u);
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 1.0);
}

TEST(MetricsTest, DeliveryRatioAggregates) {
  Metrics m;
  for (std::uint16_t s = 0; s < 10; ++s) m.on_generated(NodeId{1}, s);
  for (std::uint16_t s = 0; s < 5; ++s) m.on_delivered(NodeId{1}, s);
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 0.5);
}

TEST(MetricsTest, PerNodeDeliverySeparatesOrigins) {
  Metrics m;
  m.on_generated(NodeId{1}, 0);
  m.on_delivered(NodeId{1}, 0);
  m.on_generated(NodeId{2}, 0);
  m.on_generated(NodeId{2}, 1);
  m.on_delivered(NodeId{2}, 0);
  auto v = m.per_node_delivery();
  std::sort(v.begin(), v.end());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v[0], 0.5);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
}

TEST(MetricsTest, ZeroGeneratedIsZeroRatio) {
  Metrics m;
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.cost(), 0.0);
}

TEST(MetricsTest, DepthSamplesAverage) {
  Metrics m;
  m.record_depth_sample(1.0);
  m.record_depth_sample(2.0);
  m.record_depth_sample(3.0);
  EXPECT_DOUBLE_EQ(m.average_depth(), 2.0);
  Metrics empty;
  EXPECT_DOUBLE_EQ(empty.average_depth(), 0.0);
}

TEST(MetricsTest, DropCounters) {
  Metrics m;
  m.on_retx_drop(NodeId{1});
  m.on_queue_drop(NodeId{1});
  m.on_queue_drop(NodeId{2});
  m.on_duplicate_rx(NodeId{3});
  m.on_beacon_tx(NodeId{1});
  EXPECT_EQ(m.retx_drops(), 1u);
  EXPECT_EQ(m.queue_drops(), 2u);
  EXPECT_EQ(m.duplicate_rx(), 1u);
  EXPECT_EQ(m.beacon_tx_total(), 1u);
}

// ---- 16-bit sequence wrap ------------------------------------------------

TEST(MetricsTest, SequenceWrapDoesNotCollapseDeliveries) {
  // An origin that generates more than 65536 packets wraps its 16-bit
  // seq; deliveries from different epochs must not dedup against each
  // other.
  Metrics m;
  const std::uint64_t total = 70'000;
  for (std::uint64_t i = 0; i < total; ++i) {
    const auto seq = static_cast<std::uint16_t>(i & 0xFFFF);
    m.on_generated(NodeId{1}, seq);
    m.on_delivered(NodeId{1}, seq);
  }
  EXPECT_EQ(m.delivered_unique_total(), total);
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 1.0);
}

TEST(MetricsTest, DuplicateAcrossWrapBoundaryCountsOnce) {
  Metrics m;
  m.on_generated(NodeId{1}, 65535);
  m.on_generated(NodeId{1}, 0);
  m.on_delivered(NodeId{1}, 65535);
  m.on_delivered(NodeId{1}, 0);  // next epoch
  m.on_delivered(NodeId{1}, 0);  // retransmission duplicate
  EXPECT_EQ(m.delivered_unique_total(), 2u);
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 1.0);
}

TEST(MetricsTest, ReorderedDeliveryNearWrapBoundary) {
  Metrics m;
  for (const std::uint16_t seq : {65534, 65535, 0, 1}) {
    m.on_generated(NodeId{1}, seq);
  }
  // Arrivals out of order around the wrap: the late pre-wrap packet must
  // land in the old epoch, not 65536 packets into the future.
  m.on_delivered(NodeId{1}, 65535);
  m.on_delivered(NodeId{1}, 0);
  m.on_delivered(NodeId{1}, 65534);  // late, from before the wrap
  m.on_delivered(NodeId{1}, 1);
  m.on_delivered(NodeId{1}, 65534);  // duplicate of the late one
  EXPECT_EQ(m.delivered_unique_total(), 4u);
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 1.0);
}

/// The delivered-packet dedup the bitset replaced: each wire seq widened
/// to the candidate (in the highest seq's epoch or a neighboring one)
/// closest to the highest seen so far, then deduped in a std::set.
class SetDedupOracle {
 public:
  bool deliver(std::uint16_t seq) {
    std::uint64_t expanded = seq;
    if (has_) {
      const std::uint64_t epoch = highest_ >> 16;
      const auto dist = [this](std::uint64_t c) {
        return c > highest_ ? c - highest_ : highest_ - c;
      };
      expanded = (epoch << 16) | seq;
      for (const int d : {-1, +1}) {
        if (d < 0 && epoch == 0) continue;
        const std::uint64_t c =
            ((epoch + static_cast<std::uint64_t>(d)) << 16) | seq;
        if (dist(c) < dist(expanded)) expanded = c;
      }
    }
    has_ = true;
    highest_ = std::max(highest_, expanded);
    return delivered_.insert(expanded).second;
  }
  [[nodiscard]] std::size_t count() const { return delivered_.size(); }

 private:
  std::set<std::uint64_t> delivered_;
  std::uint64_t highest_ = 0;
  bool has_ = false;
};

TEST(MetricsTest, DeliveredDedupMatchesSetOracle) {
  // Three origins each generate past two 16-bit epoch wraps. Packets
  // arrive mostly in order, some are lost, some arrive twice (a lost
  // ack's retransmission), and some arrive late by up to 32767 packets.
  Metrics m;
  std::vector<SetDedupOracle> oracles(3);
  std::vector<std::uint64_t> generated(3, 0);
  sim::Rng rng{11};
  std::uint64_t expected_total = 0;
  for (int step = 0; step < 450'000; ++step) {
    const auto o = static_cast<std::size_t>(rng.uniform_int(3));
    const NodeId origin{static_cast<std::uint16_t>(o + 1)};
    const std::uint64_t index = generated[o]++;
    m.on_generated(origin, static_cast<std::uint16_t>(index));
    std::uint64_t deliver = index;
    const auto op = rng.uniform_int(100);
    if (op < 10) continue;  // lost
    if (op < 15 && index > 0) {
      // Late: an earlier packet, up to half the sequence space back.
      deliver = index - 1 -
                rng.uniform_int(std::min<std::uint64_t>(index, 32767));
    }
    const auto seq = static_cast<std::uint16_t>(deliver);
    const int copies = op >= 95 ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      if (oracles[o].deliver(seq)) ++expected_total;
      m.on_delivered(origin, seq);
    }
    if (step % 997 == 0) {
      ASSERT_EQ(m.delivered_unique_total(), expected_total) << "step " << step;
    }
  }
  EXPECT_EQ(m.delivered_unique_total(), expected_total);
  EXPECT_GT(*std::min_element(generated.begin(), generated.end()),
            2u * 65536u);
  std::vector<double> want;
  for (std::size_t o = 0; o < 3; ++o) {
    want.push_back(static_cast<double>(oracles[o].count()) /
                   static_cast<double>(generated[o]));
  }
  auto got = m.per_node_delivery();
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

// ---- five-number summary ------------------------------------------------------

TEST(SummaryTest, KnownDistribution) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const auto s = five_number_summary(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(SummaryTest, UnsortedInputHandled) {
  const std::vector<double> xs{5, 1, 3, 2, 4};
  const auto s = five_number_summary(xs);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(SummaryTest, SingleElement) {
  const auto s = five_number_summary({7.0});
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(SummaryTest, EmptyIsZeros) {
  const auto s = five_number_summary({});
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(SummaryTest, QuantileInterpolates) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 0.0);
}

// ---- Aggregate ------------------------------------------------------------

TEST(AggregateTest, KnownSample) {
  const auto a = Aggregate::of({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(a.n, 5u);
  EXPECT_DOUBLE_EQ(a.mean, 3.0);
  EXPECT_NEAR(a.stddev, std::sqrt(2.5), 1e-12);            // sample stddev
  EXPECT_NEAR(a.ci95_half, 1.96 * std::sqrt(2.5 / 5.0), 1e-12);
  EXPECT_DOUBLE_EQ(a.quartiles.min, 1.0);
  EXPECT_DOUBLE_EQ(a.quartiles.q1, 2.0);
  EXPECT_DOUBLE_EQ(a.quartiles.median, 3.0);
  EXPECT_DOUBLE_EQ(a.quartiles.q3, 4.0);
  EXPECT_DOUBLE_EQ(a.quartiles.max, 5.0);
  EXPECT_NEAR(a.ci_hi() - a.ci_lo(), 2.0 * a.ci95_half, 1e-12);
}

TEST(AggregateTest, EmptyAndSingleton) {
  const auto empty = Aggregate::of({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev, 0.0);

  const auto one = Aggregate::of({7.0});
  EXPECT_EQ(one.n, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);  // undefined for n=1: reported as 0
  EXPECT_DOUBLE_EQ(one.ci95_half, 0.0);
  EXPECT_DOUBLE_EQ(one.quartiles.median, 7.0);
}

TEST(AggregateTest, ConstantSampleHasZeroSpread) {
  const auto a = Aggregate::of({2.0, 2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(a.mean, 2.0);
  EXPECT_DOUBLE_EQ(a.stddev, 0.0);
  EXPECT_DOUBLE_EQ(a.ci95_half, 0.0);
}

// ---- BinnedSeries ---------------------------------------------------------------

TEST(BinnedSeriesTest, BinsByTime) {
  BinnedSeries s{sim::Duration::from_seconds(10.0)};
  s.add(sim::Time::from_us(1'000'000), 1.0);    // bin 0
  s.add(sim::Time::from_us(9'000'000), 3.0);    // bin 0
  s.add(sim::Time::from_us(15'000'000), 10.0);  // bin 1
  EXPECT_EQ(s.bins(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(0), 2.0);
  EXPECT_DOUBLE_EQ(s.mean(1), 10.0);
  EXPECT_EQ(s.count(0), 2u);
  EXPECT_EQ(s.count(1), 1u);
}

TEST(BinnedSeriesTest, EmptyBinUsesFallback) {
  BinnedSeries s{sim::Duration::from_seconds(1.0)};
  s.add(sim::Time::from_us(5'000'000), 2.0);  // bin 5; bins 0-4 empty
  EXPECT_DOUBLE_EQ(s.mean(2, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(s.mean(99, -1.0), -1.0);
}

TEST(BinnedSeriesTest, BinStartSeconds) {
  BinnedSeries s{sim::Duration::from_minutes(10.0)};
  EXPECT_DOUBLE_EQ(s.bin_start_seconds(3), 1800.0);
}

// ---- fault / recovery metrics --------------------------------------------

namespace {
sim::Time at_s(double s) {
  return sim::Time::from_us(static_cast<std::int64_t>(s * 1e6));
}
}  // namespace

TEST(MetricsRecoveryTest, RerouteSampleSpansLossToRestore) {
  Metrics m;
  m.on_route_lost(NodeId{1}, at_s(10.0));
  m.on_route_lost(NodeId{1}, at_s(12.0));  // already outstanding: ignored
  m.on_route_restored(NodeId{1}, at_s(25.0));
  EXPECT_EQ(m.route_losses(), 1u);
  EXPECT_EQ(m.reroute_count(), 1u);
  EXPECT_DOUBLE_EQ(m.mean_time_to_reroute_s(), 15.0);
  EXPECT_DOUBLE_EQ(m.max_time_to_reroute_s(), 15.0);
}

TEST(MetricsRecoveryTest, BackDatedLossExtendsTheSample) {
  // Dead-parent eviction discovers the loss late and back-dates it to
  // the start of the failure streak.
  Metrics m;
  m.on_route_lost(NodeId{1}, at_s(8.0));  // back-dated
  m.on_route_restored(NodeId{1}, at_s(10.0));
  EXPECT_DOUBLE_EQ(m.mean_time_to_reroute_s(), 2.0);
}

TEST(MetricsRecoveryTest, CrashDiscardsOutstandingLoss) {
  // A crashed node's downtime is not a reroute; only live nodes steering
  // around damage contribute samples.
  Metrics m;
  m.on_route_lost(NodeId{1}, at_s(10.0));
  m.on_node_crashed(NodeId{1}, at_s(11.0));
  m.on_route_restored(NodeId{1}, at_s(300.0));
  EXPECT_EQ(m.reroute_count(), 0u);
  EXPECT_EQ(m.node_crashes(), 1u);
}

TEST(MetricsRecoveryTest, FirstRouteAnchorsOnColdBoot) {
  Metrics m;
  m.on_node_started(NodeId{1}, at_s(5.0));
  m.on_route_restored(NodeId{1}, at_s(20.0));
  // The reboot's second start and route must not move the number.
  m.on_node_started(NodeId{1}, at_s(90.0));
  m.on_route_lost(NodeId{1}, at_s(90.0));
  m.on_route_restored(NodeId{1}, at_s(95.0));
  EXPECT_DOUBLE_EQ(m.mean_time_to_first_route_s(), 15.0);
}

TEST(MetricsRecoveryTest, OutagePhasesSplitDelivery) {
  Metrics m;
  m.add_outage_window(at_s(100.0), at_s(200.0));
  m.on_generated(NodeId{1}, 0, at_s(50.0));   // normal
  m.on_generated(NodeId{1}, 1, at_s(150.0));  // during
  m.on_generated(NodeId{1}, 2, at_s(199.0));  // during
  m.on_generated(NodeId{1}, 3, at_s(250.0));  // post (after last window)
  m.on_delivered(NodeId{1}, 1);
  m.on_delivered(NodeId{1}, 3);
  EXPECT_EQ(m.generated_during_outage(), 2u);
  EXPECT_EQ(m.generated_post_outage(), 1u);
  EXPECT_DOUBLE_EQ(m.delivery_during_outage(), 0.5);
  EXPECT_DOUBLE_EQ(m.delivery_post_outage(), 1.0);
}

TEST(MetricsRecoveryTest, NoWindowsMeansNoPhases) {
  Metrics m;
  m.on_generated(NodeId{1}, 0, at_s(50.0));
  m.on_delivered(NodeId{1}, 0);
  EXPECT_EQ(m.generated_during_outage(), 0u);
  EXPECT_EQ(m.generated_post_outage(), 0u);
  EXPECT_DOUBLE_EQ(m.delivery_during_outage(), 0.0);
  EXPECT_DOUBLE_EQ(m.delivery_post_outage(), 0.0);
}

TEST(MetricsRecoveryTest, TableRefillAveragesAndCounts) {
  Metrics m;
  m.on_table_refill(NodeId{1}, sim::Duration::from_seconds(4.0));
  m.on_table_refill(NodeId{2}, sim::Duration::from_seconds(8.0));
  EXPECT_EQ(m.table_refill_count(), 2u);
  EXPECT_DOUBLE_EQ(m.mean_table_refill_s(), 6.0);
  m.on_pin_refusal(NodeId{3});
  m.on_node_rebooted(NodeId{1}, at_s(1.0));
  EXPECT_EQ(m.pin_refusals(), 1u);
  EXPECT_EQ(m.node_reboots(), 1u);
}

}  // namespace
}  // namespace fourbit::stats
