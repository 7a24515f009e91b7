// Tests of the 4B hybrid estimator: window math (the Figure 5 trace),
// table admission (white/compare supplement), the pin bit, and edge
// cases of the beacon sequence arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/four_bit_estimator.hpp"
#include "sim/rng.hpp"

namespace fourbit::core {
namespace {

/// CompareProvider stub with a scripted answer and call recording.
class StubCompare final : public link::CompareProvider {
 public:
  explicit StubCompare(bool answer) : answer_(answer) {}

  bool compare_bit(NodeId candidate,
                   std::span<const std::uint8_t> payload) override {
    ++calls_;
    last_candidate_ = candidate;
    last_payload_.assign(payload.begin(), payload.end());
    return answer_;
  }

  bool answer_;
  int calls_ = 0;
  NodeId last_candidate_;
  std::vector<std::uint8_t> last_payload_;
};

link::FixedPhyInfo white_info() { return {true, 110}; }
link::FixedPhyInfo gray_info() { return {false, 80}; }

/// Sends one beacon with the given sequence number (no routing payload).
void beacon(FourBitEstimator& est, NodeId from, std::uint8_t seq,
            const link::PacketPhyInfo& info = white_info()) {
  const std::vector<std::uint8_t> bytes{seq};
  ASSERT_TRUE(est.unwrap_beacon(from, bytes, info).has_value());
}

// ---- Figure 5 trace ------------------------------------------------------

TEST(FourBitTest, Figure5HybridTrace) {
  FourBitConfig cfg;  // ku=5, kb=2, inner 2/3, outer 1/2
  FourBitEstimator est{cfg, sim::Rng{1}};
  const NodeId n{1};

  beacon(est, n, 0);
  beacon(est, n, 1);  // window 2/2 -> PRR 1.0
  EXPECT_NEAR(est.beacon_quality(n).value(), 1.0, 1e-9);
  EXPECT_NEAR(est.etx(n).value(), 1.0, 1e-9);

  for (int i = 0; i < 5; ++i) est.on_unicast_result(n, true);  // 5/5
  EXPECT_NEAR(est.etx(n).value(), 1.0, 1e-9);

  beacon(est, n, 3);  // 1 of 2 expected -> PRR 0.5
  EXPECT_NEAR(est.beacon_quality(n).value(), 0.833333, 1e-5);
  EXPECT_NEAR(est.etx(n).value(), 1.1, 1e-5);  // sample 1.2 blended

  for (int i = 0; i < 4; ++i) est.on_unicast_result(n, true);  // 4/5
  est.on_unicast_result(n, false);
  EXPECT_NEAR(est.etx(n).value(), 1.175, 1e-5);

  est.on_unicast_result(n, true);  // 1/5 -> sample 5.0
  for (int i = 0; i < 4; ++i) est.on_unicast_result(n, false);
  EXPECT_NEAR(est.etx(n).value(), 3.0875, 1e-5);

  beacon(est, n, 5);  // 1/2 again
  EXPECT_NEAR(est.beacon_quality(n).value(), 0.722222, 1e-5);
  EXPECT_NEAR(est.etx(n).value(), 2.23599, 1e-4);

  for (int i = 0; i < 4; ++i) est.on_unicast_result(n, true);  // 4/5
  est.on_unicast_result(n, false);
  EXPECT_NEAR(est.etx(n).value(), 1.74299, 1e-4);

  // 0/5 window; the running failure streak spans windows and reaches 6.
  for (int i = 0; i < 5; ++i) est.on_unicast_result(n, false);
  EXPECT_NEAR(est.etx(n).value(), 3.8715, 1e-3);
}

// ---- beacon wrapping -------------------------------------------------------

TEST(FourBitTest, WrapBeaconPrependsIncrementingSeq) {
  FourBitEstimator est{FourBitConfig{}, sim::Rng{1}};
  const std::vector<std::uint8_t> payload{9, 8, 7};
  const auto b0 = link::wrapped_beacon(est, payload);
  const auto b1 = link::wrapped_beacon(est, payload);
  ASSERT_EQ(b0.size(), 4u);
  EXPECT_EQ(b1[0], static_cast<std::uint8_t>(b0[0] + 1));
  EXPECT_EQ(b0[1], 9);
  EXPECT_EQ(b0[3], 7);
}

TEST(FourBitTest, UnwrapReturnsEmbeddedPayload) {
  FourBitEstimator tx{FourBitConfig{}, sim::Rng{1}};
  FourBitEstimator rx{FourBitConfig{}, sim::Rng{2}};
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const auto wire = link::wrapped_beacon(tx, payload);
  const auto out = rx.unwrap_beacon(NodeId{5}, wire, white_info());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(out->begin(), out->end()), payload);
}

TEST(FourBitTest, UnwrapEmptyIsMalformed) {
  FourBitEstimator est{FourBitConfig{}, sim::Rng{1}};
  const std::vector<std::uint8_t> empty;
  EXPECT_FALSE(est.unwrap_beacon(NodeId{1}, empty, white_info()).has_value());
}

// ---- admission --------------------------------------------------------------

TEST(FourBitTest, FreeSlotAdmitsAnyBeacon) {
  FourBitConfig cfg;
  cfg.table_capacity = 2;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 0, gray_info());  // white NOT required with room
  EXPECT_EQ(est.table_size(), 1u);
  EXPECT_TRUE(est.etx(NodeId{1}).has_value());  // bootstrap estimate
}

TEST(FourBitTest, FullTableWhiteCompareAdmits) {
  FourBitConfig cfg;
  cfg.table_capacity = 2;
  cfg.insertion = InsertionPolicy::kWhiteCompare;
  cfg.probabilistic_insert_p = 0.0;  // isolate the fast path
  FourBitEstimator est{cfg, sim::Rng{1}};
  StubCompare compare{true};
  est.set_compare_provider(&compare);

  beacon(est, NodeId{1}, 0);
  beacon(est, NodeId{2}, 0);
  ASSERT_EQ(est.table_size(), 2u);

  beacon(est, NodeId{3}, 0);  // white + compare true -> admitted
  EXPECT_EQ(est.table_size(), 2u);
  EXPECT_TRUE(est.etx(NodeId{3}).has_value());
  EXPECT_EQ(compare.calls_, 1);
  EXPECT_EQ(compare.last_candidate_, NodeId{3});
}

TEST(FourBitTest, FullTableWithoutWhiteUsesFallbackOnly) {
  FourBitConfig cfg;
  cfg.table_capacity = 2;
  cfg.insertion = InsertionPolicy::kWhiteCompare;
  cfg.probabilistic_insert_p = 0.0;
  FourBitEstimator est{cfg, sim::Rng{1}};
  StubCompare compare{true};
  est.set_compare_provider(&compare);

  beacon(est, NodeId{1}, 0);
  beacon(est, NodeId{2}, 0);
  beacon(est, NodeId{3}, 0, gray_info());  // no white bit, fallback p=0
  EXPECT_EQ(est.table_size(), 2u);
  EXPECT_FALSE(est.etx(NodeId{3}).has_value());
  EXPECT_EQ(compare.calls_, 0);  // compare is only asked on white packets
}

TEST(FourBitTest, CompareFalseFallsBackToProbabilistic) {
  FourBitConfig cfg;
  cfg.table_capacity = 1;
  cfg.insertion = InsertionPolicy::kWhiteCompare;
  cfg.probabilistic_insert_p = 1.0;  // fallback always admits
  FourBitEstimator est{cfg, sim::Rng{1}};
  StubCompare compare{false};
  est.set_compare_provider(&compare);

  beacon(est, NodeId{1}, 0);
  beacon(est, NodeId{2}, 0);  // compare says no, but Woo fallback says yes
  EXPECT_EQ(est.table_size(), 1u);
  EXPECT_TRUE(est.etx(NodeId{2}).has_value());
  EXPECT_EQ(compare.calls_, 1);
}

TEST(FourBitTest, AllPinnedBlocksAdmission) {
  FourBitConfig cfg;
  cfg.table_capacity = 2;
  cfg.probabilistic_insert_p = 1.0;
  FourBitEstimator est{cfg, sim::Rng{1}};
  StubCompare compare{true};
  est.set_compare_provider(&compare);

  beacon(est, NodeId{1}, 0);
  beacon(est, NodeId{2}, 0);
  EXPECT_TRUE(est.pin(NodeId{1}));
  EXPECT_TRUE(est.pin(NodeId{2}));
  beacon(est, NodeId{3}, 0);
  EXPECT_EQ(est.table_size(), 2u);
  EXPECT_FALSE(est.etx(NodeId{3}).has_value());
}

TEST(FourBitTest, PinnedEntrySurvivesChurn) {
  FourBitConfig cfg;
  cfg.table_capacity = 3;
  cfg.probabilistic_insert_p = 1.0;
  FourBitEstimator est{cfg, sim::Rng{1}};
  StubCompare compare{true};
  est.set_compare_provider(&compare);

  beacon(est, NodeId{1}, 0);
  EXPECT_TRUE(est.pin(NodeId{1}));
  for (std::uint16_t i = 2; i < 40; ++i) {
    beacon(est, NodeId{i}, 0);
  }
  EXPECT_TRUE(est.etx(NodeId{1}).has_value()) << "pinned entry evicted";
  EXPECT_EQ(est.table_size(), 3u);
}

TEST(FourBitTest, NeverPolicyOnlyFillsFreeSlots) {
  FourBitConfig cfg;
  cfg.table_capacity = 1;
  cfg.insertion = InsertionPolicy::kNever;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 0);
  beacon(est, NodeId{2}, 0);
  EXPECT_EQ(est.table_size(), 1u);
  EXPECT_FALSE(est.etx(NodeId{2}).has_value());
}

// ---- ack-bit edge cases --------------------------------------------------------

TEST(FourBitTest, AckForUnknownNodeIgnored) {
  FourBitEstimator est{FourBitConfig{}, sim::Rng{1}};
  est.on_unicast_result(NodeId{9}, true);  // must not crash or insert
  EXPECT_EQ(est.table_size(), 0u);
  EXPECT_FALSE(est.etx(NodeId{9}).has_value());
}

TEST(FourBitTest, EtxClampedAtMaximum) {
  FourBitConfig cfg;
  cfg.max_etx_sample = 16.0;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 0);
  for (int i = 0; i < 200; ++i) est.on_unicast_result(NodeId{1}, false);
  EXPECT_LE(est.etx(NodeId{1}).value(), 16.0);
  EXPECT_GT(est.etx(NodeId{1}).value(), 8.0);
}

TEST(FourBitTest, EtxNeverBelowOne) {
  FourBitEstimator est{FourBitConfig{}, sim::Rng{1}};
  beacon(est, NodeId{1}, 0);
  for (int i = 0; i < 100; ++i) est.on_unicast_result(NodeId{1}, true);
  EXPECT_GE(est.etx(NodeId{1}).value(), 1.0);
}

TEST(FourBitTest, RecoveryAfterFailureStreak) {
  FourBitEstimator est{FourBitConfig{}, sim::Rng{1}};
  beacon(est, NodeId{1}, 0);
  for (int i = 0; i < 20; ++i) est.on_unicast_result(NodeId{1}, false);
  const double broken = est.etx(NodeId{1}).value();
  for (int i = 0; i < 40; ++i) est.on_unicast_result(NodeId{1}, true);
  const double recovered = est.etx(NodeId{1}).value();
  EXPECT_GT(broken, 4.0);
  EXPECT_LT(recovered, 1.2);
}

// ---- beacon sequence arithmetic ---------------------------------------------------

TEST(FourBitTest, SequenceWrapAroundCountsGap) {
  FourBitConfig cfg;
  cfg.beacon_window = 8;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 250);
  beacon(est, NodeId{1}, 2);  // gap of 8 across the wrap
  // window_expected reached 1 + 8 = 9 >= 8 -> one sample of 2/9.
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(),
              2.0 / 3.0 * 1.0 + 1.0 / 3.0 * (2.0 / 9.0), 1e-9);
}

TEST(FourBitTest, DuplicateSequenceIgnored) {
  // A replayed/duplicated beacon must not count as a reception: bumping
  // both received and expected would inflate the measured PRR on links
  // that also lose beacons.
  FourBitConfig cfg;
  cfg.beacon_window = 4;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 0);  // admission seeds the window at 1/1
  beacon(est, NodeId{1}, 2);  // gap 2 -> window 2/3
  beacon(est, NodeId{1}, 2);  // exact duplicate: ignored
  beacon(est, NodeId{1}, 2);  // ignored again
  // Still bootstrap-only: the duplicates must not have completed a window.
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(), 1.0, 1e-9);
  beacon(est, NodeId{1}, 3);  // window 3/4 -> sample 0.75
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(),
              2.0 / 3.0 * 1.0 + 1.0 / 3.0 * 0.75, 1e-9);
}

TEST(FourBitTest, DuplicateOfFirstBeaconIgnored) {
  FourBitConfig cfg;
  cfg.beacon_window = 2;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 5);
  beacon(est, NodeId{1}, 5);  // replay of the admitting beacon: window 1/1
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(), 1.0, 1e-9);
  beacon(est, NodeId{1}, 6);  // completes 2/2 -> PRR 1.0
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(), 1.0, 1e-9);
}

TEST(FourBitTest, DuplicateAfterWrapIgnored) {
  FourBitConfig cfg;
  cfg.beacon_window = 8;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 254);
  beacon(est, NodeId{1}, 2);  // gap 4 across the wrap -> window 2/5
  beacon(est, NodeId{1}, 2);  // duplicate just past the wrap: ignored
  beacon(est, NodeId{1}, 5);  // gap 3 -> window 3/8 -> sample 3/8
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(),
              2.0 / 3.0 * 1.0 + 1.0 / 3.0 * (3.0 / 8.0), 1e-9);
}

TEST(FourBitTest, LossyBeaconsConvergeTowardTruePrr) {
  FourBitConfig cfg;
  cfg.beacon_window = 4;
  FourBitEstimator est{cfg, sim::Rng{1}};
  // Receive every other beacon: long-run inbound PRR 0.5.
  std::uint8_t seq = 0;
  beacon(est, NodeId{1}, seq);
  for (int i = 0; i < 200; ++i) {
    seq = static_cast<std::uint8_t>(seq + 2);
    beacon(est, NodeId{1}, seq);
  }
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(), 0.5, 0.05);
  // With no data traffic, hybrid ETX tracks the beacon stream: ~2.
  EXPECT_NEAR(est.etx(NodeId{1}).value(), 2.0, 0.25);
}

// ---- misc -----------------------------------------------------------------------

TEST(FourBitTest, NeighborsListsTrackedNodes) {
  FourBitEstimator est{FourBitConfig{}, sim::Rng{1}};
  beacon(est, NodeId{3}, 0);
  beacon(est, NodeId{7}, 0);
  const auto n = est.neighbors();
  EXPECT_EQ(n.size(), 2u);
  EXPECT_NE(std::find(n.begin(), n.end(), NodeId{3}), n.end());
  EXPECT_NE(std::find(n.begin(), n.end(), NodeId{7}), n.end());
}

TEST(FourBitTest, RemoveDropsUnpinnedOnly) {
  FourBitEstimator est{FourBitConfig{}, sim::Rng{1}};
  beacon(est, NodeId{1}, 0);
  beacon(est, NodeId{2}, 0);
  EXPECT_TRUE(est.pin(NodeId{1}));
  EXPECT_FALSE(est.remove(NodeId{1}));  // pinned: refused, reported
  EXPECT_TRUE(est.remove(NodeId{2}));
  EXPECT_TRUE(est.etx(NodeId{1}).has_value());
  EXPECT_FALSE(est.etx(NodeId{2}).has_value());
}

TEST(FourBitTest, RemoveOfAbsentNodeSucceeds) {
  // "Removed or never present" both mean no stale entry remains.
  FourBitEstimator est{FourBitConfig{}, sim::Rng{1}};
  EXPECT_TRUE(est.remove(NodeId{9}));
}

TEST(FourBitTest, ClearPinsReleasesAll) {
  FourBitEstimator est{FourBitConfig{}, sim::Rng{1}};
  beacon(est, NodeId{1}, 0);
  EXPECT_TRUE(est.pin(NodeId{1}));
  est.clear_pins();
  est.remove(NodeId{1});
  EXPECT_EQ(est.table_size(), 0u);
}

// ---- beacon sequence resets (neighbor reboot) ----------------------------

TEST(FourBitTest, WhiteSeqResetDoesNotInflateExpected) {
  // A neighbor reboots and restarts its beacon sequence at 0. Without
  // the reset heuristic the mod-256 gap (here 55) would be charged as 55
  // lost beacons, cratering the estimate of a link that works fine.
  FourBitConfig cfg;
  cfg.beacon_window = 4;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 200);
  beacon(est, NodeId{1}, 201);
  beacon(est, NodeId{1}, 0);  // reset; white channel vouches for the link
  beacon(est, NodeId{1}, 1);  // completes 4/4
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(), 1.0, 1e-9);
  EXPECT_EQ(est.seq_resets(), 1u);
}

TEST(FourBitTest, SeqResetGapZeroDisablesHeuristic) {
  FourBitConfig cfg;
  cfg.beacon_window = 4;
  cfg.seq_reset_gap = 0;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 200);
  beacon(est, NodeId{1}, 201);
  beacon(est, NodeId{1}, 0);  // charged as a genuine 55-beacon gap: 3/57
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(),
              2.0 / 3.0 * 1.0 + 1.0 / 3.0 * (3.0 / 57.0), 1e-9);
  EXPECT_EQ(est.seq_resets(), 0u);
}

TEST(FourBitTest, GraySeqResetChargeIsCapped) {
  // Same reset, but nothing vouches for the link (not white, no acks):
  // charge the capped gap, not the full wrap distance.
  FourBitConfig cfg;
  cfg.beacon_window = 4;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 200, gray_info());
  beacon(est, NodeId{1}, 201, gray_info());
  beacon(est, NodeId{1}, 0, gray_info());  // 3/(2 + 16) = 3/18
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(),
              2.0 / 3.0 * 1.0 + 1.0 / 3.0 * (3.0 / 18.0), 1e-9);
  EXPECT_EQ(est.seq_resets(), 0u);
}

TEST(FourBitTest, AckedLinkSeqResetForgiven) {
  // Gray beacons, but recent unicast acks prove the link is alive — the
  // reset is forgiven like a white one.
  FourBitConfig cfg;
  cfg.beacon_window = 4;
  FourBitEstimator est{cfg, sim::Rng{1}};
  beacon(est, NodeId{1}, 200, gray_info());
  est.on_unicast_result(NodeId{1}, true);
  beacon(est, NodeId{1}, 201, gray_info());
  beacon(est, NodeId{1}, 0, gray_info());
  beacon(est, NodeId{1}, 1, gray_info());  // completes 4/4
  EXPECT_NEAR(est.beacon_quality(NodeId{1}).value(), 1.0, 1e-9);
  EXPECT_EQ(est.seq_resets(), 1u);
}

TEST(FourBitTest, ResetWipesTableAndRestartsSequence) {
  FourBitEstimator est{FourBitConfig{}, sim::Rng{1}};
  beacon(est, NodeId{1}, 0);
  EXPECT_TRUE(est.pin(NodeId{1}));
  const auto before = link::wrapped_beacon(est, {});
  est.reset();
  EXPECT_EQ(est.table_size(), 0u);
  EXPECT_TRUE(est.neighbors().empty());
  // The beacon sequence restarts from scratch, like a real reboot.
  const auto after = link::wrapped_beacon(est, {});
  EXPECT_EQ(after[0], before[0]);
}

TEST(FourBitTest, CompareReceivesRoutingPayload) {
  FourBitConfig cfg;
  cfg.table_capacity = 1;
  FourBitEstimator est{cfg, sim::Rng{1}};
  StubCompare compare{true};
  est.set_compare_provider(&compare);
  beacon(est, NodeId{1}, 0);
  const std::vector<std::uint8_t> wire{0, 0xAA, 0xBB};
  (void)est.unwrap_beacon(NodeId{2}, wire, white_info());
  ASSERT_EQ(compare.calls_, 1);
  const std::vector<std::uint8_t> expected{0xAA, 0xBB};
  EXPECT_EQ(compare.last_payload_, expected);
}

}  // namespace
}  // namespace fourbit::core
