// Tests of the shared utilities: ids, units, byte IO, windows, EWMA.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "common/byte_io.hpp"
#include "common/crc16.hpp"
#include "common/ids.hpp"
#include "common/ring_window.hpp"
#include "common/slot_queue.hpp"
#include "common/units.hpp"

namespace fourbit {
namespace {

// ---- ids -----------------------------------------------------------------

TEST(IdsTest, Comparisons) {
  EXPECT_EQ(NodeId{5}, NodeId{5});
  EXPECT_NE(NodeId{5}, NodeId{6});
  EXPECT_LT(NodeId{5}, NodeId{6});
}

TEST(IdsTest, SpecialAddresses) {
  EXPECT_TRUE(is_unicast(NodeId{0}));
  EXPECT_TRUE(is_unicast(NodeId{1234}));
  EXPECT_FALSE(is_unicast(kBroadcastId));
  EXPECT_FALSE(is_unicast(kInvalidNodeId));
  EXPECT_NE(kBroadcastId, kInvalidNodeId);
}

TEST(IdsTest, Hashable) {
  std::hash<NodeId> h;
  EXPECT_EQ(h(NodeId{7}), h(NodeId{7}));
  EXPECT_NE(h(NodeId{7}), h(NodeId{8}));  // not required, but true here
}

// ---- units ----------------------------------------------------------------

TEST(UnitsTest, DbmMilliwattRoundTrip) {
  EXPECT_DOUBLE_EQ(PowerDbm{0.0}.milliwatts(), 1.0);
  EXPECT_DOUBLE_EQ(PowerDbm{10.0}.milliwatts(), 10.0);
  EXPECT_NEAR(PowerDbm{-30.0}.milliwatts(), 1e-3, 1e-12);
  EXPECT_NEAR(PowerDbm::from_milliwatts(2.0).value(), 3.0103, 1e-3);
}

TEST(UnitsTest, DecibelArithmetic) {
  const PowerDbm p{-10.0};
  EXPECT_DOUBLE_EQ((p + Decibels{3.0}).value(), -7.0);
  EXPECT_DOUBLE_EQ((p - Decibels{5.0}).value(), -15.0);
  EXPECT_DOUBLE_EQ((PowerDbm{-40.0} - PowerDbm{-90.0}).value(), 50.0);
  EXPECT_DOUBLE_EQ((Decibels{2.0} + Decibels{3.0}).value(), 5.0);
  EXPECT_DOUBLE_EQ((-Decibels{2.0}).value(), -2.0);
}

TEST(UnitsTest, PowerSumOfEqualSignalsIsPlus3dB) {
  const PowerDbm sum = power_sum(PowerDbm{-50.0}, PowerDbm{-50.0});
  EXPECT_NEAR(sum.value(), -46.99, 0.02);
}

TEST(UnitsTest, PowerSumDominatedByStronger) {
  const PowerDbm sum = power_sum(PowerDbm{-50.0}, PowerDbm{-90.0});
  EXPECT_NEAR(sum.value(), -50.0, 0.001);
}

TEST(UnitsTest, Distance) {
  EXPECT_DOUBLE_EQ(distance_m(Position{0, 0}, Position{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_m(Position{1, 1}, Position{1, 1}), 0.0);
}

// ---- byte io ----------------------------------------------------------------

TEST(ByteIoTest, WriterBigEndian) {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  const std::vector<std::uint8_t> expected{0xAB, 0x12, 0x34,
                                           0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(out, expected);
}

TEST(ByteIoTest, ReaderRoundTrip) {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u8(7);
  w.u16(65535);
  w.u32(123456789);
  ByteReader r{out};
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 123456789u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIoTest, TruncationLatchesNotOk) {
  const std::vector<std::uint8_t> bytes{0x01};
  ByteReader r{bytes};
  EXPECT_EQ(r.u16(), 0);  // truncated: returns 0
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0);  // stays not-ok; reads keep returning 0
  EXPECT_FALSE(r.ok());
}

TEST(ByteIoTest, RestConsumesEverything) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4};
  ByteReader r{bytes};
  (void)r.u8();
  const auto rest = r.rest();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], 2);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIoTest, WriterBytesAppends) {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  const std::vector<std::uint8_t> chunk{9, 8, 7};
  w.u8(1);
  w.bytes(chunk);
  const std::vector<std::uint8_t> expected{1, 9, 8, 7};
  EXPECT_EQ(out, expected);
}

// ---- crc16 ---------------------------------------------------------------------

// The textbook bit-serial CRC-16/XMODEM (poly 0x1021, init 0): the
// oracle the table-driven crc16() must match bit for bit.
std::uint16_t crc16_bitwise(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0x0000;
  for (const std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 0x8000) {
        crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
      } else {
        crc = static_cast<std::uint16_t>(crc << 1);
      }
    }
  }
  return crc;
}

TEST(Crc16Test, MatchesBitwiseOracleOnEverySingleByte) {
  for (unsigned b = 0; b < 256; ++b) {
    const std::uint8_t data[] = {static_cast<std::uint8_t>(b)};
    EXPECT_EQ(crc16(data), crc16_bitwise(data)) << "byte " << b;
  }
}

TEST(Crc16Test, MatchesBitwiseOracleOnRandomBuffers) {
  std::mt19937 rng{20071115};
  std::uniform_int_distribution<std::size_t> length{0, 300};
  std::uniform_int_distribution<unsigned> byte{0, 255};
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 4000; ++i) {
    data.resize(length(rng));
    for (auto& b : data) b = static_cast<std::uint8_t>(byte(rng));
    ASSERT_EQ(crc16(data), crc16_bitwise(data))
        << "buffer " << i << " of length " << data.size();
  }
}

TEST(Crc16Test, KnownVector) {
  // CRC-16/XMODEM of "123456789" is 0x31C3.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16(data), 0x31C3);
}

TEST(Crc16Test, EmptyIsZero) {
  EXPECT_EQ(crc16(std::span<const std::uint8_t>{}), 0x0000);
}

TEST(Crc16Test, SingleBitFlipChangesCrc) {
  std::vector<std::uint8_t> data(32, 0x5A);
  const std::uint16_t clean = crc16(data);
  for (std::size_t byte = 0; byte < data.size(); byte += 7) {
    for (int bit = 0; bit < 8; bit += 3) {
      auto copy = data;
      copy[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc16(copy), clean)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc16Test, IsCompileTime) {
  constexpr std::uint8_t data[] = {0xAB};
  constexpr std::uint16_t crc = crc16(data);
  static_assert(crc != 0);
  EXPECT_NE(crc, 0);
}

// ---- CountingWindow ----------------------------------------------------------

TEST(CountingWindowTest, FillsAtWindowSize) {
  CountingWindow w{3};
  EXPECT_FALSE(w.record(true));
  EXPECT_FALSE(w.record(false));
  EXPECT_TRUE(w.record(true));
  EXPECT_EQ(w.successes(), 2u);
  EXPECT_EQ(w.total(), 3u);
  EXPECT_NEAR(w.success_fraction(), 2.0 / 3.0, 1e-12);
}

TEST(CountingWindowTest, ResetClears) {
  CountingWindow w{2};
  (void)w.record(true);
  (void)w.record(true);
  w.reset();
  EXPECT_EQ(w.total(), 0u);
  EXPECT_EQ(w.successes(), 0u);
  EXPECT_DOUBLE_EQ(w.success_fraction(), 0.0);
}

TEST(CountingWindowTest, WindowOfOne) {
  CountingWindow w{1};
  EXPECT_TRUE(w.record(false));
  EXPECT_DOUBLE_EQ(w.success_fraction(), 0.0);
}

// ---- Ewma ----------------------------------------------------------------------

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma e{0.9};
  EXPECT_FALSE(e.has_value());
  e.update(5.0);
  EXPECT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(EwmaTest, BlendsWithHistoryWeight) {
  Ewma e{2.0 / 3.0};
  e.update(1.0);
  e.update(0.5);
  EXPECT_NEAR(e.value(), 2.0 / 3.0 * 1.0 + 1.0 / 3.0 * 0.5, 1e-12);
}

TEST(EwmaTest, ZeroHistoryTracksLatest) {
  Ewma e{0.0};
  e.update(3.0);
  e.update(7.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.0);
}

TEST(EwmaTest, SeedForcesValue) {
  Ewma e{0.5};
  e.seed(2.0);
  EXPECT_TRUE(e.has_value());
  e.update(4.0);
  EXPECT_DOUBLE_EQ(e.value(), 3.0);
}

TEST(EwmaTest, ClearResets) {
  Ewma e{0.5};
  e.update(1.0);
  e.clear();
  EXPECT_FALSE(e.has_value());
}

TEST(EwmaTest, StaysWithinSampleRange) {
  // Property: an EWMA of samples in [lo, hi] never leaves [lo, hi].
  Ewma e{0.8};
  double x = 0.123;
  for (int i = 0; i < 1000; ++i) {
    x = std::fmod(x * 37.0 + 0.11, 1.0);  // deterministic pseudo-samples
    e.update(x);
    EXPECT_GE(e.value(), 0.0);
    EXPECT_LE(e.value(), 1.0);
  }
}


// ---- SlotQueue -------------------------------------------------------------

TEST(SlotQueueTest, MatchesDequeOverRandomPushesAndPops) {
  // Records are byte buffers, as in the MAC queues. Runs of pushes grow
  // the ring while its head sits anywhere; the queue must pop exactly
  // what a deque pops, in order.
  SlotQueue<std::vector<std::uint8_t>> queue;
  std::deque<std::vector<std::uint8_t>> oracle;
  std::mt19937 rng{7};
  std::uint8_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    const unsigned push_percent = step % 2000 < 1000 ? 60 : 40;
    const bool push = oracle.empty() || rng() % 100 < push_percent;
    if (push) {
      std::vector<std::uint8_t> record(rng() % 40, next++);
      auto& slot = queue.push_back();
      slot.assign(record.begin(), record.end());
      oracle.push_back(std::move(record));
    } else {
      ASSERT_EQ(queue.front(), oracle.front()) << "step " << step;
      queue.pop_front();
      oracle.pop_front();
    }
    ASSERT_EQ(queue.size(), oracle.size());
    ASSERT_EQ(queue.empty(), oracle.empty());
  }
  queue.clear();
  EXPECT_TRUE(queue.empty());
}

TEST(SlotQueueTest, PoppedSlotKeepsItsStorage) {
  // A queue that stays within its depth reuses its slots' buffers.
  SlotQueue<std::vector<std::uint8_t>> queue;
  queue.push_back().assign(64, 1);
  const std::uint8_t* storage = queue.front().data();
  queue.pop_front();
  for (int i = 0; i < 3; ++i) {
    queue.push_back().assign(8, 2);
    queue.pop_front();
  }
  // Four slots: the fifth push is back in the first one.
  auto& reused = queue.push_back();
  EXPECT_EQ(reused.data(), storage);
  EXPECT_GE(reused.capacity(), 64u);
}

}  // namespace
}  // namespace fourbit
