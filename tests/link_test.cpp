// Tests of the link-layer abstractions: the neighbor table (and its pin
// bit) and estimator interface plumbing.
#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "link/neighbor_table.hpp"
#include "link/packet_info.hpp"
#include "sim/rng.hpp"

namespace fourbit::link {
namespace {

struct Payload {
  int value = 0;
};

using Table = NeighborTable<Payload>;

TEST(NeighborTableTest, InsertAndFind) {
  Table t{4};
  EXPECT_EQ(t.size(), 0u);
  ASSERT_NE(t.insert(NodeId{1}, Payload{10}), nullptr);
  ASSERT_NE(t.insert(NodeId{2}, Payload{20}), nullptr);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(NodeId{1})->data.value, 10);
  EXPECT_EQ(t.find(NodeId{2})->data.value, 20);
  EXPECT_EQ(t.find(NodeId{3}), nullptr);
}

TEST(NeighborTableTest, FullTableRejectsInsert) {
  Table t{2};
  (void)t.insert(NodeId{1});
  (void)t.insert(NodeId{2});
  EXPECT_TRUE(t.full());
  EXPECT_EQ(t.insert(NodeId{3}), nullptr);
  EXPECT_EQ(t.size(), 2u);
}

TEST(NeighborTableTest, UnboundedNeverFull) {
  Table t{0};
  EXPECT_TRUE(t.unbounded());
  for (std::uint16_t i = 0; i < 100; ++i) {
    ASSERT_NE(t.insert(NodeId{i}), nullptr);
  }
  EXPECT_FALSE(t.full());
  EXPECT_EQ(t.size(), 100u);
}

TEST(NeighborTableTest, PinBitBlocksRemove) {
  Table t{4};
  (void)t.insert(NodeId{1});
  EXPECT_TRUE(t.pin(NodeId{1}));
  EXPECT_FALSE(t.remove(NodeId{1}));  // pinned: must not be removed
  t.unpin(NodeId{1});
  EXPECT_TRUE(t.remove(NodeId{1}));
  EXPECT_EQ(t.size(), 0u);
}

TEST(NeighborTableTest, PinOfAbsentNodeFails) {
  Table t{4};
  EXPECT_FALSE(t.pin(NodeId{9}));
}

TEST(NeighborTableTest, RandomEvictionNeverTouchesPinned) {
  sim::Rng rng{3};
  for (int trial = 0; trial < 50; ++trial) {
    Table t{4};
    (void)t.insert(NodeId{1});
    (void)t.insert(NodeId{2});
    (void)t.insert(NodeId{3});
    (void)t.insert(NodeId{4});
    EXPECT_TRUE(t.pin(NodeId{2}));
    EXPECT_TRUE(t.evict_random_unpinned(rng));
    EXPECT_EQ(t.size(), 3u);
    EXPECT_NE(t.find(NodeId{2}), nullptr) << "pinned entry was evicted";
  }
}

TEST(NeighborTableTest, AllPinnedMeansNoEviction) {
  sim::Rng rng{3};
  Table t{2};
  (void)t.insert(NodeId{1});
  (void)t.insert(NodeId{2});
  EXPECT_TRUE(t.pin(NodeId{1}));
  EXPECT_TRUE(t.pin(NodeId{2}));
  EXPECT_FALSE(t.evict_random_unpinned(rng));
  EXPECT_EQ(t.size(), 2u);
}

TEST(NeighborTableTest, RandomEvictionIsRoughlyUniform) {
  sim::Rng rng{17};
  std::unordered_map<NodeId, int> evicted;
  const int trials = 3000;
  for (int trial = 0; trial < trials; ++trial) {
    Table t{3};
    (void)t.insert(NodeId{1});
    (void)t.insert(NodeId{2});
    (void)t.insert(NodeId{3});
    EXPECT_TRUE(t.evict_random_unpinned(rng));
    for (std::uint16_t i = 1; i <= 3; ++i) {
      if (t.find(NodeId{i}) == nullptr) evicted[NodeId{i}] += 1;
    }
  }
  for (std::uint16_t i = 1; i <= 3; ++i) {
    EXPECT_NEAR(evicted[NodeId{i}], trials / 3, trials / 10);
  }
}

TEST(NeighborTableTest, RandomEvictionDrawsTheCandidateListVictim) {
  // Oracle: the k-th unpinned entry, k drawn once over the unpinned
  // count, is the victim a list of unpinned indices would have given for
  // the same draw.
  sim::Rng pins{5};
  sim::Rng rng{11};
  for (int trial = 0; trial < 500; ++trial) {
    Table t{10};
    for (std::uint16_t i = 0; i < 10; ++i) {
      (void)t.insert(NodeId{i});
      if (pins.bernoulli(0.3)) (void)t.pin(NodeId{i});
    }
    std::vector<NodeId> candidates;
    for (const auto& e : t.entries()) {
      if (!e.pinned) candidates.push_back(e.node);
    }
    sim::Rng twin = rng;
    const auto victim = t.evict_random_unpinned(rng);
    if (candidates.empty()) {
      EXPECT_FALSE(victim.has_value());
      continue;
    }
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, candidates[twin.uniform_int(candidates.size())]);
    EXPECT_EQ(rng.next_u64(), twin.next_u64()) << "one draw per eviction";
    EXPECT_EQ(t.find(*victim), nullptr);
    EXPECT_EQ(t.size(), 9u);
  }
}

TEST(NeighborTableTest, EvictWorstUsesOrdering) {
  Table t{3};
  (void)t.insert(NodeId{1}, Payload{10});
  (void)t.insert(NodeId{2}, Payload{99});
  (void)t.insert(NodeId{3}, Payload{50});
  const auto worse = [](const Table::Entry& a, const Table::Entry& b) {
    return b.data.value > a.data.value;  // bigger value = worse
  };
  EXPECT_TRUE(t.evict_worst_unpinned(worse));
  EXPECT_EQ(t.find(NodeId{2}), nullptr);
  EXPECT_EQ(t.size(), 2u);
}

TEST(NeighborTableTest, EvictWorstRespectsPin) {
  Table t{3};
  (void)t.insert(NodeId{1}, Payload{10});
  (void)t.insert(NodeId{2}, Payload{99});
  EXPECT_TRUE(t.pin(NodeId{2}));
  const auto worse = [](const Table::Entry& a, const Table::Entry& b) {
    return b.data.value > a.data.value;
  };
  EXPECT_TRUE(t.evict_worst_unpinned(worse));
  EXPECT_NE(t.find(NodeId{2}), nullptr);
  EXPECT_EQ(t.find(NodeId{1}), nullptr);
}

TEST(NeighborTableTest, ClearPinsUnpinsEverything) {
  sim::Rng rng{3};
  Table t{2};
  (void)t.insert(NodeId{1});
  (void)t.insert(NodeId{2});
  (void)t.pin(NodeId{1});
  (void)t.pin(NodeId{2});
  t.clear_pins();
  EXPECT_TRUE(t.evict_random_unpinned(rng));
  EXPECT_EQ(t.size(), 1u);
}

TEST(NeighborTableTest, RemoveAbsentIsFalse) {
  Table t{2};
  EXPECT_FALSE(t.remove(NodeId{42}));
}

TEST(PacketPhyInfoTest, Defaults) {
  const FixedPhyInfo info;
  EXPECT_FALSE(info.white());
  EXPECT_EQ(info.lqi(), 0);
}

}  // namespace
}  // namespace fourbit::link
