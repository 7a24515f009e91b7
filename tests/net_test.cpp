// Tests of the network layer: wire formats, duplicate cache, routing
// engine (parent selection, compare/pin bits, Trickle behaviour) and the
// forwarding engine (retransmission, the ack bit, loop signals).
//
// The routing/forwarding engines are tested against a scripted fake
// estimator and a captured data sender, so every behaviour is exercised
// without a radio underneath.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <initializer_list>
#include <memory>
#include <cstdlib>
#include <deque>
#include <map>
#include <new>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "app/traffic.hpp"
#include "common/byte_io.hpp"
#include "core/four_bit_estimator.hpp"
#include "estimators/broadcast_etx.hpp"
#include "estimators/lqi_estimator.hpp"
#include "mac/csma.hpp"
#include "mac/lpl.hpp"
#include "phy/channel.hpp"
#include "phy/interference.hpp"
#include "phy/radio.hpp"
#include "runner/network.hpp"
#include "runner/profile.hpp"
#include "topology/topology.hpp"
#include "link/neighbor_table.hpp"
#include "net/config.hpp"
#include "net/forwarding_engine.hpp"
#include "net/packets.hpp"
#include "net/routing_engine.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

// ---- allocation counting ---------------------------------------------------
//
// The global operator new is replaced for this test binary so a test can
// assert that a code path allocates nothing. Only allocations made on a
// thread whose counting flag is set are counted; everything forwards to
// malloc/free, which sanitizers intercept as usual. The operators stay
// out of line so the compiler never pairs an inlined new with a bare
// free (-Wmismatched-new-delete).

namespace {
thread_local bool t_count_allocations = false;
thread_local std::size_t t_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (t_count_allocations) ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fourbit::net {
namespace {

/// Counts this thread's operator-new calls for the guard's lifetime.
class AllocationCounter {
 public:
  AllocationCounter() {
    t_allocations = 0;
    t_count_allocations = true;
  }
  ~AllocationCounter() { t_count_allocations = false; }
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  [[nodiscard]] std::size_t stop() {
    t_count_allocations = false;
    return t_allocations;
  }
};

// ---- wire formats --------------------------------------------------------

TEST(PacketsTest, BeaconRoundTrip) {
  RoutingBeacon b;
  b.parent = NodeId{17};
  b.path_etx = 3.25;
  b.pull = true;
  const auto decoded = RoutingBeacon::decode(b.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->parent, NodeId{17});
  EXPECT_DOUBLE_EQ(decoded->path_etx, 3.25);
  EXPECT_TRUE(decoded->pull);
}

TEST(PacketsTest, BeaconPullDefaultsFalse) {
  RoutingBeacon b;
  b.parent = NodeId{1};
  b.path_etx = 0.0;
  const auto decoded = RoutingBeacon::decode(b.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->pull);
}

TEST(PacketsTest, BeaconTruncatedRejected) {
  const std::vector<std::uint8_t> bytes{0x00, 0x01};
  EXPECT_FALSE(RoutingBeacon::decode(bytes).has_value());
}

TEST(PacketsTest, EtxQuantization) {
  EXPECT_DOUBLE_EQ(dequantize_etx(quantize_etx(1.0)), 1.0);
  EXPECT_NEAR(dequantize_etx(quantize_etx(3.14)), 3.14, 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(dequantize_etx(quantize_etx(0.0)), 0.0);
  // Saturates instead of wrapping.
  EXPECT_GT(dequantize_etx(quantize_etx(1e9)), 4000.0);
}

TEST(PacketsTest, DataHeaderRoundTrip) {
  DataHeader h;
  h.origin = NodeId{300};
  h.seq = 4242;
  h.thl = 7;
  h.sender_path_etx = 12.5;
  const std::vector<std::uint8_t> payload{9, 9, 9};
  const auto bytes = h.encode(payload);
  const auto decoded = decode_data_view(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header.origin, NodeId{300});
  EXPECT_EQ(decoded->header.seq, 4242);
  EXPECT_EQ(decoded->header.thl, 7);
  EXPECT_DOUBLE_EQ(decoded->header.sender_path_etx, 12.5);
  EXPECT_TRUE(std::ranges::equal(decoded->app_payload, payload));
}

TEST(PacketsTest, DataHeaderTruncatedRejected) {
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  EXPECT_FALSE(decode_data_view(bytes).has_value());
}

TEST(PacketsTest, EncodersAppendAfterExistingBytes) {
  // The stack encodes into buffers that already hold a prefix (the
  // dispatch byte) or old bytes; each encoder appends exactly its own
  // encoding and leaves the prefix alone.
  RoutingBeacon b;
  b.parent = NodeId{0x1234};
  b.path_etx = 2.5;
  b.pull = true;
  std::vector<std::uint8_t> out{0xAA, 0xBB};
  b.append_to(out);
  const std::vector<std::uint8_t> beacon{0x01, 0x12, 0x34, 0x00, 0x28};
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0xAA, 0xBB, 0x01, 0x12, 0x34,
                                            0x00, 0x28}));
  EXPECT_EQ(b.encode(), beacon);

  DataHeader h;
  h.origin = NodeId{0x0102};
  h.seq = 0x0304;
  h.thl = 5;
  h.sender_path_etx = 1.0;
  const std::vector<std::uint8_t> app{9, 8};
  out.assign({0xCC});
  h.append_to(out, app);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0xCC, 0x01, 0x02, 0x03, 0x04,
                                            0x05, 0x00, 0x10, 9, 8}));
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + 1, out.end()),
            h.encode(app));
}

// ---- DupCache oracle -----------------------------------------------------

/// The deque-plus-set cache the flat ring replaced: the reference for
/// which keys are remembered.
class DequeDupCache {
 public:
  explicit DequeDupCache(std::size_t capacity) : capacity_(capacity) {}
  bool check_and_insert(NodeId origin, std::uint16_t seq) {
    const std::uint32_t key =
        static_cast<std::uint32_t>(origin.value()) << 16 | seq;
    if (set_.contains(key)) return true;
    if (fifo_.size() >= capacity_ && !fifo_.empty()) {
      set_.erase(fifo_.front());
      fifo_.pop_front();
    }
    fifo_.push_back(key);
    set_.insert(key);
    return false;
  }
  [[nodiscard]] std::size_t size() const { return fifo_.size(); }

 private:
  std::size_t capacity_;
  std::deque<std::uint32_t> fifo_;
  std::set<std::uint32_t> set_;
};

TEST(DupCacheTest, MatchesDequeSetOracle) {
  // Keys drawn from a small space so hits, misses and evictions of
  // keys that come back all happen often; capacity 0 included.
  for (const std::size_t capacity : {0u, 1u, 2u, 7u, 64u}) {
    DupCache cache{capacity};
    DequeDupCache oracle{capacity};
    sim::Rng rng{capacity + 1};
    for (int step = 0; step < 20000; ++step) {
      const NodeId origin{static_cast<std::uint16_t>(rng.uniform_int(4))};
      const auto seq =
          static_cast<std::uint16_t>(rng.uniform_int(3 * capacity + 5));
      ASSERT_EQ(cache.check_and_insert(origin, seq),
                oracle.check_and_insert(origin, seq))
          << "capacity " << capacity << " step " << step;
      ASSERT_EQ(cache.size(), oracle.size());
    }
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.check_and_insert(NodeId{1}, 1));
  }
}

// ---- DupCache -----------------------------------------------------------------

TEST(DupCacheTest, DetectsDuplicates) {
  DupCache cache{8};
  EXPECT_FALSE(cache.check_and_insert(NodeId{1}, 100));
  EXPECT_TRUE(cache.check_and_insert(NodeId{1}, 100));
  EXPECT_FALSE(cache.check_and_insert(NodeId{1}, 101));
  EXPECT_FALSE(cache.check_and_insert(NodeId{2}, 100));
}

TEST(DupCacheTest, EvictsOldestAtCapacity) {
  DupCache cache{2};
  (void)cache.check_and_insert(NodeId{1}, 1);
  (void)cache.check_and_insert(NodeId{1}, 2);
  (void)cache.check_and_insert(NodeId{1}, 3);  // evicts (1,1)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.check_and_insert(NodeId{1}, 1));  // forgotten
}

// ---- fakes -----------------------------------------------------------------------

/// Scripted estimator: ETX per neighbor set by the test; records pins and
/// ack-bit reports. Table writes go through set_etx/drop, which bump the
/// version as a real estimator does, so the routing engine sees them.
class FakeEstimator final : public link::LinkEstimator {
 public:
  void set_etx(NodeId n, double etx) {
    etx_map_[n] = etx;
    bump_version();
  }
  void drop(NodeId n) {
    etx_map_.erase(n);
    bump_version();
  }
  [[nodiscard]] bool tracks(NodeId n) const { return etx_map_.contains(n); }

  void wrap_beacon(std::span<const std::uint8_t> p,
                   std::vector<std::uint8_t>& out) override {
    out.insert(out.end(), p.begin(), p.end());
  }
  std::optional<std::span<const std::uint8_t>> unwrap_beacon(
      NodeId, std::span<const std::uint8_t> bytes,
      const link::PacketPhyInfo&) override {
    return bytes;
  }
  void on_unicast_result(NodeId to, bool acked) override {
    ack_reports.emplace_back(to, acked);
  }
  bool pin(NodeId n) override {
    if (!tracks(n)) return false;
    pinned.insert(n);
    return true;
  }
  void unpin(NodeId n) override { pinned.erase(n); }
  void clear_pins() override { pinned.clear(); }
  std::optional<double> etx(NodeId n) const override {
    const auto it = etx_map_.find(n);
    if (it == etx_map_.end()) return std::nullopt;
    return it->second;
  }
  std::vector<NodeId> neighbors() const override {
    std::vector<NodeId> out;
    for (const auto& [n, e] : etx_map_) out.push_back(n);
    return out;
  }
  bool remove(NodeId n) override {
    if (pinned.contains(n)) return false;  // real tables refuse pinned
    drop(n);
    return true;
  }
  void set_compare_provider(link::CompareProvider* p) override {
    compare = p;
  }

  std::set<NodeId> pinned;
  std::vector<std::pair<NodeId, bool>> ack_reports;
  link::CompareProvider* compare = nullptr;

 private:
  std::map<NodeId, double> etx_map_;
};

std::vector<std::uint8_t> beacon_from(NodeId parent, double cost,
                                      bool pull = false) {
  RoutingBeacon b;
  b.parent = parent;
  b.path_etx = cost;
  b.pull = pull;
  return b.encode();
}

// ---- RoutingEngine -------------------------------------------------------------

class RoutingFixture : public ::testing::Test {
 protected:
  RoutingFixture()
      : routing_(sim_, NodeId{10}, false, estimator_, CollectionConfig{},
                 sim::Rng{1}) {
    routing_.set_beacon_sender(
        [this](std::span<const std::uint8_t> payload) {
          sent_beacons_.emplace_back(payload.begin(), payload.end());
        });
    routing_.start();
  }

  sim::Simulator sim_;
  FakeEstimator estimator_;
  RoutingEngine routing_;
  std::vector<std::vector<std::uint8_t>> sent_beacons_;
};

TEST_F(RoutingFixture, NoRouteInitially) {
  EXPECT_FALSE(routing_.has_route());
  EXPECT_GE(routing_.path_etx(), CollectionConfig{}.max_path_etx);
}

TEST_F(RoutingFixture, AdoptsBestCostParent) {
  estimator_.set_etx(NodeId{1}, 1.0);
  estimator_.set_etx(NodeId{2}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 2.0));
  routing_.on_beacon(NodeId{2}, beacon_from(NodeId{99}, 0.5));
  EXPECT_TRUE(routing_.has_route());
  EXPECT_EQ(routing_.parent(), NodeId{2});
  EXPECT_NEAR(routing_.path_etx(), 1.5, 1e-9);
}

TEST_F(RoutingFixture, PinsCurrentParent) {
  estimator_.set_etx(NodeId{1}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 2.0));
  EXPECT_TRUE(estimator_.pinned.contains(NodeId{1}));
  // A far better parent appears (beats hysteresis): pin moves.
  estimator_.set_etx(NodeId{2}, 1.0);
  routing_.on_beacon(NodeId{2}, beacon_from(NodeId{99}, 0.0));
  EXPECT_EQ(routing_.parent(), NodeId{2});
  EXPECT_TRUE(estimator_.pinned.contains(NodeId{2}));
  EXPECT_FALSE(estimator_.pinned.contains(NodeId{1}));
}

TEST_F(RoutingFixture, HysteresisKeepsCurrentParent) {
  estimator_.set_etx(NodeId{1}, 1.0);
  estimator_.set_etx(NodeId{2}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 2.0));
  ASSERT_EQ(routing_.parent(), NodeId{1});
  // Candidate is better, but not by the switch threshold.
  routing_.on_beacon(NodeId{2}, beacon_from(NodeId{99}, 1.8));
  EXPECT_EQ(routing_.parent(), NodeId{1});
  // Now decisively better: switch.
  routing_.on_beacon(NodeId{2}, beacon_from(NodeId{99}, 0.2));
  EXPECT_EQ(routing_.parent(), NodeId{2});
}

TEST_F(RoutingFixture, IgnoresNeighborRoutingThroughUs) {
  estimator_.set_etx(NodeId{1}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{10}, 1.0));  // child!
  EXPECT_FALSE(routing_.has_route());
}

TEST_F(RoutingFixture, IgnoresRoutelessNeighbors) {
  estimator_.set_etx(NodeId{1}, 1.0);
  routing_.on_beacon(NodeId{1},
                     beacon_from(NodeId{99}, CollectionConfig{}.max_path_etx));
  EXPECT_FALSE(routing_.has_route());
}

TEST_F(RoutingFixture, IgnoresNeighborsWithoutLinkEstimate) {
  // Route info exists but the estimator does not track the node.
  routing_.on_beacon(NodeId{5}, beacon_from(NodeId{99}, 0.5));
  EXPECT_FALSE(routing_.has_route());
}

TEST_F(RoutingFixture, RootAdvertisesZero) {
  FakeEstimator est;
  RoutingEngine root{sim_, NodeId{0}, true, est, CollectionConfig{},
                     sim::Rng{2}};
  EXPECT_TRUE(root.is_root());
  EXPECT_TRUE(root.has_route());
  EXPECT_DOUBLE_EQ(root.path_etx(), 0.0);
}

TEST_F(RoutingFixture, BeaconsCarryCostAndPull) {
  sim_.run_for(sim::Duration::from_seconds(2.0));
  ASSERT_FALSE(sent_beacons_.empty());
  const auto b = RoutingBeacon::decode(sent_beacons_.back());
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(b->pull) << "routeless nodes must set the pull bit";

  estimator_.set_etx(NodeId{1}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 1.0));
  sent_beacons_.clear();
  sim_.run_for(sim::Duration::from_seconds(10.0));
  ASSERT_FALSE(sent_beacons_.empty());
  const auto b2 = RoutingBeacon::decode(sent_beacons_.back());
  ASSERT_TRUE(b2.has_value());
  EXPECT_FALSE(b2->pull);
  EXPECT_NEAR(b2->path_etx, 2.0, 0.1);
}

TEST_F(RoutingFixture, TrickleSlowsWhenStable) {
  estimator_.set_etx(NodeId{1}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 1.0));
  sim_.run_for(sim::Duration::from_seconds(60.0));
  const auto early = sent_beacons_.size();
  sim_.run_for(sim::Duration::from_seconds(60.0));
  const auto late = sent_beacons_.size() - early;
  EXPECT_LT(late, early) << "beacon rate must decay when the route is stable";
}

TEST_F(RoutingFixture, CompareBitTrueForBetterRoute) {
  estimator_.set_etx(NodeId{1}, 2.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 3.0));  // worst = 5
  EXPECT_TRUE(routing_.compare_bit(NodeId{7}, beacon_from(NodeId{99}, 1.0)));
  EXPECT_FALSE(routing_.compare_bit(NodeId{7}, beacon_from(NodeId{99}, 9.0)));
}

TEST_F(RoutingFixture, CompareBitFalseForRoutelessCandidate) {
  estimator_.set_etx(NodeId{1}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 1.0));
  EXPECT_FALSE(routing_.compare_bit(
      NodeId{7}, beacon_from(NodeId{99}, CollectionConfig{}.max_path_etx)));
}

TEST_F(RoutingFixture, CompareBitFalseForOurChild) {
  estimator_.set_etx(NodeId{1}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 1.0));
  EXPECT_FALSE(routing_.compare_bit(NodeId{7}, beacon_from(NodeId{10}, 0.5)));
}

TEST_F(RoutingFixture, CompareBitTrueWhenTableMostlyUseless) {
  // Estimator tracks nodes the routing layer knows nothing about.
  estimator_.set_etx(NodeId{1}, 1.0);
  estimator_.set_etx(NodeId{2}, 1.0);
  estimator_.set_etx(NodeId{3}, 1.0);
  EXPECT_TRUE(routing_.compare_bit(NodeId{7}, beacon_from(NodeId{99}, 5.0)));
}

TEST_F(RoutingFixture, CompareBitFalseOnMalformedPayload) {
  const std::vector<std::uint8_t> garbage{0x01};
  EXPECT_FALSE(routing_.compare_bit(NodeId{7}, garbage));
}

TEST_F(RoutingFixture, StaleCandidateRoutesExpire) {
  estimator_.set_etx(NodeId{1}, 1.0);
  estimator_.set_etx(NodeId{2}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 1.0));
  ASSERT_EQ(routing_.parent(), NodeId{1});
  routing_.on_beacon(NodeId{2}, beacon_from(NodeId{99}, 1.2));
  // Let node 2's advertisement go stale, then break the parent.
  sim_.run_for(CollectionConfig{}.route_expiry +
               sim::Duration::from_seconds(5.0));
  estimator_.drop(NodeId{1});
  routing_.on_delivery_failure(NodeId{1});
  // Node 2's route info is stale -> not used; no route remains.
  EXPECT_FALSE(routing_.has_route());
}

TEST_F(RoutingFixture, ParentExemptFromExpiry) {
  estimator_.set_etx(NodeId{1}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 1.0));
  ASSERT_TRUE(routing_.has_route());
  sim_.run_for(CollectionConfig{}.route_expiry +
               sim::Duration::from_seconds(60.0));
  EXPECT_TRUE(routing_.has_route())
      << "the current parent must not expire from silence alone";
}

TEST_F(RoutingFixture, RouteTimerPassesOnlyWhileUnsettled) {
  estimator_.set_etx(NodeId{1}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 1.0));
  ASSERT_EQ(routing_.parent(), NodeId{1});
  const auto ticks = [this](int n) {
    const std::uint64_t before = routing_.selection_passes();
    sim_.run_for(CollectionConfig{}.route_update_interval * n);
    return routing_.selection_passes() - before;
  };
  // Adopting the parent was a switch, so the next input runs one more
  // pass, which settles. After that, ticks change nothing a pass reads.
  EXPECT_EQ(ticks(1), 1u);
  EXPECT_EQ(ticks(10), 0u);
  // The parent now routes through us and nothing else is usable: each
  // pass lands in the branch that resets Trickle, which never settles,
  // so every tick keeps searching for a way out.
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{10}, 1.0));
  ASSERT_EQ(routing_.parent(), NodeId{1});
  ASSERT_FALSE(routing_.has_route());
  EXPECT_EQ(ticks(10), 10u);
}

// ---- dead-parent eviction ------------------------------------------------

TEST_F(RoutingFixture, DeadPinnedParentEvictedAfterFailureStreak) {
  estimator_.set_etx(NodeId{1}, 1.0);
  estimator_.set_etx(NodeId{2}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 0.0));
  routing_.on_beacon(NodeId{2}, beacon_from(NodeId{99}, 0.5));
  ASSERT_EQ(routing_.parent(), NodeId{1});
  ASSERT_TRUE(estimator_.pinned.contains(NodeId{1}));

  // Node 1 dies silently: every retransmission budget toward it burns.
  const int evict_after = CollectionConfig{}.parent_evict_failures;
  for (int i = 0; i < evict_after; ++i) {
    routing_.on_delivery_failure(NodeId{1});
  }
  EXPECT_EQ(routing_.parent_evictions(), 1u);
  EXPECT_FALSE(estimator_.pinned.contains(NodeId{1}))
      << "the pin must not outlive the eviction";
  EXPECT_FALSE(estimator_.tracks(NodeId{1}));
  EXPECT_EQ(routing_.parent(), NodeId{2})
      << "the next-best candidate takes over";
}

TEST_F(RoutingFixture, EvictionKeepsTheMovedRouteLinkedToItsTableEntry) {
  // The table is kept in node order (1, 2, 3) and the routes arrive 2, 3,
  // 1. Evicting parent 2 erases its route, and node 1's route, the last,
  // moves into the hole. Node 1 keeps table position 0, which the relink
  // after the removal does not touch, so the erase itself must repoint
  // that entry: node 1's next beacon reaches selection through it.
  for (const std::uint16_t n : {1, 2, 3}) estimator_.set_etx(NodeId{n}, 1.0);
  routing_.on_beacon(NodeId{2}, beacon_from(NodeId{99}, 1.0));
  routing_.on_beacon(NodeId{3}, beacon_from(NodeId{99}, 5.0));
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 6.0));
  ASSERT_EQ(routing_.parent(), NodeId{2});
  for (int i = 0; i < CollectionConfig{}.parent_evict_failures; ++i) {
    routing_.on_delivery_failure(NodeId{2});
  }
  ASSERT_EQ(routing_.parent_evictions(), 1u);
  EXPECT_EQ(routing_.parent(), NodeId{3});
  EXPECT_EQ(routing_.path_etx(), 6.0);

  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 0.5));
  EXPECT_EQ(routing_.parent(), NodeId{1});
  EXPECT_EQ(routing_.path_etx(), 1.5);
}

TEST_F(RoutingFixture, DeliverySuccessResetsFailureStreak) {
  estimator_.set_etx(NodeId{1}, 1.0);
  routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 0.0));
  ASSERT_EQ(routing_.parent(), NodeId{1});
  const int evict_after = CollectionConfig{}.parent_evict_failures;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < evict_after - 1; ++i) {
      routing_.on_delivery_failure(NodeId{1});
    }
    routing_.on_delivery_success(NodeId{1});  // streak broken
  }
  EXPECT_EQ(routing_.parent_evictions(), 0u);
  EXPECT_EQ(routing_.parent(), NodeId{1});
}

TEST(RoutingEvictionTest, EvictionUnpinsCountsRefusalAndReportsLoss) {
  sim::Simulator sim;
  FakeEstimator est;
  stats::Metrics metrics;
  RoutingEngine routing{sim,     NodeId{10},  false,       est,
                        CollectionConfig{}, sim::Rng{1}, &metrics};
  routing.set_beacon_sender([](std::span<const std::uint8_t>) {});
  routing.start();
  est.set_etx(NodeId{1}, 1.0);
  routing.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 0.0));
  ASSERT_TRUE(est.pinned.contains(NodeId{1}));

  for (int i = 0; i < CollectionConfig{}.parent_evict_failures; ++i) {
    routing.on_delivery_failure(NodeId{1});
  }
  // The pinned entry refused removal once, was unpinned, then removed.
  EXPECT_EQ(metrics.pin_refusals(), 1u);
  EXPECT_FALSE(est.pinned.contains(NodeId{1}));
  EXPECT_FALSE(est.tracks(NodeId{1}));
  // Sole candidate gone: the node is routeless, and says so.
  EXPECT_FALSE(routing.has_route());
  EXPECT_EQ(metrics.route_losses(), 1u);
}

TEST(RoutingEvictionTest, EvictionDisabledKeepsDeadParent) {
  // MultiHopLQI-style config: no datapath feedback into routing, so a
  // dead pinned parent wedges the node (the contrast the paper draws).
  sim::Simulator sim;
  FakeEstimator est;
  CollectionConfig config;
  config.parent_evict_failures = 0;
  RoutingEngine routing{sim, NodeId{10}, false, est, config, sim::Rng{1}};
  routing.set_beacon_sender([](std::span<const std::uint8_t>) {});
  routing.start();
  est.set_etx(NodeId{1}, 1.0);
  routing.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 0.0));
  for (int i = 0; i < 20; ++i) routing.on_delivery_failure(NodeId{1});
  EXPECT_EQ(routing.parent_evictions(), 0u);
  EXPECT_EQ(routing.parent(), NodeId{1});
  EXPECT_TRUE(est.pinned.contains(NodeId{1}));
}

double ten_link_cost(std::uint16_t n) { return 1.0 + 0.5 * n; }

/// Warms `routing` over a real 4B estimator to a full 10-entry link table
/// plus 4 route-only neighbors (14 routes), with parent 1. Node n
/// advertises ten_link_cost(n).
void warm_ten_links(core::FourBitEstimator& est, RoutingEngine& routing) {
  routing.set_beacon_sender([](std::span<const std::uint8_t>) {});
  routing.start();
  for (std::uint8_t seq = 0; seq < 3; ++seq) {
    for (std::uint16_t n = 1; n <= 10; ++n) {
      std::vector<std::uint8_t> wire{seq};
      const auto routing_payload = beacon_from(NodeId{99}, ten_link_cost(n));
      wire.insert(wire.end(), routing_payload.begin(), routing_payload.end());
      const auto payload = est.unwrap_beacon(
          NodeId{n}, wire, link::FixedPhyInfo{true, 0});
      ASSERT_TRUE(payload.has_value());
      routing.on_beacon(NodeId{n}, *payload);
    }
  }
  for (std::uint16_t n = 11; n <= 14; ++n) {
    routing.on_snooped_cost(NodeId{n}, ten_link_cost(n));
  }
  ASSERT_EQ(est.table_size(), 10u);
  ASSERT_EQ(routing.route_table().size(), 14u);
  ASSERT_EQ(routing.parent(), NodeId{1});
}

TEST(RoutingAllocationTest, SteadyStateRoutingInputsAllocateNothing) {
  // A real 4B estimator with a full 10-entry table plus 4 route-only
  // neighbors: snooped frames (full selection passes and skipped ones)
  // and the compare bit must run without touching the heap once warmed.
  sim::Simulator sim;
  core::FourBitEstimator est{core::FourBitConfig{}, sim::Rng{5}};
  RoutingEngine routing{sim, NodeId{10}, false, est, CollectionConfig{},
                        sim::Rng{1}};
  warm_ten_links(est, routing);
  if (HasFatalFailure()) return;
  const std::uint64_t changes = routing.parent_changes();
  const std::uint64_t passes = routing.selection_passes();
  const auto candidate = beacon_from(NodeId{99}, 2.0);

  AllocationCounter counter;
  for (int round = 0; round < 50; ++round) {
    for (std::uint16_t n = 1; n <= 14; ++n) {
      // Node 5's advertised cost alternates between two values that keep
      // the parent, so its snoop runs a full pass; every other snoop
      // repeats a known cost and is skipped.
      const double extra = (n == 5 && round % 2 == 0) ? 0.25 : 0.0;
      routing.on_snooped_cost(NodeId{n}, ten_link_cost(n) + extra);
    }
    (void)routing.compare_bit(NodeId{20}, candidate);
  }
  const std::size_t allocations = counter.stop();

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(routing.parent(), NodeId{1});
  EXPECT_EQ(routing.parent_changes(), changes);
  EXPECT_EQ(routing.selection_passes() - passes, 50u)
      << "one full pass per round (node 5), every other snoop skipped";
}

TEST(RoutingSkipTest, UnchangedSnoopsRunNoPass) {
  // 50 rounds of snoops that repeat every neighbor's known cost, plus a
  // compare-bit query per round, on a warmed engine: nothing parent
  // selection reads changes, so no pass runs.
  sim::Simulator sim;
  core::FourBitEstimator est{core::FourBitConfig{}, sim::Rng{5}};
  RoutingEngine routing{sim, NodeId{10}, false, est, CollectionConfig{},
                        sim::Rng{1}};
  warm_ten_links(est, routing);
  if (HasFatalFailure()) return;
  const std::uint64_t passes = routing.selection_passes();
  const double cost = routing.path_etx();
  for (int round = 0; round < 50; ++round) {
    for (std::uint16_t n = 1; n <= 14; ++n) {
      routing.on_snooped_cost(NodeId{n}, ten_link_cost(n));
    }
    (void)routing.compare_bit(NodeId{20}, beacon_from(NodeId{99}, 2.0));
  }
  EXPECT_EQ(routing.selection_passes(), passes);
  EXPECT_EQ(routing.parent(), NodeId{1});
  EXPECT_EQ(routing.path_etx(), cost);
  // A new cost from a table neighbor is read: it runs a pass.
  routing.on_snooped_cost(NodeId{3}, ten_link_cost(3) + 1.0);
  EXPECT_EQ(routing.selection_passes(), passes + 1);
}

TEST(RoutingAllocationTest, RandomTableEvictionAllocatesNothing) {
  // The white+compare admission path evicts a random unpinned entry; the
  // draw walks the table instead of building a candidate list.
  link::NeighborTable<int> table{10};
  for (std::uint16_t n = 0; n < 10; ++n) (void)table.insert(NodeId{n});
  (void)table.pin(NodeId{3});
  sim::Rng rng{9};
  AllocationCounter counter;
  const auto victim = table.evict_random_unpinned(rng);
  const std::size_t allocations = counter.stop();
  EXPECT_EQ(allocations, 0u);
  ASSERT_TRUE(victim.has_value());
  EXPECT_NE(*victim, NodeId{3});
}

/// Test-side oracle for parent selection and the compare bit: the same
/// rules as RoutingEngine, but every route found by a linear search of a
/// copy of the route table, with none of the engine's hash index or
/// links between link-table entries and routes.
class RouteOracle {
 public:
  RouteOracle(const sim::Simulator& sim, const RoutingEngine& routing,
              const link::LinkEstimator& est, NodeId self,
              CollectionConfig config)
      : sim_(sim), routing_(routing), est_(est), self_(self),
        config_(config) {}

  /// What one more parent evaluation would leave as (parent, path_etx).
  /// Parent evaluation is idempotent with unchanged inputs, so right
  /// after a routing input this must equal the engine's state.
  [[nodiscard]] std::pair<NodeId, double> settled() const {
    std::vector<link::LinkEstimate> links;
    est_.link_estimates(links);
    const NodeId parent = routing_.parent();
    NodeId best = kInvalidNodeId;
    double best_cost = config_.max_path_etx;
    std::optional<double> current;
    for (const link::LinkEstimate& l : links) {
      const auto c = cost(l);
      if (l.node == parent) current = c;
      if (c.has_value() && *c < best_cost) {
        best_cost = *c;
        best = l.node;
      }
    }
    if (best == kInvalidNodeId) {
      if (!current.has_value() && parent != kInvalidNodeId) {
        return {parent, config_.max_path_etx};
      }
      return {parent, routing_.path_etx()};
    }
    if (parent == kInvalidNodeId || !current.has_value() ||
        (best != parent &&
         best_cost + config_.parent_switch_threshold < *current)) {
      return {best, best_cost};
    }
    return {parent, *current};
  }

  /// `n`'s route found by a linear search of the route table.
  [[nodiscard]] std::optional<RoutingEngine::NeighborRoute> linear_route(
      NodeId n) const {
    for (const RoutingEngine::RouteEntry& e : routing_.route_table()) {
      if (e.node == n) return e.route;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool compare_bit(std::span<const std::uint8_t> payload) const {
    const auto beacon = RoutingBeacon::decode(payload);
    if (!beacon.has_value() || beacon->parent == self_ ||
        beacon->path_etx >= config_.max_path_etx) {
      return false;
    }
    std::vector<link::LinkEstimate> links;
    est_.link_estimates(links);
    std::size_t useless = 0;
    double worst = -1.0;
    for (const link::LinkEstimate& l : links) {
      const auto c = cost(l);
      if (c.has_value()) {
        worst = std::max(worst, *c);
      } else {
        ++useless;
      }
    }
    if (links.empty() || useless * 2 > links.size()) return true;
    return worst >= 0.0 && beacon->path_etx + 1.0 < worst;
  }

 private:
  [[nodiscard]] std::optional<double> cost(const link::LinkEstimate& l) const {
    if (!l.has_etx) return std::nullopt;
    const std::optional<RoutingEngine::NeighborRoute> r = linear_route(l.node);
    if (!r.has_value() || r->parent == self_ ||
        r->path_etx >= config_.max_path_etx) {
      return std::nullopt;
    }
    if (l.node != routing_.parent() &&
        sim_.now() - r->last_heard > config_.route_expiry) {
      return std::nullopt;
    }
    return r->path_etx + l.etx;
  }

  const sim::Simulator& sim_;
  const RoutingEngine& routing_;
  const link::LinkEstimator& est_;
  NodeId self_;
  CollectionConfig config_;
};

TEST(RoutingHintTest, MatchesLinearLookupOracleThroughTableChurn) {
  // A seeded random mix of every routing input over a real 4B estimator
  // with 10 entries and 30 peers: beacons (white-bit admissions evict and
  // reorder the table), snooped costs (route-only neighbors), acks, the
  // beacon trim and parent evictions (both erase from the route table
  // under live links), estimator removals and crashes. After each step
  // the engine must agree with the linear-lookup oracle.
  sim::Simulator sim;
  core::FourBitConfig fb;
  fb.table_capacity = 10;
  core::FourBitEstimator est{fb, sim::Rng{31}};
  const NodeId self{10};
  const CollectionConfig config;
  RoutingEngine routing{sim, self, false, est, config, sim::Rng{32}};
  routing.set_beacon_sender([](std::span<const std::uint8_t>) {});
  routing.start();
  const RouteOracle oracle{sim, routing, est, self, config};

  sim::Rng rng{33};
  std::vector<std::uint8_t> seq(31, 0);
  const auto peer = [&] {
    return NodeId{static_cast<std::uint16_t>(1 + rng.uniform_int(30))};
  };
  const auto cost = [&] { return rng.uniform(0.0, 8.0); };
  std::size_t trims = 0;
  std::size_t crashes = 0;
  for (int step = 0; step < 4000; ++step) {
    sim.run_for(sim::Duration::from_seconds(rng.uniform(0.0, 12.0)));
    // Whether this step ends in a parent evaluation (an ack alone does
    // not trigger one, so the engine may lag the estimator until the
    // next input).
    bool evaluated = true;
    const std::uint64_t op = rng.uniform_int(100);
    if (op < 45) {
      const NodeId from = peer();
      seq[from.value()] += rng.bernoulli(0.8) ? 1 : 2;  // some lost
      const NodeId advertised_parent = rng.bernoulli(0.05) ? self : NodeId{99};
      const double advertised =
          rng.bernoulli(0.05) ? config.max_path_etx : cost();
      std::vector<std::uint8_t> wire{seq[from.value()]};
      const auto routing_payload = beacon_from(advertised_parent, advertised);
      wire.insert(wire.end(), routing_payload.begin(), routing_payload.end());
      const auto payload = est.unwrap_beacon(
          from, wire, link::FixedPhyInfo{rng.bernoulli(0.7), 0});
      if (!payload.has_value()) continue;
      const std::size_t before = routing.route_table().size();
      const bool known = routing.route(from).has_value();
      routing.on_beacon(from, *payload);
      if (routing.route_table().size() < before + (known ? 0 : 1)) ++trims;
    } else if (op < 75) {
      routing.on_snooped_cost(peer(), cost());
    } else if (op < 88) {
      const NodeId to = peer();
      const bool acked = rng.bernoulli(0.7);
      est.on_unicast_result(to, acked);
      if (acked) {
        routing.on_delivery_success(to);
        evaluated = false;
      } else {
        routing.on_delivery_failure(to);
      }
    } else if (op < 94) {
      if (routing.parent() == kInvalidNodeId) continue;
      // A dead parent: the failure streak evicts it and erases its route.
      for (int i = 0; i < config.parent_evict_failures; ++i) {
        est.on_unicast_result(routing.parent(), false);
        routing.on_delivery_failure(routing.parent());
      }
    } else if (op < 99) {
      (void)est.remove(peer());  // refused while pinned
      routing.on_loop_detected();  // a routing input re-evaluates
    } else {
      ++crashes;
      routing.crash();
      est.reset();
      routing.start();
    }
    if (evaluated) {
      const auto [parent, path_etx] = oracle.settled();
      ASSERT_EQ(routing.parent(), parent) << "step " << step;
      ASSERT_EQ(routing.path_etx(), path_etx) << "step " << step;
    }
    const auto candidate = beacon_from(NodeId{99}, cost());
    ASSERT_EQ(routing.compare_bit(NodeId{50}, candidate),
              oracle.compare_bit(candidate))
        << "step " << step;
    // The lookup by node agrees with a linear search for every peer, and
    // the route table holds each node once.
    std::size_t held = 0;
    for (std::uint16_t p = 1; p <= 30; ++p) {
      const auto indexed = routing.route(NodeId{p});
      const auto linear = oracle.linear_route(NodeId{p});
      ASSERT_EQ(indexed.has_value(), linear.has_value())
          << "step " << step << " node " << p;
      if (!indexed.has_value()) continue;
      ++held;
      ASSERT_EQ(indexed->parent, linear->parent) << "step " << step;
      ASSERT_EQ(indexed->path_etx, linear->path_etx) << "step " << step;
      ASSERT_EQ(indexed->last_heard, linear->last_heard) << "step " << step;
    }
    ASSERT_EQ(held, routing.route_table().size()) << "step " << step;
  }
  // The sequence reached the cases the links must survive.
  EXPECT_GT(trims, 0u);
  EXPECT_GT(routing.parent_evictions(), 0u);
  EXPECT_GT(routing.parent_changes(), 10u);
  EXPECT_GT(crashes, 0u);
}

TEST(RoutingHintTest, MatchesLinearLookupOracleThroughTableReorders) {
  // The same check over a table kept in node order (FakeEstimator): an
  // admission lands anywhere in the table and shifts the rest up, unlike
  // 4B's appends. Nodes 1..20 come and go from the table; 21..32 are only
  // ever overheard, so beacons trim. Crashes keep the table, so new
  // routes find their table entries after them.
  sim::Simulator sim;
  FakeEstimator est;
  const NodeId self{50};
  const CollectionConfig config;
  RoutingEngine routing{sim, self, false, est, config, sim::Rng{52}};
  routing.set_beacon_sender([](std::span<const std::uint8_t>) {});
  routing.start();
  const RouteOracle oracle{sim, routing, est, self, config};

  sim::Rng rng{53};
  const auto node = [&](std::uint64_t lo, std::uint64_t count) {
    return NodeId{static_cast<std::uint16_t>(lo + rng.uniform_int(count))};
  };
  const auto cost = [&] { return rng.uniform(0.0, 8.0); };
  std::size_t trims = 0;
  for (int step = 0; step < 4000; ++step) {
    sim.run_for(sim::Duration::from_seconds(rng.uniform(0.0, 12.0)));
    const std::uint64_t op = rng.uniform_int(100);
    if (op < 25) {
      est.set_etx(node(1, 20), rng.uniform(1.0, 3.0));
      routing.on_loop_detected();
    } else if (op < 40) {
      (void)est.remove(node(1, 20));  // refused while pinned
      routing.on_loop_detected();
    } else if (op < 65) {
      const std::size_t before = routing.route_table().size();
      const NodeId from = node(1, 20);
      const bool known = routing.route(from).has_value();
      routing.on_beacon(from, beacon_from(rng.bernoulli(0.05) ? self
                                                              : NodeId{99},
                                          cost()));
      if (routing.route_table().size() < before + (known ? 0 : 1)) ++trims;
    } else if (op < 98) {
      routing.on_snooped_cost(node(1, 32), cost());
    } else {
      routing.crash();
      routing.start();
    }
    const auto [parent, path_etx] = oracle.settled();
    ASSERT_EQ(routing.parent(), parent) << "step " << step;
    ASSERT_EQ(routing.path_etx(), path_etx) << "step " << step;
    const auto candidate = beacon_from(NodeId{99}, cost());
    ASSERT_EQ(routing.compare_bit(NodeId{60}, candidate),
              oracle.compare_bit(candidate))
        << "step " << step;
    for (std::uint16_t n = 1; n <= 32; ++n) {
      const auto indexed = routing.route(NodeId{n});
      const auto linear = oracle.linear_route(NodeId{n});
      ASSERT_EQ(indexed.has_value(), linear.has_value())
          << "step " << step << " node " << n;
      if (indexed.has_value()) {
        ASSERT_EQ(indexed->path_etx, linear->path_etx) << "step " << step;
      }
    }
  }
  EXPECT_GT(trims, 0u);
  EXPECT_GT(routing.parent_changes(), 10u);
}

TEST(RoutingTrimTest, SnoopedRoutesOutsideTheTableLastUntilATrim) {
  // A route heard from a node outside the link table is held, unread,
  // until a beacon trims the route table (more routes than table entries
  // + 4). If the table admits the node first, the next pass reads the
  // route held since the snoop. A trim drops the route of every node
  // outside the table at that moment, one that left it included.
  sim::Simulator sim;
  FakeEstimator est;
  RoutingEngine routing{sim, NodeId{10}, false, est, CollectionConfig{},
                        sim::Rng{1}};
  routing.set_beacon_sender([](std::span<const std::uint8_t>) {});
  routing.start();
  const auto beacon_of_1 = [&] {
    routing.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 3.0));
  };
  est.set_etx(NodeId{1}, 1.0);
  beacon_of_1();
  ASSERT_EQ(routing.parent(), NodeId{1});
  ASSERT_EQ(routing.path_etx(), 4.0);

  // Node 7 is overheard but not in the table; beacons that leave the
  // route table within its bound keep its route.
  routing.on_snooped_cost(NodeId{7}, 0.5);
  for (int i = 0; i < 3; ++i) beacon_of_1();
  EXPECT_EQ(routing.parent(), NodeId{1});
  ASSERT_TRUE(routing.route(NodeId{7}).has_value());
  EXPECT_EQ(routing.route(NodeId{7})->path_etx, 0.5);

  // The table admits node 7 (as its own beacon would), and the pass on
  // node 1's next beacon reads the snooped route: 0.5 + 1 beats 4.
  est.set_etx(NodeId{7}, 1.0);
  beacon_of_1();
  EXPECT_EQ(routing.parent(), NodeId{7});
  EXPECT_EQ(routing.path_etx(), 1.5);

  // Node 3 joins the table with a route, then leaves the table.
  est.set_etx(NodeId{3}, 2.0);
  routing.on_beacon(NodeId{3}, beacon_from(NodeId{99}, 3.0));
  est.drop(NodeId{3});
  // Routes {1, 7, 3, 20, 21}: within the bound of 2 table entries + 4.
  routing.on_snooped_cost(NodeId{20}, 2.0);
  routing.on_snooped_cost(NodeId{21}, 2.0);
  beacon_of_1();
  EXPECT_EQ(routing.route_table().size(), 5u);
  // Two more make 7 routes, and the next beacon trims to the table.
  routing.on_snooped_cost(NodeId{22}, 2.0);
  routing.on_snooped_cost(NodeId{23}, 2.0);
  EXPECT_EQ(routing.route_table().size(), 7u);
  beacon_of_1();
  EXPECT_EQ(routing.route_table().size(), 2u);
  for (const std::uint16_t n : {3, 20, 21, 22, 23}) {
    EXPECT_FALSE(routing.route(NodeId{n}).has_value()) << "node " << n;
  }
  EXPECT_TRUE(routing.route(NodeId{1}).has_value());
  EXPECT_TRUE(routing.route(NodeId{7}).has_value());
  EXPECT_EQ(routing.parent(), NodeId{7});
  EXPECT_EQ(routing.path_etx(), 1.5);
}

TEST(RoutingSkipTest, SkippedPassesMatchOracle) {
  // Parent selection skips its pass while nothing it reads has changed.
  // This seeded run leans on the inputs that skip: snoops from nodes
  // outside the link table, clean re-snoops of table nodes, beacons that
  // repeat a held cost (some now naming us as parent), route-timer ticks,
  // and time steps that land exactly on a candidate's last_heard +
  // route_expiry (still fresh) and 1 us past it (stale), each followed by
  // an input that asks for selection. Beacons, new costs, acks,
  // evictions, removals and crashes keep moving the inputs. After every
  // step the engine must hold what a full evaluation gives.
  sim::Simulator sim;
  core::FourBitConfig fb;
  fb.table_capacity = 6;
  core::FourBitEstimator est{fb, sim::Rng{41}};
  const NodeId self{10};
  const CollectionConfig config;
  RoutingEngine routing{sim, self, false, est, config, sim::Rng{42}};
  routing.set_beacon_sender([](std::span<const std::uint8_t>) {});
  routing.start();
  sim::Time timer_origin = sim.now();  // the route timer's phase
  const RouteOracle oracle{sim, routing, est, self, config};

  sim::Rng rng{43};
  std::vector<std::uint8_t> seq(21, 0);
  const auto peer = [&] {
    return NodeId{static_cast<std::uint16_t>(1 + rng.uniform_int(20))};
  };
  const auto cost = [&] { return rng.uniform(0.0, 6.0); };
  // Nodes 60..69 never beacon, so they never enter the link table.
  const auto outside_snoop = [&] {
    routing.on_snooped_cost(
        NodeId{static_cast<std::uint16_t>(60 + rng.uniform_int(10))}, cost());
  };
  std::uint64_t evaluations = 0;
  std::size_t edges = 0;
  const auto check = [&](int step) {
    ++evaluations;
    const auto [parent, path_etx] = oracle.settled();
    ASSERT_EQ(routing.parent(), parent) << "step " << step;
    ASSERT_EQ(routing.path_etx(), path_etx) << "step " << step;
  };

  for (int step = 0; step < 6000; ++step) {
    sim.run_for(sim::Duration::from_seconds(rng.uniform(0.0, 3.0)));
    const std::uint64_t op = rng.uniform_int(100);
    if (op < 20) {
      const NodeId from =
          rng.bernoulli(0.25) && routing.parent() != kInvalidNodeId
              ? routing.parent()
              : peer();
      seq[from.value()] += rng.bernoulli(0.8) ? 1 : 2;
      const NodeId advertised_parent = rng.bernoulli(0.1) ? self : NodeId{99};
      double advertised = rng.bernoulli(0.05) ? config.max_path_etx : cost();
      if (const auto held = routing.route(from);
          held.has_value() && rng.bernoulli(0.4)) {
        advertised = held->path_etx;
      }
      std::vector<std::uint8_t> wire{seq[from.value()]};
      const auto routing_payload = beacon_from(advertised_parent, advertised);
      wire.insert(wire.end(), routing_payload.begin(), routing_payload.end());
      const auto payload = est.unwrap_beacon(
          from, wire, link::FixedPhyInfo{rng.bernoulli(0.7), 0});
      if (!payload.has_value()) continue;
      routing.on_beacon(from, *payload);
    } else if (op < 32) {
      routing.on_snooped_cost(peer(), cost());
    } else if (op < 50) {
      // Clean re-snoop: a table node repeats the cost we hold for it.
      const auto table = est.neighbors();
      if (table.empty()) continue;
      const NodeId n = table[rng.uniform_int(table.size())];
      const auto r = routing.route(n);
      if (!r.has_value()) continue;
      routing.on_snooped_cost(n, r->path_etx);
    } else if (op < 65) {
      outside_snoop();
    } else if (op < 73) {
      // Run to the route timer's next tick; the tick is the evaluation.
      const std::int64_t period = config.route_update_interval.us();
      const std::int64_t since = sim.now().us() - timer_origin.us();
      const std::int64_t next = (since / period + 1) * period;
      sim.run_until(sim::Time::from_us(timer_origin.us() + next));
    } else if (op < 81) {
      // The expiry edge of a fresh non-parent candidate: exactly on it the
      // route still counts, 1 us later it does not.
      std::optional<sim::Time> edge;
      for (const NodeId n : est.neighbors()) {
        const auto r = routing.route(n);
        if (n == routing.parent() || !r.has_value() || r->parent == self ||
            r->path_etx >= config.max_path_etx || !est.etx(n).has_value()) {
          continue;
        }
        const sim::Time expires = r->last_heard + config.route_expiry;
        if (expires >= sim.now() && (!edge || expires < *edge)) edge = expires;
      }
      if (!edge) continue;
      ++edges;
      sim.run_until(*edge);
      outside_snoop();
      check(step);
      if (HasFatalFailure()) return;
      sim.run_until(*edge + sim::Duration::from_us(1));
      outside_snoop();
    } else if (op < 93) {
      const NodeId to =
          rng.bernoulli(0.5) && routing.parent() != kInvalidNodeId
              ? routing.parent()
              : peer();
      const bool acked = rng.bernoulli(0.7);
      est.on_unicast_result(to, acked);
      if (acked) {
        routing.on_delivery_success(to);
        outside_snoop();  // must notice an estimate the ack moved
      } else {
        routing.on_delivery_failure(to);
      }
    } else if (op < 96) {
      if (routing.parent() == kInvalidNodeId) continue;
      for (int i = 0; i < config.parent_evict_failures; ++i) {
        est.on_unicast_result(routing.parent(), false);
        routing.on_delivery_failure(routing.parent());
      }
    } else if (op < 99) {
      (void)est.remove(peer());
      routing.on_loop_detected();
    } else {
      routing.crash();
      est.reset();
      routing.start();
      timer_origin = sim.now();
      outside_snoop();
    }
    check(step);
    if (HasFatalFailure()) return;
  }
  // The run reached expiry edges, and the engine skipped a good share of
  // the evaluations it was asked for.
  EXPECT_GT(edges, 100u);
  EXPECT_GT(routing.parent_changes(), 10u);
  EXPECT_LT(routing.selection_passes(), evaluations * 3 / 4)
      << evaluations << " evaluations";
}

// ---- ForwardingEngine -------------------------------------------------------------

class ForwardingFixture : public ::testing::Test {
 protected:
  ForwardingFixture()
      : routing_(sim_, NodeId{10}, false, estimator_, config_, sim::Rng{1}),
        forwarding_(sim_, NodeId{10}, routing_, estimator_, config_,
                    &metrics_, sim::Rng{2}) {
    routing_.set_beacon_sender([](std::span<const std::uint8_t>) {});
    routing_.start();
    forwarding_.set_data_sender(
        [this](NodeId dst, std::span<const std::uint8_t> packet) {
          sends_.push_back({dst, {packet.begin(), packet.end()}});
          ++outstanding_;
        });
    // Give the node a route: parent 1 with cost 1.
    estimator_.set_etx(NodeId{1}, 1.0);
    routing_.on_beacon(NodeId{1}, beacon_from(NodeId{99}, 0.0));
  }

  /// Completes the outstanding MAC send with the given ack result.
  void complete(bool acked) {
    ASSERT_GT(outstanding_, 0);
    --outstanding_;
    forwarding_.on_send_done(acked);
  }

  struct Sent {
    NodeId dst;
    std::vector<std::uint8_t> payload;
  };

  sim::Simulator sim_;
  FakeEstimator estimator_;
  CollectionConfig config_;
  stats::Metrics metrics_;
  RoutingEngine routing_;
  ForwardingEngine forwarding_;
  std::vector<Sent> sends_;
  int outstanding_ = 0;  // sends not yet completed
};

TEST_F(ForwardingFixture, OriginatesTowardParent) {
  const std::vector<std::uint8_t> app{1, 2, 3};
  EXPECT_TRUE(forwarding_.send(app));
  ASSERT_EQ(sends_.size(), 1u);
  EXPECT_EQ(sends_[0].dst, NodeId{1});
  const auto decoded = decode_data_view(sends_[0].payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header.origin, NodeId{10});
  EXPECT_EQ(decoded->header.thl, 0);
  EXPECT_TRUE(std::ranges::equal(decoded->app_payload, app));
  EXPECT_EQ(metrics_.generated_total(), 1u);
}

TEST_F(ForwardingFixture, AckBitReportedPerTransmission) {
  (void)forwarding_.send(std::vector<std::uint8_t>{1});
  complete(false);
  sim_.run_for(config_.retx_delay + sim::Duration::from_ms(1));
  complete(true);
  ASSERT_EQ(estimator_.ack_reports.size(), 2u);
  EXPECT_EQ(estimator_.ack_reports[0], (std::pair<NodeId, bool>{NodeId{1},
                                                                false}));
  EXPECT_EQ(estimator_.ack_reports[1], (std::pair<NodeId, bool>{NodeId{1},
                                                                true}));
  EXPECT_EQ(metrics_.data_tx_total(), 2u);
}

TEST_F(ForwardingFixture, RetransmitsUntilBudgetThenDrops) {
  config_ = CollectionConfig{};
  (void)forwarding_.send(std::vector<std::uint8_t>{1});
  const int budget = CollectionConfig{}.max_retransmissions;
  for (int i = 0; i <= budget; ++i) {
    complete(false);
    sim_.run_for(CollectionConfig{}.retx_delay + sim::Duration::from_ms(1));
  }
  EXPECT_EQ(outstanding_, 0) << "packet must be dropped after budget";
  EXPECT_EQ(metrics_.retx_drops(), 1u);
  EXPECT_EQ(forwarding_.queue_depth(), 0u);
}

namespace {

/// Captures kDataDrop events off the simulator's telemetry stream.
struct DropCapture final : sim::TelemetrySink {
  std::vector<sim::TelemetryEvent> drops;
  void on_event(const sim::TelemetryEvent& event) override {
    if (event.kind == sim::EventKind::kDataDrop) drops.push_back(event);
  }
};

}  // namespace

TEST_F(ForwardingFixture, QueueAndRetxDropsAreTraced) {
  // Every dropped data packet must leave a telemetry event (the fault
  // benches read these to attribute loss), tagged with reason + origin.
  DropCapture capture;
  sim_.telemetry().set_sink(&capture);

  // Exhaust one packet's retransmission budget...
  (void)forwarding_.send(std::vector<std::uint8_t>{1});
  const int budget = CollectionConfig{}.max_retransmissions;
  for (int i = 0; i <= budget; ++i) {
    complete(false);
    sim_.run_for(CollectionConfig{}.retx_delay + sim::Duration::from_ms(1));
  }
  // ...then overflow the origin queue.
  for (std::size_t i = 0; i < config_.queue_capacity + 3; ++i) {
    (void)forwarding_.send(std::vector<std::uint8_t>{1});
  }

  sim_.telemetry().set_sink(nullptr);

  bool saw_retx = false;
  bool saw_queue = false;
  for (const auto& event : capture.drops) {
    const auto reason = static_cast<sim::DropReason>(event.arg2);
    if (reason == sim::DropReason::kRetxExhausted) saw_retx = true;
    if (reason == sim::DropReason::kQueueFullOrigin) saw_queue = true;
  }
  EXPECT_TRUE(saw_retx) << "retx-budget drop was not traced";
  EXPECT_TRUE(saw_queue) << "queue-overflow drop was not traced";
}

TEST_F(ForwardingFixture, CrashEmptiesQueueAndDupCache) {
  (void)forwarding_.send(std::vector<std::uint8_t>{1});
  (void)forwarding_.send(std::vector<std::uint8_t>{2});
  ASSERT_GT(forwarding_.queue_depth(), 0u);
  forwarding_.crash();
  EXPECT_EQ(forwarding_.queue_depth(), 0u);
  // The MAC reset dropped the in-flight send's completion callback, so
  // nothing fires into the wiped engine (CollectionNode::crash resets
  // the MAC before the forwarder for exactly this reason).
}

TEST_F(ForwardingFixture, ForwardsReceivedDataWithIncrementedThl) {
  DataHeader h;
  h.origin = NodeId{5};
  h.seq = 9;
  h.thl = 3;
  h.sender_path_etx = 10.0;
  forwarding_.on_data(NodeId{5}, h.encode(std::vector<std::uint8_t>{7}),
                      link::FixedPhyInfo{});
  ASSERT_EQ(sends_.size(), 1u);
  const auto fwd = decode_data_view(sends_[0].payload);
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(fwd->header.origin, NodeId{5});
  EXPECT_EQ(fwd->header.thl, 4);
}

TEST_F(ForwardingFixture, DuplicateDataDropped) {
  DataHeader h;
  h.origin = NodeId{5};
  h.seq = 9;
  h.sender_path_etx = 10.0;
  const auto bytes = h.encode(std::vector<std::uint8_t>{});
  forwarding_.on_data(NodeId{5}, bytes, link::FixedPhyInfo{});
  forwarding_.on_data(NodeId{5}, bytes, link::FixedPhyInfo{});
  EXPECT_EQ(sends_.size(), 1u);
  EXPECT_EQ(metrics_.duplicate_rx(), 1u);
}

TEST_F(ForwardingFixture, ThlCapDropsCirclingPackets) {
  DataHeader h;
  h.origin = NodeId{5};
  h.seq = 9;
  h.thl = static_cast<std::uint8_t>(config_.max_thl);
  h.sender_path_etx = 10.0;
  forwarding_.on_data(NodeId{5}, h.encode(std::vector<std::uint8_t>{}),
                      link::FixedPhyInfo{});
  EXPECT_TRUE(sends_.empty());
}

TEST_F(ForwardingFixture, QueueOverflowDrops) {
  // Fill the queue; the head is in flight, the rest wait.
  for (std::size_t i = 0; i < config_.queue_capacity + 3; ++i) {
    (void)forwarding_.send(std::vector<std::uint8_t>{1});
  }
  EXPECT_GT(metrics_.queue_drops(), 0u);
}

TEST_F(ForwardingFixture, RootDeliversToSink) {
  FakeEstimator est;
  RoutingEngine root_routing{sim_, NodeId{0}, true, est, config_,
                             sim::Rng{3}};
  ForwardingEngine root_fwd{sim_,  NodeId{0}, root_routing, est,
                            config_, &metrics_, sim::Rng{4}};
  int sink_packets = 0;
  root_fwd.set_sink_handler(
      [&](const DataHeader& h, std::span<const std::uint8_t> payload) {
        ++sink_packets;
        EXPECT_EQ(h.origin, NodeId{5});
        EXPECT_EQ(payload.size(), 2u);
      });
  DataHeader h;
  h.origin = NodeId{5};
  h.seq = 1;
  h.sender_path_etx = 1.0;
  root_fwd.on_data(NodeId{5}, h.encode(std::vector<std::uint8_t>{1, 2}),
                   link::FixedPhyInfo{});
  EXPECT_EQ(sink_packets, 1);
  EXPECT_EQ(metrics_.delivered_unique_total(), 1u);
}

TEST_F(ForwardingFixture, RootOwnPacketsDeliverLocally) {
  FakeEstimator est;
  RoutingEngine root_routing{sim_, NodeId{0}, true, est, config_,
                             sim::Rng{3}};
  ForwardingEngine root_fwd{sim_,  NodeId{0}, root_routing, est,
                            config_, &metrics_, sim::Rng{4}};
  int sink_packets = 0;
  root_fwd.set_sink_handler([&](const DataHeader&,
                                std::span<const std::uint8_t>) {
    ++sink_packets;
  });
  EXPECT_TRUE(root_fwd.send(std::vector<std::uint8_t>{1}));
  EXPECT_EQ(sink_packets, 1);
}


// ---- the frame path: appending wraps -------------------------------------

/// The BroadcastEtxEstimator::wrap_beacon that the in-place encoder
/// replaced, which built its footer in a vector of pairs and returned a
/// fresh vector: the reference for the in-place encoder. `entries` is the table in order,
/// each with its inbound PRR if it has one; `rotation` is the footer
/// rotation, advanced as the estimator advances its own.
std::vector<std::uint8_t> parent_broadcast_etx_wrap(
    std::uint8_t seq,
    const std::vector<std::pair<NodeId, std::optional<double>>>& entries,
    std::size_t footer_max, std::size_t& rotation,
    std::span<const std::uint8_t> routing_payload) {
  const auto quantize = [](double prr) {
    return static_cast<std::uint8_t>(std::clamp(prr, 0.0, 1.0) * 255.0 + 0.5);
  };
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u8(seq);
  std::vector<std::pair<NodeId, std::uint8_t>> footer;
  const std::size_t n = entries.size();
  for (std::size_t i = 0; i < n && footer.size() < footer_max; ++i) {
    const auto& [node, prr] = entries[(rotation + i) % n];
    if (!prr.has_value()) continue;
    footer.emplace_back(node, quantize(*prr));
  }
  if (n > 0) rotation = (rotation + footer_max) % n;
  w.u8(static_cast<std::uint8_t>(footer.size()));
  for (const auto& [node, q] : footer) {
    w.u16(node.value());
    w.u8(q);
  }
  w.bytes(routing_payload);
  return out;
}

/// Wraps into a buffer that already holds `prefix` bytes of junk and
/// returns what was appended, checking the prefix survived.
std::vector<std::uint8_t> wrap_after_junk(link::LinkEstimator& est,
                                          std::span<const std::uint8_t> payload,
                                          std::size_t prefix,
                                          sim::Rng& rng) {
  std::vector<std::uint8_t> buf(prefix);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const std::vector<std::uint8_t> junk = buf;
  est.wrap_beacon(payload, buf);
  EXPECT_TRUE(std::equal(junk.begin(), junk.end(), buf.begin()))
      << "the wrap overwrote bytes in front of it";
  return {buf.begin() + static_cast<std::ptrdiff_t>(prefix), buf.end()};
}

TEST(WrapOracleTest, BroadcastEtxFooterAppendsTheParentBytes) {
  // A 12-entry table against a 5-entry footer, so the footer rotates
  // through it, with table churn changing the rotation's modulus and
  // lost beacons spreading the inbound qualities.
  estimators::BroadcastEtxConfig cfg;
  cfg.table_capacity = 12;
  cfg.footer_max = 5;
  cfg.insertion = core::InsertionPolicy::kProbabilistic;
  cfg.probabilistic_insert_p = 1.0;
  estimators::BroadcastEtxEstimator est{NodeId{100}, cfg, sim::Rng{1}};
  std::vector<std::unique_ptr<estimators::BroadcastEtxEstimator>> peers;
  for (std::uint16_t i = 1; i <= 16; ++i) {
    peers.push_back(std::make_unique<estimators::BroadcastEtxEstimator>(
        NodeId{i}, cfg, sim::Rng{i}));
  }
  sim::Rng rng{7};
  std::uint8_t seq = 0;
  std::size_t rotation = 0;
  std::size_t max_table = 0;
  std::size_t max_footer = 0;
  const link::FixedPhyInfo phy{true, 100};
  for (int step = 0; step < 3000; ++step) {
    const auto op = rng.uniform_int(10);
    if (op < 6) {
      const auto i = rng.uniform_int(peers.size());
      const auto wire = link::wrapped_beacon(*peers[i], {});
      // Two of three beacons arrive: inbound qualities move off 1.0.
      if (rng.uniform_int(3) != 0) {
        (void)est.unwrap_beacon(NodeId{static_cast<std::uint16_t>(i + 1)},
                                wire, phy);
      }
    } else if (op < 7) {
      (void)est.remove(NodeId{static_cast<std::uint16_t>(
          1 + rng.uniform_int(16))});
    } else {
      std::vector<std::pair<NodeId, std::optional<double>>> entries;
      for (const NodeId n : est.neighbors()) {
        entries.emplace_back(n, est.inbound_quality(n));
      }
      std::vector<std::uint8_t> payload(rng.uniform_int(8));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.uniform_int(256));
      }
      const auto expected = parent_broadcast_etx_wrap(
          seq++, entries, cfg.footer_max, rotation, payload);
      const auto got = wrap_after_junk(est, payload, rng.uniform_int(6), rng);
      ASSERT_EQ(got, expected) << "step " << step;
      max_table = std::max(max_table, entries.size());
      max_footer = std::max<std::size_t>(max_footer, got[1]);
    }
  }
  EXPECT_EQ(max_table, cfg.table_capacity);
  EXPECT_EQ(max_footer, cfg.footer_max);
}

TEST(WrapOracleTest, SequenceHeaderEstimatorsAppendSeqAndPayload) {
  // 4B and MultiHopLQI frame a beacon as [seq][routing payload].
  core::FourBitEstimator four_bit{core::FourBitConfig{}, sim::Rng{1}};
  estimators::LqiEstimator lqi{estimators::LqiEstimatorConfig{}, sim::Rng{2}};
  for (link::LinkEstimator* est :
       std::initializer_list<link::LinkEstimator*>{&four_bit, &lqi}) {
    sim::Rng rng{3};
    for (int i = 0; i < 600; ++i) {  // past the 8-bit sequence wrap
      std::vector<std::uint8_t> payload(rng.uniform_int(8));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.uniform_int(256));
      }
      std::vector<std::uint8_t> expected{static_cast<std::uint8_t>(i)};
      expected.insert(expected.end(), payload.begin(), payload.end());
      ASSERT_EQ(wrap_after_junk(*est, payload, rng.uniform_int(6), rng),
                expected)
          << "beacon " << i;
    }
  }
}

TEST(WrapOracleTest, UnwrapReturnsTheTailOfTheBytes) {
  // The routing payload comes back as a view into the caller's bytes,
  // not a copy.
  core::FourBitEstimator four_bit{core::FourBitConfig{}, sim::Rng{1}};
  estimators::LqiEstimator lqi{estimators::LqiEstimatorConfig{}, sim::Rng{2}};
  estimators::BroadcastEtxEstimator etx{NodeId{9}, {}, sim::Rng{3}};
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  for (link::LinkEstimator* est :
       std::initializer_list<link::LinkEstimator*>{&four_bit, &lqi, &etx}) {
    const auto wire = link::wrapped_beacon(*est, payload);
    const auto out =
        est->unwrap_beacon(NodeId{9}, wire, link::FixedPhyInfo{true, 100});
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->data(), wire.data() + (wire.size() - payload.size()));
    EXPECT_TRUE(std::ranges::equal(*out, payload));
  }
}

// ---- the frame path: sends from inside completions -----------------------

/// Two radios 5 m apart on a quiet channel: a sender's MAC (CSMA, or LPL
/// over it) and a receiver that records every payload it is handed.
class ReentrantSendTest : public ::testing::TestWithParam<bool> {
 protected:
  ReentrantSendTest() {
    phy::PropagationConfig prop;
    prop.shadowing_sigma_db = 0.0;
    prop.asymmetry_sigma_db = 0.0;
    channel_ = std::make_unique<phy::Channel>(
        sim_, phy::PhyConfig{}, prop,
        std::make_unique<phy::NullInterference>(), sim::Rng{5});
    for (std::uint16_t id : {1, 2}) {
      radios_.push_back(std::make_unique<phy::Radio>(
          *channel_, NodeId{id}, Position{5.0 * id, 0.0},
          phy::HardwareProfile{}, PowerDbm{0.0}));
      csma_.push_back(std::make_unique<mac::CsmaMac>(
          sim_, *radios_.back(), mac::CsmaConfig{}, sim::Rng{id}));
      if (GetParam()) {
        mac::LplConfig lpl;
        lpl.wake_interval = sim::Duration::from_ms(64);
        lpl_.push_back(std::make_unique<mac::LplMac>(
            sim_, *csma_.back(), lpl, sim::Rng{10u + id}));
      }
    }
    mac(1).set_rx_handler([this](NodeId, std::uint8_t,
                                 std::span<const std::uint8_t> payload,
                                 const phy::RxInfo&) {
      received_.emplace_back(payload.begin(), payload.end());
    });
  }

  mac::Mac& mac(std::size_t i) {
    if (GetParam()) return *lpl_[i];
    return *csma_[i];
  }

  sim::Simulator sim_;
  std::unique_ptr<phy::Channel> channel_;
  std::vector<std::unique_ptr<phy::Radio>> radios_;
  std::vector<std::unique_ptr<mac::CsmaMac>> csma_;
  std::vector<std::unique_ptr<mac::LplMac>> lpl_;
  std::vector<std::vector<std::uint8_t>> received_;
};

TEST_P(ReentrantSendTest, SendFromCompletionTransmitsIntactBytes) {
  // The sender builds every frame in one buffer, as CollectionNode does,
  // and overwrites it right after each send. Four frames go out back to
  // back, then each completion sends the next frame, so the queue is
  // full when a completion runs and the send it issues takes the slot
  // just popped. Every frame must reach the receiver with the bytes it
  // had at its own send, and every completion must run once, in order,
  // with its own state intact after the send it issued.
  constexpr int kFrames = 16;
  std::vector<std::uint8_t> buffer;
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<int> completed;
  int next = 0;
  std::function<void()> send_next;
  send_next = [&] {
    const int k = next++;
    buffer.assign(static_cast<std::size_t>(4 + k % 5),
                  static_cast<std::uint8_t>(0x10 * (k % 15) + 1));
    buffer[0] = static_cast<std::uint8_t>(k);
    sent.push_back(buffer);
    // `k` first, so it sits where a freed callback's storage is
    // overwritten first.
    mac(0).send(NodeId{2}, buffer,
                [k, &next, &send_next, &completed](const mac::TxResult& r) {
                  EXPECT_TRUE(r.acked);
                  if (next < kFrames) send_next();
                  completed.push_back(k);
                });
    std::fill(buffer.begin(), buffer.end(), std::uint8_t{0xEE});
  };
  for (int i = 0; i < 4; ++i) send_next();
  sim_.run_for(sim::Duration::from_seconds(30.0));
  EXPECT_EQ(next, kFrames);
  EXPECT_EQ(received_, sent);
  std::vector<int> in_order(kFrames);
  std::iota(in_order.begin(), in_order.end(), 0);
  EXPECT_EQ(completed, in_order);
}

INSTANTIATE_TEST_SUITE_P(CsmaAndLpl, ReentrantSendTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Lpl" : "Csma";
                         });

// ---- the frame path allocates nothing -------------------------------------

/// Counts per-packet stack events off the telemetry stream (at kDebug).
struct FrameEventCounter final : sim::TelemetrySink {
  std::uint64_t beacon_tx = 0;
  std::uint64_t beacon_rx = 0;
  std::uint64_t data_ack = 0;
  void on_event(const sim::TelemetryEvent& event) override {
    switch (event.kind) {
      case sim::EventKind::kBeaconTx: ++beacon_tx; break;
      case sim::EventKind::kBeaconRx: ++beacon_rx; break;
      case sim::EventKind::kDataAck: ++data_ack; break;
      default: break;
    }
  }
};

using FramePathCase = std::tuple<runner::Profile, bool>;

class FramePathAllocationTest
    : public ::testing::TestWithParam<FramePathCase> {};

TEST_P(FramePathAllocationTest, SteadyStateAllocatesNothing) {
  // Three nodes on a quiet line, 30 m apart, with the 60 m link blacked
  // out: the far node reaches the root only through the relay, and no
  // node meets a new neighbor after the warm-up. Then two minutes of
  // beacons sent and received, data originated, forwarded and acked
  // must not touch the heap, with a real CollectionNode over a real
  // CsmaMac (and LplMac) and each estimator.
  const auto [profile, lpl] = GetParam();
  topology::Testbed testbed;
  testbed.topology = topology::line(3, 30.0);
  auto& env = testbed.environment;
  env.propagation.reference_loss = Decibels{37.0};
  env.propagation.exponent = 4.0;
  env.propagation.shadowing_sigma_db = 0.0;
  env.propagation.asymmetry_sigma_db = 0.0;
  env.hardware.tx_offset_sigma_db = 0.0;
  env.hardware.noise_figure_sigma_db = 0.0;
  env.burst_interference = false;

  sim::Simulator sim;
  FrameEventCounter events;
  sim.telemetry().set_level(sim::TraceLevel::kDebug);
  sim.telemetry().set_sink(&events);
  runner::Network::Options options;
  options.profile = profile;
  options.seed = 3;
  if (lpl) options.lpl_wake_interval = sim::Duration::from_ms(128);
  runner::Network network{sim, testbed, std::move(options), nullptr};
  const NodeId far = network.node(2).id();
  network.channel().set_link_outage(network.node(0).id(), far, 1.0);
  std::uint64_t far_delivered = 0;
  network.node(network.root_index())
      .set_sink_handler([&](const DataHeader& h,
                            std::span<const std::uint8_t>) {
        if (h.origin == far) ++far_delivered;
      });
  app::TrafficConfig traffic;
  traffic.period = sim::Duration::from_seconds(2.0);
  network.start(sim::Duration::from_seconds(5.0), traffic);
  sim.run_for(sim::Duration::from_minutes(4.0));
  ASSERT_EQ(network.node(2).routing().parent(), network.node(1).id());

  const FrameEventCounter before = events;
  const std::uint64_t far_before = far_delivered;
  AllocationCounter counter;
  sim.run_for(sim::Duration::from_minutes(2.0));
  const std::size_t allocations = counter.stop();
  sim.telemetry().set_sink(nullptr);

  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(events.beacon_tx, before.beacon_tx);
  EXPECT_GT(events.beacon_rx, before.beacon_rx);
  EXPECT_GT(events.data_ack, before.data_ack);
  EXPECT_GT(far_delivered, far_before + 20)
      << "the far node's packets must be forwarded by the relay";
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, FramePathAllocationTest,
    ::testing::Combine(::testing::Values(runner::Profile::kFourBit,
                                         runner::Profile::kCtpT2,
                                         runner::Profile::kMultihopLqi),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<FramePathCase>& info) {
      std::string name{runner::profile_name(std::get<0>(info.param))};
      std::erase_if(name, [](char c) { return std::isalnum(c) == 0; });
      return name + (std::get<1>(info.param) ? "OverLpl" : "OverCsma");
    });

}  // namespace
}  // namespace fourbit::net
