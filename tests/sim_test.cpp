// Tests of the discrete-event kernel: time, event queue, simulator, timer
// and the deterministic RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/arena.hpp"
#include "sim/callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "eager_normal.hpp"

namespace fourbit::sim {
namespace {

// ---- Time / Duration ---------------------------------------------------

TEST(TimeTest, DurationConversions) {
  EXPECT_EQ(Duration::from_seconds(1.5).us(), 1'500'000);
  EXPECT_EQ(Duration::from_ms(20).us(), 20'000);
  EXPECT_EQ(Duration::from_minutes(2.0).us(), 120'000'000);
  EXPECT_EQ(Duration::from_hours(1.0).us(), 3'600'000'000LL);
  EXPECT_DOUBLE_EQ(Duration::from_us(250).seconds(), 0.00025);
}

TEST(TimeTest, Arithmetic) {
  const Time t = Time::from_us(1000);
  const Duration d = Duration::from_us(500);
  EXPECT_EQ((t + d).us(), 1500);
  EXPECT_EQ((t - d).us(), 500);
  EXPECT_EQ(((t + d) - t).us(), d.us());
  EXPECT_LT(t, t + d);
}

TEST(TimeTest, DurationScaling) {
  const Duration d = Duration::from_seconds(10.0);
  EXPECT_EQ((d * 0.5).us(), 5'000'000);
  EXPECT_EQ((2.0 * d).us(), 20'000'000);
  EXPECT_EQ((d - d).us(), 0);
}

// ---- EventQueue ---------------------------------------------------------
//
// Every behavioural test runs against both implementations: the binary
// heap (reference) and the calendar queue (default). They must be
// observationally identical.

class EventQueueImplTest : public ::testing::TestWithParam<EventQueue::Impl> {
 protected:
  EventQueue make() const { return EventQueue{GetParam()}; }
};

INSTANTIATE_TEST_SUITE_P(BothImpls, EventQueueImplTest,
                         ::testing::Values(EventQueue::Impl::kHeap,
                                           EventQueue::Impl::kCalendar),
                         [](const auto& info) {
                           return info.param == EventQueue::Impl::kHeap
                                      ? "Heap"
                                      : "Calendar";
                         });

TEST_P(EventQueueImplTest, PopsInTimeOrder) {
  EventQueue q = make();
  std::vector<int> order;
  q.schedule(Time::from_us(30), [&] { order.push_back(3); });
  q.schedule(Time::from_us(10), [&] { order.push_back(1); });
  q.schedule(Time::from_us(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(EventQueueImplTest, SameTimeIsFifo) {
  EventQueue q = make();
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(Time::from_us(42), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  const std::vector<int> expected{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, expected);
}

TEST_P(EventQueueImplTest, CancelPreventsExecution) {
  EventQueue q = make();
  bool fired = false;
  const EventId id = q.schedule(Time::from_us(5), [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST_P(EventQueueImplTest, CancelIsIdempotentAndSafeOnInvalid) {
  EventQueue q = make();
  const EventId id = q.schedule(Time::from_us(5), [] {});
  q.cancel(id);
  q.cancel(id);        // double cancel
  q.cancel(EventId{});  // default handle
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueImplTest, CancelOfFiredIdIsANoOp) {
  EventQueue q = make();
  const EventId id = q.schedule(Time::from_us(1), [] {});
  q.schedule(Time::from_us(2), [] {});
  q.pop();  // fires (and frees) `id`
  EXPECT_EQ(q.size(), 1u);
  q.cancel(id);  // stale handle: generation check makes this exact no-op
  EXPECT_EQ(q.size(), 1u);
}

TEST_P(EventQueueImplTest, StaleIdDoesNotCancelRecycledSlot) {
  EventQueue q = make();
  const EventId a = q.schedule(Time::from_us(1), [] {});
  q.cancel(a);  // frees the slot
  bool fired = false;
  q.schedule(Time::from_us(2), [&] { fired = true; });  // may reuse slot
  q.cancel(a);  // stale generation: must not kill the new event
  ASSERT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(fired);
}

TEST_P(EventQueueImplTest, SizeTracksLiveEvents) {
  EventQueue q = make();
  const EventId a = q.schedule(Time::from_us(1), [] {});
  q.schedule(Time::from_us(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueImplTest, NextTimeSkipsCancelled) {
  EventQueue q = make();
  const EventId a = q.schedule(Time::from_us(1), [] {});
  q.schedule(Time::from_us(9), [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time().us(), 9);
}

TEST_P(EventQueueImplTest, ClearDropsEverything) {
  EventQueue q = make();
  q.schedule(Time::from_us(1), [] {});
  q.schedule(Time::from_us(2), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST_P(EventQueueImplTest, WideTimeRangeStaysOrdered) {
  // Mix of microsecond-apart and hour-apart events: the calendar's
  // bucket-width tuning must never reorder across rebuilds.
  EventQueue q = make();
  std::vector<std::int64_t> times{1,          2,          3,
                                  1'000'000,  1'000'001,  3'600'000'000LL,
                                  7'200'000'000LL, 5, 999, 1'000'002};
  for (const auto t : times) q.schedule(Time::from_us(t), [] {});
  std::sort(times.begin(), times.end());
  for (const auto expected : times) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.pop().time.us(), expected);
  }
}

// The two implementations must produce identical pop sequences — same
// times, same FIFO ranks — under a randomized schedule/cancel/pop storm.
// Every event carries a tag its callback reports, so two same-time
// events swapped under cancel churn fail the check.
TEST(EventQueueEquivalenceTest, RandomizedOperationsMatchHeapExactly) {
  Rng rng{20260809};
  EventQueue heap{EventQueue::Impl::kHeap};
  EventQueue cal{EventQueue::Impl::kCalendar};

  // Ids diverge between implementations only in their raw encoding, so
  // track scheduled handles pairwise and cancel the same logical event
  // in both queues.
  std::vector<std::pair<EventId, EventId>> live;
  std::int64_t now_us = 0;   // pops advance the clock; schedules are >= now
  int next_tag = 0;
  int heap_fired = -1;
  int cal_fired = -1;
  const auto fire_both = [&](EventQueue::Popped& a, EventQueue::Popped& b) {
    heap_fired = cal_fired = -1;
    a.callback();
    b.callback();
    return heap_fired == cal_fired && heap_fired >= 0;
  };

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.55) {
      // Schedule: cluster times so same-bucket and same-time collisions
      // are common (FIFO order is the hard part).
      const std::int64_t t =
          now_us + static_cast<std::int64_t>(rng.uniform_int(64));
      const int tag = next_tag++;
      live.emplace_back(
          heap.schedule(Time::from_us(t), [&heap_fired, tag] {
            heap_fired = tag;
          }),
          cal.schedule(Time::from_us(t), [&cal_fired, tag] {
            cal_fired = tag;
          }));
    } else if (roll < 0.70 && !live.empty()) {
      const std::size_t pick = rng.uniform_int(live.size());
      heap.cancel(live[pick].first);
      cal.cancel(live[pick].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (!heap.empty()) {
      ASSERT_FALSE(cal.empty());
      ASSERT_EQ(heap.next_time().us(), cal.next_time().us());
      auto from_heap = heap.pop();
      auto from_cal = cal.pop();
      ASSERT_EQ(from_heap.time.us(), from_cal.time.us())
          << "diverged at step " << step;
      ASSERT_TRUE(fire_both(from_heap, from_cal))
          << "popped tags " << heap_fired << " vs " << cal_fired
          << " at step " << step;
      now_us = from_heap.time.us();
      // Popped events stay in `live`: cancelling one later is a stale
      // handle, which the generation check makes a no-op on both sides.
    }
    ASSERT_EQ(heap.size(), cal.size()) << "size diverged at step " << step;
  }

  // Drain: full remaining sequences must match.
  while (!heap.empty()) {
    ASSERT_FALSE(cal.empty());
    auto a = heap.pop();
    auto b = cal.pop();
    ASSERT_EQ(a.time.us(), b.time.us());
    ASSERT_TRUE(fire_both(a, b))
        << "popped tags " << heap_fired << " vs " << cal_fired;
  }
  EXPECT_TRUE(cal.empty());
}

// FIFO equivalence under same-time storms: tag every callback and check
// the fire order matches between implementations.
TEST(EventQueueEquivalenceTest, SameTimeStormFifoMatches) {
  Rng rng{7};
  std::vector<int> heap_order;
  std::vector<int> cal_order;
  for (const auto impl :
       {EventQueue::Impl::kHeap, EventQueue::Impl::kCalendar}) {
    Rng local = rng.fork("storm");
    EventQueue q{impl};
    std::vector<int>& order =
        impl == EventQueue::Impl::kHeap ? heap_order : cal_order;
    for (int i = 0; i < 512; ++i) {
      const std::int64_t t = static_cast<std::int64_t>(local.uniform_int(4));
      q.schedule(Time::from_us(t), [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) q.pop().callback();
  }
  EXPECT_EQ(heap_order, cal_order);
}

// ---- EventCallback -------------------------------------------------------

TEST(EventCallbackTest, InlineCaptureInvokes) {
  int hits = 0;
  EventCallback cb{[&hits] { ++hits; }};
  ASSERT_TRUE(cb != nullptr);
  cb();
  EXPECT_EQ(hits, 1);
}

TEST(EventCallbackTest, OversizedCaptureFallsBackToHeap) {
  // 128 bytes of captured state exceeds the 64-byte inline buffer.
  std::array<std::uint64_t, 16> big{};
  big[0] = 41;
  big[15] = 1;
  std::uint64_t got = 0;
  EventCallback cb{[big, &got] { got = big[0] + big[15]; }};
  EventCallback moved{std::move(cb)};
  moved();
  EXPECT_EQ(got, 42u);
}

TEST(EventCallbackTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  EventCallback a{[counter] { ++*counter; }};
  EXPECT_EQ(counter.use_count(), 2);
  EventCallback b{std::move(a)};
  EXPECT_EQ(counter.use_count(), 2);  // moved, not copied
  b();
  EXPECT_EQ(*counter, 1);
  b = EventCallback{};               // destroy releases the capture
  EXPECT_EQ(counter.use_count(), 1);
}

// ---- Arena ----------------------------------------------------------------

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena{1024};
  void* a = arena.allocate(100, 8);
  void* b = arena.allocate(100, 64);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
}

TEST(ArenaTest, ResetReusesBlocksWithoutGrowth) {
  Arena arena{4096};
  for (int i = 0; i < 8; ++i) arena.allocate(512, 8);
  const std::size_t reserved = arena.bytes_reserved();
  for (int round = 0; round < 4; ++round) {
    arena.reset();
    for (int i = 0; i < 8; ++i) arena.allocate(512, 8);
  }
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, OversizeAllocationGetsOwnBlock) {
  Arena arena{256};
  void* p = arena.allocate(10'000, 16);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 10'000u);
}

TEST(ArenaTest, GrowthObserverReportsReservedBytes) {
  Arena arena{1024};
  std::size_t last = 0;
  arena.set_growth_observer([&last](std::size_t bytes) { last = bytes; });
  arena.allocate(512, 8);
  EXPECT_EQ(last, arena.bytes_reserved());
}

TEST(ArenaTest, VectorWithArenaAllocatorWorks) {
  Arena arena;
  std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>{arena}};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v[999], 999);
  EXPECT_GT(arena.bytes_reserved(), 0u);
}

// ---- Simulator -----------------------------------------------------------

TEST(SimulatorTest, AdvancesTimeToEvents) {
  Simulator sim;
  Time seen;
  sim.schedule_in(Duration::from_ms(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.us(), 5000);
  EXPECT_EQ(sim.now().us(), 5000);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Duration::from_ms(1), [&] { ++fired; });
  sim.schedule_in(Duration::from_ms(10), [&] { ++fired; });
  sim.run_until(Time::from_us(5000));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().us(), 5000);  // time advances to deadline
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsAtDeadlineStillRun) {
  Simulator sim;
  bool fired = false;
  sim.schedule_in(Duration::from_ms(5), [&] { fired = true; });
  sim.run_until(Time::from_us(5000));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule_in(Duration::from_ms(1), [&] {
    times.push_back(sim.now().us());
    sim.schedule_in(Duration::from_ms(1), [&] {
      times.push_back(sim.now().us());
    });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{1000, 2000}));
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Duration::from_ms(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(Duration::from_ms(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_in(Duration::from_ms(i + 1), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

// ---- Timer ---------------------------------------------------------------

TEST(TimerTest, OneShotFiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer t{sim, [&] { ++fired; }};
  t.start_one_shot(Duration::from_ms(3));
  sim.run_for(Duration::from_seconds(1.0));
  EXPECT_EQ(fired, 1);
}

TEST(TimerTest, PeriodicFiresRepeatedly) {
  Simulator sim;
  int fired = 0;
  Timer t{sim, [&] { ++fired; }};
  t.start_periodic(Duration::from_ms(10));
  sim.run_for(Duration::from_ms(95));
  EXPECT_EQ(fired, 9);
}

TEST(TimerTest, StopCancelsPendingFiring) {
  Simulator sim;
  int fired = 0;
  Timer t{sim, [&] { ++fired; }};
  t.start_one_shot(Duration::from_ms(5));
  t.stop();
  sim.run_for(Duration::from_ms(50));
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(t.running());
}

TEST(TimerTest, RestartFromCallbackWins) {
  Simulator sim;
  std::vector<std::int64_t> fire_times;
  Timer t{sim, [&] {
            fire_times.push_back(sim.now().us());
            if (fire_times.size() == 1) {
              t.start_one_shot(Duration::from_ms(2));  // restart
            }
          }};
  t.start_periodic(Duration::from_ms(10));
  sim.run_for(Duration::from_ms(50));
  // First firing at 10ms, restarted one-shot at 12ms, then silence.
  EXPECT_EQ(fire_times, (std::vector<std::int64_t>{10'000, 12'000}));
}

TEST(TimerTest, RestartReplacesPending) {
  Simulator sim;
  int fired = 0;
  Timer t{sim, [&] { ++fired; }};
  t.start_one_shot(Duration::from_ms(5));
  t.start_one_shot(Duration::from_ms(20));
  sim.run_for(Duration::from_ms(10));
  EXPECT_EQ(fired, 0);
  sim.run_for(Duration::from_ms(15));
  EXPECT_EQ(fired, 1);
}

// ---- Telemetry (kernel-side surface; the full subsystem is covered by
// tests/telemetry_test.cpp) ------------------------------------------------

TEST(TelemetryTest, LevelGating) {
  Simulator sim;
  auto& telemetry = sim.telemetry();
  telemetry.set_level(TraceLevel::kOff);
  EXPECT_FALSE(telemetry.enabled(TraceLevel::kError));
  EXPECT_FALSE(telemetry.enabled(TraceLevel::kDebug));
  telemetry.set_level(TraceLevel::kInfo);
  EXPECT_TRUE(telemetry.enabled(TraceLevel::kError));
  EXPECT_TRUE(telemetry.enabled(TraceLevel::kInfo));
  EXPECT_FALSE(telemetry.enabled(TraceLevel::kDebug));
  telemetry.set_level(TraceLevel::kDebug);
  EXPECT_TRUE(telemetry.enabled(TraceLevel::kDebug));

  // A debug-level event is suppressed entirely below kDebug: no ring
  // write, no count.
  telemetry.set_level(TraceLevel::kInfo);
  telemetry.emit(EventKind::kBeaconTx, 1);
  EXPECT_EQ(telemetry.events_recorded(), 0u);
  telemetry.emit(EventKind::kDataDrop, 1, 2);
  EXPECT_EQ(telemetry.events_recorded(), 1u);
}

TEST(TelemetryTest, EventsAreStampedWithSimClock) {
  Simulator sim;
  sim.telemetry().set_level(TraceLevel::kDebug);
  sim.schedule_at(Time::from_us(1500),
                  [&] { sim.telemetry().emit(EventKind::kBeaconTx, 7); });
  sim.run_for(Duration::from_ms(10));
  const auto events = sim.telemetry().flight();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at, Time::from_us(1500));
  EXPECT_EQ(events[0].kind, EventKind::kBeaconTx);
  EXPECT_EQ(events[0].node, 7u);
}

// ---- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ZeroSeedWorks) {
  Rng r{0};
  // Must not get stuck at zero (xoshiro all-zero state would).
  bool nonzero = false;
  for (int i = 0; i < 10; ++i) {
    if (r.next_u64() != 0) nonzero = true;
  }
  EXPECT_TRUE(nonzero);
}

TEST(RngTest, UniformInRange) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = r.uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng r{99};
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    counts[r.uniform_int(10)] += 1;
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, 500);  // ~5 sigma for a fair die
  }
}

TEST(RngTest, UniformIntMatchesReferenceRejectionSampler) {
  // uniform_int skips the threshold division for draws of at least n.
  // The reference computes the threshold (2^64 mod n) first, as the
  // textbook sampler does: both must return the same values and consume
  // the same outputs. The two large bounds draw below n about half the
  // time (2^63 + 1, where half of those are rejected) or almost never.
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{255},
        (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}}) {
    Rng fast{2024};
    Rng reference{2024};
    const std::uint64_t threshold = (0ULL - n) % n;
    std::uint64_t rejected = 0;
    for (int i = 0; i < 100'000; ++i) {
      std::uint64_t r = reference.next_u64();
      while (r < threshold) {
        ++rejected;
        r = reference.next_u64();
      }
      ASSERT_EQ(fast.uniform_int(n), r % n) << "n " << n << " draw " << i;
    }
    ASSERT_EQ(fast.next_u64(), reference.next_u64()) << "n " << n;
    if (n == (std::uint64_t{1} << 63) + 1) {
      EXPECT_GT(rejected, 40'000u);
    }
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng r{123};
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(RngTest, NormalMomentsAreRight) {
  Rng r{321};
  const int n = 200'000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(2.0, 3.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, ExponentialMeanIsRight) {
  Rng r{555};
  const int n = 200'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, ForkedStreamsAreIndependentAndStable) {
  Rng root{42};
  Rng a = root.fork("alpha");
  Rng b = root.fork("beta");
  Rng a2 = root.fork("alpha");
  // Same label -> same stream; different labels -> different streams.
  EXPECT_EQ(a.next_u64(), a2.next_u64());
  EXPECT_NE(a.next_u64(), b.next_u64());
  // Forking does not disturb the parent: a fresh root forked the same way
  // yields the same child stream even after other forks happened.
  Rng root2{42};
  (void)root2.fork("alpha");
  Rng b2 = root2.fork("beta");
  Rng b_fresh = root.fork("beta");
  EXPECT_EQ(b_fresh.next_u64(), b2.next_u64());
}

TEST(RngTest, IntegerForksDiffer) {
  Rng root{42};
  Rng a = root.fork(std::uint64_t{1});
  Rng b = root.fork(std::uint64_t{2});
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RngTest, ForkNormalUniformsMatchForkedChildBitwise) {
  // fork_normal_uniforms(key) must be exactly the two uniforms the
  // forked child's first normal() draws: u1 = 1 - uniform(), then
  // u2 = uniform(). Parents from several seeds, advanced between
  // rounds (fork mixes the live state); keys alternate between 32-bit
  // (the width of PropagationModel's pair keys) and full 64-bit, plus
  // 0 and ~0.
  for (const std::uint64_t seed : {0ULL, 1ULL, 7ULL, 0xDEADBEEFULL}) {
    Rng parent{seed};
    Rng keys{seed ^ 0x5EEDULL};
    for (int advance = 0; advance < 3; ++advance) {
      for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t key =
            i == 0 ? 0 : i == 1 ? ~0ULL : keys.next_u64() >> (i % 2 ? 32 : 0);
        Rng child = parent.fork(key);
        const double u1 = 1.0 - child.uniform();
        const double u2 = child.uniform();
        const Rng::NormalUniforms fused = parent.fork_normal_uniforms(key);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(fused.u1),
                  std::bit_cast<std::uint64_t>(u1))
            << "seed " << seed << " advance " << advance << " key " << key;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(fused.u2),
                  std::bit_cast<std::uint64_t>(u2))
            << "seed " << seed << " advance " << advance << " key " << key;
      }
      (void)parent.next_u64();
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(RngTest, DeferredNormalsMatchNormalBitForBit) {
  // normal_draw() takes a variate from the stream and value() evaluates
  // it: the same double normal() returns at that position, and the one
  // an eagerly written Box–Muller over uniform() computes, whenever and
  // however often the draw is evaluated.
  constexpr int kDraws = 100'000;
  Rng deferred{2024};
  Rng twin{2024};
  test_support::EagerNormal eager{Rng{2024}};
  std::vector<Rng::NormalDraw> draws;
  std::vector<double> expected;
  for (int i = 0; i < kDraws; ++i) {
    draws.push_back(deferred.normal_draw());
    expected.push_back(twin.normal());
    ASSERT_EQ(bits(expected.back()), bits(eager.next())) << "draw " << i;
  }
  for (int i = 0; i < kDraws; ++i) {  // in order
    ASSERT_EQ(bits(draws[i].value()), bits(expected[i])) << "draw " << i;
  }
  for (int i = kDraws - 1; i >= 0; --i) {  // out of order, a second time
    ASSERT_EQ(bits(draws[i].value()), bits(expected[i])) << "draw " << i;
  }
  // Every other draw never evaluated: the rest still read their
  // position's value, evaluated as they are drawn.
  Rng sparse{2024};
  for (int i = 0; i < kDraws; ++i) {
    const Rng::NormalDraw d = sparse.normal_draw();
    if (i % 2 == 1) {
      ASSERT_EQ(bits(d.value()), bits(expected[i])) << "draw " << i;
    }
  }
}

TEST(RngTest, DeferredDrawsLeaveTheStreamWhereNormalWould) {
  // After any mix of normal() calls and draws evaluated or never
  // evaluated, the stream continues exactly as a twin's that called
  // normal() as often: the same next normal (the pending sine half after
  // an odd count), raw outputs and forks.
  Rng mix{5};
  for (const int count : {0, 1, 2, 3, 7, 10, 1001}) {
    for (int round = 0; round < 4; ++round) {
      Rng deferred{99};
      Rng twin{99};
      for (int i = 0; i < count; ++i) {
        const auto how = mix.uniform_int(3);
        if (how == 0) {
          (void)deferred.normal();
        } else {
          const Rng::NormalDraw d = deferred.normal_draw();
          if (how == 1) (void)d.value();
        }
        (void)twin.normal();
      }
      for (int k = 0; k < 5; ++k) {
        ASSERT_EQ(bits(deferred.normal()), bits(twin.normal()))
            << "count " << count << " round " << round << " k " << k;
      }
      ASSERT_EQ(deferred.next_u64(), twin.next_u64()) << "count " << count;
      ASSERT_EQ(deferred.fork("x").next_u64(), twin.fork("x").next_u64())
          << "count " << count;
    }
  }
}

}  // namespace
}  // namespace fourbit::sim
