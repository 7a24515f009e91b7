// Hot-path microbenchmarks (google-benchmark).
//
// These are the operations a real deployment would run per packet or per
// event: estimator updates, beacon wrap/unwrap, event-queue operations,
// PRR model lookups, and a full small-network simulation step rate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "common/crc16.hpp"
#include "core/four_bit_estimator.hpp"
#include "estimators/lqi_estimator.hpp"
#include "mac/frame.hpp"
#include "mac/mac.hpp"
#include "net/collection_node.hpp"
#include "net/packets.hpp"
#include "net/routing_engine.hpp"
#include "phy/channel.hpp"
#include "phy/hardware.hpp"
#include "phy/interference.hpp"
#include "phy/modulation.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "runner/profile.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

using namespace fourbit;

namespace {

void BM_RngNextU64(benchmark::State& state) {
  sim::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

/// arg 0 selects the implementation on every event-queue bench:
/// 0 = binary heap (reference), 1 = calendar queue (default).
sim::EventQueue::Impl impl_arg(std::int64_t v) {
  return v != 0 ? sim::EventQueue::Impl::kCalendar
                : sim::EventQueue::Impl::kHeap;
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q{impl_arg(state.range(0))};
  std::int64_t t = 0;
  for (auto _ : state) {
    q.schedule(sim::Time::from_us(t += 7), [] {});
    if (q.size() > 1024) {
      while (!q.empty()) q.pop();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(0)->Arg(1);

/// Simulator equilibrium: a pending population of range(1) events, one
/// pop + one schedule per step. This is the shape that separates the
/// heap's O(log n) from the calendar's O(1) — the pending set in a
/// large campaign trial sits in the thousands.
void BM_EventQueueSteadyState(benchmark::State& state) {
  sim::EventQueue q{impl_arg(state.range(0))};
  const auto depth = static_cast<std::size_t>(state.range(1));
  sim::Rng rng{1};
  std::int64_t now = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(sim::Time::from_us(
                   now + 1 + static_cast<std::int64_t>(rng.uniform_int(100'000))),
               [] {});
  }
  for (auto _ : state) {
    auto popped = q.pop();
    now = popped.time.us();
    q.schedule(sim::Time::from_us(
                   now + 1 + static_cast<std::int64_t>(rng.uniform_int(100'000))),
               [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)
    ->Args({0, 1024})
    ->Args({1, 1024})
    ->Args({0, 16384})
    ->Args({1, 16384});

/// Timer churn: most scheduled events are cancelled and rescheduled
/// before they fire (MAC backoff and ack timers do exactly this).
void BM_EventQueueCancelChurn(benchmark::State& state) {
  sim::EventQueue q{impl_arg(state.range(0))};
  sim::Rng rng{1};
  std::int64_t now = 0;
  constexpr std::size_t kLive = 512;
  std::vector<sim::EventId> ids(kLive);
  for (std::size_t i = 0; i < kLive; ++i) {
    ids[i] = q.schedule(
        sim::Time::from_us(
            now + 1 + static_cast<std::int64_t>(rng.uniform_int(50'000))),
        [] {});
  }
  std::size_t slot = 0;
  for (auto _ : state) {
    q.cancel(ids[slot]);
    ids[slot] = q.schedule(
        sim::Time::from_us(
            now + 1 + static_cast<std::int64_t>(rng.uniform_int(50'000))),
        [] {});
    slot = (slot + 1) % kLive;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(0)->Arg(1);

void BM_FourBitAckUpdate(benchmark::State& state) {
  core::FourBitEstimator est{core::FourBitConfig{}, sim::Rng{1}};
  link::FixedPhyInfo info{true, 110};
  const std::vector<std::uint8_t> beacon{0};
  (void)est.unwrap_beacon(NodeId{1}, beacon, info);
  bool acked = true;
  for (auto _ : state) {
    est.on_unicast_result(NodeId{1}, acked);
    acked = !acked;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FourBitAckUpdate);

void BM_FourBitBeaconUnwrap(benchmark::State& state) {
  core::FourBitEstimator est{core::FourBitConfig{}, sim::Rng{1}};
  link::FixedPhyInfo info{true, 110};
  std::uint8_t seq = 0;
  for (auto _ : state) {
    const std::vector<std::uint8_t> beacon{seq++, 1, 2, 3, 4};
    benchmark::DoNotOptimize(est.unwrap_beacon(NodeId{1}, beacon, info));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FourBitBeaconUnwrap);

// Snooped data frames (RoutingEngine::on_snooped_cost) on a warmed
// engine: a full 10-entry link table plus 4 route-only neighbors, 14
// routes in all, with advertised costs that keep the parent fixed. Both
// estimators frame beacons as [seq][routing payload].
double route_cost_of(std::uint16_t n) { return 1.0 + 0.25 * n; }

/// Warms `routing` over `est`; false (and the state skipped) if the
/// warm-up did not reach the 10-link, 14-route, parent-1 shape.
bool warm_route_engine(benchmark::State& state, link::LinkEstimator& est,
                       net::RoutingEngine& routing) {
  routing.set_beacon_sender([](std::span<const std::uint8_t>) {});
  routing.start();
  for (std::uint8_t seq = 0; seq < 3; ++seq) {
    for (std::uint16_t n = 1; n <= 10; ++n) {
      net::RoutingBeacon b;
      b.parent = NodeId{0};
      b.path_etx = route_cost_of(n);
      std::vector<std::uint8_t> wire{seq};
      const auto payload = b.encode();
      wire.insert(wire.end(), payload.begin(), payload.end());
      const link::FixedPhyInfo info{true, 108 - n % 3};
      if (const auto routed = est.unwrap_beacon(NodeId{n}, wire, info)) {
        routing.on_beacon(NodeId{n}, *routed);
      }
    }
  }
  for (std::uint16_t n = 11; n <= 14; ++n) {
    routing.on_snooped_cost(NodeId{n}, route_cost_of(n));
  }
  if (est.neighbors().size() != 10 || routing.route_table().size() != 14 ||
      routing.parent() != NodeId{1}) {
    state.SkipWithError("warm-up did not reach 10 links, 14 routes");
    return false;
  }
  return true;
}

// One full parent-selection pass per iteration: table neighbor 5's
// advertised cost alternates between two values that both keep the
// parent, so every snoop changes a route the pass reads.
void run_route_recompute(benchmark::State& state,
                         link::LinkEstimator& est) {
  sim::Simulator sim;
  net::RoutingEngine routing{sim, NodeId{100}, false, est,
                             net::CollectionConfig{}, sim::Rng{1}};
  if (!warm_route_engine(state, est, routing)) return;
  const std::uint64_t passes = routing.selection_passes();
  bool high = false;
  for (auto _ : state) {
    high = !high;
    routing.on_snooped_cost(NodeId{5}, route_cost_of(5) + (high ? 0.125 : 0));
  }
  benchmark::DoNotOptimize(routing.parent());
  if (routing.selection_passes() - passes !=
      static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("an iteration skipped its selection pass");
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RouteRecompute4B(benchmark::State& state) {
  core::FourBitEstimator est{core::FourBitConfig{}, sim::Rng{1}};
  run_route_recompute(state, est);
}
BENCHMARK(BM_RouteRecompute4B);

void BM_RouteRecomputeLqi(benchmark::State& state) {
  estimators::LqiEstimatorConfig config;
  config.table_capacity = 10;
  estimators::LqiEstimator est{config, sim::Rng{1}};
  run_route_recompute(state, est);
}
BENCHMARK(BM_RouteRecomputeLqi);

// The common snoop: a neighbor (table or route-only) repeats the cost we
// already hold, so nothing parent selection reads changes and the pass is
// skipped. Rotates over all 14 routes on a warmed 4B engine.
void BM_RouteSnoopUnchanged(benchmark::State& state) {
  core::FourBitEstimator est{core::FourBitConfig{}, sim::Rng{1}};
  sim::Simulator sim;
  net::RoutingEngine routing{sim, NodeId{100}, false, est,
                             net::CollectionConfig{}, sim::Rng{1}};
  if (!warm_route_engine(state, est, routing)) return;
  const std::uint64_t passes = routing.selection_passes();
  std::uint16_t n = 0;
  for (auto _ : state) {
    n = static_cast<std::uint16_t>(n % 14 + 1);
    routing.on_snooped_cost(NodeId{n}, route_cost_of(n));
  }
  benchmark::DoNotOptimize(routing.parent());
  if (routing.selection_passes() != passes) {
    state.SkipWithError("an unchanged snoop ran a selection pass");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteSnoopUnchanged);

// Beacons from 30 peers into a 10-entry 4B table, estimator unwrap
// included. Peers outside the table leave a route too, so the route table
// passes the link table size + 4 every few beacons and the beacon handler
// trims it; every fourth beacon carries the white bit, so admissions
// evict and reorder the table as well.
void BM_RouteBeaconTrim(benchmark::State& state) {
  core::FourBitEstimator est{core::FourBitConfig{}, sim::Rng{1}};
  sim::Simulator sim;
  net::RoutingEngine routing{sim, NodeId{100}, false, est,
                             net::CollectionConfig{}, sim::Rng{1}};
  routing.set_beacon_sender([](std::span<const std::uint8_t>) {});
  routing.start();
  std::vector<std::vector<std::uint8_t>> wires;  // [seq][routing payload]
  for (std::uint16_t n = 1; n <= 30; ++n) {
    net::RoutingBeacon b;
    b.parent = NodeId{0};
    b.path_etx = route_cost_of(n);
    std::vector<std::uint8_t> wire{0};
    const auto payload = b.encode();
    wire.insert(wire.end(), payload.begin(), payload.end());
    wires.push_back(std::move(wire));
  }
  std::uint64_t k = 0;
  const auto beacon = [&] {
    std::vector<std::uint8_t>& wire = wires[k % 30];
    const NodeId from{static_cast<std::uint16_t>(k % 30 + 1)};
    ++wire[0];
    const link::FixedPhyInfo info{k % 4 == 0, 108};
    if (const auto routed = est.unwrap_beacon(from, wire, info)) {
      routing.on_beacon(from, *routed);
    }
    ++k;
  };
  for (int i = 0; i < 90; ++i) beacon();
  if (routing.route_table().size() > est.table_size() + 4) {
    state.SkipWithError("the beacons did not trim the route table");
    return;
  }
  for (auto _ : state) beacon();
  benchmark::DoNotOptimize(routing.parent());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteBeaconTrim);

// Snooped data frames from neighbors with no route held, on a warmed 4B
// engine (10 links, parent 1): each adds a route. After every fifth, a
// beacon from table node 1 trims the five again (15 routes > 10 + 4), so
// the timing includes one beacon and its trim per five snoops.
void BM_RouteSnoopNewNeighbor(benchmark::State& state) {
  core::FourBitEstimator est{core::FourBitConfig{}, sim::Rng{1}};
  sim::Simulator sim;
  net::RoutingEngine routing{sim, NodeId{100}, false, est,
                             net::CollectionConfig{}, sim::Rng{1}};
  if (!warm_route_engine(state, est, routing)) return;
  net::RoutingBeacon b;
  b.parent = NodeId{0};
  b.path_etx = route_cost_of(1);
  const std::vector<std::uint8_t> beacon_of_1 = b.encode();
  std::uint16_t n = 0;
  const auto snoop = [&] {
    routing.on_snooped_cost(NodeId{static_cast<std::uint16_t>(200 + n)},
                            2.0);
    if (++n == 5) {
      routing.on_beacon(NodeId{1}, beacon_of_1);
      n = 0;
    }
  };
  for (int i = 0; i < 5; ++i) snoop();  // the first trim drops 11..14
  for (auto _ : state) snoop();
  benchmark::DoNotOptimize(routing.parent());
  if (routing.route_table().size() != 10u + n) {
    state.SkipWithError("the beacons did not trim the new routes");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteSnoopNewNeighbor);

void BM_MacFrameRoundTrip(benchmark::State& state) {
  mac::MacFrame f;
  f.type = mac::FrameType::kData;
  f.dsn = 42;
  f.src = NodeId{7};
  f.dst = NodeId{9};
  f.payload.assign(30, 0xAB);
  for (auto _ : state) {
    const auto bytes = f.encode();
    benchmark::DoNotOptimize(mac::MacFrame::decode(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacFrameRoundTrip);

/// A 40-byte data frame body (6-byte header + 34-byte payload): the FCS
/// input every reception checks.
std::vector<std::uint8_t> fcs_input() {
  std::vector<std::uint8_t> bytes(40);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return bytes;
}

void BM_Crc16(benchmark::State& state) {
  const auto bytes = fcs_input();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytes.data());
    benchmark::DoNotOptimize(crc16(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc16);

/// The bit-serial CRC-16/XMODEM that crc16() replaced, kept only as the
/// reference the table-driven version is gated against.
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

void BM_Crc16Bitwise(benchmark::State& state) {
  const auto bytes = fcs_input();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytes.data());
    benchmark::DoNotOptimize(crc16_bitwise(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc16Bitwise);

/// The receive path's per-frame check: FCS plus in-place header parse.
void BM_MacFrameViewDecode(benchmark::State& state) {
  mac::MacFrame f;
  f.type = mac::FrameType::kData;
  f.dsn = 42;
  f.src = NodeId{7};
  f.dst = NodeId{9};
  f.payload.assign(32, 0xAB);
  const auto bytes = f.encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytes.data());
    benchmark::DoNotOptimize(mac::MacFrameView::decode(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacFrameViewDecode);

/// The MAC's per-reception work now that the channel checks the FCS once
/// per transmission: the in-place header parse alone.
void BM_MacFrameViewParse(benchmark::State& state) {
  mac::MacFrame f;
  f.type = mac::FrameType::kData;
  f.dsn = 42;
  f.src = NodeId{7};
  f.dst = NodeId{9};
  f.payload.assign(32, 0xAB);
  const auto bytes = f.encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytes.data());
    benchmark::DoNotOptimize(mac::MacFrameView::parse(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacFrameViewParse);

/// One burst-interference query per reception: 94 receivers (the
/// Tutornet population) asked round-robin at monotone times 1 ms apart,
/// so the cost is the per-node state lookup plus the occasional dwell
/// transition.
void BM_BurstInterferenceQuery(benchmark::State& state) {
  phy::GilbertElliottInterference ge{phy::GilbertElliottInterference::Config{},
                                     sim::Rng{17}};
  constexpr std::uint16_t kNodes = 94;
  std::int64_t us = 0;
  std::uint16_t node = 0;
  for (auto _ : state) {
    const sim::Time start = sim::Time::from_us(us);
    benchmark::DoNotOptimize(ge.destroy_probability(
        NodeId{node}, start, start + sim::Duration::from_us(1000)));
    us += 1000;
    node = static_cast<std::uint16_t>(node + 1 == kNodes ? 0 : node + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BurstInterferenceQuery);

/// A MAC stub for benches above the MAC: keeps a copy of the last frame
/// its node sent (in one reused buffer, as a MAC queue slot would),
/// completes every send at once, unicasts acked, and hands the bench the
/// node's receive handler.
class StubMac final : public mac::Mac {
 public:
  explicit StubMac(NodeId id) : id_(id) {}

  [[nodiscard]] NodeId id() const override { return id_; }
  void set_rx_handler(RxHandler h) override { rx_ = std::move(h); }
  void set_snoop_handler(RxHandler) override {}
  void send(NodeId dst, std::span<const std::uint8_t> payload,
            SendCallback done) override {
    last.assign(payload.begin(), payload.end());
    ++sends;
    if (done) done(mac::TxResult{.acked = dst != kBroadcastId});
  }
  [[nodiscard]] std::size_t queue_depth() const override { return 0; }

  void deliver(NodeId src, std::span<const std::uint8_t> payload,
               const phy::RxInfo& info) {
    rx_(src, 0, payload, info);
  }

  std::vector<std::uint8_t> last;
  std::uint64_t sends = 0;

 private:
  NodeId id_;
  RxHandler rx_;
};

/// One routing beacon from a table member, delivered to a CollectionNode
/// with a real phy::RxInfo (a clean reception: LQI noise drawn, reading
/// unevaluated, the default white-bit rule): the receive path above the
/// MAC, down to the estimator and routing engine. Arg 0 runs 4B, which
/// reads no PHY bit here; arg 1 runs MultiHopLQI, which evaluates every
/// beacon's LQI.
void BM_CollectionNodeBeaconRx(benchmark::State& state) {
  const runner::Profile profile = state.range(0) == 0
                                      ? runner::Profile::kFourBit
                                      : runner::Profile::kMultihopLqi;
  sim::Simulator sim;
  StubMac root_mac{NodeId{1}};
  StubMac node_mac{NodeId{2}};
  net::CollectionNode root{
      sim, root_mac,
      runner::make_estimator(profile, NodeId{1}, 10, sim::Rng{1}),
      /*is_root=*/true, net::CollectionConfig{}, nullptr, sim::Rng{2}};
  net::CollectionNode node{
      sim, node_mac,
      runner::make_estimator(profile, NodeId{2}, 10, sim::Rng{3}),
      /*is_root=*/false, net::CollectionConfig{}, nullptr, sim::Rng{4}};
  root.boot();
  while (root_mac.sends == 0) {
    sim.run_until(sim.now() + sim::Duration::from_seconds(1.0));
  }
  // [dispatch][estimator sequence number][routing payload]
  std::vector<std::uint8_t> frame = root_mac.last;
  sim::Rng lqi_rng{5};
  const phy::WhiteBitRule rule = phy::WhiteBitRule::of(phy::PhyConfig{});
  for (auto _ : state) {
    ++frame[1];  // the next beacon, no gap
    const phy::RxInfo info{PowerDbm{-85.0}, 12.0, lqi_rng.normal_draw(),
                           rule};
    node_mac.deliver(NodeId{1}, frame, info);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CollectionNodeBeaconRx)->Arg(0)->Arg(1);

/// A root's first beacon frame, as its node put it on the MAC.
std::vector<std::uint8_t> first_beacon_frame(sim::Simulator& sim,
                                             net::CollectionNode& root,
                                             StubMac& root_mac) {
  root.boot();
  while (root_mac.sends == 0) {
    sim.run_until(sim.now() + sim::Duration::from_seconds(1.0));
  }
  return root_mac.last;
}

/// Data forwarding through a relay CollectionNode over 4B: a child's
/// data frame is received, passes the duplicate cache, enters the
/// forwarding queue, is encoded into the node's frame buffer and sent;
/// the stub MAC acks at once, so the ack bit reaches the estimator and
/// the queue slot is freed before the next frame. Each frame carries the
/// next sequence number and 20 bytes of application payload.
void BM_CollectionNodeDataForward(benchmark::State& state) {
  sim::Simulator sim;
  StubMac root_mac{NodeId{1}};
  StubMac relay_mac{NodeId{2}};
  net::CollectionNode root{
      sim, root_mac,
      runner::make_estimator(runner::Profile::kFourBit, NodeId{1}, 10,
                             sim::Rng{1}),
      /*is_root=*/true, net::CollectionConfig{}, nullptr, sim::Rng{2}};
  net::CollectionNode relay{
      sim, relay_mac,
      runner::make_estimator(runner::Profile::kFourBit, NodeId{2}, 10,
                             sim::Rng{3}),
      /*is_root=*/false, net::CollectionConfig{}, nullptr, sim::Rng{4}};
  const phy::WhiteBitRule rule = phy::WhiteBitRule::of(phy::PhyConfig{});
  sim::Rng lqi_rng{5};
  relay.boot();
  relay_mac.deliver(NodeId{1}, first_beacon_frame(sim, root, root_mac),
                    phy::RxInfo{PowerDbm{-85.0}, 12.0, lqi_rng.normal_draw(),
                                rule});
  // The relay's own packet shows the data dispatch byte.
  const std::vector<std::uint8_t> app(20, 0xAB);
  if (!relay.routing().has_route() || !relay.send(app)) {
    state.SkipWithError("relay found no route");
    return;
  }
  std::vector<std::uint8_t> frame{relay_mac.last.front()};
  net::DataHeader h;
  h.origin = NodeId{3};
  h.sender_path_etx = 100.0;  // the child is farther from the root
  h.append_to(frame, app);
  const std::uint64_t sends = relay_mac.sends;
  std::uint16_t seq = 0;
  for (auto _ : state) {
    ++seq;
    frame[3] = static_cast<std::uint8_t>(seq >> 8);  // DataHeader::seq
    frame[4] = static_cast<std::uint8_t>(seq & 0xFF);
    const phy::RxInfo info{PowerDbm{-85.0}, 12.0, lqi_rng.normal_draw(),
                           rule};
    relay_mac.deliver(NodeId{3}, frame, info);
  }
  if (relay_mac.sends - sends !=
      static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a received frame was not forwarded");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CollectionNodeDataForward);

/// Beacon transmission through a CollectionNode on a fixed 1 s beacon
/// interval: the beacon timer fires, the routing engine encodes its
/// beacon, the estimator wraps it after the dispatch byte in the node's
/// frame buffer, and the MAC takes its copy. Items are the beacons of
/// both nodes (a root and a node with a full 10-entry table). Arg 0 runs
/// 4B (a sequence-number header); arg 1 runs stock CTP's broadcast ETX,
/// whose footer reports the node's table in turn.
void BM_CollectionNodeBeaconTx(benchmark::State& state) {
  const runner::Profile profile = state.range(0) == 0
                                      ? runner::Profile::kFourBit
                                      : runner::Profile::kCtpT2;
  sim::Simulator sim;
  StubMac root_mac{NodeId{1}};
  StubMac node_mac{NodeId{2}};
  net::CollectionConfig config;
  config.beacon_timing = net::BeaconTiming::kFixed;
  config.fixed_beacon_interval = sim::Duration::from_seconds(1.0);
  net::CollectionNode root{
      sim, root_mac,
      runner::make_estimator(profile, NodeId{1}, 10, sim::Rng{1}),
      /*is_root=*/true, config, nullptr, sim::Rng{2}};
  net::CollectionNode node{
      sim, node_mac,
      runner::make_estimator(profile, NodeId{2}, 10, sim::Rng{3}),
      /*is_root=*/false, config, nullptr, sim::Rng{4}};
  // Fill the node's table: the root's beacon, heard from ten neighbors.
  const std::vector<std::uint8_t> beacon =
      first_beacon_frame(sim, root, root_mac);
  const phy::WhiteBitRule rule = phy::WhiteBitRule::of(phy::PhyConfig{});
  sim::Rng lqi_rng{5};
  for (std::uint16_t n = 3; n <= 12; ++n) {
    node_mac.deliver(NodeId{n}, beacon,
                     phy::RxInfo{PowerDbm{-85.0}, 12.0,
                                 lqi_rng.normal_draw(), rule});
  }
  node.boot();
  const std::uint64_t sends = root_mac.sends + node_mac.sends;
  for (auto _ : state) {
    sim.run_for(sim::Duration::from_seconds(1.0));
  }
  if (node.estimator().neighbors().size() != 10) {
    state.SkipWithError("the node's table did not fill");
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(root_mac.sends + node_mac.sends - sends));
}
BENCHMARK(BM_CollectionNodeBeaconTx)->Arg(0)->Arg(1);

/// The forwarding engine's encode into its reused buffer, then the
/// receive path's view parse.
void BM_DataHeaderRoundTrip(benchmark::State& state) {
  net::DataHeader h;
  h.origin = NodeId{3};
  h.seq = 1234;
  h.thl = 2;
  h.sender_path_etx = 3.7;
  const std::vector<std::uint8_t> payload(20, 0xCD);
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    h.append_to(bytes, payload);
    benchmark::DoNotOptimize(net::decode_data_view(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DataHeaderRoundTrip);

void BM_OqpskPrrLookup(benchmark::State& state) {
  phy::OqpskModulation mod;
  double snr = -10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod.packet_reception_ratio(snr, 40));
    snr += 0.01;
    if (snr > 10.0) snr = -10.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OqpskPrrLookup);

/// The batched SNR→PRR kernel over a contiguous span, as the channel's
/// delivery pass issues it; arg = receiver count per call. Compare the
/// per-item rate against BM_OqpskPrrLookup for the batching win.
void BM_PrrBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::OqpskModulation mod;
  std::vector<double> sinr(n);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    sinr[i] = -12.0 + 24.0 * static_cast<double>(i) /
                          static_cast<double>(n > 1 ? n - 1 : 1);
  }
  for (auto _ : state) {
    mod.prr_batch(sinr, 40, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PrrBatch)->Arg(16)->Arg(64)->Arg(256);

/// Far-field pairs as the sparse channel meets them: random ids over the
/// 16-bit space and random positions on a 10 km square. A power-of-two
/// pool, cycled, so the pair loop's index is a mask.
constexpr std::size_t kPropagationPairs = 4096;
struct PropagationPairs {
  std::vector<NodeId> from, to;
  std::vector<Position> from_pos, to_pos;
};
PropagationPairs propagation_pairs() {
  PropagationPairs p;
  sim::Rng rng{2026};
  const auto id = [&] {
    return NodeId{static_cast<std::uint16_t>(1 + rng.uniform_int(0xFFFE))};
  };
  for (std::size_t i = 0; i < kPropagationPairs; ++i) {
    p.from.push_back(id());
    p.to.push_back(id());
    p.from_pos.push_back({rng.uniform(0.0, 1e4), rng.uniform(0.0, 1e4)});
    p.to_pos.push_back({rng.uniform(0.0, 1e4), rng.uniform(0.0, 1e4)});
  }
  return p;
}

/// One far-field interference term, the per-pair cost the sparse channel
/// pays off its stored rows: path loss with both forked shadowing draws,
/// then the milliwatt conversion.
void BM_PropagationPair(benchmark::State& state) {
  const phy::PropagationModel model{phy::PropagationConfig{}, sim::Rng{7}};
  const PropagationPairs p = propagation_pairs();
  std::size_t i = 0;
  for (auto _ : state) {
    const Decibels loss =
        model.loss(p.from[i], p.from_pos[i], p.to[i], p.to_pos[i]);
    benchmark::DoNotOptimize((PowerDbm{0.0} - loss).milliwatts());
    i = (i + 1) & (kPropagationPairs - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PropagationPair);

/// The per-pair composition PropagationModel's fused kernel replaced:
/// two forked child generators, each running a full Box–Muller draw whose
/// sine half is cached and never read. Kept only as the reference the
/// fused path is gated against.
double fork_normal_loss(const sim::Rng& rng, const phy::PropagationConfig& cfg,
                        NodeId from, const Position& from_pos, NodeId to,
                        const Position& to_pos) {
  const auto key = [](NodeId a, NodeId b) {
    return static_cast<std::uint32_t>(a.value()) << 16 | b.value();
  };
  const double d = std::max(distance_m(from_pos, to_pos), 0.5);
  const double deterministic =
      cfg.reference_loss.value() + 10.0 * cfg.exponent * std::log10(d);
  const double shadowing =
      rng.fork(key(std::min(from, to), std::max(from, to)))
          .normal(0.0, cfg.shadowing_sigma_db);
  const double directional =
      rng.fork(key(from, to) ^ 0x9E3779B9U).normal(0.0, cfg.asymmetry_sigma_db);
  return deterministic + shadowing + directional;
}

void BM_PropagationPairForkNormal(benchmark::State& state) {
  const phy::PropagationConfig cfg;
  const sim::Rng rng{7};
  const PropagationPairs p = propagation_pairs();
  std::size_t i = 0;
  for (auto _ : state) {
    const double loss = fork_normal_loss(rng, cfg, p.from[i], p.from_pos[i],
                                         p.to[i], p.to_pos[i]);
    benchmark::DoNotOptimize(PowerDbm{0.0 - loss}.milliwatts());
    i = (i + 1) & (kPropagationPairs - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PropagationPairForkNormal);

/// One sender's far-field terms at arg receivers through
/// PropagationModel::gain_mw_batch, as one frame's interference pass
/// issues it. Compare the per-item rate against BM_PropagationPair.
void BM_PropagationGainBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  phy::PropagationModel model{phy::PropagationConfig{}, sim::Rng{7}};
  const PropagationPairs p = propagation_pairs();
  std::vector<phy::PropagationModel::Receiver> to;
  for (std::size_t i = 0; i < n; ++i) to.push_back({p.to[i], p.to_pos[i]});
  std::vector<double> out(n);
  for (auto _ : state) {
    model.gain_mw_batch(p.from[0], p.from_pos[0], 0.0, to, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PropagationGainBatch)->Arg(64)->Arg(1024);

/// N radios on a grid; args = {node count, use_link_cache}. Measures one
/// full transmit -> deliver cycle, the channel's dominant cost. The
/// fast/slow pairs at each N are the microbench view of the speedup that
/// bench/channel_scaling.cpp measures end to end. Each sender sends one
/// frame of every size in `on_air_bytes` (PHY overhead included) in turn
/// before the next sender takes over. With `read_lqi`, every radio's
/// handler reads lqi() and white() of each delivery; otherwise radios
/// install no handler and every LQI goes unread.
void channel_broadcast(benchmark::State& state,
                       std::initializer_list<std::size_t> on_air_bytes,
                       bool read_lqi = false) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool fast = state.range(1) != 0;
  sim::Simulator sim;
  phy::PhyConfig phy;
  phy.use_link_cache = fast;
  phy::Channel channel{sim, phy, phy::PropagationConfig{},
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{1}};
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (std::size_t i = 0; i < n; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        channel, NodeId{static_cast<std::uint16_t>(i + 1)},
        Position{static_cast<double>(i % 16) * 30.0,
                 static_cast<double>(i / 16) * 30.0},
        phy::HardwareProfile{}, PowerDbm{0.0}));
  }
  int lqi_sum = 0;
  if (read_lqi) {
    for (const auto& r : radios) {
      r->set_rx_handler(
          [&lqi_sum](std::span<const std::uint8_t>, const phy::RxInfo& info) {
            lqi_sum += info.lqi() + (info.white() ? 1 : 0);
          });
    }
  }
  std::vector<std::vector<std::uint8_t>> frames;
  for (const std::size_t on_air : on_air_bytes) {
    frames.emplace_back(on_air - phy.phy_overhead_bytes, 0xAB);
  }
  std::size_t sender = 0;
  std::size_t size = 0;
  for (auto _ : state) {
    radios[sender]->transmit(frames[size], nullptr);
    sim.run();
    size = (size + 1) % frames.size();
    if (size == 0) sender = (sender + 1) % n;
  }
  benchmark::DoNotOptimize(lqi_sum);
  state.SetItemsProcessed(state.iterations());
}

/// One 40-byte MPDU per sender.
void BM_ChannelBroadcast(benchmark::State& state) {
  channel_broadcast(state, {46});
}
BENCHMARK(BM_ChannelBroadcast)
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({200, 0})
    ->Args({200, 1});

/// BM_ChannelBroadcast with a handler on every radio that reads lqi() and
/// white(): the LQI math that BM_ChannelBroadcast's unread deliveries
/// skip.
void BM_ChannelBroadcastReadLqi(benchmark::State& state) {
  channel_broadcast(state, {46}, /*read_lqi=*/true);
}
BENCHMARK(BM_ChannelBroadcastReadLqi)
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({200, 0})
    ->Args({200, 1});

/// Three frame sizes per sender, 12, 21 and 42 bytes on air: a CTP-style
/// node's ack, beacon and data frames. Each size keeps its own PRR plane
/// in the sender's row, so the sizes must not evict each other's memo.
void BM_ChannelBroadcastMixedSizes(benchmark::State& state) {
  channel_broadcast(state, {12, 21, 42});
}
BENCHMARK(BM_ChannelBroadcastMixedSizes)
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({200, 0})
    ->Args({200, 1});

/// CCA while 8 transmissions hang in the air (the sim never advances, so
/// they stay active): the busy_at cost a CSMA backoff pays per sample.
void BM_ChannelCcaPoll(benchmark::State& state) {
  const bool fast = state.range(0) != 0;
  sim::Simulator sim;
  phy::PhyConfig phy;
  phy.use_link_cache = fast;
  phy::Channel channel{sim, phy, phy::PropagationConfig{},
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{1}};
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (std::size_t i = 0; i < 64; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        channel, NodeId{static_cast<std::uint16_t>(i + 1)},
        Position{static_cast<double>(i % 8) * 30.0,
                 static_cast<double>(i / 8) * 30.0},
        phy::HardwareProfile{}, PowerDbm{0.0}));
  }
  const std::vector<std::uint8_t> frame(40, 0xAB);
  for (std::size_t i = 0; i < 8; ++i) radios[i]->transmit(frame, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(radios.back()->channel_clear());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelCcaPoll)->Arg(0)->Arg(1);

/// One emit() call with telemetry gated off entirely: the cost every
/// component pays per potential event when nobody is tracing. This is
/// the "disabled path" the telemetry design budgets at one branch —
/// compare against BM_TelemetryEnabled for the enabled ring-write cost.
void BM_TelemetryDisabled(benchmark::State& state) {
  sim::TelemetryContext telemetry;
  telemetry.set_level(sim::TraceLevel::kOff);
  std::uint16_t i = 0;
  for (auto _ : state) {
    telemetry.emit(sim::EventKind::kDataDrop, 1, 2, i++, 3);
    benchmark::DoNotOptimize(telemetry.events_recorded());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryDisabled);

/// The same emit with the ring write taken (kDebug records everything,
/// no sink attached): the flight-recorder overhead per recorded event.
void BM_TelemetryEnabled(benchmark::State& state) {
  sim::TelemetryContext telemetry;
  telemetry.set_level(sim::TraceLevel::kDebug);
  std::uint16_t i = 0;
  for (auto _ : state) {
    telemetry.emit(sim::EventKind::kDataDrop, 1, 2, i++, 3);
    benchmark::DoNotOptimize(telemetry.events_recorded());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryEnabled);

/// Counter-registry hot path: one pointer increment per event, resolved
/// once at registration.
void BM_TelemetryCounterIncrement(benchmark::State& state) {
  sim::TelemetryContext telemetry;
  std::uint64_t* counter = telemetry.counter("fwd", "data_tx", 1);
  for (auto _ : state) {
    ++*counter;
    benchmark::DoNotOptimize(*counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterIncrement);

/// One histogram record: a bit_width bucket index, one bin increment,
/// count and sum. The status-snapshot histograms (runner/status.hpp)
/// and --profile-phases timers both pay exactly this per sample.
void BM_HistogramRecord(benchmark::State& state) {
  sim::Histogram hist;
  std::uint64_t v = 1;
  for (auto _ : state) {
    hist.record(v);
    v = (v * 2862933555777941757ull) + 3037000493ull;  // cheap LCG spread
    benchmark::DoNotOptimize(hist.count);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

/// A PhaseTimer scope with profiling off: the cost every engine phase
/// pays per pass when --profile-phases is absent. Budgeted like
/// BM_TelemetryDisabled — one branch, no clock read, no registration —
/// and gated alongside it in CI perf-smoke.
void BM_PhaseTimerDisabled(benchmark::State& state) {
  sim::TelemetryContext telemetry;
  for (auto _ : state) {
    sim::PhaseTimer timer{telemetry, sim::ProfilePhase::kEventDispatch};
    benchmark::DoNotOptimize(telemetry.profiling());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhaseTimerDisabled);

/// The enabled counterpart: two steady_clock reads plus one histogram
/// record per phase pass — what a --profile-phases run actually costs.
void BM_PhaseTimerEnabled(benchmark::State& state) {
  sim::TelemetryContext telemetry;
  telemetry.set_profiling(true);
  for (auto _ : state) {
    sim::PhaseTimer timer{telemetry, sim::ProfilePhase::kEventDispatch};
    benchmark::DoNotOptimize(telemetry.profiling());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhaseTimerEnabled);

/// The channel broadcast workload with telemetry dialed to kDebug and a
/// ring write per frame (args: {telemetry level as int}). Together with
/// the BM_ChannelBroadcast pair above this bounds the end-to-end cost of
/// tracing the phy hot path; bench/channel_scaling.cpp --check gates it.
void BM_ChannelBroadcastTraced(benchmark::State& state) {
  const auto level = static_cast<sim::TraceLevel>(state.range(0));
  sim::Simulator sim;
  sim.telemetry().set_level(level);
  phy::PhyConfig phy;
  phy::Channel channel{sim, phy, phy::PropagationConfig{},
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{1}};
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (std::size_t i = 0; i < 50; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        channel, NodeId{static_cast<std::uint16_t>(i + 1)},
        Position{static_cast<double>(i % 16) * 30.0,
                 static_cast<double>(i / 16) * 30.0},
        phy::HardwareProfile{}, PowerDbm{0.0}));
  }
  const std::vector<std::uint8_t> frame(40, 0xAB);
  std::size_t sender = 0;
  for (auto _ : state) {
    radios[sender]->transmit(frame, nullptr);
    sim.run();
    sender = (sender + 1) % radios.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelBroadcastTraced)
    ->Arg(static_cast<int>(sim::TraceLevel::kOff))
    ->Arg(static_cast<int>(sim::TraceLevel::kInfo))
    ->Arg(static_cast<int>(sim::TraceLevel::kDebug));

void BM_SimulatorTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
      sim.schedule_in(sim::Duration::from_us(i * 13 + 1),
                      [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SimulatorTimerChurn);

}  // namespace

BENCHMARK_MAIN();
