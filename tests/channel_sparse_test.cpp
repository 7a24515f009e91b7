// The sparse spatial channel's determinism contract: with
// use_spatial_index on (uniform grid, compressed per-sender rows,
// incremental slot repair) every observable — delivery streams, campaign
// metrics, RNG evolution — must be bit-identical to both the dense fast
// path and the slow reference path, across thread counts, under fault
// injection, tx-power changes and attach/detach churn. Also covers the
// churn-rebuild and NodeId-ceiling fixes (run under the ASan CI
// configuration).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "common/assert.hpp"
#include "phy/channel.hpp"
#include "phy/hardware.hpp"
#include "phy/interference.hpp"
#include "phy/radio.hpp"
#include "runner/campaign.hpp"
#include "runner/experiment.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "topology/topology.hpp"

namespace fourbit {
namespace {

enum class Mode { kSlow, kDense, kSparse };

constexpr Mode kAllModes[] = {Mode::kSlow, Mode::kDense, Mode::kSparse};

phy::PhyConfig make_phy(Mode mode) {
  phy::PhyConfig phy;
  phy.use_link_cache = mode != Mode::kSlow;
  phy.use_spatial_index = mode == Mode::kSparse;
  return phy;
}

/// FNV-1a over every delivered byte and the full RxInfo (see
/// channel_fastpath_test.cpp): any divergence between paths changes the
/// digest.
struct DeliveryDigest {
  std::uint64_t h = 1469598103934665603ULL;

  void mix_bytes(const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void mix(std::uint64_t v) { mix_bytes(&v, sizeof v); }
  void mix(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  void on_delivery(NodeId to, std::span<const std::uint8_t> frame,
                   const phy::RxInfo& info) {
    mix(static_cast<std::uint64_t>(to.value()));
    mix_bytes(frame.data(), frame.size());
    mix(info.rssi.value());
    mix(info.snr_db);
    mix(static_cast<std::uint64_t>(info.lqi()));
    mix(static_cast<std::uint64_t>(info.white() ? 1 : 0));
    mix(static_cast<std::uint64_t>(info.fcs_ok ? 1 : 0));
  }
};

struct Pump {
  sim::Simulator sim;
  phy::Channel channel;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  DeliveryDigest digest;
  std::uint64_t deliveries = 0;

  explicit Pump(Mode mode, std::size_t n = 30)
      : channel(sim, make_phy(mode), phy::PropagationConfig{},
                std::make_unique<phy::NullInterference>(), sim::Rng{99}) {
    for (std::size_t i = 0; i < n; ++i) {
      // Same geometry as the fast-path suite: 30 m pitch keeps every
      // pair a reception candidate, so the sparse rows are as dense as
      // they get and the interference paths all execute.
      add_radio(i);
    }
  }

  void add_radio(std::size_t i) {
    add_radio_at(i, Position{static_cast<double>(i % 6) * 30.0,
                             static_cast<double>(i / 6) * 30.0});
  }

  void add_radio_at(std::size_t i, Position pos,
                    phy::HardwareProfile profile = {}) {
    add_radio_as(i, static_cast<std::uint16_t>(i + 1), pos, profile);
  }

  void add_radio_as(std::size_t i, std::uint16_t id, Position pos,
                    phy::HardwareProfile profile = {}) {
    if (radios.size() <= i) radios.resize(i + 1);
    radios[i] = std::make_unique<phy::Radio>(channel, NodeId{id}, pos,
                                             profile, PowerDbm{0.0});
    phy::Radio* r = radios[i].get();
    r->set_rx_handler([this, r](std::span<const std::uint8_t> frame,
                                const phy::RxInfo& info) {
      ++deliveries;
      digest.on_delivery(r->id(), frame, info);
    });
  }

  std::int64_t stagger_us = 700;

  void run_rounds(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t i = 0; i < radios.size(); ++i) {
        phy::Radio* r = radios[i].get();
        if (r == nullptr) continue;
        const auto at = sim.now() +
                        sim::Duration::from_us(
                            static_cast<std::int64_t>(i) * stagger_us);
        sim.schedule_at(at, [this, r, round] {
          (void)r->channel_clear();  // exercise busy_at
          if (!r->transmitting()) {
            std::vector<std::uint8_t> frame(40);
            frame[0] = static_cast<std::uint8_t>(r->id().value());
            frame[1] = static_cast<std::uint8_t>(round);
            r->transmit(std::move(frame), nullptr);
          }
        });
      }
      sim.run();
    }
  }
};

// ---- three-way delivery-stream equivalence ----------------------------

TEST(ChannelSparseTest, DeliveryStreamBitIdenticalAcrossAllThreePaths) {
  Pump sparse{Mode::kSparse};
  Pump dense{Mode::kDense};
  Pump slow{Mode::kSlow};
  sparse.run_rounds(8);
  dense.run_rounds(8);
  slow.run_rounds(8);
  EXPECT_TRUE(sparse.channel.link_cache_frozen());
  EXPECT_GT(sparse.channel.spatial_radius_m(), 0.0);
  EXPECT_EQ(dense.channel.spatial_radius_m(), 0.0);
  EXPECT_GT(sparse.deliveries, 0u);
  EXPECT_EQ(sparse.deliveries, dense.deliveries);
  EXPECT_EQ(sparse.deliveries, slow.deliveries);
  EXPECT_EQ(sparse.digest.h, dense.digest.h);
  EXPECT_EQ(sparse.digest.h, slow.digest.h);
  EXPECT_EQ(sparse.channel.frames_transmitted(),
            slow.channel.frames_transmitted());
}

TEST(ChannelSparseTest, FrameInFlightAcrossCacheInvalidationMatches) {
  // Frames start on a frozen cache (dense or sparse); before they
  // finish, an attach past the slot peak invalidates it. Their delivery
  // must then derive the noise from the radio and skip the PRR memo —
  // and still match the slow path bit for bit. One isolated frame covers
  // the interference-free case, six overlapping frames the interfered
  // one.
  auto run = [](Mode mode) {
    Pump p{mode, 12};
    p.stagger_us = 2000;
    p.run_rounds(2);  // freezes the cache and fills the PRR memo
    std::size_t next = p.radios.size();
    for (const std::size_t senders : {1u, 6u}) {
      for (std::size_t i = 0; i < senders; ++i) {
        p.sim.schedule_in(
            sim::Duration::from_us(static_cast<std::int64_t>(i) * 100),
            [&p, i] {
              p.radios[i]->transmit(
                  std::vector<std::uint8_t>(40, static_cast<std::uint8_t>(i)),
                  nullptr);
            });
      }
      // Mid-flight for every frame (~1.5 ms airtime each).
      p.sim.schedule_in(sim::Duration::from_us(1000), [&p, &next] {
        p.add_radio_at(next, Position{15.0, 15.0 + static_cast<double>(next)});
        ++next;
      });
      p.sim.run();
      // Nothing rebuilt the cache before the frames finished.
      EXPECT_FALSE(p.channel.link_cache_frozen());
    }
    p.run_rounds(2);  // and the rebuilt cache agrees afterwards
    return std::pair{p.deliveries, p.digest.h};
  };
  const auto slow = run(Mode::kSlow);
  EXPECT_GT(slow.first, 0u);
  EXPECT_EQ(run(Mode::kDense), slow);
  EXPECT_EQ(run(Mode::kSparse), slow);
}

TEST(ChannelSparseTest, LinkOutageBitIdenticalAcrossPaths) {
  auto run = [](Mode mode, double loss) {
    Pump p{mode, 6};
    p.stagger_us = 2000;
    // Partial outage on one pair: the faulted-link RNG draw must fire in
    // the same order on every path.
    p.channel.set_link_outage(NodeId{1}, NodeId{2}, loss);
    p.run_rounds(5);
    return std::pair{p.deliveries, p.digest.h};
  };
  for (const double loss : {0.5, 1.0}) {
    const auto sparse = run(Mode::kSparse, loss);
    const auto dense = run(Mode::kDense, loss);
    const auto slow = run(Mode::kSlow, loss);
    EXPECT_GT(sparse.first, 0u);
    EXPECT_EQ(sparse, dense);
    EXPECT_EQ(sparse, slow);
  }
}

TEST(ChannelSparseTest, FarFieldInterferenceBitIdenticalAcrossPaths) {
  // A marginal 100 m link inside a ring of 24 jammers 300-360 m out.
  // Nearly every jammer sits below every culling floor at the link's
  // ends, so the sparse rows do not store those pairs: their terms are
  // far-field, batched through the propagation kernel — in the forward
  // pass when the jammers are already on the air, in the
  // back-substitution when they start during the frame. One at a time
  // they are below the noise floor; together they decide the link. Both
  // orders run, and every path must deliver the same stream. (Dropping
  // the far-field terms from the sparse path fails this test; no other
  // channel test has enough far-field power to notice.)
  constexpr std::size_t kJammers = 24;
  const auto run = [](Mode mode) {
    Pump p{mode, 0};
    p.add_radio_as(0, 1, Position{0.0, 0.0});  // the link's receiver
    p.add_radio_as(1, 2, Position{100.0, 0.0});  // the link's sender
    for (std::size_t k = 0; k < kJammers; ++k) {
      const double angle = 2.0 * 3.141592653589793 *
                           static_cast<double>(k) / kJammers;
      const double radius = 300.0 + 30.0 * static_cast<double>(k % 3);
      p.add_radio_as(2 + k, static_cast<std::uint16_t>(3 + k),
                     Position{radius * std::cos(angle),
                              radius * std::sin(angle)});
    }
    std::uint64_t link_deliveries = 0;
    phy::Radio* receiver = p.radios[0].get();
    receiver->set_rx_handler([&p, &link_deliveries, receiver](
                                 std::span<const std::uint8_t> frame,
                                 const phy::RxInfo& info) {
      ++p.deliveries;
      if (info.fcs_ok) ++link_deliveries;
      p.digest.on_delivery(receiver->id(), frame, info);
    });
    const auto send = [&p](std::size_t i, std::int64_t at_us) {
      p.sim.schedule_in(sim::Duration::from_us(at_us), [&p, i] {
        p.radios[i]->transmit(std::vector<std::uint8_t>(40, 0x5A), nullptr);
      });
    };
    constexpr int kRounds = 60;
    for (int round = 0; round < kRounds; ++round) {
      // Even rounds: jammers first (forward pass); odd: link first.
      const std::int64_t jam_at = round % 2 == 0 ? 0 : 300;
      send(1, round % 2 == 0 ? 300 : 0);
      for (std::size_t k = 0; k < kJammers; ++k) {
        send(2 + k, jam_at + static_cast<std::int64_t>(k % 7));
      }
      p.sim.run();
    }
    return std::tuple{p.deliveries, p.digest.h, link_deliveries};
  };
  const auto slow = run(Mode::kSlow);
  // The premise: the far-field sum decides the link, so it loses some
  // frames but not all.
  EXPECT_GT(std::get<2>(slow), 5u);
  EXPECT_LT(std::get<2>(slow), 55u);
  EXPECT_EQ(run(Mode::kDense), slow);
  EXPECT_EQ(run(Mode::kSparse), slow);
}

TEST(ChannelSparseTest, TxPowerChangeRederivesSparseRow) {
  Pump p{Mode::kSparse, 2};
  p.stagger_us = 2000;
  p.run_rounds(2);
  const auto before = p.deliveries;
  EXPECT_GT(before, 0u);
  EXPECT_GT(p.channel.candidate_count(*p.radios[0]), 0u);

  // Whisper: power drops below the frozen radius's assumptions from the
  // safe side — only this sender's row is re-derived, no rebuild.
  const auto rebuilds = p.channel.cache_rebuilds();
  p.radios[0]->set_tx_power(PowerDbm{-90.0});
  EXPECT_TRUE(p.channel.link_cache_frozen());
  EXPECT_EQ(p.channel.cache_rebuilds(), rebuilds);
  EXPECT_EQ(p.channel.candidate_count(*p.radios[0]), 0u);

  std::vector<std::uint8_t> frame(40, 1);
  p.radios[0]->transmit(frame, nullptr);
  p.sim.run();
  EXPECT_EQ(p.deliveries, before);

  // Back to the original power: row re-derived again, delivery resumes.
  p.radios[0]->set_tx_power(PowerDbm{0.0});
  EXPECT_TRUE(p.channel.link_cache_frozen());
  p.radios[0]->transmit(frame, nullptr);
  p.sim.run();
  EXPECT_GT(p.deliveries, before);
}

TEST(ChannelSparseTest, TxPowerAboveFrozenMaxForcesFullRebuild) {
  Pump p{Mode::kSparse, 4};
  p.stagger_us = 2000;
  p.run_rounds(1);
  EXPECT_TRUE(p.channel.link_cache_frozen());
  // Louder than the receive-floor radius was derived for: the cull
  // guarantee is void, so the cache must drop and rebuild on next use.
  p.radios[0]->set_tx_power(PowerDbm{10.0});
  EXPECT_FALSE(p.channel.link_cache_frozen());
  const auto before = p.deliveries;
  p.radios[0]->transmit(std::vector<std::uint8_t>(40, 1), nullptr);
  p.sim.run();
  EXPECT_GT(p.deliveries, before);
  EXPECT_TRUE(p.channel.link_cache_frozen());
}

// ---- churn: crash/reboot must not rebuild -----------------------------

TEST(ChannelSparseTest, ChurnReusesSlotsWithoutFullRebuild) {
  // A crash/reboot cycle at the channel level is detach (radio
  // destroyed) + attach (same id, same position — the propagation draws
  // are a pure function of both). With a frozen cache the reused slot is
  // repaired in place: the rebuild counter must stay at the initial
  // freeze, and the delivery stream must still match the slow path
  // running the same churn.
  std::uint64_t slow_digest = 0;
  std::uint64_t slow_deliveries = 0;
  for (const Mode mode : kAllModes) {
    Pump p{mode, 12};
    p.run_rounds(2);
    for (int cycle = 0; cycle < 3; ++cycle) {
      const std::size_t victim = 3 + static_cast<std::size_t>(cycle);
      p.radios[victim].reset();  // crash: detach tombstones the slot
      p.run_rounds(1);
      p.add_radio(victim);  // reboot: attach reuses the slot
      p.run_rounds(2);
    }
    if (mode == Mode::kSlow) {
      slow_digest = p.digest.h;
      slow_deliveries = p.deliveries;
      EXPECT_EQ(p.channel.cache_rebuilds(), 0u);
    } else {
      EXPECT_EQ(p.channel.cache_rebuilds(), 1u)
          << "mode " << static_cast<int>(mode)
          << " paid a full rebuild during churn";
      EXPECT_EQ(p.deliveries, slow_deliveries);
      EXPECT_EQ(p.digest.h, slow_digest);
    }
  }
}

TEST(ChannelSparseTest, ReattachAtDifferentCellStaysBitIdentical) {
  // Two clusters ~3 km apart sit in NON-adjacent grid cells (the
  // receive-floor radius, and therefore the cell size, is ~1.1 km at
  // default config). A cluster-A radio dies and a REPLACEMENT node
  // (fresh NodeId) joins at a cluster-B position, reusing the slot:
  // senders near the old position must not keep their stored links to
  // that slot (detach scrubs them), or the sparse path keeps delivering
  // to the newcomer with cluster-A gains while the new-neighborhood
  // repair never touches those rows.
  std::uint64_t slow_digest = 0;
  std::uint64_t slow_deliveries = 0;
  for (const Mode mode : kAllModes) {
    Pump p{mode, 0};
    for (std::size_t i = 0; i < 4; ++i) {
      p.add_radio_at(i, Position{static_cast<double>(i) * 40.0, 0.0});
    }
    for (std::size_t i = 4; i < 8; ++i) {
      p.add_radio_at(
          i, Position{3000.0 + static_cast<double>(i - 4) * 40.0, 0.0});
    }
    p.stagger_us = 2000;
    p.run_rounds(2);
    if (mode == Mode::kSparse) {
      // The geometry premise: clusters farther apart than two cells.
      ASSERT_GT(p.channel.spatial_radius_m(), 0.0);
      ASSERT_LT(p.channel.spatial_radius_m(), 1500.0);
    }
    p.radios[1].reset();  // node death in cluster A
    p.run_rounds(1);
    // Replacement joins inside cluster B: same slot (LIFO free list),
    // new NodeId, a cell two columns away.
    p.add_radio_as(1, 9, Position{3020.0, 0.0});
    p.run_rounds(3);
    if (mode == Mode::kSlow) {
      slow_digest = p.digest.h;
      slow_deliveries = p.deliveries;
      EXPECT_GT(p.deliveries, 0u);
    } else {
      // The cross-cell move stays incremental: scrub + new-neighborhood
      // repair, no full rebuild beyond the initial freeze.
      EXPECT_EQ(p.channel.cache_rebuilds(), 1u)
          << "mode " << static_cast<int>(mode)
          << " paid a full rebuild for a cross-cell reattach";
      EXPECT_EQ(p.deliveries, slow_deliveries);
      EXPECT_EQ(p.digest.h, slow_digest);
    }
  }
}

TEST(ChannelSparseTest, ReattachSameIdAtNewPositionMatchesAcrossModes) {
  // Node 2 dies and comes back 400 m away under its old NodeId. The loss
  // of every pair it is in must follow the new position on every path:
  // an id-keyed propagation memo on the path without rows once kept
  // serving the old geometry, so that path alone went on hearing node 2
  // as if it had never moved.
  std::uint64_t slow_digest = 0;
  std::uint64_t slow_deliveries = 0;
  for (const Mode mode : kAllModes) {
    Pump p{mode, 8};
    p.stagger_us = 2000;
    p.run_rounds(2);
    p.radios[1].reset();  // node 2 dies at (30, 0)
    p.run_rounds(1);
    p.add_radio_at(1, Position{30.0, 400.0});  // ...and returns as node 2
    p.run_rounds(3);
    if (mode == Mode::kSlow) {
      slow_digest = p.digest.h;
      slow_deliveries = p.deliveries;
      EXPECT_GT(p.deliveries, 0u);
    } else {
      // Same grid cell (the radius is ~1.1 km): repaired in place.
      EXPECT_EQ(p.channel.cache_rebuilds(), 1u)
          << "mode " << static_cast<int>(mode);
      EXPECT_EQ(p.deliveries, slow_deliveries)
          << "mode " << static_cast<int>(mode);
      EXPECT_EQ(p.digest.h, slow_digest) << "mode " << static_cast<int>(mode);
    }
  }
}

TEST(ChannelSparseTest, ReattachMoreSensitiveReceiverForcesFullRebuild) {
  // The frozen receive-floor radius assumed the weakest reception
  // cutoff seen at freeze time. A reused slot whose receiver is MORE
  // sensitive can hear senders beyond the 3x3 neighborhood, so the
  // sparse repair must declare the cull guarantee void (one full
  // rebuild) rather than silently diverge; the dense column walk
  // handles the same reattach incrementally.
  std::uint64_t slow_digest = 0;
  std::uint64_t slow_deliveries = 0;
  const phy::HardwareProfile sensitive{.noise_figure_offset =
                                           Decibels{-6.0}};
  for (const Mode mode : kAllModes) {
    Pump p{mode, 8};
    p.stagger_us = 2000;
    p.run_rounds(2);
    p.radios[2].reset();
    p.run_rounds(1);
    p.add_radio_at(2, Position{60.0, 0.0}, sensitive);
    if (mode == Mode::kSparse) {
      EXPECT_FALSE(p.channel.link_cache_frozen());
    }
    p.run_rounds(3);
    if (mode == Mode::kSlow) {
      slow_digest = p.digest.h;
      slow_deliveries = p.deliveries;
      EXPECT_GT(p.deliveries, 0u);
    } else {
      EXPECT_EQ(p.channel.cache_rebuilds(),
                mode == Mode::kSparse ? 2u : 1u);
      EXPECT_EQ(p.deliveries, slow_deliveries);
      EXPECT_EQ(p.digest.h, slow_digest);
    }
  }
}

TEST(ChannelSparseTest, DetachedSenderMidFlightIsTombstoned) {
  for (const Mode mode : kAllModes) {
    sim::Simulator sim;
    phy::Channel channel{sim, make_phy(mode), phy::PropagationConfig{},
                         std::make_unique<phy::NullInterference>(),
                         sim::Rng{5}};
    phy::Radio b{channel, NodeId{2}, {5.0, 0.0}, phy::HardwareProfile{},
                 PowerDbm{0.0}};
    std::uint64_t received = 0;
    b.set_rx_handler([&](std::span<const std::uint8_t>,
                         const phy::RxInfo&) { ++received; });
    auto a = std::make_unique<phy::Radio>(channel, NodeId{1},
                                          Position{0.0, 0.0},
                                          phy::HardwareProfile{},
                                          PowerDbm{0.0});
    a->transmit(std::vector<std::uint8_t>(60, 1), nullptr);
    a.reset();  // sender dies mid-frame
    EXPECT_TRUE(b.channel_clear());  // busy_at must not touch the corpse
    sim.run();
    EXPECT_EQ(received, 0u);
  }
}

TEST(ChannelSparseTest, DetachedReceiverMidFlightIsScrubbed) {
  for (const Mode mode : kAllModes) {
    sim::Simulator sim;
    phy::Channel channel{sim, make_phy(mode), phy::PropagationConfig{},
                         std::make_unique<phy::NullInterference>(),
                         sim::Rng{5}};
    phy::Radio a{channel, NodeId{1}, {0.0, 0.0}, phy::HardwareProfile{},
                 PowerDbm{0.0}};
    auto b = std::make_unique<phy::Radio>(channel, NodeId{2},
                                          Position{5.0, 0.0},
                                          phy::HardwareProfile{},
                                          PowerDbm{0.0});
    b->set_rx_handler([](std::span<const std::uint8_t>, const phy::RxInfo&) {
      FAIL() << "delivery to a destroyed radio";
    });
    a.transmit(std::vector<std::uint8_t>(60, 1), nullptr);
    b.reset();  // receiver dies while the frame is in the air
    sim.run();  // must not deliver into freed memory
  }
}

// ---- candidate_count: introspection must not allocate -----------------

TEST(ChannelSparseTest, CandidateCountSlowPathDoesNotBuildCache) {
  Pump slow{Mode::kSlow, 10};
  // The bug this pins down: candidate_count used to call ensure_cache()
  // unconditionally, so a slow-path introspection call silently
  // allocated the N x N arrays and mutated channel state.
  const std::size_t count = slow.channel.candidate_count(*slow.radios[0]);
  EXPECT_GT(count, 0u);
  EXPECT_FALSE(slow.channel.link_cache_frozen());
  EXPECT_EQ(slow.channel.cache_rebuilds(), 0u);

  Pump dense{Mode::kDense, 10};
  Pump sparse{Mode::kSparse, 10};
  EXPECT_EQ(dense.channel.candidate_count(*dense.radios[0]), count);
  EXPECT_EQ(sparse.channel.candidate_count(*sparse.radios[0]), count);
}

// ---- NodeId ceiling guards --------------------------------------------

TEST(ChannelSparseTest, AttachRejectsReservedNodeIds) {
  sim::Simulator sim;
  phy::Channel channel{sim, make_phy(Mode::kSparse),
                       phy::PropagationConfig{},
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{5}};
  ScopedAssertHandler guard{throwing_assert_handler};
  EXPECT_THROW(phy::Radio(channel, kInvalidNodeId, Position{0.0, 0.0},
                          phy::HardwareProfile{}, PowerDbm{0.0}),
               AssertionError);
  EXPECT_THROW(phy::Radio(channel, kBroadcastId, Position{0.0, 0.0},
                          phy::HardwareProfile{}, PowerDbm{0.0}),
               AssertionError);
}

// ---- experiment / campaign equivalence --------------------------------

topology::Testbed small_testbed(Mode mode) {
  sim::Rng rng{12};
  topology::Testbed tb;
  tb.topology = topology::grid(5, 5, 20.0, 2.0, rng);
  tb.environment.phy.use_link_cache = mode != Mode::kSlow;
  tb.environment.phy.use_spatial_index = mode == Mode::kSparse;
  return tb;
}

void expect_identical(const runner::ExperimentResult& a,
                      const runner::ExperimentResult& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_tx, b.data_tx);
  EXPECT_EQ(a.beacon_tx, b.beacon_tx);
  EXPECT_EQ(a.radio_frames, b.radio_frames);
  EXPECT_EQ(a.retx_drops, b.retx_drops);
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.parent_changes, b.parent_changes);
  EXPECT_EQ(a.cost, b.cost);                      // exact, not Near:
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);  // bit-identical paths
  EXPECT_EQ(a.mean_depth, b.mean_depth);
  EXPECT_EQ(a.per_node_delivery, b.per_node_delivery);
}

runner::ExperimentConfig small_config(Mode mode, std::uint64_t seed) {
  runner::ExperimentConfig cfg;
  cfg.testbed = small_testbed(mode);
  cfg.profile = runner::Profile::kFourBit;
  cfg.duration = sim::Duration::from_minutes(5.0);
  cfg.seed = seed;
  return cfg;
}

TEST(ChannelSparseTest, ExperimentMetricsBitIdenticalAcrossPaths) {
  const auto sparse = runner::run_experiment(small_config(Mode::kSparse, 3));
  const auto dense = runner::run_experiment(small_config(Mode::kDense, 3));
  EXPECT_GT(sparse.generated, 0u);
  EXPECT_GT(sparse.delivery_ratio, 0.5);
  expect_identical(sparse, dense);
}

TEST(ChannelSparseTest, ExperimentWithFaultsBitIdenticalAcrossPaths) {
  auto make = [](Mode mode) {
    auto cfg = small_config(mode, 9);
    cfg.faults.node_crashes = 2;
    cfg.faults.crash_downtime = sim::Duration::from_seconds(60.0);
    cfg.faults.link_outages = 2;
    cfg.faults.outage_duration = sim::Duration::from_seconds(30.0);
    cfg.faults.window_start = sim::Time::from_us(60'000'000);
    cfg.faults.window_end = sim::Time::from_us(180'000'000);
    return cfg;
  };
  const auto sparse = runner::run_experiment(make(Mode::kSparse));
  const auto slow = runner::run_experiment(make(Mode::kSlow));
  EXPECT_GT(sparse.node_crashes, 0u);
  EXPECT_GT(sparse.link_outages, 0u);
  expect_identical(sparse, slow);
  EXPECT_EQ(sparse.node_crashes, slow.node_crashes);
  EXPECT_EQ(sparse.link_outages, slow.link_outages);
  EXPECT_EQ(sparse.delivery_during_outage, slow.delivery_during_outage);
}

TEST(ChannelSparseTest, CampaignBitIdenticalAcrossPathsAndThreads) {
  auto trials = [](Mode mode) {
    return runner::Campaign::seed_sweep(small_config(mode, 21), 3);
  };
  runner::Campaign::Options one;
  one.threads = 1;
  runner::Campaign::Options four;
  four.threads = 4;

  const auto sparse1 = runner::Campaign::run(trials(Mode::kSparse), one);
  const auto sparse4 = runner::Campaign::run(trials(Mode::kSparse), four);
  const auto dense1 = runner::Campaign::run(trials(Mode::kDense), one);
  ASSERT_EQ(sparse1.size(), 3u);
  for (std::size_t i = 0; i < sparse1.size(); ++i) {
    expect_identical(sparse1[i], sparse4[i]);  // threads don't matter
    expect_identical(sparse1[i], dense1[i]);   // the path doesn't matter
  }
}

}  // namespace
}  // namespace fourbit
