// The channel fast path's determinism contract: with the link cache on
// (complete per-sender link rows, candidate lists, pooled ActiveTx
// objects) every observable — delivery streams, campaign metrics, RNG
// evolution — must be bit-identical to the slow reference path (the
// same loop with no rows: every pair from the propagation batch), across
// thread counts, under fault injection, and through cache invalidations.
// Also covers the detach-mid-flight lifetime rules (run under the ASan
// CI configuration).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>
#include <vector>

#include "phy/channel.hpp"
#include "phy/hardware.hpp"
#include "phy/interference.hpp"
#include "phy/lqi.hpp"
#include "phy/radio.hpp"
#include "runner/campaign.hpp"
#include "runner/experiment.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "topology/topology.hpp"
#include "eager_normal.hpp"

namespace fourbit {
namespace {

// ---- channel-level delivery-stream equivalence -------------------------

/// FNV-1a over every delivered byte and the full RxInfo, so any
/// divergence between paths — one flipped LQI draw, one reordered
/// receiver — changes the digest.
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

  explicit Pump(bool fast, std::size_t n = 30) : Pump(make_phy(fast), n) {}

  Pump(phy::PhyConfig phy, std::size_t n)
      : channel(sim, phy, phy::PropagationConfig{},
                std::make_unique<phy::NullInterference>(), sim::Rng{99}) {
    for (std::size_t i = 0; i < n; ++i) {
      // 30 m grid pitch: every pair is inside the ~268 m reception range,
      // so culling keeps everyone and the interference paths get dense.
      add_radio(NodeId{static_cast<std::uint16_t>(i + 1)},
                Position{static_cast<double>(i % 6) * 30.0,
                         static_cast<double>(i / 6) * 30.0});
    }
  }

  void add_radio(NodeId id, Position pos) {
    radios.push_back(std::make_unique<phy::Radio>(
        channel, id, pos, phy::HardwareProfile{}, PowerDbm{0.0}));
    phy::Radio* r = radios.back().get();
    r->set_rx_handler([this, r](std::span<const std::uint8_t> frame,
                                const phy::RxInfo& info) {
      ++deliveries;
      digest.on_delivery(r->id(), frame, info);
    });
  }

  static phy::PhyConfig make_phy(bool fast) {
    phy::PhyConfig phy;
    phy.use_link_cache = fast;
    return phy;
  }

  /// Start-time stagger between nodes. The 700 us default overlaps the
  /// ~1.3 ms airtime of a 40-byte frame, so transmissions interfere;
  /// two-node tests raise it so the frames land on an idle receiver
  /// (a half-duplex radio can't hear while it transmits).
  std::int64_t stagger_us = 700;

  /// Staggered, overlapping transmissions from every node: enough
  /// concurrency that the interference cross-product and CCA paths all
  /// execute.
  void run_rounds(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t i = 0; i < radios.size(); ++i) {
        phy::Radio* r = radios[i].get();
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

TEST(ChannelFastPathTest, DeliveryStreamBitIdenticalToSlowPath) {
  Pump fast{true};
  Pump slow{false};
  fast.run_rounds(8);
  slow.run_rounds(8);
  EXPECT_TRUE(fast.channel.link_cache_frozen());
  EXPECT_FALSE(slow.channel.link_cache_frozen());
  EXPECT_GT(fast.deliveries, 0u);
  EXPECT_EQ(fast.deliveries, slow.deliveries);
  EXPECT_EQ(fast.digest.h, slow.digest.h);
  EXPECT_EQ(fast.channel.frames_transmitted(),
            slow.channel.frames_transmitted());
}

TEST(ChannelFastPathTest, FrameInFlightAcrossCacheInvalidationMatches) {
  // Frames start on a frozen cache; before they finish, an attach past
  // the slot peak invalidates it. Their delivery must then derive the
  // noise from the radio and skip the PRR memo — and still match the
  // slow path bit for bit. One isolated frame covers the
  // interference-free case, six overlapping frames the interfered one.
  auto run = [](bool fast) {
    Pump p{fast, 12};
    p.stagger_us = 2000;
    p.run_rounds(2);  // freezes the cache and fills the PRR memo
    std::uint16_t next_id = 100;
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
      p.sim.schedule_in(sim::Duration::from_us(1000), [&p, &next_id] {
        p.add_radio(NodeId{next_id}, Position{15.0, 15.0 + next_id});
        ++next_id;
      });
      p.sim.run();
      // Nothing rebuilt the cache before the frames finished.
      EXPECT_FALSE(p.channel.link_cache_frozen());
    }
    p.run_rounds(2);  // and the rebuilt cache agrees afterwards
    return std::pair{p.deliveries, p.digest.h};
  };
  const auto fast = run(true);
  const auto slow = run(false);
  EXPECT_GT(fast.first, 0u);
  EXPECT_EQ(fast, slow);
}

TEST(ChannelFastPathTest, OversizedFrameBypassesPrrMemo) {
  // A 65,600-byte frame, then 58-byte frames: 64 bytes on air, the
  // 65,600-byte size modulo 2^16. A memo keyed on the frame size in 16
  // bits would serve the small frames the oversized frame's PRR. On a
  // marginal link that PRR is ~0 while the small frame's is not, so a
  // leak changes which frames arrive intact, against the run with no
  // rows. Each size now keeps its own PRR plane, keyed on the full size.
  auto run = [](bool fast) {
    Pump p{fast, 0};
    p.add_radio(NodeId{1}, Position{0.0, 0.0});
    // Walk the receiver out until a 58-byte frame is a coin toss.
    for (double d = 100.0;; d += 2.0) {
      p.add_radio(NodeId{2}, Position{d, 0.0});
      const double prr = p.channel.mean_prr(*p.radios[0], *p.radios[1], 58);
      if ((prr > 0.3 && prr < 0.7) || d >= 1000.0) break;
      p.radios.pop_back();
    }
    // 58 + 6 PHY bytes == 65600 mod 2^16: the truncated key of this one.
    p.radios[0]->transmit(std::vector<std::uint8_t>(65594, 0xA5), nullptr);
    p.sim.run();
    for (int i = 0; i < 40; ++i) {
      p.radios[0]->transmit(std::vector<std::uint8_t>(58, 0x3C), nullptr);
      p.sim.run();
    }
    return std::pair{p.deliveries, p.digest.h};
  };
  const auto fast = run(true);
  EXPECT_GT(fast.first, 5u);
  EXPECT_EQ(fast, run(false));
}

// ---- PRR planes: one memo per frame size ------------------------------

/// One round of on-air frame sizes from one sender: a CTP-style node's
/// ack (12 B), beacon (21 B) and data (42 B) frames before each of three
/// more sizes. Six sizes is more than a row keeps PRR planes for (four),
/// so the extra sizes take turns in the least recently used plane.
constexpr std::size_t kRoundSizes[] = {12, 21, 42, 60, 12, 21, 42, 80,
                                       12, 21, 42, 100};

/// A sender, radios[1], and receivers on the upper half circle around
/// it, each walked out until a 42-byte frame from the sender falls below
/// its own PRR target (0.85, 0.75, ..., 0.35). Every size's and every
/// receiver's PRR then differs from the others', so a PRR served for the
/// wrong size, pair or gain changes which frames arrive. A silent
/// anchor, radios[0], sits at the origin, `sender_x` meters to the left
/// of the sender. Loss is a pure function of the two ids and the
/// distance, so the paths with and without rows place every radio alike.
struct MarginalFan {
  static constexpr std::size_t kReceivers = 6;

  Pump p;
  Position sender_pos;
  std::vector<double> distance;  // per receiver, from the sender

  MarginalFan(phy::PhyConfig phy, double sender_x)
      : p(phy, 0), sender_pos{sender_x, 0.0} {
    p.add_radio(NodeId{1}, Position{0.0, 0.0});
    p.add_radio(NodeId{2}, sender_pos);
    for (std::size_t k = 0; k < kReceivers; ++k) {
      const double target = 0.85 - 0.1 * static_cast<double>(k);
      double d = 60.0;
      for (;; d += 1.0) {
        place(k, d);
        const double prr =
            p.channel.mean_prr(sender(), *p.radios.back(), 42 - 6);
        if (prr < target || d >= 1000.0) break;
        p.radios.pop_back();
      }
      distance.push_back(d);
    }
  }

  phy::Radio& sender() { return *p.radios[1]; }

  /// Receiver k's position at distance `d` from the sender; `mirror`
  /// reflects it across the vertical through the sender.
  [[nodiscard]] Position at(std::size_t k, double d, bool mirror) const {
    const double angle = (static_cast<double>(k) + 0.5) * std::numbers::pi /
                         static_cast<double>(kReceivers);
    const double dx = d * std::cos(angle);
    return Position{sender_pos.x + (mirror ? -dx : dx), d * std::sin(angle)};
  }

  void place(std::size_t k, double d, bool mirror = false) {
    p.add_radio(NodeId{static_cast<std::uint16_t>(10 + k)}, at(k, d, mirror));
  }

  /// One frame of each size in kRoundSizes per round, one at a time, so
  /// every reception is interference-free and goes through the memo.
  /// With `power_flip`, the sender's tx power toggles between 0 and -2 dBm
  /// halfway through each 42-byte frame's airtime.
  void rotate_sizes(int rounds, bool power_flip = false) {
    for (int round = 0; round < rounds; ++round) {
      for (const std::size_t on_air : kRoundSizes) {
        std::vector<std::uint8_t> frame(on_air - 6,
                                        static_cast<std::uint8_t>(on_air));
        frame[0] = static_cast<std::uint8_t>(round);
        sender().transmit(frame, nullptr);
        if (power_flip && on_air == 42) {
          p.sim.schedule_in(sim::Duration::from_us(600), [this] {
            const bool loud = sender().tx_power() == PowerDbm{0.0};
            sender().set_tx_power(PowerDbm{loud ? -2.0 : 0.0});
          });
        }
        p.sim.run();
      }
    }
  }
};

phy::PhyConfig fan_phy(bool fast, bool spatial) {
  phy::PhyConfig phy = Pump::make_phy(fast);
  phy.use_spatial_index = spatial;
  return phy;
}

TEST(ChannelFastPathTest, PrrPlanesMatchReferenceOnCompleteRows) {
  // Six sizes from one sender, four planes in its row. Mid-run receiver
  // 10 dies and comes back at 80 % of its distance: its PRR entries must
  // go with it (a complete row clears the slot in every plane), or the
  // returning radio is served its old PRR.
  auto run = [](bool fast) {
    MarginalFan fan{fan_phy(fast, false), 200.0};
    fan.rotate_sizes(4);
    fan.p.radios[2].reset();  // receiver 10 dies...
    fan.rotate_sizes(4);
    fan.place(0, 0.8 * fan.distance[0]);  // ...and returns, closer
    fan.rotate_sizes(4);
    if (fast) {
      EXPECT_EQ(fan.p.channel.cache_rebuilds(), 1u);
    }
    return std::pair{fan.p.deliveries, fan.p.digest.h};
  };
  const auto fast = run(true);
  EXPECT_GT(fast.first, 20u);
  EXPECT_EQ(fast, run(false));
}

TEST(ChannelFastPathTest, PrrPlanesMatchReferenceOnCulledRowsAcrossCells) {
  // The same rotation on culled rows. Receiver 10 dies, which erases its
  // link from the sender's row and shifts every later position, and
  // returns closer on the far side of a cell edge, which inserts it back.
  // Each shift must drop the row's planes, or a receiver is served its
  // neighbour's PRR.
  const double cell = [] {
    // The receive-floor radius, which the cells are as wide as: it
    // depends only on the config (tx power, floors, shadowing).
    Pump probe{fan_phy(true, true), 0};
    probe.add_radio(NodeId{1}, Position{0.0, 0.0});
    probe.add_radio(NodeId{2}, Position{10.0, 0.0});
    (void)probe.channel.candidate_count(*probe.radios[0]);
    return probe.channel.spatial_radius_m();
  }();
  ASSERT_GT(cell, 500.0);
  // The sender sits 100 m right of the first cell edge (the anchor at
  // the origin is the grid's corner), so receiver 10, right of it at
  // 15 degrees, is in the second cell and its mirror image in the first.
  const double sender_x = cell + 100.0;
  auto run = [sender_x, cell](bool fast) {
    MarginalFan fan{fan_phy(fast, true), sender_x};
    const double back = 0.8 * fan.distance[0];
    EXPECT_GT(fan.p.radios[2]->position().x, cell);
    EXPECT_LT(fan.at(0, back, true).x, cell);
    fan.rotate_sizes(4);
    fan.p.radios[2].reset();
    fan.rotate_sizes(4);
    fan.place(0, back, true);
    fan.rotate_sizes(4);
    if (fast) {
      EXPECT_EQ(fan.p.channel.spatial_radius_m(), cell);
      EXPECT_EQ(fan.p.channel.cache_rebuilds(), 1u);  // repaired in place
    }
    return std::pair{fan.p.deliveries, fan.p.digest.h};
  };
  const auto fast = run(true);
  EXPECT_GT(fast.first, 20u);
  EXPECT_EQ(fast, run(false));
}

TEST(ChannelFastPathTest, PrrPlanesMatchReferenceAcrossMidFlightTxPowerChange) {
  // The sender's tx power toggles while each of its 42-byte frames is in
  // the air. The frame keeps the power it started with; the row is
  // re-derived at the new one, which drops its planes. The frame's
  // receptions no longer match the row's gains, so their PRR must not be
  // written to the fresh plane, where the next 42-byte frame, sent at the
  // new power, would read it.
  auto run = [](bool fast) {
    MarginalFan fan{fan_phy(fast, false), 200.0};
    fan.rotate_sizes(2);
    fan.rotate_sizes(6, true);
    fan.rotate_sizes(2);
    return std::pair{fan.p.deliveries, fan.p.digest.h};
  };
  const auto fast = run(true);
  EXPECT_GT(fast.first, 20u);
  EXPECT_EQ(fast, run(false));
}

TEST(ChannelFastPathTest, LinkOutageRespectedByCulledPath) {
  // A blackout on a culled-path candidate link must drop frames exactly
  // like the slow path does (culling decides who is *considered*, faults
  // decide who *receives*), and both paths must consume identical RNG.
  auto run = [](bool fast, bool outage) {
    Pump p{fast, 6};
    p.stagger_us = 2000;  // sequential frames: the baseline must deliver
    if (outage) {
      // Blanket outage: every pair is forced dark.
      for (std::size_t i = 0; i < p.radios.size(); ++i) {
        for (std::size_t j = i + 1; j < p.radios.size(); ++j) {
          p.channel.set_link_outage(p.radios[i]->id(), p.radios[j]->id(),
                                    1.0);
        }
      }
    }
    p.run_rounds(5);
    return std::pair{p.deliveries, p.digest.h};
  };
  const auto [fast_ok, fast_ok_h] = run(true, false);
  const auto [slow_ok, slow_ok_h] = run(false, false);
  const auto [fast_out, fast_out_h] = run(true, true);
  const auto [slow_out, slow_out_h] = run(false, true);
  EXPECT_GT(fast_ok, 0u);
  EXPECT_EQ(fast_ok, slow_ok);
  EXPECT_EQ(fast_ok_h, slow_ok_h);
  EXPECT_EQ(fast_out, 0u);  // total blackout delivers nothing
  EXPECT_EQ(fast_out, slow_out);
  EXPECT_EQ(fast_out_h, slow_out_h);
}

TEST(ChannelFastPathTest, ClearLinkOutageRestoresDelivery) {
  Pump p{true, 2};
  p.stagger_us = 2000;
  p.channel.set_link_outage(NodeId{1}, NodeId{2}, 1.0);
  p.run_rounds(3);
  EXPECT_EQ(p.deliveries, 0u);
  p.channel.clear_link_outage(NodeId{1}, NodeId{2});
  p.run_rounds(3);
  EXPECT_GT(p.deliveries, 0u);
}

TEST(ChannelFastPathTest, TxPowerChangeInvalidatesSenderRow) {
  Pump p{true, 2};
  p.stagger_us = 2000;
  p.run_rounds(2);
  const auto before = p.deliveries;
  EXPECT_GT(before, 0u);
  EXPECT_GT(p.channel.candidate_count(*p.radios[0]), 0u);

  // Whisper: drop the sender 90 dB. The frozen cache must re-derive this
  // row or the receiver would keep hearing ghost packets.
  p.radios[0]->set_tx_power(PowerDbm{-90.0});
  EXPECT_TRUE(p.channel.link_cache_frozen());
  EXPECT_EQ(p.channel.candidate_count(*p.radios[0]), 0u);

  std::vector<std::uint8_t> frame(40, 1);
  p.radios[0]->transmit(frame, nullptr);
  p.sim.run();
  EXPECT_EQ(p.deliveries, before);

  // And back: the row is re-derived again, delivery resumes.
  p.radios[0]->set_tx_power(PowerDbm{0.0});
  p.radios[0]->transmit(frame, nullptr);
  p.sim.run();
  EXPECT_GT(p.deliveries, before);
}

TEST(ChannelFastPathTest, AttachAfterFreezeRebuildsCache) {
  Pump p{true, 2};
  p.run_rounds(1);
  EXPECT_TRUE(p.channel.link_cache_frozen());

  std::uint64_t late_rx = 0;
  phy::Radio late{p.channel, NodeId{77}, Position{1.0, 1.0},
                  phy::HardwareProfile{}, PowerDbm{0.0}};
  EXPECT_FALSE(p.channel.link_cache_frozen());
  late.set_rx_handler([&](std::span<const std::uint8_t>,
                          const phy::RxInfo&) { ++late_rx; });
  p.radios[0]->transmit(std::vector<std::uint8_t>(40, 1), nullptr);
  p.sim.run();
  EXPECT_GT(late_rx, 0u);
}

// ---- detach lifetime rules (ASan-sensitive) ----------------------------

TEST(ChannelFastPathTest, DetachedSenderMidFlightIsTombstoned) {
  for (const bool fast : {true, false}) {
    sim::Simulator sim;
    phy::Channel channel{sim, Pump::make_phy(fast), phy::PropagationConfig{},
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
    // Sender dies mid-frame: the carrier stops, the frame is aborted,
    // and nothing may dereference the dead radio afterwards.
    a.reset();
    EXPECT_TRUE(b.channel_clear());  // busy_at must not touch the corpse
    sim.run();
    EXPECT_EQ(received, 0u);
  }
}

TEST(ChannelFastPathTest, DetachedReceiverMidFlightIsScrubbed) {
  for (const bool fast : {true, false}) {
    sim::Simulator sim;
    phy::Channel channel{sim, Pump::make_phy(fast), phy::PropagationConfig{},
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

TEST(ChannelFastPathTest, DetachedButAliveRadioStillTransmits) {
  // runner::Network uses detach() to make a node deaf without destroying
  // it; its outgoing frames are still on the air. Having no slot, the
  // radio has no row, so its frames take every term from the
  // propagation batch while the receptions they interfere with are
  // backed by rows — the one place terms from a sender without a row sum
  // into row-backed receptions. The stream must match the run with no
  // rows at all.
  auto run = [](bool fast) {
    Pump p{fast, 8};
    // Each frame overlaps only its neighbours in the stagger, so a term
    // from radio 3 decides the receptions it overlaps.
    p.stagger_us = 1000;
    p.run_rounds(2);
    const auto before = p.deliveries;
    p.channel.detach(*p.radios[3]);  // radio 3 goes deaf...
    p.run_rounds(4);                 // ...and keeps sending (and sensing)
    EXPECT_GT(p.deliveries, before);  // ...but not mute: others heard it
    return std::pair{p.deliveries, p.digest.h};
  };
  const auto fast = run(true);
  const auto slow = run(false);
  EXPECT_EQ(fast, slow);
}

TEST(ChannelFastPathTest, ActiveTxPoolSurvivesChurn) {
  Pump p{true, 4};
  p.run_rounds(25);  // hundreds of acquire/release cycles
  Pump q{false, 4};
  q.run_rounds(25);
  EXPECT_EQ(p.deliveries, q.deliveries);
  EXPECT_EQ(p.digest.h, q.digest.h);
}

// ---- deferred LQI: a read evaluates the draw taken at delivery --------

/// One clean delivery as its receiver saw it.
struct CleanRx {
  double snr_db = 0.0;
  bool read = false;  // the receiver read white(), then lqi() twice
  bool white = false;
  int lqi_first = 0;
  int lqi_second = 0;
};

/// 30 radios on a 40 m grid (thermal SNRs from about -8 dB to 20 dB, so
/// readings span the LQI ramp) send 40-byte frames in staggered,
/// overlapping rounds; a seeded 30 % are beacons (first byte 0xBE). With
/// `read_all` every clean delivery is read; otherwise every beacon and a
/// seeded third of the rest, and the others are dropped unread.
std::vector<CleanRx> run_lqi_reads(std::uint64_t seed, bool read_all) {
  constexpr std::uint8_t kBeacon = 0xBE;
  sim::Simulator sim;
  phy::Channel channel{sim, phy::PhyConfig{}, phy::PropagationConfig{},
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{seed}};
  sim::Rng traffic{seed ^ 0x7AFF1CULL};
  sim::Rng reader{seed ^ 0x4EADULL};
  std::vector<CleanRx> out;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (std::size_t i = 0; i < 30; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        channel, NodeId{static_cast<std::uint16_t>(i + 1)},
        Position{static_cast<double>(i % 6) * 40.0,
                 static_cast<double>(i / 6) * 40.0},
        phy::HardwareProfile{}, PowerDbm{0.0}));
    radios.back()->set_rx_handler(
        [&](std::span<const std::uint8_t> frame, const phy::RxInfo& info) {
          if (!info.fcs_ok) return;  // corrupt: no LQI draw to check
          CleanRx rx;
          rx.snr_db = info.snr_db;
          rx.read =
              read_all || frame[0] == kBeacon || reader.bernoulli(1.0 / 3.0);
          if (rx.read) {
            rx.white = info.white();
            rx.lqi_first = info.lqi();
            rx.lqi_second = info.lqi();
          }
          out.push_back(rx);
        });
  }
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < radios.size(); ++i) {
      phy::Radio* r = radios[i].get();
      const auto stagger =
          sim::Duration::from_us(static_cast<std::int64_t>(i) * 700);
      sim.schedule_at(sim.now() + stagger, [&, r] {
        if (r->transmitting()) return;
        std::vector<std::uint8_t> frame(40, 0xDA);
        if (traffic.bernoulli(0.3)) frame[0] = kBeacon;
        r->transmit(frame, nullptr);
      });
    }
    sim.run();
  }
  return out;
}

TEST(ChannelLqiTest, ReadsMatchAllReadingTwinAndDeliveryOrderReference) {
  // The channel draws every clean delivery's LQI noise from its `lqi`
  // stream in delivery order, read or not, and a read evaluates that
  // draw, once. So the values a radio reads on a subset of deliveries
  // equal an all-reading twin's at the same positions, and both equal
  // LqiModel::sample fed from a fresh `lqi` fork one clean delivery at a
  // time, and the same reading over an eager Box–Muller of that fork.
  const int threshold = phy::PhyConfig{}.white_bit_lqi_threshold;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const std::vector<CleanRx> some = run_lqi_reads(seed, false);
    const std::vector<CleanRx> all = run_lqi_reads(seed, true);
    ASSERT_EQ(some.size(), all.size()) << "seed " << seed;
    sim::Rng reference = sim::Rng{seed}.fork("lqi");
    test_support::EagerNormal eager{sim::Rng{seed}.fork("lqi")};
    std::size_t read = 0;
    std::size_t on_ramp = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(some[i].snr_db, all[i].snr_db) << "seed " << seed << " #" << i;
      const int expected = phy::LqiModel::sample(all[i].snr_db, reference);
      ASSERT_EQ(expected, phy::LqiModel::reading(all[i].snr_db, eager.next()))
          << "seed " << seed << " #" << i;
      for (const CleanRx* rx : {&all[i], &some[i]}) {
        if (!rx->read) continue;
        ASSERT_EQ(rx->lqi_first, expected) << "seed " << seed << " #" << i;
        ASSERT_EQ(rx->lqi_second, expected) << "seed " << seed << " #" << i;
        ASSERT_EQ(rx->white, expected >= threshold)
            << "seed " << seed << " #" << i;
      }
      if (some[i].read) ++read;
      if (expected > phy::LqiModel::kMinLqi &&
          expected < phy::LqiModel::kMaxLqi) {
        ++on_ramp;
      }
    }
    // The check bites only if many deliveries go unread and readings are
    // off the clamps, where a shifted or swapped draw changes the value.
    EXPECT_GT(all.size(), 1000u) << "seed " << seed;
    EXPECT_GT(read, all.size() / 3) << "seed " << seed;
    EXPECT_LT(read, all.size() * 2 / 3) << "seed " << seed;
    EXPECT_GT(on_ramp, all.size() / 4) << "seed " << seed;
  }
}

// ---- experiment / campaign equivalence ---------------------------------

topology::Testbed small_testbed(bool fast) {
  sim::Rng rng{12};
  topology::Testbed tb;
  tb.topology = topology::grid(5, 5, 20.0, 2.0, rng);
  tb.environment.phy.use_link_cache = fast;
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

runner::ExperimentConfig small_config(bool fast, std::uint64_t seed) {
  runner::ExperimentConfig cfg;
  cfg.testbed = small_testbed(fast);
  cfg.profile = runner::Profile::kFourBit;
  cfg.duration = sim::Duration::from_minutes(5.0);
  cfg.seed = seed;
  return cfg;
}

TEST(ChannelFastPathTest, ExperimentMetricsBitIdenticalAcrossPaths) {
  const auto fast = runner::run_experiment(small_config(true, 3));
  const auto slow = runner::run_experiment(small_config(false, 3));
  EXPECT_GT(fast.generated, 0u);
  EXPECT_GT(fast.delivery_ratio, 0.5);
  expect_identical(fast, slow);
}

TEST(ChannelFastPathTest, ExperimentWithFaultsBitIdenticalAcrossPaths) {
  auto make = [](bool fast) {
    auto cfg = small_config(fast, 9);
    cfg.faults.node_crashes = 2;
    cfg.faults.crash_downtime = sim::Duration::from_seconds(60.0);
    cfg.faults.link_outages = 2;
    cfg.faults.outage_duration = sim::Duration::from_seconds(30.0);
    cfg.faults.window_start = sim::Time::from_us(60'000'000);
    cfg.faults.window_end = sim::Time::from_us(180'000'000);
    return cfg;
  };
  const auto fast = runner::run_experiment(make(true));
  const auto slow = runner::run_experiment(make(false));
  EXPECT_GT(fast.node_crashes, 0u);
  EXPECT_GT(fast.link_outages, 0u);
  expect_identical(fast, slow);
  EXPECT_EQ(fast.node_crashes, slow.node_crashes);
  EXPECT_EQ(fast.link_outages, slow.link_outages);
  EXPECT_EQ(fast.delivery_during_outage, slow.delivery_during_outage);
}

TEST(ChannelFastPathTest, CampaignBitIdenticalAcrossPathsAndThreads) {
  auto trials = [](bool fast) {
    return runner::Campaign::seed_sweep(small_config(fast, 21), 3);
  };
  runner::Campaign::Options one;
  one.threads = 1;
  runner::Campaign::Options four;
  four.threads = 4;

  const auto fast1 = runner::Campaign::run(trials(true), one);
  const auto fast4 = runner::Campaign::run(trials(true), four);
  const auto slow1 = runner::Campaign::run(trials(false), one);
  const auto slow4 = runner::Campaign::run(trials(false), four);
  ASSERT_EQ(fast1.size(), 3u);
  for (std::size_t i = 0; i < fast1.size(); ++i) {
    expect_identical(fast1[i], fast4[i]);  // threads don't matter
    expect_identical(fast1[i], slow1[i]);  // the path doesn't matter
    expect_identical(slow1[i], slow4[i]);
  }
}

}  // namespace
}  // namespace fourbit
