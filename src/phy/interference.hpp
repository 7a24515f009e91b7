// Receiver-side burst interference models.
//
// Real 2.4 GHz deployments see bursty external interference (802.11
// traffic, microwave ovens) that destroys whole packets at a receiver
// without degrading the measured chip quality of the packets that do get
// through. This is the mechanism behind the bimodal links of Srinivasan
// et al. and the LQI blindness of the paper's Figure 3.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace fourbit::phy {

/// Query interface: probability that burst interference at receiver `rx`
/// destroys a packet occupying [start, end]. Queries are NOT time-ordered
/// per node: the channel asks when each frame finishes, in finish order.
/// A long frame that started before a short one at the same receiver and
/// ends after it is asked about second, yet its midpoint can be the
/// earlier one. Stateful models must accept that.
class InterferenceModel {
 public:
  virtual ~InterferenceModel() = default;

  [[nodiscard]] virtual double destroy_probability(NodeId rx,
                                                   sim::Time start,
                                                   sim::Time end) = 0;
};

/// No external interference at all.
class NullInterference final : public InterferenceModel {
 public:
  [[nodiscard]] double destroy_probability(NodeId, sim::Time,
                                           sim::Time) override {
    return 0.0;
  }
};

/// Two-state (good/bad) continuous-time Gilbert-Elliott process per node.
/// Dwell times are exponential; while a node is in the bad state, each
/// packet at it is destroyed with `bad_loss_probability`.
class GilbertElliottInterference final : public InterferenceModel {
 public:
  struct Config {
    /// Mean time spent interference-free.
    sim::Duration mean_good = sim::Duration::from_seconds(600.0);
    /// Mean burst length.
    sim::Duration mean_bad = sim::Duration::from_seconds(45.0);
    /// Packet destruction probability while in the bad state.
    double bad_loss_probability = 0.8;
    /// Fraction of nodes subject to bursts at all (interference is
    /// spatially localized; not every node sits near an interferer).
    double affected_fraction = 0.45;

    /// Node never subject to bursts (typically the collection root:
    /// basestations are deliberately sited away from interferers).
    NodeId exempt = kInvalidNodeId;
  };

  GilbertElliottInterference(Config config, sim::Rng rng);

  /// Every reception that passed its PRR draw asks, so the common case
  /// is inline and branches only on the node's dwell: a query before the
  /// end of the node's current dwell answers from its state. The rest —
  /// a node's first query, and a dwell that ended — step the chain out
  /// of line. An unaffected node's dwell never ends.
  [[nodiscard]] double destroy_probability(NodeId rx, sim::Time start,
                                           sim::Time end) override {
    // Packets (a few ms) are far shorter than dwell times (tens of
    // seconds); the state at the packet midpoint decides. Integer
    // halving truncates like `(end - start) * 0.5` in double for any
    // span below 2^53 us, and skips the conversions.
    const sim::Time mid =
        start + sim::Duration::from_us((end - start).us() / 2);
    const std::size_t id = rx.value();
    if (id < dwells_.size() && mid < dwells_[id].end) [[likely]] {
      return dwells_[id].bad ? config_.bad_loss_probability : 0.0;
    }
    return advance(rx, mid) ? config_.bad_loss_probability : 0.0;
  }

  /// For tests: whether the node is in the bad state at `t` (advances the
  /// node's chain to `t`).
  [[nodiscard]] bool in_bad_state(NodeId rx, sim::Time t) {
    const std::size_t id = rx.value();
    if (id < dwells_.size() && t < dwells_[id].end) return dwells_[id].bad;
    return advance(rx, t);
  }

  /// For tests: the node's chain stream, or nullptr before its first
  /// query.
  [[nodiscard]] const sim::Rng* chain_rng(NodeId rx) const;

 private:
  /// A node's current dwell, indexed by node id. Kept apart from the
  /// chain's 48-byte Rng so that a query reads 16 bytes.
  struct Dwell {
    /// The dwell's end; Time{} before the node's first query (so that
    /// query takes the slow path), sim::Time max for a node never
    /// subject to bursts.
    sim::Time end;
    /// 1 + the position of the node's chain in chains_; 0 before its
    /// first query.
    std::uint32_t chain = 0;
    bool bad = false;
  };

  /// Steps the node's chain forward to `t`, creating it on the node's
  /// first query, and returns whether it is bad at `t`. It never goes
  /// back: a query earlier than the node's last one (see
  /// InterferenceModel) sees the later state.
  bool advance(NodeId rx, sim::Time t);

  Config config_;
  sim::Rng rng_;
  // dwells_ grows to the largest id queried. Each chain is seeded by
  // rng_.fork(id) on the node's first query, so the order in which
  // nodes are first queried does not matter.
  std::vector<Dwell> dwells_;
  std::vector<sim::Rng> chains_;
};

/// Deterministic interference windows (used to script the Figure 3
/// scenario: a burst between hours 4 and 6 of a 12-hour run).
class ScheduledBurstInterference final : public InterferenceModel {
 public:
  struct Burst {
    NodeId victim;      // kBroadcastId = every node
    sim::Time start;
    sim::Time end;
    double loss_probability;
  };

  explicit ScheduledBurstInterference(std::vector<Burst> bursts)
      : bursts_(std::move(bursts)) {}

  [[nodiscard]] double destroy_probability(NodeId rx, sim::Time start,
                                           sim::Time end) override {
    double p = 0.0;
    for (const auto& b : bursts_) {
      const bool applies = b.victim == kBroadcastId || b.victim == rx;
      const bool overlaps = start < b.end && end > b.start;
      if (applies && overlaps && b.loss_probability > p) {
        p = b.loss_probability;
      }
    }
    return p;
  }

 private:
  std::vector<Burst> bursts_;
};

}  // namespace fourbit::phy
