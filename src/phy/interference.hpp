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

  [[nodiscard]] double destroy_probability(NodeId rx, sim::Time start,
                                           sim::Time end) override;

  /// For tests: whether the node is in the bad state at `t` (advances the
  /// node's chain to `t`).
  [[nodiscard]] bool in_bad_state(NodeId rx, sim::Time t);

 private:
  struct NodeState {
    bool affected = false;
    bool bad = false;
    sim::Time state_until;
    sim::Rng rng;
  };

  /// Every reception asks, so the lookup is inline; a node's first query
  /// takes the out-of-line new_state().
  NodeState& state_for(NodeId rx) {
    const std::size_t id = rx.value();
    if (id < index_.size() && index_[id] != 0) [[likely]] {
      return states_[index_[id] - 1];
    }
    return new_state(rx);
  }
  NodeState& new_state(NodeId rx);
  /// Steps the chain forward to `t`. It never goes back: a query earlier
  /// than the node's last one (see InterferenceModel) sees the later
  /// state.
  void advance(NodeState& st, sim::Time t);

  Config config_;
  sim::Rng rng_;
  // index_[id] is 1 + the position of node `id`'s state in states_, or 0
  // before its first query; it grows to the largest id queried. Each
  // state is seeded by rng_.fork(id) when created, so the order in which
  // nodes are first queried does not matter.
  std::vector<std::uint32_t> index_;
  std::vector<NodeState> states_;
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
