#include "phy/interference.hpp"

namespace fourbit::phy {

GilbertElliottInterference::GilbertElliottInterference(Config config,
                                                       sim::Rng rng)
    : config_(config), rng_(rng) {}

GilbertElliottInterference::NodeState& GilbertElliottInterference::new_state(
    NodeId rx) {
  const std::size_t id = rx.value();
  if (id >= index_.size()) index_.resize(id + 1, 0);
  NodeState st{.affected = false,
               .bad = false,
               .state_until = sim::Time{},
               .rng = rng_.fork(rx.value())};
  st.affected =
      rx != config_.exempt && st.rng.bernoulli(config_.affected_fraction);
  // Start in the good state for one full good dwell.
  st.state_until = sim::Time::from_us(0) +
                   sim::Duration::from_seconds(
                       st.rng.exponential(config_.mean_good.seconds()));
  states_.push_back(std::move(st));
  index_[id] = static_cast<std::uint32_t>(states_.size());
  return states_.back();
}

void GilbertElliottInterference::advance(NodeState& st, sim::Time t) {
  while (st.state_until <= t) {
    st.bad = !st.bad;
    const sim::Duration mean = st.bad ? config_.mean_bad : config_.mean_good;
    // First transition draws from the same distribution, which makes the
    // chain start in the good state for an exponential time — the
    // stationary behaviour tests expect.
    st.state_until =
        st.state_until +
        sim::Duration::from_seconds(st.rng.exponential(mean.seconds()));
  }
}

double GilbertElliottInterference::destroy_probability(NodeId rx,
                                                       sim::Time start,
                                                       sim::Time end) {
  NodeState& st = state_for(rx);
  if (!st.affected) return 0.0;
  // Packets (a few ms) are far shorter than dwell times (tens of seconds);
  // the state at the packet midpoint decides.
  const sim::Time mid = start + (end - start) * 0.5;
  advance(st, mid);
  return st.bad ? config_.bad_loss_probability : 0.0;
}

bool GilbertElliottInterference::in_bad_state(NodeId rx, sim::Time t) {
  NodeState& st = state_for(rx);
  if (!st.affected) return false;
  advance(st, t);
  return st.bad;
}

}  // namespace fourbit::phy
