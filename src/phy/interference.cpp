#include "phy/interference.hpp"

#include <limits>

namespace fourbit::phy {

GilbertElliottInterference::GilbertElliottInterference(Config config,
                                                       sim::Rng rng)
    : config_(config), rng_(rng) {}

const sim::Rng* GilbertElliottInterference::chain_rng(NodeId rx) const {
  const std::size_t id = rx.value();
  if (id >= dwells_.size() || dwells_[id].chain == 0) return nullptr;
  return &chains_[dwells_[id].chain - 1];
}

bool GilbertElliottInterference::advance(NodeId rx, sim::Time t) {
  const std::size_t id = rx.value();
  if (id >= dwells_.size()) dwells_.resize(id + 1);
  Dwell& d = dwells_[id];
  if (d.chain == 0) {
    sim::Rng chain = rng_.fork(rx.value());
    const bool affected =
        rx != config_.exempt && chain.bernoulli(config_.affected_fraction);
    // Start in the good state for one full good dwell. An unaffected
    // node draws it too, so every chain takes the same first draws; its
    // dwell then never ends, and no later query reaches this function.
    d.end = sim::Time::from_us(0) +
            sim::Duration::from_seconds(
                chain.exponential(config_.mean_good.seconds()));
    if (!affected) {
      d.end = sim::Time::from_us(std::numeric_limits<std::int64_t>::max());
    }
    chains_.push_back(chain);
    d.chain = static_cast<std::uint32_t>(chains_.size());
  }
  sim::Rng& chain = chains_[d.chain - 1];
  while (d.end <= t) {
    d.bad = !d.bad;
    const sim::Duration mean = d.bad ? config_.mean_bad : config_.mean_good;
    // First transition draws from the same distribution, which makes the
    // chain start in the good state for an exponential time — the
    // stationary behaviour tests expect.
    d.end = d.end +
            sim::Duration::from_seconds(chain.exponential(mean.seconds()));
  }
  return d.bad;
}

}  // namespace fourbit::phy
