// inspect_network: run a collection protocol on the Mirage-like testbed
// and dump per-node routing/estimator state at intervals — a debugging
// and teaching tool for seeing how the tree forms and evolves.
//
//   $ ./inspect_network [minutes] [profile: 4b|lqi|ctp]
#include <cstdio>
#include <cstring>
#include <string>

#include "app/traffic.hpp"
#include "runner/network.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"
#include "topology/topology.hpp"

using namespace fourbit;

namespace {

void dump(runner::Network& net, sim::Simulator& sim) {
  const auto snap = net.tree_snapshot();
  std::printf(
      "\n=== t=%.0fs: routed %zu/%zu, mean depth %.2f | root beacons=%llu "
      "macq=%zu ===\n",
      sim.now().seconds(), snap.routed, snap.total, snap.mean_depth,
      static_cast<unsigned long long>(
          net.node(net.root_index()).routing().beacons_sent()),
      net.mac(net.root_index()).queue_depth());
  for (std::size_t i = 0; i < net.size() && i < 12; ++i) {
    auto& node = net.node(i);
    const auto& routing = node.routing();
    const auto parent = routing.parent();
    const auto etx = node.estimator().etx(parent);
    std::printf(
        "  node %2u: parent=%5u cost=%7.2f depth=%2d link-etx=%s "
        "tbl=%zu routes=%zu\n",
        node.id().value(), parent.value(), routing.path_etx(),
        snap.depths[i],
        etx ? std::to_string(*etx).substr(0, 5).c_str() : "  -  ",
        node.estimator().neighbors().size(), routing.route_table().size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double minutes = argc > 1 ? std::atof(argv[1]) : 10.0;
  runner::Profile profile = runner::Profile::kFourBit;
  if (argc > 2 && std::strcmp(argv[2], "lqi") == 0) {
    profile = runner::Profile::kMultihopLqi;
  } else if (argc > 2 && std::strcmp(argv[2], "ctp") == 0) {
    profile = runner::Profile::kCtpT2;
  } else if (argc > 2 && std::strcmp(argv[2], "ack") == 0) {
    profile = runner::Profile::kCtpUnidirAck;
  } else if (argc > 2 && std::strcmp(argv[2], "wc") == 0) {
    profile = runner::Profile::kCtpWhiteCompare;
  } else if (argc > 2 && std::strcmp(argv[2], "uncon") == 0) {
    profile = runner::Profile::kCtpUnconstrained;
  }
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 7;

  sim::Simulator sim;
  stats::Metrics metrics;
  sim::Rng rng{seed};
  const auto testbed = topology::mirage(rng);

  runner::Network::Options options;
  options.profile = profile;
  options.seed = seed;
  runner::Network net{sim, testbed, std::move(options), &metrics};
  net.start(sim::Duration::from_seconds(30.0), app::TrafficConfig{});

  const auto step = sim::Duration::from_seconds(60.0);
  const auto end = sim::Duration::from_minutes(minutes);
  for (sim::Duration t = step; t <= end; t = t + step) {
    sim.run_for(step);
    dump(net, sim);
  }

  // Detailed dump of a few nodes: every table entry with link estimate
  // and last-heard route state.
  for (std::size_t i = 1; i <= 5 && i < net.size(); ++i) {
    auto& node = net.node(i);
    std::printf("\nnode %u detail (parent=%u, cost=%.2f):\n",
                node.id().value(), node.routing().parent().value(),
                node.routing().path_etx());
    for (const NodeId n : node.estimator().neighbors()) {
      const auto etx = node.estimator().etx(n);
      const auto route = node.routing().route(n);
      std::printf("  nbr %5u: link-etx=%-8s route=%s\n", n.value(),
                  etx ? std::to_string(*etx).substr(0, 6).c_str() : "-",
                  route.has_value()
                      ? (std::string("parent=") +
                         std::to_string(route->parent.value()) +
                         " cost=" + std::to_string(route->path_etx))
                            .c_str()
                      : "(none)");
    }
  }

  std::printf("\nfinal: cost=%.2f delivery=%.3f gen=%llu dlv=%llu dup=%llu\n",
              metrics.cost(), metrics.delivery_ratio(),
              static_cast<unsigned long long>(metrics.generated_total()),
              static_cast<unsigned long long>(metrics.delivered_unique_total()),
              static_cast<unsigned long long>(metrics.duplicate_rx()));
  return 0;
}
