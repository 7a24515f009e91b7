#include "runner/experiment.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>

#include "runner/status.hpp"
#include "runner/worker.hpp"
#include "sim/invariant.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/export.hpp"

namespace fourbit::runner {
namespace {

std::string node_tag(Network& network, std::size_t i) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "node %u (index %zu)",
                network.node(i).id().value(), i);
  return buf;
}

/// The invariant catalog audited in debug-mode trials. Checks walk live
/// state between events, so they observe only settled post-event state.
void install_invariants(sim::InvariantAuditor& auditor, sim::Simulator& sim,
                        Network& network) {
  // The event queue must never hold work scheduled before `now` — a
  // violation means some component scheduled into the past and the
  // FIFO-tie contract several MAC interactions rely on is void.
  auditor.add("event-time-monotonic",
              [&sim]() -> std::optional<std::string> {
                const auto next = sim.next_event_time();
                if (next && *next < sim.now()) {
                  return "earliest pending event is behind now()";
                }
                return std::nullopt;
              });

  // RAM budgets are the point of the paper's table policy: an estimator
  // tracking more neighbors than its capacity has corrupted state.
  auditor.add("neighbor-table-bound",
              [&network]() -> std::optional<std::string> {
                for (std::size_t i = 0; i < network.size(); ++i) {
                  const auto& est = network.node(i).estimator();
                  const std::size_t cap = est.table_capacity();
                  const std::size_t size = est.neighbors().size();
                  if (cap != 0 && size > cap) {
                    return node_tag(network, i) + " tracks " +
                           std::to_string(size) + " neighbors, capacity " +
                           std::to_string(cap);
                  }
                }
                return std::nullopt;
              });

  // Pin discipline: only the current parent may stay pinned (a pinned
  // non-parent is a leak that silently shrinks the usable table), and a
  // crashed node's wiped estimator must hold nothing at all.
  auditor.add("pin-discipline",
              [&network]() -> std::optional<std::string> {
                for (std::size_t i = 0; i < network.size(); ++i) {
                  auto& node = network.node(i);
                  const auto pins = node.estimator().pinned();
                  if (node.crashed()) {
                    if (!pins.empty() ||
                        !node.estimator().neighbors().empty()) {
                      return node_tag(network, i) +
                             " is crashed but still holds table state";
                    }
                    continue;
                  }
                  for (const NodeId p : pins) {
                    if (p != node.routing().parent()) {
                      return node_tag(network, i) + " leaks a pin on node " +
                             std::to_string(p.value()) +
                             " which is not its parent";
                    }
                  }
                }
                return std::nullopt;
              });

  // The estimator interface promises ETX >= 1; NaNs or sub-unity values
  // would silently corrupt every routing decision downstream.
  auditor.add("etx-bounds", [&network]() -> std::optional<std::string> {
    for (std::size_t i = 0; i < network.size(); ++i) {
      const auto& est = network.node(i).estimator();
      for (const NodeId n : est.neighbors()) {
        const auto etx = est.etx(n);
        if (!etx) continue;
        if (!std::isfinite(*etx) || *etx < 1.0 || *etx > 1e6) {
          return node_tag(network, i) + " has ETX " + std::to_string(*etx) +
                 " for node " + std::to_string(n.value());
        }
      }
    }
    return std::nullopt;
  });
}

}  // namespace

ExperimentResult run_experiment(ExperimentConfig config) {
  // Declared before the Simulator so it outlives the sim during stack
  // unwinding: the telemetry context must never hold a dangling sink.
  std::unique_ptr<stats::JsonlExporter> exporter;

  sim::Simulator sim;
  if (config.budget.limited()) sim.set_budget(config.budget);
  sim.telemetry().set_level(config.trace_level);
  if (config.profile_phases) sim.telemetry().set_profiling(true);
  if (!config.trace_path.empty()) {
    exporter = std::make_unique<stats::JsonlExporter>(
        config.trace_path,
        stats::JsonlExporter::Header{config.seed, config.trace_trial});
    sim.telemetry().set_node_filter(config.trace_nodes);
    sim.telemetry().set_sink(exporter.get());
  }
  {
    // Both periodic side effects — crash-evidence flight flushes and
    // live-status registry pushes — share the simulator's single flush
    // hook slot; compose whichever subset is armed into one closure.
    std::function<void()> flush_flight;
    std::function<void()> push_status;
    sim::Simulator* sim_ptr = &sim;
    if (!config.flight_flush_path.empty() &&
        config.flight_flush_every_events != 0) {
      // Periodic crash evidence: if this process dies mid-trial, the
      // coordinator recovers the sim's last flushed moments from here.
      const std::string flush_path = config.flight_flush_path;
      const std::size_t flush_index =
          config.trace_trial >= 0 ? static_cast<std::size_t>(config.trace_trial)
                                  : 0;
      const std::uint64_t flush_seed = config.seed;
      flush_flight = [flush_path, flush_index, flush_seed, sim_ptr] {
        write_flight_snapshot(flush_path, flush_index, flush_seed,
                              sim_ptr->telemetry().flight());
      };
    }
    if (config.status != nullptr) {
      StatusBoard* board = config.status;
      const std::uint64_t status_trial = config.status_trial;
      push_status = [board, status_trial, sim_ptr] {
        board->publish_registry(status_trial, sim_ptr->telemetry());
      };
    }
    if (flush_flight || push_status) {
      const std::uint64_t every = config.flight_flush_every_events != 0
                                      ? config.flight_flush_every_events
                                      : 65536;
      sim.set_flush_hook(every, [flush_flight, push_status] {
        if (flush_flight) flush_flight();
        if (push_status) push_status();
      });
    }
  }
  stats::Metrics metrics;

  using ProfileClock = std::chrono::steady_clock;
  const auto phase_ns = [](ProfileClock::time_point since) {
    const auto elapsed = ProfileClock::now() - since;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    return ns > 0 ? static_cast<std::uint64_t>(ns) : std::uint64_t{0};
  };
  ProfileClock::time_point setup_begin{};
  if (sim.telemetry().profiling()) setup_begin = ProfileClock::now();

  Network::Options options;
  options.profile = config.profile;
  options.tx_power = config.tx_power;
  options.table_capacity = config.table_capacity;
  options.seed = config.seed;
  options.four_bit_override = config.four_bit_override;
  options.collection_override = config.collection_override;
  options.lpl_wake_interval = config.lpl_wake_interval;
  Network network{sim, config.testbed, std::move(options), &metrics};

  stats::EnergyModel energy{config.energy};
  if (config.track_energy) {
    network.channel().set_tx_observer(
        [&energy](NodeId node, sim::Duration airtime, PowerDbm power) {
          energy.on_transmit(node, airtime, power);
        });
  }

  // Faults: the plan is fixed before anything runs, so outage windows
  // are known upfront and every generated packet can be classified as
  // normal / during-outage / post-outage.
  FaultRuntime fault_runtime{sim, network, &metrics};
  sim::FaultPlan fault_plan =
      build_fault_plan(config.faults, config.testbed.topology, config.seed);
  if (!fault_plan.empty()) {
    register_outage_windows(fault_plan, metrics,
                            sim::Time{} + config.duration);
    fault_runtime.arm(std::move(fault_plan));
  }

  sim::InvariantAuditor auditor{sim};
  if (config.audit_invariants) {
    install_invariants(auditor, sim, network);
    auditor.start(config.audit_interval);
  }

  network.start(config.boot_stagger, config.traffic);

  // Depth sampling starts after boot + initial convergence window so the
  // time average is not dominated by the pre-route transient.
  const auto sampling_start =
      config.boot_stagger + sim::Duration::from_seconds(60.0);
  sim::Timer depth_sampler{sim, [&] {
                             const auto snap = network.tree_snapshot();
                             if (snap.routed > 0) {
                               metrics.record_depth_sample(snap.mean_depth);
                             }
                           }};
  sim.schedule_in(sampling_start, [&] {
    depth_sampler.start_periodic(config.depth_sample_interval);
  });

  if (sim.telemetry().profiling()) {
    sim.telemetry()
        .phase_histogram(sim::ProfilePhase::kTrialSetup)
        ->record(phase_ns(setup_begin));
  }

  sim.run_for(config.duration);
  depth_sampler.stop();
  auditor.stop();

  ProfileClock::time_point teardown_begin{};
  if (sim.telemetry().profiling()) teardown_begin = ProfileClock::now();

  if (exporter != nullptr) {
    exporter->write_counters(sim.telemetry());
    exporter->finish();
    sim.telemetry().set_sink(nullptr);
  }

  ExperimentResult result;
  result.cost = metrics.cost();
  result.delivery_ratio = metrics.delivery_ratio();
  result.mean_depth = metrics.average_depth();
  result.per_node_delivery = metrics.per_node_delivery();
  result.generated = metrics.generated_total();
  result.delivered = metrics.delivered_unique_total();
  result.data_tx = metrics.data_tx_total();
  result.beacon_tx = metrics.beacon_tx_total();
  result.radio_frames = network.channel().frames_transmitted();
  result.retx_drops = metrics.retx_drops();
  result.queue_drops = metrics.queue_drops();
  result.duplicates = metrics.duplicate_rx();
  result.parent_changes = network.total_parent_changes();
  result.final_tree = network.tree_snapshot();

  result.node_crashes = metrics.node_crashes();
  result.node_reboots = metrics.node_reboots();
  if (fault_runtime.injector() != nullptr) {
    result.link_outages = fault_runtime.injector()->outages_executed();
  }
  result.route_losses = metrics.route_losses();
  result.parent_evictions = network.total_parent_evictions();
  result.pin_refusals = metrics.pin_refusals();
  result.mean_time_to_reroute_s = metrics.mean_time_to_reroute_s();
  result.max_time_to_reroute_s = metrics.max_time_to_reroute_s();
  result.mean_time_to_first_route_s = metrics.mean_time_to_first_route_s();
  result.mean_table_refill_s = metrics.mean_table_refill_s();
  result.generated_during_outage = metrics.generated_during_outage();
  result.generated_post_outage = metrics.generated_post_outage();
  result.delivery_during_outage = metrics.delivery_during_outage();
  result.delivery_post_outage = metrics.delivery_post_outage();

  if (config.track_energy) {
    std::vector<NodeId> all_nodes;
    all_nodes.reserve(network.size());
    for (std::size_t i = 0; i < network.size(); ++i) {
      all_nodes.push_back(network.node(i).id());
    }
    const auto report = energy.report(config.duration, all_nodes);
    result.worst_node_mah = report.worst_mah;
    result.mean_tx_mah = report.mean_tx_mah;
    result.projected_lifetime_days = report.projected_lifetime_days;
  }

  result.arena_bytes = sim.arena().bytes_reserved();
  result.eq_resizes = sim.queue_resizes();

  if (sim.telemetry().profiling()) {
    sim.telemetry()
        .phase_histogram(sim::ProfilePhase::kTrialTeardown)
        ->record(phase_ns(teardown_begin));
  }
  if (config.status != nullptr) {
    // Final registry push: the settle-time truth, including gauges that
    // only move at the end (the flush hook may not have fired recently).
    config.status->publish_registry(config.status_trial, sim.telemetry());
  }
  return result;
}

}  // namespace fourbit::runner
