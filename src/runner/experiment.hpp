// One-call experiment driver: testbed + profile + power -> metrics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "app/traffic.hpp"
#include "runner/faults.hpp"
#include "runner/network.hpp"
#include "runner/profile.hpp"
#include "sim/simulator.hpp"
#include "stats/energy.hpp"
#include "stats/metrics.hpp"
#include "topology/topology.hpp"

namespace fourbit::runner {

struct ExperimentConfig {
  topology::Testbed testbed;
  Profile profile = Profile::kFourBit;
  PowerDbm tx_power{0.0};
  sim::Duration duration = sim::Duration::from_minutes(25.0);
  app::TrafficConfig traffic;
  std::uint64_t seed = 1;
  std::size_t table_capacity = 10;
  sim::Duration boot_stagger = sim::Duration::from_seconds(30.0);
  sim::Duration depth_sample_interval = sim::Duration::from_seconds(30.0);
  std::optional<core::FourBitConfig> four_bit_override;
  std::optional<net::CollectionConfig> collection_override;

  /// Duty-cycle the radios with low-power listening (0 = always on).
  sim::Duration lpl_wake_interval = sim::Duration::from_us(0);

  /// Fault schedule (crashes, link outages). The concrete plan is
  /// derived deterministically from this spec and the trial seed.
  FaultSpec faults;

  /// Charge every transmission to the energy model and report lifetime
  /// projections in the result.
  bool track_energy = false;
  stats::EnergyConfig energy;

  /// Cooperative watchdog for this trial: the simulator throws
  /// sim::BudgetExceededError once the event-count or wall-clock limit
  /// is exhausted (zero = unlimited). Campaign supervision classifies
  /// that as a timeout instead of letting a wedged trial stall the pool.
  sim::SimBudget budget;

  /// Debug-mode runtime auditing: periodically verify live-state
  /// invariants (neighbor-table bounds, pin discipline, ETX ranges,
  /// event-queue monotonicity) via sim::InvariantAuditor. A violation
  /// throws sim::InvariantViolationError out of the trial.
  bool audit_invariants = false;
  sim::Duration audit_interval = sim::Duration::from_seconds(15.0);

  /// Telemetry. The level always applies (it gates the ring-buffer
  /// flight recorder as well as export); trace_path, when non-empty,
  /// additionally streams every passing event to that file as JSONL
  /// (stats::JsonlExporter). trace_nodes restricts the exported stream
  /// to events touching those node ids (empty = all); the flight
  /// recorder is never filtered.
  sim::TraceLevel trace_level = sim::TraceLevel::kInfo;
  std::string trace_path;
  std::vector<std::uint16_t> trace_nodes;
  /// Campaign trial index recorded in the trace header (-1 = standalone).
  std::int64_t trace_trial = -1;

  /// When non-empty, the trial periodically snapshots its flight
  /// recorder to this file (atomic write-temp-then-rename; worker.hpp
  /// snapshot format) every flight_flush_every_events executed events,
  /// so a hard-crashed worker process leaves evidence behind. The
  /// supervisor removes the file once the trial settles in-process.
  std::string flight_flush_path;
  std::uint64_t flight_flush_every_events = 65536;

  /// Live-observability hooks (runtime-only; never serialized). A
  /// non-null `status` board receives this trial's telemetry registry
  /// periodically (the flush-hook cadence) and once at the end, keyed by
  /// status_trial — so live dashboards see mid-trial engine health
  /// (sim/arena_bytes, sim/eq_resizes, phy counters) without waiting for
  /// the trial-end JSONL footer. `profile_phases` arms the wall-clock
  /// phase timers (sim::PhaseTimer); samples are nondeterministic by
  /// nature, so identity-checked runs keep it off. Neither knob affects
  /// trial results, stdout, reports, or journal bytes.
  class StatusBoard* status = nullptr;
  /// The board key: run_supervised stamps the campaign trial index, so
  /// concurrent trials keep separate delta baselines on one board.
  std::uint64_t status_trial = 0;
  bool profile_phases = false;
};

struct ExperimentResult {
  // Headline metrics (the paper's cost / delivery / depth).
  double cost = 0.0;
  double delivery_ratio = 0.0;
  double mean_depth = 0.0;

  // Distributions and raw counters.
  std::vector<double> per_node_delivery;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t data_tx = 0;
  std::uint64_t beacon_tx = 0;
  std::uint64_t radio_frames = 0;  // frames on the air (incl. LPL copies)
  std::uint64_t retx_drops = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t parent_changes = 0;

  TreeSnapshot final_tree;

  // Fault / recovery metrics (meaningful when config.faults.enabled()).
  std::uint64_t node_crashes = 0;
  std::uint64_t node_reboots = 0;
  std::uint64_t link_outages = 0;
  std::uint64_t route_losses = 0;
  std::uint64_t parent_evictions = 0;
  std::uint64_t pin_refusals = 0;
  double mean_time_to_reroute_s = 0.0;
  double max_time_to_reroute_s = 0.0;
  double mean_time_to_first_route_s = 0.0;
  double mean_table_refill_s = 0.0;
  std::uint64_t generated_during_outage = 0;
  std::uint64_t generated_post_outage = 0;
  double delivery_during_outage = 0.0;
  double delivery_post_outage = 0.0;

  // Energy (populated when config.track_energy is set).
  double worst_node_mah = 0.0;
  double mean_tx_mah = 0.0;
  double projected_lifetime_days = 0.0;

  // Engine health (deterministic for a given config + seed + queue
  // implementation; excluded from cross-queue-mode identity checks).
  std::uint64_t arena_bytes = 0;   // arena high-water mark, bytes
  std::uint64_t eq_resizes = 0;    // calendar-queue rebuilds (0 for heap)
};

[[nodiscard]] ExperimentResult run_experiment(ExperimentConfig config);

}  // namespace fourbit::runner
