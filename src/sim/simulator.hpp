// The discrete-event simulator: a clock plus an event queue.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/telemetry.hpp"
#include "sim/time.hpp"

namespace fourbit::sim {

/// Cooperative execution budget for one Simulator (one trial). Zero
/// means unlimited. A campaign supervisor arms this so a wedged or
/// runaway trial cancels itself instead of stalling the whole pool.
struct SimBudget {
  /// Max events this Simulator may execute over its lifetime.
  std::uint64_t max_events = 0;
  /// Max wall-clock milliseconds since set_budget() armed the watchdog.
  std::int64_t max_wall_ms = 0;

  [[nodiscard]] constexpr bool limited() const {
    return max_events != 0 || max_wall_ms != 0;
  }
};

/// Thrown from inside the event loop when the armed SimBudget is
/// exhausted; supervisors classify it as a trial timeout.
class BudgetExceededError : public std::runtime_error {
 public:
  enum class Which { kEvents, kWallClock };

  BudgetExceededError(Which which, std::string what)
      : std::runtime_error(std::move(what)), which_(which) {}

  [[nodiscard]] Which which() const { return which_; }

 private:
  Which which_;
};

/// Owns simulated time. Components hold a Simulator& and schedule work
/// relative to `now()`; the driver calls one of the run_* methods.
class Simulator {
 public:
  Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Per-trial monotonic arena (see sim/arena.hpp). Components that
  /// live no longer than the Simulator allocate steady-state transients
  /// here; growth is tracked by the sim/arena_bytes gauge.
  [[nodiscard]] Arena& arena() { return arena_; }

  /// Calendar-queue rebuilds so far; also exported as the
  /// sim/eq_resizes counter.
  [[nodiscard]] std::uint64_t queue_resizes() const {
    return queue_.resizes();
  }

  /// Per-trial telemetry (typed events, counters, flight recorder).
  /// Components emit through this instead of any global logger.
  [[nodiscard]] TelemetryContext& telemetry() { return telemetry_; }
  [[nodiscard]] const TelemetryContext& telemetry() const {
    return telemetry_;
  }

  /// Schedules `cb` after `delay` (must be >= 0).
  EventId schedule_in(Duration delay, EventQueue::Callback cb);

  /// Schedules `cb` at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, EventQueue::Callback cb);

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the queue drains or `stop()` is called.
  void run();

  /// Runs until simulated time reaches `deadline` (events at exactly the
  /// deadline still execute) or the queue drains. Time advances to the
  /// deadline even if the queue drained earlier.
  void run_until(Time deadline);

  void run_for(Duration d) { run_until(now_ + d); }

  /// Makes the current run() / run_until() return after the in-flight
  /// event completes.
  void stop() { stopped_ = true; }

  /// Arms (or re-arms) the cooperative watchdog: once `budget` is
  /// exhausted the event loop throws BudgetExceededError between events.
  /// max_events counts the Simulator's lifetime total, so arm before the
  /// first run_* call; the wall clock starts here. Events are never cut
  /// short mid-callback — the check runs at event granularity (wall time
  /// every kWallCheckPeriod events to keep the clock read off the hot
  /// path).
  void set_budget(SimBudget budget);

  [[nodiscard]] const SimBudget& budget() const { return budget_; }

  /// Invokes `hook` every `every_events` executed events (0 or an empty
  /// hook disables). The supervisor uses this to periodically flush the
  /// flight recorder to disk so a hard-crashed worker process still
  /// leaves its sim's last moments behind (supervisor.hpp
  /// flight_flush_base). Off the hot path: one integer modulo per event.
  void set_flush_hook(std::uint64_t every_events,
                      std::function<void()> hook) {
    flush_every_ = hook ? every_events : 0;
    flush_hook_ = std::move(hook);
  }

  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Time of the earliest pending event, or nullopt if the queue is
  /// empty (exposed for invariant audits of queue monotonicity).
  [[nodiscard]] std::optional<Time> next_event_time() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.next_time();
  }

 private:
  static constexpr std::uint64_t kWallCheckPeriod = 512;

  void execute_next();
  void check_budget() const;

  Arena arena_;
  // Cache-line aligned so the fields every schedule/pop touches sit on
  // the same lines wherever the Simulator lands: left to the enclosing
  // frame's layout, a 16-byte shift cost ~4 % of `lpl` throughput on a
  // 4-vCPU Xeon VM (DESIGN.md §8.15).
  alignas(64) EventQueue queue_;
  Time now_;
  TelemetryContext telemetry_;  // after now_: the bound clock must exist
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  std::uint64_t flush_every_ = 0;
  std::function<void()> flush_hook_;
  SimBudget budget_;
  std::chrono::steady_clock::time_point budget_armed_at_{};
  // Health metrics register lazily on first use so trials that never
  // grow the arena or resize the queue keep their telemetry registry
  // (and JSONL export) unchanged.
  std::uint64_t* ctr_eq_resizes_ = nullptr;
  double* gauge_arena_bytes_ = nullptr;
};

}  // namespace fourbit::sim
