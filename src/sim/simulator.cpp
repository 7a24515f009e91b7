#include "sim/simulator.hpp"

#include <utility>

#include "common/assert.hpp"

namespace fourbit::sim {

Simulator::Simulator() {
  telemetry_.bind_clock(&now_);
  queue_.set_resize_observer([this] {
    if (ctr_eq_resizes_ == nullptr) {
      ctr_eq_resizes_ = telemetry_.counter("sim", "eq_resizes");
    }
    ++*ctr_eq_resizes_;
  });
  arena_.set_growth_observer([this](std::size_t bytes) {
    if (gauge_arena_bytes_ == nullptr) {
      gauge_arena_bytes_ = telemetry_.gauge("sim", "arena_bytes");
    }
    *gauge_arena_bytes_ = static_cast<double>(bytes);
  });
}

EventId Simulator::schedule_in(Duration delay, EventQueue::Callback cb) {
  FOURBIT_ASSERT(delay.us() >= 0, "cannot schedule into the past");
  return queue_.schedule(now_ + delay, std::move(cb));
}

EventId Simulator::schedule_at(Time at, EventQueue::Callback cb) {
  FOURBIT_ASSERT(at >= now_, "cannot schedule into the past");
  return queue_.schedule(at, std::move(cb));
}

void Simulator::set_budget(SimBudget budget) {
  budget_ = budget;
  budget_armed_at_ = std::chrono::steady_clock::now();
}

void Simulator::check_budget() const {
  if (budget_.max_events != 0 && events_executed_ >= budget_.max_events) {
    throw BudgetExceededError{
        BudgetExceededError::Which::kEvents,
        "trial exceeded its event budget (" +
            std::to_string(budget_.max_events) + " events)"};
  }
  if (budget_.max_wall_ms != 0 &&
      events_executed_ % kWallCheckPeriod == 0) {
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - budget_armed_at_)
            .count();
    if (elapsed_ms >= budget_.max_wall_ms) {
      throw BudgetExceededError{
          BudgetExceededError::Which::kWallClock,
          "trial exceeded its wall-clock budget (" +
              std::to_string(budget_.max_wall_ms) + " ms)"};
    }
  }
}

void Simulator::execute_next() {
  if (budget_.limited()) check_budget();
  auto popped = queue_.pop();
  FOURBIT_ASSERT(popped.time >= now_, "event queue went backwards in time");
  now_ = popped.time;
  {
    PhaseTimer timer{telemetry_, ProfilePhase::kEventDispatch};
    popped.callback();
  }
  ++events_executed_;
  if (flush_every_ != 0 && events_executed_ % flush_every_ == 0) {
    flush_hook_();
  }
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    execute_next();
  }
}

void Simulator::run_until(Time deadline) {
  FOURBIT_ASSERT(deadline >= now_, "deadline is in the past");
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= deadline) {
    execute_next();
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace fourbit::sim
