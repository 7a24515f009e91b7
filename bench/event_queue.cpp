// Event-queue throughput benchmark: the calendar queue (the one the
// Simulator builds) against the binary-heap reference, on the two
// access patterns that dominate a trial's kernel time.
//
//   hold   — classic hold model: pop the minimum, schedule a replacement
//            a random offset ahead, queue depth constant. This is the
//            steady-state shape of a running simulation (every radio
//            tick reschedules itself; every frame schedules its own
//            completion). Swept across depths: the heap pays O(log n)
//            per op, the calendar should stay flat.
//   churn  — cancel-heavy timer traffic: a ring of live timers where
//            each op cancels one and schedules a replacement (MAC
//            backoff/ack timers do exactly this). Exercises direct-slot
//            cancellation against the heap's remove-and-sift.
//
// Output is BENCH_event_queue.json. Wall-clock ops/s are recorded for
// context, but the gated metric is the calendar/heap throughput RATIO
// per cell — ratios transfer across machines, absolute rates do not.
// With --check BASELINE the run exits nonzero if any measured ratio
// falls below 80% of its checked-in baseline value: a calendar-queue
// performance regression (e.g. resize thrash) shows up here long before
// it is visible in end-to-end campaign time.
//
//   usage: event_queue [--depths 1024,16384,65536] [--ops N]
//                      [--out BENCH_event_queue.json] [--check BASELINE]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

using namespace fourbit;

namespace {

// Mean inter-event gap of the hold workload, chosen so the scheduling
// horizon scales with depth (a fixed horizon would thin the calendar's
// buckets at small depths and overfill them at large ones).
constexpr std::int64_t kMeanGapUs = 8;

struct CellResult {
  std::string pattern;
  std::size_t depth = 0;
  double heap_ops_s = 0.0;
  double calendar_ops_s = 0.0;
  std::uint64_t calendar_resizes = 0;

  [[nodiscard]] double ratio() const {
    return heap_ops_s > 0.0 ? calendar_ops_s / heap_ops_s : 0.0;
  }
};

/// Hold model at constant `depth`: `ops` iterations of pop-then-schedule
/// after an untimed fill. Returns ops/s.
double run_hold(sim::EventQueue::Impl impl, std::size_t depth,
                std::size_t ops, std::uint64_t* resizes) {
  sim::EventQueue q{impl};
  sim::Rng rng{99};
  const auto horizon =
      static_cast<std::uint64_t>(depth) * 2 * kMeanGapUs;
  std::int64_t now = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(sim::Time::from_us(
                   now + 1 + static_cast<std::int64_t>(rng.uniform_int(
                                 static_cast<std::uint32_t>(horizon)))),
               [] {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    auto popped = q.pop();
    now = popped.time.us();
    q.schedule(sim::Time::from_us(
                   now + 1 + static_cast<std::int64_t>(rng.uniform_int(
                                 static_cast<std::uint32_t>(horizon)))),
               [] {});
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (resizes != nullptr) *resizes = q.resizes();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  return wall > 0.0 ? static_cast<double>(ops) / wall : 0.0;
}

/// Cancel churn: a ring of `depth` live timers; every op cancels the
/// oldest handle and schedules a replacement. Returns ops/s.
double run_churn(sim::EventQueue::Impl impl, std::size_t depth,
                 std::size_t ops, std::uint64_t* resizes) {
  sim::EventQueue q{impl};
  sim::Rng rng{99};
  const auto horizon =
      static_cast<std::uint64_t>(depth) * 2 * kMeanGapUs;
  const std::int64_t now = 0;
  std::vector<sim::EventId> ids(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    ids[i] = q.schedule(
        sim::Time::from_us(
            now + 1 + static_cast<std::int64_t>(rng.uniform_int(
                          static_cast<std::uint32_t>(horizon)))),
        [] {});
  }
  std::size_t slot = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    q.cancel(ids[slot]);
    ids[slot] = q.schedule(
        sim::Time::from_us(
            now + 1 + static_cast<std::int64_t>(rng.uniform_int(
                          static_cast<std::uint32_t>(horizon)))),
        [] {});
    slot = (slot + 1) % depth;
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (resizes != nullptr) *resizes = q.resizes();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  return wall > 0.0 ? static_cast<double>(ops) / wall : 0.0;
}

void write_json(const char* path, const std::vector<CellResult>& cells) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"event_queue\",\n");
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    // Pattern-specific ratio keys keep the line shape greppable by the
    // same {"depth": N, "<key>": V} scan channel_scaling --check uses.
    std::fprintf(f,
                 "    {\"depth\": %zu, \"%s_ratio\": %.3f, "
                 "\"pattern\": \"%s\", \"heap_ops_per_s\": %.0f, "
                 "\"calendar_ops_per_s\": %.0f, "
                 "\"calendar_resizes\": %llu}%s\n",
                 c.depth, c.pattern.c_str(), c.ratio(), c.pattern.c_str(),
                 c.heap_ops_s, c.calendar_ops_s,
                 static_cast<unsigned long long>(c.calendar_resizes),
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// {depth, value} pairs for lines carrying `key`, in the exact line
/// shape write_json emits (same scanner contract as channel_scaling).
std::vector<std::pair<std::size_t, double>> read_metric(const char* path,
                                                        const char* key) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read baseline %s\n", path);
    std::exit(1);
  }
  char pattern[128];
  std::snprintf(pattern, sizeof pattern, "\"%s\"", key);
  char format[128];
  std::snprintf(format, sizeof format, " {\"depth\": %%zu, \"%s\": %%lf",
                key);
  std::vector<std::pair<std::size_t, double>> out;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strstr(line, pattern) == nullptr) continue;
    std::size_t depth = 0;
    double value = 0.0;
    if (std::sscanf(line, format, &depth, &value) == 2) {
      out.emplace_back(depth, value);
    }
  }
  std::fclose(f);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> depths{1024, 16384, 65536};
  std::size_t ops = 2'000'000;
  const char* out_path = "BENCH_event_queue.json";
  const char* baseline_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--depths") {
      depths.clear();
      std::string list = next();
      for (char* tok = std::strtok(list.data(), ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        depths.push_back(static_cast<std::size_t>(std::atoll(tok)));
      }
    } else if (arg == "--ops") {
      ops = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      baseline_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: event_queue [--depths 1024,16384,65536] "
                   "[--ops N] [--out FILE] [--check BASELINE]\n");
      return 2;
    }
  }

  std::printf("=== Event queue (%zu ops per cell) ===\n\n", ops);
  std::printf("%7s %7s %14s %14s %9s %8s\n", "pattern", "depth", "heap ops/s",
              "cal ops/s", "ratio", "resizes");

  std::vector<CellResult> cells;
  for (const std::size_t depth : depths) {
    CellResult hold;
    hold.pattern = "hold";
    hold.depth = depth;
    hold.heap_ops_s =
        run_hold(sim::EventQueue::Impl::kHeap, depth, ops, nullptr);
    hold.calendar_ops_s = run_hold(sim::EventQueue::Impl::kCalendar, depth,
                                   ops, &hold.calendar_resizes);
    cells.push_back(hold);

    CellResult churn;
    churn.pattern = "churn";
    churn.depth = depth;
    churn.heap_ops_s =
        run_churn(sim::EventQueue::Impl::kHeap, depth, ops, nullptr);
    churn.calendar_ops_s = run_churn(sim::EventQueue::Impl::kCalendar, depth,
                                     ops, &churn.calendar_resizes);
    cells.push_back(churn);

    for (const CellResult* c : {&hold, &churn}) {
      std::printf("%7s %7zu %14.0f %14.0f %8.2fx %8llu\n",
                  c->pattern.c_str(), c->depth, c->heap_ops_s,
                  c->calendar_ops_s, c->ratio(),
                  static_cast<unsigned long long>(c->calendar_resizes));
    }
  }

  write_json(out_path, cells);
  std::printf("\nwrote %s\n", out_path);

  if (baseline_path != nullptr) {
    bool ok = true;
    for (const char* key : {"hold_ratio", "churn_ratio"}) {
      const auto baseline = read_metric(baseline_path, key);
      const auto measured = read_metric(out_path, key);
      for (const auto& [depth, base] : baseline) {
        for (const auto& [mdepth, got] : measured) {
          if (mdepth != depth) continue;
          const double floor = 0.8 * base;
          const bool pass = got >= floor;
          std::printf("check depth=%zu: %s %.2fx vs baseline %.2fx "
                      "(floor %.2fx) %s\n",
                      depth, key, got, base, floor,
                      pass ? "OK" : "REGRESSED");
          ok = ok && pass;
        }
      }
    }
    if (!ok) {
      std::fprintf(stderr,
                   "FAIL: calendar/heap throughput ratio regressed "
                   "against %s\n",
                   baseline_path);
      return 1;
    }
  }
  return 0;
}
