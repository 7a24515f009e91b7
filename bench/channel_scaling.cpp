// Channel scaling benchmark: packets/sec through the shared medium,
// with link rows ("fast": complete rows, use_link_cache) vs without
// ("slow": every pair from the propagation batch, the reference) at
// N = 50 / 200 / 800 radios, plus culled rows ("sparse",
// use_spatial_index) at city-scale N = 2000 / 10000 — the populations
// complete rows cannot reach.
//
// The workload is the channel's steady-state job in a collection run:
// every radio wakes on its own period, samples CCA (busy_at), and puts a
// 40-byte frame on the air if idle — enough concurrency that the
// interference cross-product runs, and every delivery exercises the
// SINR/PRR/LQI pipeline. Paths must deliver the SAME number of frames
// (bit-identical model); the benchmark fails loudly if not. Sparse
// cells use a sqrt(N) x sqrt(N) grid at 100 m pitch (city-scale
// density); at N <= 2000 each sparse cell is followed by its dense twin
// and the frame/delivery counts are compared. Peak RSS is sampled right
// after each sparse cell — before the dense twin can raise the
// process high-water mark — and --max-rss-per-node-kb turns the
// per-node figure into a hard ceiling (the O(N·degree) memory gate).
//
// Output is BENCH_channel.json. With --check BASELINE, the measured
// fast/slow speedup at each N (and the sparse/fast throughput ratio at
// each sparse N with a dense twin) is compared against the checked-in
// baseline and the run exits nonzero if any regressed below 80% of it
// — the CI perf-smoke gate. Speedup ratios, not absolute frame rates,
// are compared: ratios transfer across machines, wall-clock does not.
// A final pair of cells re-runs the largest N with telemetry at debug
// level (one flight-recorder write per frame); --check additionally
// gates that overhead at 10%.
//
//   usage: channel_scaling [--nodes 50,200,800] [--seconds S]
//                          [--sparse-nodes 2000,10000]
//                          [--sparse-seconds S] [--max-rss-per-node-kb K]
//                          [--out BENCH_channel.json] [--check BASELINE]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "phy/channel.hpp"
#include "phy/hardware.hpp"
#include "phy/interference.hpp"
#include "phy/radio.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

using namespace fourbit;

namespace {

constexpr std::size_t kFrameBytes = 40;
constexpr double kPeriodSeconds = 0.05;  // per-radio transmit period
constexpr double kDensePitchM = 30.0;    // every pair in reception range
constexpr double kSparsePitchM = 100.0;  // city-scale density
// Sparse cells model a duty-cycled deployment: at 10k nodes the dense
// cells' 50 ms period would put hundreds of frames in the air at once
// (every receiver drowns; the interference cross-product, which is
// O(active² · degree), dwarfs the channel work being measured).
constexpr double kSparsePeriodSeconds = 0.5;

enum class Mode { kSlow, kFast, kSparse };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSlow: return "slow";
    case Mode::kFast: return "fast";
    case Mode::kSparse: return "sparse";
  }
  return "?";
}

/// Process peak RSS in KB (ru_maxrss unit on Linux). A high-water mark:
/// sparse cells sample it before any dense twin runs.
double peak_rss_kb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss);
}

struct RunResult {
  std::size_t nodes = 0;
  Mode mode = Mode::kSlow;
  std::uint64_t frames = 0;
  std::uint64_t deliveries = 0;
  double wall_s = 0.0;
  double rss_kb_per_node = 0.0;  // sampled for sparse cells only

  [[nodiscard]] double frames_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(frames) / wall_s : 0.0;
  }
};

/// One benchmark cell: N radios on a `cols`-wide grid of the given
/// pitch, each on a periodic CCA-then-transmit tick, for `seconds` of
/// simulated time. `level` dials the telemetry context: kInfo (the
/// default) records no per-frame events, kDebug pays one
/// flight-recorder ring write per frame — the telemetry-overhead cells
/// compare the two.
RunResult run_cell(std::size_t n, Mode mode, double seconds,
                   sim::TraceLevel level = sim::TraceLevel::kInfo,
                   std::size_t cols = 16, double pitch_m = kDensePitchM,
                   double period_s = kPeriodSeconds) {
  sim::Simulator sim;
  sim.telemetry().set_level(level);
  phy::PhyConfig phy;
  phy.use_link_cache = mode != Mode::kSlow;
  phy.use_spatial_index = mode == Mode::kSparse;
  phy::Channel channel{sim, phy, phy::PropagationConfig{},
                       std::make_unique<phy::NullInterference>(),
                       sim::Rng{4242}};

  RunResult out;
  out.nodes = n;
  out.mode = mode;

  std::vector<std::unique_ptr<phy::Radio>> radios;
  radios.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    radios.push_back(std::make_unique<phy::Radio>(
        channel, NodeId{static_cast<std::uint16_t>(i + 1)},
        Position{static_cast<double>(i % cols) * pitch_m,
                 static_cast<double>(i / cols) * pitch_m},
        phy::HardwareProfile{}, PowerDbm{0.0}));
    radios.back()->set_rx_handler(
        [&out](std::span<const std::uint8_t>, const phy::RxInfo&) {
          ++out.deliveries;
        });
  }

  const auto end = sim::Time::from_us(
      static_cast<std::int64_t>(seconds * 1e6));
  const auto period = sim::Duration::from_seconds(period_s);

  // Self-rescheduling per-radio tick; phases spread over one period so
  // transmissions interleave instead of colliding en masse. The frame
  // buffer is reused across ticks (transmit copies it), so the tick
  // itself costs no allocation.
  std::vector<std::uint8_t> frame(kFrameBytes);
  std::function<void(std::size_t)> tick = [&](std::size_t i) {
    phy::Radio& r = *radios[i];
    if (r.channel_clear() && !r.transmitting()) {
      frame[0] = static_cast<std::uint8_t>(i);
      r.transmit(frame, nullptr);
    }
    const auto next = sim.now() + period;
    if (next < end) sim.schedule_at(next, [&tick, i] { tick(i); });
  };
  for (std::size_t i = 0; i < n; ++i) {
    const auto phase = sim::Duration::from_us(static_cast<std::int64_t>(
        period_s * 1e6 * static_cast<double>(i) /
        static_cast<double>(n)));
    sim.schedule_at(sim::Time{} + phase, [&tick, i] { tick(i); });
  }

  // Steady-state window: the first period is warm-up — the lazy link
  // cache rebuild (O(N²) RNG draws with complete rows, ~0.7 s at
  // N=2000), pool growth, and arena growth all land on the first round
  // of transmissions. A sentinel at t=period starts the clock after
  // that, so the cell measures dispatch throughput, not setup. (Sub-
  // period cells keep the whole run: nothing reached steady state.)
  auto t0 = std::chrono::steady_clock::now();
  std::uint64_t frames0 = 0;
  if (seconds > period_s) {
    sim.schedule_at(sim::Time{} + period, [&] {
      t0 = std::chrono::steady_clock::now();
      frames0 = channel.frames_transmitted();
    });
  }
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.frames = channel.frames_transmitted() - frames0;
  return out;
}

/// A sparse cell paired with its optional dense twin (run only at
/// N <= 2000, where the N x N matrices still fit).
struct SparseCell {
  RunResult sparse;
  RunResult fast;
  bool has_fast = false;

  [[nodiscard]] double ratio() const {
    return has_fast && fast.frames_per_s() > 0.0
               ? sparse.frames_per_s() / fast.frames_per_s()
               : 0.0;
  }
};

void write_json(const char* path, const std::vector<RunResult>& results,
                const std::vector<SparseCell>& sparse,
                const std::vector<RunResult>& telemetry, double seconds) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"channel_scaling\",\n");
  std::fprintf(f, "  \"frame_bytes\": %zu,\n", kFrameBytes);
  std::fprintf(f, "  \"sim_seconds\": %.1f,\n", seconds);
  std::fprintf(f, "  \"results\": [\n");
  std::vector<RunResult> all = results;
  for (const SparseCell& c : sparse) {
    all.push_back(c.sparse);
    if (c.has_fast) all.push_back(c.fast);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const RunResult& r = all[i];
    std::fprintf(f,
                 "    {\"nodes\": %zu, \"mode\": \"%s\", \"frames\": %llu, "
                 "\"deliveries\": %llu, \"wall_s\": %.4f, "
                 "\"frames_per_s\": %.1f, \"rss_kb_per_node\": %.1f}%s\n",
                 r.nodes, mode_name(r.mode),
                 static_cast<unsigned long long>(r.frames),
                 static_cast<unsigned long long>(r.deliveries), r.wall_s,
                 r.frames_per_s(), r.rss_kb_per_node,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedups\": [\n");
  // results arrive as (slow, fast) pairs per N.
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const double slow = results[i].frames_per_s();
    const double speedup =
        slow > 0.0 ? results[i + 1].frames_per_s() / slow : 0.0;
    std::fprintf(f, "    {\"nodes\": %zu, \"speedup\": %.3f}%s\n",
                 results[i].nodes, speedup,
                 i + 3 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"sparse\": [\n");
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    const SparseCell& c = sparse[i];
    if (c.has_fast) {
      std::fprintf(f,
                   "    {\"nodes\": %zu, \"sparse_fast_ratio\": %.3f, "
                   "\"rss_kb_per_node\": %.1f}%s\n",
                   c.sparse.nodes, c.ratio(), c.sparse.rss_kb_per_node,
                   i + 1 < sparse.size() ? "," : "");
    } else {
      std::fprintf(f,
                   "    {\"nodes\": %zu, \"rss_kb_per_node\": %.1f}%s\n",
                   c.sparse.nodes, c.sparse.rss_kb_per_node,
                   i + 1 < sparse.size() ? "," : "");
    }
  }
  if (!telemetry.empty()) {
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"telemetry\": [\n");
    // (untraced, traced-at-kDebug) pairs per N; ratio = traced/untraced
    // throughput (1.0 = free, 0.9 = 10% overhead).
    for (std::size_t i = 0; i + 1 < telemetry.size(); i += 2) {
      const double plain = telemetry[i].frames_per_s();
      const double ratio =
          plain > 0.0 ? telemetry[i + 1].frames_per_s() / plain : 0.0;
      std::fprintf(f, "    {\"nodes\": %zu, \"traced_ratio\": %.3f}%s\n",
                   telemetry[i].nodes, ratio,
                   i + 3 < telemetry.size() ? "," : "");
    }
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Pulls {nodes, value} pairs for lines carrying `key` out of a file
/// written by write_json (or a hand-maintained baseline in the same
/// line format). Not a JSON parser: it scans for the exact line shape
/// this tool emits.
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
  std::snprintf(format, sizeof format, " {\"nodes\": %%zu, \"%s\": %%lf",
                key);
  std::vector<std::pair<std::size_t, double>> out;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strstr(line, pattern) == nullptr) continue;
    std::size_t nodes = 0;
    double value = 0.0;
    if (std::sscanf(line, format, &nodes, &value) == 2) {
      out.emplace_back(nodes, value);
    }
  }
  std::fclose(f);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> node_counts{50, 200, 800};
  std::vector<std::size_t> sparse_counts{2000, 10000};
  double seconds = 10.0;
  double sparse_seconds = 2.0;
  double max_rss_kb_per_node = 0.0;  // 0 = report only, no gate
  const char* out_path = "BENCH_channel.json";
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
    auto parse_list = [&](std::vector<std::size_t>& counts) {
      counts.clear();
      std::string list = next();
      for (char* tok = std::strtok(list.data(), ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        counts.push_back(static_cast<std::size_t>(std::atoll(tok)));
      }
    };
    if (arg == "--nodes") {
      parse_list(node_counts);
    } else if (arg == "--sparse-nodes") {
      parse_list(sparse_counts);
    } else if (arg == "--seconds") {
      seconds = std::atof(next());
    } else if (arg == "--sparse-seconds") {
      sparse_seconds = std::atof(next());
    } else if (arg == "--max-rss-per-node-kb") {
      max_rss_kb_per_node = std::atof(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      baseline_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: channel_scaling [--nodes 50,200,800] "
                   "[--seconds S] [--sparse-nodes 2000,10000] "
                   "[--sparse-seconds S] [--max-rss-per-node-kb K] "
                   "[--out FILE] [--check BASELINE]\n");
      return 2;
    }
  }

  std::printf("=== Channel scaling (%.0f sim-s, %zu-byte frames) ===\n\n",
              seconds, kFrameBytes);
  std::printf("%6s %6s %10s %12s %10s %12s\n", "nodes", "mode", "frames",
              "deliveries", "wall s", "frames/s");

  std::vector<RunResult> results;
  bool deliveries_match = true;
  for (const std::size_t n : node_counts) {
    const RunResult slow = run_cell(n, Mode::kSlow, seconds);
    const RunResult fast = run_cell(n, Mode::kFast, seconds);
    for (const RunResult& r : {slow, fast}) {
      std::printf("%6zu %6s %10llu %12llu %10.3f %12.1f\n", r.nodes,
                  mode_name(r.mode),
                  static_cast<unsigned long long>(r.frames),
                  static_cast<unsigned long long>(r.deliveries), r.wall_s,
                  r.frames_per_s());
    }
    const double speedup = slow.frames_per_s() > 0.0
                               ? fast.frames_per_s() / slow.frames_per_s()
                               : 0.0;
    std::printf("%6s %6s %46.2fx\n", "", "", speedup);
    if (fast.deliveries != slow.deliveries ||
        fast.frames != slow.frames) {
      deliveries_match = false;
    }
    results.push_back(slow);
    results.push_back(fast);
  }

  // Sparse spatial cells: sqrt(N) x sqrt(N) grid at city-scale pitch.
  // The sparse run goes first and its peak RSS is sampled immediately —
  // ru_maxrss is a process high-water mark, so the dense twin (whose
  // N x N matrices dwarf the sparse rows) must not run before the
  // sample. At N <= 2000 the twin then checks frame/delivery equality
  // and yields the sparse/fast throughput ratio for the baseline gate.
  // Since timing went steady-state (warm-up window), this ratio tells
  // the truth: sparse trades ~9x per-frame throughput (every far-pair
  // interference term recomputes its propagation draws) for O(N·degree)
  // memory — the old ~1.1x figure was the dense twin's one-time O(N²)
  // freeze billed to its wall clock, not a steady-state win.
  std::vector<SparseCell> sparse_cells;
  bool rss_ok = true;
  for (const std::size_t n : sparse_counts) {
    const auto side = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    SparseCell cell;
    cell.sparse = run_cell(n, Mode::kSparse, sparse_seconds,
                           sim::TraceLevel::kInfo, side, kSparsePitchM,
                           kSparsePeriodSeconds);
    cell.sparse.rss_kb_per_node = peak_rss_kb() / static_cast<double>(n);
    std::printf("%6zu %6s %10llu %12llu %10.3f %12.1f  (peak rss "
                "%.1f KB/node)\n",
                n, mode_name(Mode::kSparse),
                static_cast<unsigned long long>(cell.sparse.frames),
                static_cast<unsigned long long>(cell.sparse.deliveries),
                cell.sparse.wall_s, cell.sparse.frames_per_s(),
                cell.sparse.rss_kb_per_node);
    if (max_rss_kb_per_node > 0.0 &&
        cell.sparse.rss_kb_per_node > max_rss_kb_per_node) {
      std::fprintf(stderr,
                   "FAIL: sparse N=%zu peak RSS %.1f KB/node exceeds the "
                   "%.1f KB/node ceiling\n",
                   n, cell.sparse.rss_kb_per_node, max_rss_kb_per_node);
      rss_ok = false;
    }
    if (n <= 2000) {
      cell.fast = run_cell(n, Mode::kFast, sparse_seconds,
                           sim::TraceLevel::kInfo, side, kSparsePitchM,
                           kSparsePeriodSeconds);
      cell.has_fast = true;
      std::printf("%6zu %6s %10llu %12llu %10.3f %12.1f\n", n,
                  mode_name(Mode::kFast),
                  static_cast<unsigned long long>(cell.fast.frames),
                  static_cast<unsigned long long>(cell.fast.deliveries),
                  cell.fast.wall_s, cell.fast.frames_per_s());
      std::printf("%6s %6s %45.2fx  (sparse/fast)\n", "", "",
                  cell.ratio());
      if (cell.fast.deliveries != cell.sparse.deliveries ||
          cell.fast.frames != cell.sparse.frames) {
        deliveries_match = false;
      }
    }
    sparse_cells.push_back(std::move(cell));
  }

  // Telemetry overhead at the largest N: the fast path once more with
  // the context at kDebug, where every frame pays a flight-recorder ring
  // write (kPhyFrame) on top of the usual counter increment. The ratio
  // of traced to untraced throughput is the enabled-path overhead; the
  // disabled path is a single branch (see BM_TelemetryDisabled).
  std::vector<RunResult> telemetry;
  bool telemetry_match = true;
  if (!node_counts.empty()) {
    const std::size_t n = node_counts.back();
    const RunResult plain = run_cell(n, Mode::kFast, seconds);
    const RunResult traced =
        run_cell(n, Mode::kFast, seconds, sim::TraceLevel::kDebug);
    const double ratio = plain.frames_per_s() > 0.0
                             ? traced.frames_per_s() / plain.frames_per_s()
                             : 0.0;
    std::printf("\ntelemetry overhead (fast path, N=%zu, ring write per "
                "frame at debug level):\n"
                "  untraced %.1f frames/s, traced %.1f frames/s "
                "(%.1f%% overhead)\n",
                n, plain.frames_per_s(), traced.frames_per_s(),
                (1.0 - ratio) * 100.0);
    telemetry_match = traced.frames == plain.frames &&
                      traced.deliveries == plain.deliveries;
    telemetry.push_back(plain);
    telemetry.push_back(traced);
  }

  write_json(out_path, results, sparse_cells, telemetry, seconds);
  std::printf("\nwrote %s\n", out_path);

  if (!rss_ok) return 1;

  if (!telemetry_match) {
    std::fprintf(stderr,
                 "FAIL: tracing changed frame/delivery counts — telemetry "
                 "must be observation-only\n");
    return 1;
  }

  if (!deliveries_match) {
    std::fprintf(stderr,
                 "FAIL: fast and slow paths disagree on frame/delivery "
                 "counts — the determinism contract is broken\n");
    return 1;
  }

  if (baseline_path != nullptr) {
    bool ok = true;
    // Each ratio kind gates independently, and only at the N values the
    // current invocation actually ran (CI's sparse-only pass measures no
    // fast/slow speedups, so those baseline entries are skipped there).
    for (const char* key : {"speedup", "sparse_fast_ratio"}) {
      const auto baseline = read_metric(baseline_path, key);
      const auto measured = read_metric(out_path, key);
      for (const auto& [nodes, base] : baseline) {
        for (const auto& [mnodes, got] : measured) {
          if (mnodes != nodes) continue;
          const double floor = 0.8 * base;
          const bool pass = got >= floor;
          std::printf("check N=%zu: %s %.2fx vs baseline %.2fx "
                      "(floor %.2fx) %s\n",
                      nodes, key, got, base, floor,
                      pass ? "OK" : "REGRESSED");
          ok = ok && pass;
        }
      }
    }
    // Absolute telemetry gate: a debug-level trace of the phy hot path
    // must cost no more than ~10% throughput (the design budget for the
    // enabled path; the disabled path is a branch and unmeasurable
    // here).
    for (std::size_t i = 0; i + 1 < telemetry.size(); i += 2) {
      const double plain = telemetry[i].frames_per_s();
      const double ratio =
          plain > 0.0 ? telemetry[i + 1].frames_per_s() / plain : 0.0;
      const bool pass = ratio >= 0.90;
      std::printf("check N=%zu: traced/untraced ratio %.3f "
                  "(floor 0.900) %s\n",
                  telemetry[i].nodes, ratio, pass ? "OK" : "REGRESSED");
      ok = ok && pass;
    }
    if (!ok) {
      std::fprintf(stderr, "FAIL: fast-path speedup or telemetry "
                           "overhead regressed against %s\n",
                   baseline_path);
      return 1;
    }
  }
  return 0;
}
