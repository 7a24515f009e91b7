// Tests of live campaign observability (runner/status.hpp): log2
// histograms and phase timers, the fourbit.status/1 snapshot codec and
// its junk rejection, stamp/merge/publish helpers, the StatusBoard
// delta accumulator, the --status-* CLI surface, and end-to-end status
// streaming from supervised and multi-process campaigns — including the
// off-band guarantee that journal and trace bytes are identical with
// status on or off.
//
// This binary self-execs as its own workers for the multi-process
// tests: main() checks for the hidden --worker-fd flag and, when
// present, rebuilds the trial list from --st-* flags and enters
// run_worker with a scenario-driven run_trial override.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/byte_io.hpp"
#include "runner/campaign.hpp"
#include "runner/status.hpp"
#include "runner/supervisor.hpp"
#include "runner/transport.hpp"
#include "runner/worker.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"
#include "sim/time.hpp"
#include "topology/topology.hpp"

namespace fourbit::runner {
namespace {

// ---- shared scenario machinery (used by tests AND worker mode) --------

/// Deterministic fake result, a pure function of the seed.
ExperimentResult synthetic_result(std::uint64_t seed) {
  ExperimentResult r;
  r.cost = 1.0 + static_cast<double>(seed) * 0.25;
  r.delivery_ratio = 1.0 / (1.0 + static_cast<double>(seed % 7));
  r.mean_depth = static_cast<double>(seed % 5);
  r.per_node_delivery = {0.5, static_cast<double>(seed) * 0.01};
  r.generated = seed * 3;
  r.delivered = seed * 2;
  r.data_tx = seed + 11;
  r.parent_changes = seed % 3;
  r.final_tree.depths = {1, 2, static_cast<int>(seed % 4)};
  r.final_tree.mean_depth = 1.5;
  return r;
}

std::vector<ExperimentConfig> scenario_trials(std::size_t n,
                                              std::uint64_t base) {
  std::vector<ExperimentConfig> trials(n);
  for (std::size_t i = 0; i < n; ++i) trials[i].seed = base + i;
  return trials;
}

/// A small REAL simulation derived purely from the seed: exercises the
/// full engine so the registry carries real sim/ rows into the board.
ExperimentConfig real_trial(std::uint64_t seed) {
  sim::Rng rng{seed};
  ExperimentConfig cfg;
  cfg.testbed = topology::mirage(rng);
  cfg.testbed.topology.nodes.resize(12);
  cfg.duration = sim::Duration::from_minutes(1.0);
  cfg.seed = seed;
  return cfg;
}

struct Scenario {
  std::string kind = "clean";
  std::size_t index = 0;
};

Scenario parse_scenario(const std::string& text) {
  Scenario s;
  const auto at = text.find('@');
  if (at == std::string::npos) {
    s.kind = text;
  } else {
    s.kind = text.substr(0, at);
    s.index = static_cast<std::size_t>(
        std::strtoul(text.c_str() + at + 1, nullptr, 10));
  }
  return s;
}

/// Worker-side trial executor: paces trials so the 20 ms status cadence
/// in these tests catches the campaign mid-flight, and misbehaves per
/// the scenario ("segv@N" kills the worker on trial N).
std::function<ExperimentResult(const ExperimentConfig&)> scenario_run_trial(
    Scenario scenario) {
  return [scenario](const ExperimentConfig& config) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::size_t index =
        config.trace_trial >= 0
            ? static_cast<std::size_t>(config.trace_trial)
            : static_cast<std::size_t>(-1);
    if (scenario.kind == "segv" && index == scenario.index) {
      ::raise(SIGSEGV);
    }
    return synthetic_result(config.seed);
  };
}

}  // namespace

/// Worker-mode entry (called from main when --worker-fd is present).
[[noreturn]] void st_worker_main(int argc, char** argv, CampaignCli cli) {
  const Scenario scenario = parse_scenario(
      consume_flag(argc, argv, "--st-scenario").value_or("clean"));
  const std::size_t n = static_cast<std::size_t>(
      consume_uint_flag(argc, argv, "--st-trials").value_or(0));
  const std::uint64_t base =
      consume_uint_flag(argc, argv, "--st-seed").value_or(1);
  auto options = cli.supervisor_options();
  options.run_trial = scenario_run_trial(scenario);
  run_worker(scenario_trials(n, base), cli, std::move(options));
}

namespace {

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.per_node_delivery, b.per_node_delivery);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_tx, b.data_tx);
}

std::string temp_path(const char* name) {
  return (std::filesystem::path{::testing::TempDir()} /
          (std::string{"fourbit_status_"} + name + "_" +
           std::to_string(::getpid())))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Not a JSON parser: a quote/escape-aware brace and bracket balance
/// check, which is exactly what catches torn writes, unescaped strings,
/// and half-rendered objects.
bool well_formed_json(const std::string& text) {
  if (text.empty() || text.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

const StatusCounter* find_counter(const StatusSnapshot& snap,
                                  const std::string& component,
                                  const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.component == component && c.name == name) return &c;
  }
  return nullptr;
}

const StatusGauge* find_gauge(const StatusSnapshot& snap,
                              const std::string& component,
                              const std::string& name) {
  for (const auto& g : snap.gauges) {
    if (g.component == component && g.name == name) return &g;
  }
  return nullptr;
}

const sim::Histogram* find_hist(const StatusSnapshot& snap,
                                const std::string& component,
                                const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.component == component && h.name == name) return &h.hist;
  }
  return nullptr;
}

// ---- log2 histograms --------------------------------------------------

TEST(HistogramTest, BucketEdgesAndFloors) {
  EXPECT_EQ(sim::histogram_bucket(0), 0u);
  EXPECT_EQ(sim::histogram_bucket(1), 1u);
  EXPECT_EQ(sim::histogram_bucket(2), 2u);
  EXPECT_EQ(sim::histogram_bucket(3), 2u);
  EXPECT_EQ(sim::histogram_bucket(4), 3u);
  EXPECT_EQ(sim::histogram_bucket((std::uint64_t{1} << 62)), 63u);
  EXPECT_EQ(sim::histogram_bucket(~std::uint64_t{0}), 63u);
  EXPECT_EQ(sim::histogram_bucket_floor(0), 0u);
  EXPECT_EQ(sim::histogram_bucket_floor(1), 1u);
  EXPECT_EQ(sim::histogram_bucket_floor(5), 16u);
  // Every value lands in the bucket whose floor it is at or above.
  for (const std::uint64_t v : {0ull, 1ull, 7ull, 1000ull, 123456789ull}) {
    EXPECT_GE(v, sim::histogram_bucket_floor(sim::histogram_bucket(v)));
  }
}

TEST(HistogramTest, RecordMergeMeanQuantile) {
  sim::Histogram a;
  a.record(0);
  a.record(5);
  a.record(1000);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 1005u);
  EXPECT_EQ(a.bins[0], 1u);
  EXPECT_EQ(a.bins[sim::histogram_bucket(5)], 1u);
  EXPECT_EQ(a.bins[sim::histogram_bucket(1000)], 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 335.0);

  sim::Histogram b;
  b.record(5);
  b.merge(a);
  EXPECT_EQ(b.count, 4u);
  EXPECT_EQ(b.sum, 1010u);
  EXPECT_EQ(b.bins[sim::histogram_bucket(5)], 2u);

  // Quantiles are monotone in q and bounded by the data's bucket range.
  EXPECT_LE(a.quantile(0.10), a.quantile(0.50));
  EXPECT_LE(a.quantile(0.50), a.quantile(0.99));
  EXPECT_LE(a.quantile(0.99), 1024.0);  // upper edge of 1000's bucket
}

TEST(HistogramTest, EmptyQuantileAndMeanAreZero) {
  const sim::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

// ---- phase timers ------------------------------------------------------

TEST(PhaseTimerTest, DisabledRegistersNothing) {
  sim::TelemetryContext context;
  ASSERT_FALSE(context.profiling());
  {
    sim::PhaseTimer timer{context, sim::ProfilePhase::kEventDispatch};
  }
  // The off-band guarantee rests on this: no profiling, no registry
  // rows, so exported traces are byte-identical to a build without
  // timers in the code path.
  EXPECT_TRUE(context.histograms().empty());
}

TEST(PhaseTimerTest, EnabledRecordsIntoProfileHistogram) {
  sim::TelemetryContext context;
  context.set_profiling(true);
  {
    sim::PhaseTimer timer{context, sim::ProfilePhase::kBatchKernel};
  }
  {
    sim::PhaseTimer timer{context, sim::ProfilePhase::kBatchKernel};
  }
  ASSERT_EQ(context.histograms().size(), 1u);
  const auto& row = context.histograms().front();
  EXPECT_EQ(row.component, "profile");
  EXPECT_EQ(row.hist.count, 2u);
}

// ---- snapshot codec ----------------------------------------------------

StatusSnapshot sample_snapshot() {
  StatusSnapshot snap;
  snap.seq = 7;
  snap.total = 100;
  snap.done = 42;
  snap.failed = 3;
  snap.retried = 5;
  snap.in_flight = 9;
  snap.replayed = 11;
  snap.hard_crashes = 2;
  snap.worker_respawns = 4;
  snap.host_losses = 1;
  snap.lease_reassignments = 6;
  snap.elapsed_s = 12.5;
  snap.trials_per_s = 3.25;
  snap.eta_s = -1.0;
  StatusSource w;
  w.name = "w0";
  w.kind = StatusSource::Kind::kWorker;
  w.alive = true;
  w.done = 21;
  w.failed = 1;
  w.in_flight = 3;
  w.losses = 2;
  w.lease = "0-4,9";
  snap.sources.push_back(w);
  StatusSource h;
  h.name = "127.0.0.1:9001";
  h.kind = StatusSource::Kind::kHost;
  h.alive = false;
  h.retired = true;
  h.fruitless = 3;
  snap.sources.push_back(h);
  snap.counters.push_back(StatusCounter{"sim", "eq_resizes", 17});
  snap.gauges.push_back(StatusGauge{"sim", "arena_bytes", 1.5e6});
  StatusHistogram hist;
  hist.component = "runner";
  hist.name = "trial_wall_ms";
  hist.hist.record(0);
  hist.hist.record(5);
  hist.hist.record(1000);
  snap.histograms.push_back(hist);
  return snap;
}

TEST(StatusCodecTest, RoundTripsEveryField) {
  const StatusSnapshot snap = sample_snapshot();
  const auto payload = encode_status_snapshot(snap);
  const auto out = decode_status_snapshot(payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->seq, snap.seq);
  EXPECT_EQ(out->total, snap.total);
  EXPECT_EQ(out->done, snap.done);
  EXPECT_EQ(out->failed, snap.failed);
  EXPECT_EQ(out->retried, snap.retried);
  EXPECT_EQ(out->in_flight, snap.in_flight);
  EXPECT_EQ(out->replayed, snap.replayed);
  EXPECT_EQ(out->hard_crashes, snap.hard_crashes);
  EXPECT_EQ(out->worker_respawns, snap.worker_respawns);
  EXPECT_EQ(out->host_losses, snap.host_losses);
  EXPECT_EQ(out->lease_reassignments, snap.lease_reassignments);
  EXPECT_EQ(out->elapsed_s, snap.elapsed_s);
  EXPECT_EQ(out->trials_per_s, snap.trials_per_s);
  EXPECT_EQ(out->eta_s, snap.eta_s);
  ASSERT_EQ(out->sources.size(), 2u);
  EXPECT_EQ(out->sources[0].name, "w0");
  EXPECT_EQ(out->sources[0].kind, StatusSource::Kind::kWorker);
  EXPECT_TRUE(out->sources[0].alive);
  EXPECT_FALSE(out->sources[0].retired);
  EXPECT_EQ(out->sources[0].done, 21u);
  EXPECT_EQ(out->sources[0].failed, 1u);
  EXPECT_EQ(out->sources[0].in_flight, 3u);
  EXPECT_EQ(out->sources[0].losses, 2u);
  EXPECT_EQ(out->sources[0].lease, "0-4,9");
  EXPECT_EQ(out->sources[1].name, "127.0.0.1:9001");
  EXPECT_EQ(out->sources[1].kind, StatusSource::Kind::kHost);
  EXPECT_FALSE(out->sources[1].alive);
  EXPECT_TRUE(out->sources[1].retired);
  EXPECT_EQ(out->sources[1].fruitless, 3u);
  ASSERT_EQ(out->counters.size(), 1u);
  EXPECT_EQ(out->counters[0].component, "sim");
  EXPECT_EQ(out->counters[0].name, "eq_resizes");
  EXPECT_EQ(out->counters[0].value, 17u);
  ASSERT_EQ(out->gauges.size(), 1u);
  EXPECT_EQ(out->gauges[0].value, 1.5e6);
  ASSERT_EQ(out->histograms.size(), 1u);
  EXPECT_EQ(out->histograms[0].hist.count, 3u);
  EXPECT_EQ(out->histograms[0].hist.sum, 1005u);
  EXPECT_EQ(out->histograms[0].hist.bins, snap.histograms[0].hist.bins);
}

TEST(StatusCodecTest, RejectsBadVersion) {
  auto payload = encode_status_snapshot(sample_snapshot());
  payload[0] = 2;
  EXPECT_FALSE(decode_status_snapshot(payload).has_value());
}

TEST(StatusCodecTest, RejectsEveryTruncation) {
  const auto payload = encode_status_snapshot(sample_snapshot());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(decode_status_snapshot(
                     std::span<const std::uint8_t>{payload.data(), cut})
                     .has_value())
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(StatusCodecTest, RejectsTrailingBytes) {
  auto payload = encode_status_snapshot(sample_snapshot());
  payload.push_back(0);
  EXPECT_FALSE(decode_status_snapshot(payload).has_value());
}

TEST(StatusCodecTest, RejectsOversizedTables) {
  // An EMPTY snapshot ends in four u32 table counts; the first of them
  // (sources) sits 16 bytes from the end. Claiming 2^32-1 sources must
  // be rejected up front, not chased into a multi-gigabyte loop.
  auto payload = encode_status_snapshot(StatusSnapshot{});
  ASSERT_GE(payload.size(), 16u);
  const std::size_t at = payload.size() - 16;
  payload[at] = payload[at + 1] = payload[at + 2] = payload[at + 3] = 0xFF;
  EXPECT_FALSE(decode_status_snapshot(payload).has_value());
}

TEST(StatusCodecTest, RejectsOutOfRangeHistogramBin) {
  std::vector<std::uint8_t> payload;
  ByteWriter w{payload};
  w.u8(1);                                  // version
  for (int i = 0; i < 11; ++i) w.u64(0);    // lifecycle counts
  for (int i = 0; i < 3; ++i) w.f64(0.0);   // timing
  w.u32(0);                                 // sources
  w.u32(0);                                 // counters
  w.u32(0);                                 // gauges
  w.u32(1);                                 // one histogram...
  w.u16(0);                                 // empty component
  w.u16(0);                                 // empty name
  w.u64(1);                                 // count
  w.u64(1);                                 // sum
  w.u8(1);                                  // one occupied bin...
  w.u8(200);                                // ...at an impossible index
  w.u64(1);
  EXPECT_FALSE(decode_status_snapshot(payload).has_value());
}

TEST(StatusCodecTest, TruncatesOverlongStringsAtEncode) {
  // A pathological lease span (10k+ singleton trials) must not make the
  // snapshot undecodable: encode caps the string, decode still works.
  StatusSnapshot snap;
  StatusSource s;
  s.name = "w0";
  s.lease = std::string(2000, 'x');
  snap.sources.push_back(s);
  const auto out = decode_status_snapshot(encode_status_snapshot(snap));
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->sources.size(), 1u);
  EXPECT_EQ(out->sources[0].lease.size(), 512u);
}

TEST(StatusCodecTest, RidesTheWorkerPipeFrame) {
  // The full path a peer's snapshot travels: status codec -> FT kStatus
  // control frame -> CRC-framed stream -> parser -> status codec.
  const StatusSnapshot snap = sample_snapshot();
  const auto bytes = encode_status_snapshot(snap);
  ControlMessage m;
  m.kind = ControlKind::kStatus;
  m.text.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  const auto frame = encode_control_message(m);

  TransportParser parser;
  parser.feed(frame.data(), frame.size());
  const auto out = parser.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(parser.corrupt());
  ASSERT_EQ(out->type, TransportFrame::Type::kControl);
  ASSERT_EQ(out->control.kind, ControlKind::kStatus);
  const auto decoded = decode_status_snapshot(std::span{
      reinterpret_cast<const std::uint8_t*>(out->control.text.data()),
      out->control.text.size()});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, snap.seq);
  EXPECT_EQ(decoded->done, snap.done);
  ASSERT_EQ(decoded->sources.size(), 2u);
  EXPECT_EQ(decoded->sources[0].lease, "0-4,9");
}

// ---- stamping ----------------------------------------------------------

TEST(StampStatusTest, RateCountsFreshSettledTrialsOnly) {
  StatusSnapshot snap;
  snap.done = 4;
  snap.failed = 1;
  snap.replayed = 2;  // replays didn't cost this run wall time
  stamp_status(snap, 9, 10.0, 10);
  EXPECT_EQ(snap.seq, 9u);
  EXPECT_EQ(snap.total, 10u);
  EXPECT_DOUBLE_EQ(snap.elapsed_s, 10.0);
  EXPECT_DOUBLE_EQ(snap.trials_per_s, 0.3);  // (5 settled - 2 replayed) / 10s
  EXPECT_NEAR(snap.eta_s, 5.0 / 0.3, 1e-9);
}

TEST(StampStatusTest, EtaIsUnknownWithoutRateAndZeroWhenDone) {
  StatusSnapshot idle;
  stamp_status(idle, 1, 5.0, 10);
  EXPECT_DOUBLE_EQ(idle.trials_per_s, 0.0);
  EXPECT_LT(idle.eta_s, 0.0);  // unknown, rendered as JSON null

  StatusSnapshot replay_only;
  replay_only.done = 5;
  replay_only.replayed = 7;  // more replays than settles: clamp, no rate
  stamp_status(replay_only, 2, 5.0, 10);
  EXPECT_DOUBLE_EQ(replay_only.trials_per_s, 0.0);
  EXPECT_LT(replay_only.eta_s, 0.0);

  StatusSnapshot finished;
  finished.done = 8;
  finished.failed = 2;  // failures settle the campaign too
  stamp_status(finished, 3, 5.0, 10);
  EXPECT_DOUBLE_EQ(finished.eta_s, 0.0);
}

// ---- JSON rendering and the atomic file publisher ----------------------

TEST(StatusJsonTest, WellFormedWithSchemaAndNullEta) {
  StatusSnapshot snap = sample_snapshot();
  snap.sources[0].name = "w\"0\\";  // must be escaped, not break the JSON
  const std::string json = status_json(snap);
  EXPECT_TRUE(well_formed_json(json)) << json;
  EXPECT_TRUE(json.ends_with("}\n"));
  EXPECT_NE(json.find("\"schema\":\"fourbit.status/1\""), std::string::npos);
  EXPECT_NE(json.find("\"eta_s\":null"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"lease\":\"0-4,9\""), std::string::npos);

  snap.eta_s = 42.0;
  const std::string with_eta = status_json(snap);
  EXPECT_NE(with_eta.find("\"eta_s\":42.0"), std::string::npos);
  EXPECT_EQ(with_eta.find("null"), std::string::npos);
}

TEST(WriteStatusFileTest, AtomicPublishLeavesNoTemp) {
  const std::string path = temp_path("atomic.json");
  ASSERT_TRUE(write_status_file(path, "{\"a\":1}\n"));
  EXPECT_EQ(slurp(path), "{\"a\":1}\n");
  ASSERT_TRUE(write_status_file(path, "{\"a\":2}\n"));  // overwrite
  EXPECT_EQ(slurp(path), "{\"a\":2}\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

// ---- metric merging ----------------------------------------------------

TEST(MergeStatusMetricsTest, SumsCountersLastWinsGaugesMergesHists) {
  StatusSnapshot into;
  into.counters.push_back(StatusCounter{"sim", "eq_resizes", 1});
  into.gauges.push_back(StatusGauge{"sim", "arena_bytes", 100.0});
  StatusHistogram ha;
  ha.component = "runner";
  ha.name = "trial_wall_ms";
  ha.hist.record(10);
  into.histograms.push_back(ha);

  StatusSnapshot part;
  part.counters.push_back(StatusCounter{"sim", "eq_resizes", 2});
  part.counters.push_back(StatusCounter{"phy", "frames", 5});
  part.gauges.push_back(StatusGauge{"sim", "arena_bytes", 50.0});
  StatusHistogram hb = ha;
  hb.hist.record(20);
  part.histograms.push_back(hb);
  part.done = 999;  // lifecycle fields are the caller's, never merged

  merge_status_metrics(into, part);
  EXPECT_EQ(into.done, 0u);
  const auto* resizes = find_counter(into, "sim", "eq_resizes");
  ASSERT_NE(resizes, nullptr);
  EXPECT_EQ(resizes->value, 3u);
  const auto* frames = find_counter(into, "phy", "frames");
  ASSERT_NE(frames, nullptr);
  EXPECT_EQ(frames->value, 5u);
  const auto* arena = find_gauge(into, "sim", "arena_bytes");
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(arena->value, 50.0);
  const auto* wall = find_hist(into, "runner", "trial_wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 3u);  // 1 from into + 2 from part
}

// ---- StatusBoard -------------------------------------------------------

TEST(StatusBoardTest, LifecycleCounts) {
  StatusBoard board;
  board.trial_started(0);
  board.trial_started(1);
  StatusSnapshot snap;
  board.fill_snapshot(snap);
  EXPECT_EQ(snap.in_flight, 2u);

  board.attempt_reset(1);
  board.trial_settled(0, /*failed=*/false, 12);
  board.trial_settled(1, /*failed=*/true, 34);
  board.add_replayed(3);
  board.fill_snapshot(snap);
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_EQ(snap.done, 4u);  // 1 fresh + 3 replayed
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.retried, 1u);
  EXPECT_EQ(snap.replayed, 3u);
  const auto* wall = find_hist(snap, "runner", "trial_wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 2u);
  EXPECT_EQ(wall->sum, 46u);
}

TEST(StatusBoardTest, RegistryDeltasCountEachIncrementOnce) {
  sim::TelemetryContext context;
  auto* tx1 = context.counter("phy", "tx", 1);
  auto* tx2 = context.counter("phy", "tx", 2);  // per-node rows aggregate
  auto* arena = context.gauge("sim", "arena_bytes");
  auto* backoff = context.histogram("mac", "backoff");
  *tx1 = 5;
  *tx2 = 2;
  *arena = 100.0;
  backoff->record(3);

  StatusBoard board;
  board.trial_started(0);
  board.publish_registry(0, context);
  StatusSnapshot snap;
  board.fill_snapshot(snap);
  const auto* tx = find_counter(snap, "phy", "tx");
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->value, 7u);

  // A second push of the SAME registry must add only the growth.
  *tx1 = 9;
  *arena = 50.0;
  backoff->record(5);
  board.publish_registry(0, context);
  board.fill_snapshot(snap);
  tx = find_counter(snap, "phy", "tx");
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->value, 11u);  // 7 + delta of 4, not 7 + 11
  const auto* gauge = find_gauge(snap, "sim", "arena_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 50.0);  // gauges are last-wins
  const auto* hist = find_hist(snap, "mac", "backoff");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);  // each record() counted exactly once
}

TEST(StatusBoardTest, RegistryRestartTakesWholeValue) {
  StatusBoard board;
  board.trial_started(0);
  {
    sim::TelemetryContext context;
    *context.counter("phy", "tx") = 9;
    board.publish_registry(0, context);
  }
  // The trial retried: its fresh registry restarts below the last-seen
  // value, and every increment in it is new.
  board.attempt_reset(0);
  {
    sim::TelemetryContext context;
    *context.counter("phy", "tx") = 4;
    board.publish_registry(0, context);
  }
  StatusSnapshot snap;
  board.fill_snapshot(snap);
  const auto* tx = find_counter(snap, "phy", "tx");
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->value, 13u);

  // Even WITHOUT the reset, a value below last-seen means restart.
  {
    sim::TelemetryContext context;
    *context.counter("phy", "tx") = 2;  // seen is 4: must add whole 2
    board.publish_registry(0, context);
  }
  board.fill_snapshot(snap);
  tx = find_counter(snap, "phy", "tx");
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->value, 15u);
}

TEST(StatusBoardTest, AbsorbKeepsDeadSourceMetrics) {
  StatusBoard board;
  StatusSnapshot part;
  part.counters.push_back(StatusCounter{"phy", "frames", 5});
  StatusHistogram h;
  h.component = "runner";
  h.name = "trial_wall_ms";
  h.hist.record(7);
  part.histograms.push_back(h);
  board.absorb_metrics(part);
  board.absorb_metrics(part);  // two dead incarnations
  StatusSnapshot snap;
  board.fill_snapshot(snap);
  const auto* frames = find_counter(snap, "phy", "frames");
  ASSERT_NE(frames, nullptr);
  EXPECT_EQ(frames->value, 10u);
  const auto* wall = find_hist(snap, "runner", "trial_wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 2u);
}

// ---- StatusPublisher ---------------------------------------------------

TEST(StatusPublisherTest, TicksPeriodicallyAndOnceAtDestruction) {
  std::atomic<int> ticks{0};
  {
    StatusPublisher publisher{10, [&] { ++ticks; }};
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // Several periodic ticks plus the guaranteed final one.
  EXPECT_GE(ticks.load(), 3);

  ticks = 0;
  {
    StatusPublisher publisher{60'000, [&] { ++ticks; }};
    // Destroyed long before the first interval elapses...
  }
  // ...and the final tick still fired: pollers always see the settled
  // end state.
  EXPECT_EQ(ticks.load(), 1);
}

// ---- the --status-* CLI surface ----------------------------------------

std::vector<char*> make_argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& arg : args) argv.push_back(arg.data());
  return argv;
}

TEST(StatusCliTest, ParsesStatusFlags) {
  std::vector<std::string> args = {"bench",
                                   "--status-json", "/tmp/st.json",
                                   "--status-interval-ms", "250",
                                   "--profile-phases"};
  auto argv = make_argv(args);
  int argc = static_cast<int>(argv.size());
  const auto cli = consume_campaign_cli(argc, argv.data());
  EXPECT_EQ(cli.status_json, "/tmp/st.json");
  EXPECT_EQ(cli.status_interval_ms, 250u);
  EXPECT_TRUE(cli.profile_phases);
  EXPECT_EQ(argc, 1);  // everything consumed

  std::vector<std::string> bare = {"bench"};
  auto bare_argv = make_argv(bare);
  int bare_argc = static_cast<int>(bare_argv.size());
  const auto defaults = consume_campaign_cli(bare_argc, bare_argv.data());
  EXPECT_TRUE(defaults.status_json.empty());
  EXPECT_EQ(defaults.status_interval_ms, 1000u);
  EXPECT_FALSE(defaults.profile_phases);
}

void parse_status_interval(const char* value) {
  std::vector<std::string> args = {"bench", "--status-interval-ms", value};
  auto argv = make_argv(args);
  int argc = static_cast<int>(argv.size());
  (void)consume_campaign_cli(argc, argv.data());
}

TEST(StatusCliDeathTest, RejectsZeroIntervalWithExit2) {
  EXPECT_EXIT(parse_status_interval("0"), ::testing::ExitedWithCode(2),
              "--status-interval-ms");
}

TEST(StatusCliDeathTest, RejectsJunkIntervalWithExit2) {
  EXPECT_EXIT(parse_status_interval("soon"), ::testing::ExitedWithCode(2),
              "--status-interval-ms");
}

// ---- supervised campaigns feeding a board ------------------------------

TEST(SupervisedStatusTest, BoardMatchesReportAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 4u}) {
    StatusBoard board;
    SupervisorOptions options;
    options.threads = threads;
    options.status = &board;
    options.run_trial = [](const ExperimentConfig& config) {
      if (config.seed % 3 == 0) {
        throw std::runtime_error("scenario failure");
      }
      return synthetic_result(config.seed);
    };
    const auto report = run_supervised(scenario_trials(9, 100), options);
    ASSERT_EQ(report.failures.size(), 3u);  // seeds 102, 105, 108

    StatusSnapshot snap;
    board.fill_snapshot(snap);
    EXPECT_EQ(snap.done, 6u) << "threads=" << threads;
    EXPECT_EQ(snap.failed, 3u);
    EXPECT_EQ(snap.in_flight, 0u);
    const auto* wall = find_hist(snap, "runner", "trial_wall_ms");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->count, 9u);  // every settle, failures included
  }
}

TEST(SupervisedStatusTest, ReplayedTrialsCountAsReplayed) {
  const std::string journal = temp_path("replay.journal");
  SupervisorOptions options;
  options.threads = 2;
  options.journal_path = journal;
  options.run_trial = [](const ExperimentConfig& config) {
    return synthetic_result(config.seed);
  };
  const auto first = run_supervised(scenario_trials(6, 200), options);
  ASSERT_TRUE(first.all_completed());

  StatusBoard board;
  options.status = &board;
  const auto second = run_supervised(scenario_trials(6, 200), options);
  EXPECT_EQ(second.replayed, 6u);
  StatusSnapshot snap;
  board.fill_snapshot(snap);
  EXPECT_EQ(snap.replayed, 6u);
  EXPECT_EQ(snap.done, 6u);
  std::filesystem::remove(journal);
}

TEST(SupervisedStatusTest, RealTrialMetricsFlowAndBytesStayIdentical) {
  // Two REAL trials, run with and without a status board: the board
  // must pick up the engine-health registry rows (sim/arena_bytes,
  // sim/eq_resizes), and the journal and per-trial trace files must be
  // byte-identical — status is strictly off-band.
  const std::vector<ExperimentConfig> trials = {real_trial(900),
                                                real_trial(901)};
  const auto run = [&](const char* tag, StatusBoard* board) {
    SupervisorOptions options;
    options.threads = 1;
    options.journal_path = temp_path(tag) + ".journal";
    options.trace_path_base = temp_path(tag) + ".jsonl";
    options.status = board;
    return run_supervised(trials, options);
  };
  const auto plain = run("plain", nullptr);
  StatusBoard board;
  const auto observed = run("observed", &board);
  ASSERT_TRUE(plain.all_completed());
  ASSERT_TRUE(observed.all_completed());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    expect_identical(plain.results[i], observed.results[i]);
  }

  const std::string plain_journal = temp_path("plain") + ".journal";
  const std::string observed_journal = temp_path("observed") + ".journal";
  EXPECT_FALSE(slurp(plain_journal).empty());
  EXPECT_EQ(slurp(plain_journal), slurp(observed_journal));
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto plain_trace = trial_trace_path(temp_path("plain") + ".jsonl",
                                              i, trials[i].seed);
    const auto observed_trace = trial_trace_path(
        temp_path("observed") + ".jsonl", i, trials[i].seed);
    EXPECT_FALSE(slurp(plain_trace).empty());
    EXPECT_EQ(slurp(plain_trace), slurp(observed_trace));
    std::filesystem::remove(plain_trace);
    std::filesystem::remove(observed_trace);
  }
  std::filesystem::remove(plain_journal);
  std::filesystem::remove(observed_journal);

  StatusSnapshot snap;
  board.fill_snapshot(snap);
  EXPECT_EQ(snap.done, 2u);
  EXPECT_NE(find_counter(snap, "sim", "eq_resizes"), nullptr);
  EXPECT_NE(find_gauge(snap, "sim", "arena_bytes"), nullptr);
  const auto* wall = find_hist(snap, "runner", "trial_wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 2u);
}

TEST(SupervisedStatusTest, ConcurrentUntracedTrialsKeepSeparateBoardKeys) {
  // No trace or flight file is armed, so trace_trial stays -1. The board
  // must still key each trial's pushes by its index: trials sharing one
  // key would take deltas against each other's last-seen values.
  std::vector<ExperimentConfig> trials;
  for (std::uint64_t seed = 950; seed < 954; ++seed) {
    trials.push_back(real_trial(seed));
    trials.back().flight_flush_every_events = 4096;  // many mid-trial pushes
  }
  StatusBoard board;
  SupervisorOptions options;
  options.threads = 2;
  options.status = &board;
  const auto report = run_supervised(trials, options);
  ASSERT_TRUE(report.all_completed());

  std::uint64_t frames = 0;
  for (const auto& r : report.results) frames += r.radio_frames;
  ASSERT_GT(frames, 0u);
  StatusSnapshot snap;
  board.fill_snapshot(snap);
  const auto* board_frames = find_counter(snap, "phy", "frames_tx");
  ASSERT_NE(board_frames, nullptr);
  EXPECT_EQ(board_frames->value, frames);
}

TEST(LocalCampaignStatusTest, WritesFinalSettledStatusFile) {
  const std::string status_path = temp_path("local.json");
  CampaignCli cli;
  cli.threads = 1;
  cli.status_json = status_path;
  cli.status_interval_ms = 25;
  const std::vector<ExperimentConfig> trials = {real_trial(910),
                                                real_trial(911)};
  const auto report = run_campaign(trials, cli, {});
  ASSERT_TRUE(report.all_completed());

  const std::string text = slurp(status_path);
  EXPECT_TRUE(well_formed_json(text)) << text;
  EXPECT_NE(text.find("\"schema\":\"fourbit.status/1\""), std::string::npos);
  EXPECT_NE(text.find("\"done\":2"), std::string::npos);
  EXPECT_NE(text.find("\"total\":2"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"local\""), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(status_path + ".tmp"));
  std::filesystem::remove(status_path);
}

// ---- multi-process campaigns streaming status --------------------------

MultiprocessOptions st_mp_options(const std::string& scenario, std::size_t n,
                                  std::uint64_t base, std::size_t workers,
                                  const std::string& journal = "") {
  MultiprocessOptions mp;
  mp.workers = workers;
  mp.exec_argv = {"/proc/self/exe",
                  "--st-scenario", scenario,
                  "--st-trials",   std::to_string(n),
                  "--st-seed",     std::to_string(base),
                  "--threads",     "1",
                  "--status-interval-ms", "20"};
  mp.supervisor.journal_path = journal;
  mp.heartbeat_interval_ms = 20;
  mp.status_interval_ms = 20;
  mp.respawn_backoff = Backoff{10, 100, 0.0};
  return mp;
}

void expect_monotonic(const std::vector<StatusSnapshot>& snaps,
                      std::uint64_t total) {
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].total, total);
    if (i == 0) continue;
    EXPECT_GT(snaps[i].seq, snaps[i - 1].seq);
    EXPECT_GE(snaps[i].done, snaps[i - 1].done);
    EXPECT_GE(snaps[i].failed, snaps[i - 1].failed);
  }
}

TEST(MultiprocessStatusTest, CleanCampaignStreamsMonotonicStatus) {
  for (const std::size_t workers : {1u, 3u}) {
    const std::string status_path = temp_path("mp_clean.json");
    auto mp = st_mp_options("clean", 8, 300, workers);
    mp.status_path = status_path;
    std::vector<StatusSnapshot> snaps;
    mp.on_status = [&](const StatusSnapshot& s) { snaps.push_back(s); };

    const auto report =
        run_multiprocess(scenario_trials(8, 300), mp);
    ASSERT_TRUE(report.all_completed()) << "workers=" << workers;

    ASSERT_FALSE(snaps.empty());
    expect_monotonic(snaps, 8);
    const auto& last = snaps.back();
    EXPECT_EQ(last.done, 8u);
    EXPECT_EQ(last.failed, 0u);
    EXPECT_EQ(last.in_flight, 0u);
    ASSERT_EQ(last.sources.size(), workers);
    std::uint64_t source_done = 0;
    for (const auto& src : last.sources) {
      EXPECT_EQ(src.kind, StatusSource::Kind::kWorker);
      EXPECT_EQ(src.name.front(), 'w');
      EXPECT_EQ(src.lease, "") << src.name;
      source_done += src.done;
    }
    EXPECT_EQ(source_done, last.done);
    // Worker registries crossed the pipe and merged: every settle's
    // wall time landed in the campaign-wide histogram.
    const auto* wall = find_hist(last, "runner", "trial_wall_ms");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->count, 8u);

    const std::string text = slurp(status_path);
    EXPECT_TRUE(well_formed_json(text)) << text;
    EXPECT_NE(text.find("\"schema\":\"fourbit.status/1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"done\":8"), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(status_path + ".tmp"));
    std::filesystem::remove(status_path);
  }
}

TEST(MultiprocessStatusTest, JournalBytesIdenticalWithAndWithoutStatus) {
  const std::string plain_stem = temp_path("mp_plain.journal");
  const std::string observed_stem = temp_path("mp_observed.journal");
  const auto plain = run_multiprocess(
      scenario_trials(6, 1300),
      st_mp_options("clean", 6, 1300, 2, plain_stem));

  auto mp = st_mp_options("clean", 6, 1300, 2, observed_stem);
  const std::string status_path = temp_path("mp_journal.json");
  mp.status_path = status_path;
  std::vector<StatusSnapshot> snaps;
  mp.on_status = [&](const StatusSnapshot& s) { snaps.push_back(s); };
  const auto observed = run_multiprocess(scenario_trials(6, 1300), mp);

  ASSERT_TRUE(plain.all_completed());
  ASSERT_TRUE(observed.all_completed());
  for (std::size_t i = 0; i < 6; ++i) {
    expect_identical(plain.results[i], observed.results[i]);
  }
  EXPECT_FALSE(slurp(plain_stem).empty());
  EXPECT_EQ(slurp(plain_stem), slurp(observed_stem));
  std::filesystem::remove(plain_stem);
  std::filesystem::remove(observed_stem);
  std::filesystem::remove(status_path);
}

TEST(MultiprocessStatusTest, WorkerDeathSurfacesLossesAndFailures) {
  const std::string status_path = temp_path("mp_segv.json");
  auto mp = st_mp_options("segv@2", 6, 400, 2);
  mp.status_path = status_path;
  std::vector<StatusSnapshot> snaps;
  mp.on_status = [&](const StatusSnapshot& s) { snaps.push_back(s); };

  const auto report = run_multiprocess(scenario_trials(6, 400), mp);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 2u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kHardCrash);

  ASSERT_FALSE(snaps.empty());
  expect_monotonic(snaps, 6);
  const auto& last = snaps.back();
  EXPECT_EQ(last.done, 5u);
  EXPECT_EQ(last.failed, 1u);
  EXPECT_EQ(last.in_flight, 0u);
  EXPECT_GE(last.hard_crashes, 2u);  // crashed, respawned, crashed again
  EXPECT_GE(last.worker_respawns, 1u);
  std::uint64_t losses = 0;
  for (const auto& src : last.sources) losses += src.losses;
  EXPECT_GE(losses, 1u);

  const std::string text = slurp(status_path);
  EXPECT_TRUE(well_formed_json(text)) << text;
  EXPECT_NE(text.find("\"failed\":1"), std::string::npos);
  std::filesystem::remove(status_path);
}

}  // namespace
}  // namespace fourbit::runner

int main(int argc, char** argv) {
  auto cli = fourbit::runner::consume_campaign_cli(argc, argv);
  if (cli.worker_fd >= 0) {
    fourbit::runner::st_worker_main(argc, argv, std::move(cli));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
