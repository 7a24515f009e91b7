#include "runner/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "runner/journal.hpp"
#include "runner/status.hpp"
#include "sim/invariant.hpp"

namespace fourbit::runner {

std::string_view failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kAssert: return "assert";
    case FailureKind::kException: return "exception";
    case FailureKind::kTimeout: return "timeout";
    case FailureKind::kInvariant: return "invariant";
    case FailureKind::kHardCrash: return "hard_crash";
  }
  return "unknown";
}

std::uint64_t Backoff::delay_ms(std::size_t attempt,
                                std::uint64_t seed) const {
  if (base_ms == 0) return 0;
  const std::size_t doublings =
      std::min<std::size_t>(attempt > 0 ? attempt - 1 : 0, 20);
  const double raw = std::min(
      static_cast<double>(cap_ms),
      static_cast<double>(base_ms) *
          static_cast<double>(std::uint64_t{1} << doublings));
  // splitmix64 of (seed, attempt): a deterministic uniform fraction, so
  // the jittered delay is a pure function of its inputs.
  std::uint64_t h = seed + 0x9E3779B97F4A7C15ULL * (attempt + 1);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  h ^= h >> 31;
  const double fraction =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  const double jittered = raw * (1.0 - jitter + 2.0 * jitter * fraction);
  const double clamped =
      std::min(static_cast<double>(cap_ms), std::max(0.0, jittered));
  return static_cast<std::uint64_t>(clamped);
}

namespace {

struct AttemptOutcome {
  ExperimentResult result;
  std::optional<TrialFailure> failure;
};

/// One isolated attempt: the throwing assert handler is installed for
/// this thread, and every escape route out of the trial is mapped onto
/// the failure taxonomy. Catch order matters — the specific error types
/// all derive from std::runtime_error.
TrialFailure make_failure(FailureKind kind, std::string what,
                          std::size_t index, std::uint64_t seed,
                          std::size_t attempt) {
  TrialFailure failure;
  failure.kind = kind;
  failure.what = std::move(what);
  failure.trial_index = index;
  failure.seed = seed;
  failure.attempt = attempt;
  return failure;
}

AttemptOutcome attempt_trial(
    const std::function<ExperimentResult(const ExperimentConfig&)>& run_trial,
    const ExperimentConfig& config, std::size_t index, std::size_t attempt) {
  AttemptOutcome out;
  const ScopedAssertHandler isolate{throwing_assert_handler};
  // The simulator is destroyed during unwinding, before any handler
  // below runs; its destructor publishes the flight recorder to this
  // thread's slot, which we collect after the catch. Clear it first so
  // a clean prior trial's events can't leak into this one's failure.
  sim::TelemetryContext::clear_last_flight();
  try {
    out.result = run_trial ? run_trial(config) : run_experiment(config);
  } catch (const AssertionError& e) {
    out.failure =
        make_failure(FailureKind::kAssert, e.what(), index, config.seed,
                     attempt);
  } catch (const sim::BudgetExceededError& e) {
    out.failure =
        make_failure(FailureKind::kTimeout, e.what(), index, config.seed,
                     attempt);
  } catch (const sim::InvariantViolationError& e) {
    out.failure =
        make_failure(FailureKind::kInvariant, e.what(), index, config.seed,
                     attempt);
  } catch (const std::exception& e) {
    out.failure =
        make_failure(FailureKind::kException, e.what(), index, config.seed,
                     attempt);
  } catch (...) {
    out.failure =
        make_failure(FailureKind::kException,
                     "unknown exception escaped the trial", index,
                     config.seed, attempt);
  }
  if (out.failure.has_value()) {
    out.failure->flight = sim::TelemetryContext::take_last_flight();
  }
  return out;
}

}  // namespace

CampaignReport run_supervised(const std::vector<ExperimentConfig>& trials,
                              const SupervisorOptions& options) {
  CampaignReport report;
  report.results.resize(trials.size());
  report.completed.assign(trials.size(), 0);
  if (trials.empty()) return report;
  const std::uint64_t journal_failures_before = TrialJournal::write_failures();

  // Resume: replay journaled results for matching (index, seed) slots.
  // A record whose seed disagrees with the trial list belongs to some
  // other campaign and is ignored rather than trusted.
  std::optional<TrialJournal> journal;
  if (!options.journal_path.empty()) {
    auto loaded = TrialJournal::load(options.journal_path);
    report.journal_torn = loaded.torn;
    for (auto& entry : loaded.entries) {
      if (entry.trial_index >= trials.size()) continue;
      if (entry.seed != trials[entry.trial_index].seed) continue;
      if (report.completed[entry.trial_index]) continue;
      report.results[entry.trial_index] = std::move(entry.result);
      report.completed[entry.trial_index] = 1;
      ++report.replayed;
    }
    journal = TrialJournal::open_append(options.journal_path);
  }
  if (options.status != nullptr && report.replayed > 0) {
    options.status->add_replayed(report.replayed);
  }

  // The index order to execute: everything, or the assigned subset (a
  // multi-process worker runs only the coordinator's range).
  std::vector<std::size_t> order;
  if (options.subset.empty()) {
    order.resize(trials.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  } else {
    for (const std::size_t i : options.subset) {
      if (i < trials.size()) order.push_back(i);
    }
  }

  std::size_t threads = options.threads != 0
                            ? options.threads
                            : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, std::max<std::size_t>(1, order.size()));

  const std::size_t max_attempts =
      std::max<std::size_t>(1, options.retry.max_attempts);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{static_cast<std::size_t>(report.replayed)};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> retried{0};
  std::atomic<std::uint64_t> attempts{0};
  std::mutex progress_mutex;  // serializes callbacks and report.failures
  std::mutex journal_mutex;

  const auto worker = [&] {
    while (true) {
      const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= order.size()) return;
      const std::size_t i = order[slot];
      if (report.completed[i]) continue;  // replayed from the journal

      // Merge the campaign-wide watchdog into the trial's own budget
      // (an explicit per-trial limit wins, field by field).
      ExperimentConfig config = trials[i];
      if (config.budget.max_events == 0) {
        config.budget.max_events = options.trial_budget.max_events;
      }
      if (config.budget.max_wall_ms == 0) {
        config.budget.max_wall_ms = options.trial_budget.max_wall_ms;
      }

      // Campaign-wide telemetry: each trial writes its own file (named
      // by index and seed) so workers never share a stream and output
      // is identical at any thread count. A config's own path wins.
      config.trace_level = options.trace_level;
      if (config.trace_path.empty() && !options.trace_path_base.empty()) {
        config.trace_path =
            trial_trace_path(options.trace_path_base, i, config.seed);
        config.trace_trial = static_cast<std::int64_t>(i);
        config.trace_nodes = options.trace_nodes;
      }

      // Crash forensics: the trial periodically flushes its flight
      // recorder to disk so a hard-crashed worker process leaves its
      // sim's last moments behind for the coordinator.
      if (config.flight_flush_path.empty() &&
          !options.flight_flush_base.empty()) {
        config.flight_flush_path =
            flight_snapshot_path(options.flight_flush_base, i);
        if (config.trace_trial < 0) {
          config.trace_trial = static_cast<std::int64_t>(i);
        }
      }

      // Live status is strictly observational: the board sees lifecycle
      // edges and registry pushes, and nothing it does can reach the
      // result, the report, or the journal.
      config.status = options.status;
      config.status_trial = i;
      if (options.profile_phases) config.profile_phases = true;
      if (options.status != nullptr) options.status->trial_started(i);
      const auto trial_begin = std::chrono::steady_clock::now();

      if (options.on_trial_start) options.on_trial_start(i, config);

      std::optional<TrialFailure> failure;
      for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
        attempts.fetch_add(1, std::memory_order_relaxed);
        auto outcome = attempt_trial(options.run_trial, config, i, attempt);
        if (!outcome.failure) {
          report.results[i] = std::move(outcome.result);
          report.completed[i] = 1;
          failure.reset();
          if (journal) {
            const std::lock_guard<std::mutex> lock{journal_mutex};
            journal->append(static_cast<std::uint32_t>(i), config.seed,
                            report.results[i]);
          }
          break;
        }
        failure = std::move(outcome.failure);
        if (attempt < max_attempts && options.retry.should_retry(*failure)) {
          retried.fetch_add(1, std::memory_order_relaxed);
          if (options.status != nullptr) options.status->attempt_reset(i);
          const std::uint64_t delay =
              options.retry.backoff.delay_ms(attempt, config.seed);
          if (delay > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(delay));
          }
          continue;
        }
        break;
      }
      if (options.status != nullptr) {
        const auto wall =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - trial_begin)
                .count();
        options.status->trial_settled(
            i, failure.has_value(),
            wall > 0 ? static_cast<std::uint64_t>(wall) : 0);
      }
      if (!config.flight_flush_path.empty()) {
        // The trial settled in-process; its crash snapshot is stale.
        std::remove(config.flight_flush_path.c_str());
      }

      const std::size_t done =
          completed.fetch_add(1, std::memory_order_acq_rel) + 1;
      {
        const std::lock_guard<std::mutex> lock{progress_mutex};
        const TrialFailure* failure_ptr = nullptr;
        if (failure) {
          failed.fetch_add(1, std::memory_order_relaxed);
          report.failures.push_back(std::move(*failure));
          failure_ptr = &report.failures.back();
        }
        if (options.on_trial_done) {
          options.on_trial_done(TrialProgress{
              .trial_index = i,
              .completed = done,
              .total = trials.size(),
              .failed = failed.load(std::memory_order_relaxed),
              .retried = retried.load(std::memory_order_relaxed),
              .config = &trials[i],
              .result = report.completed[i] ? &report.results[i] : nullptr,
              .failure = failure_ptr,
          });
        }
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  report.attempts = attempts.load();
  report.retries = retried.load();
  report.journal_write_failures =
      TrialJournal::write_failures() - journal_failures_before;
  // Completion order depends on thread scheduling; the report must not.
  std::sort(report.failures.begin(), report.failures.end(),
            [](const TrialFailure& a, const TrialFailure& b) {
              return a.trial_index < b.trial_index;
            });
  return report;
}

std::string trial_trace_path(const std::string& base, std::size_t index,
                             std::uint64_t seed) {
  std::string stem = base;
  constexpr std::string_view kExt = ".jsonl";
  if (stem.size() >= kExt.size() &&
      stem.compare(stem.size() - kExt.size(), kExt.size(), kExt) == 0) {
    stem.resize(stem.size() - kExt.size());
  }
  return stem + "-t" + std::to_string(index) + "-s" + std::to_string(seed) +
         ".jsonl";
}

std::string flight_snapshot_path(const std::string& base,
                                 std::size_t index) {
  return base + ".t" + std::to_string(index) + ".flight";
}

CampaignCli consume_campaign_cli(int& argc, char** argv) {
  CampaignCli cli;
  // Snapshot argv BEFORE stripping anything: this is the command the
  // multi-process coordinator self-execs to mint workers, and it must
  // rebuild the identical trial list the coordinator saw.
  cli.exec_argv.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) cli.exec_argv.emplace_back(argv[i]);

  cli.threads = consume_threads_flag(argc, argv);
  if (const auto workers = consume_uint_flag(argc, argv, "--workers")) {
    if (*workers == 0) {
      std::fprintf(stderr,
                   "error: --workers expects a positive worker count "
                   "(got \"0\"); omit the flag to run in-process\n");
      std::exit(2);
    }
    cli.workers = static_cast<std::size_t>(*workers);
  }
  if (const auto fd = consume_uint_flag(argc, argv, "--worker-fd")) {
    cli.worker_fd = static_cast<int>(*fd);
  }
  cli.worker_id = static_cast<std::uint32_t>(
      consume_uint_flag(argc, argv, "--worker-id").value_or(0));
  cli.worker_shard = consume_flag(argc, argv, "--worker-shard").value_or("");
  cli.worker_heartbeat_ms =
      consume_uint_flag(argc, argv, "--worker-heartbeat-ms").value_or(250);
  cli.journal = consume_flag(argc, argv, "--journal").value_or("");
  cli.max_trial_ms =
      consume_uint_flag(argc, argv, "--max-trial-ms").value_or(0);
  cli.retries = consume_uint_flag(argc, argv, "--retries").value_or(0);
  cli.trace = consume_flag(argc, argv, "--trace").value_or("");
  if (const auto level = consume_flag(argc, argv, "--trace-level")) {
    if (*level == "off") {
      cli.trace_level = sim::TraceLevel::kOff;
    } else if (*level == "error") {
      cli.trace_level = sim::TraceLevel::kError;
    } else if (*level == "info") {
      cli.trace_level = sim::TraceLevel::kInfo;
    } else if (*level == "debug") {
      cli.trace_level = sim::TraceLevel::kDebug;
    } else {
      std::fprintf(stderr,
                   "--trace-level: expected off|error|info|debug, got '%s'\n",
                   level->c_str());
      std::exit(2);
    }
  }
  if (const auto nodes = consume_flag(argc, argv, "--trace-nodes")) {
    std::size_t pos = 0;
    while (pos <= nodes->size()) {
      const std::size_t comma = nodes->find(',', pos);
      const std::string tok = nodes->substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      char* end = nullptr;
      const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
      if (tok.empty() || end == nullptr || *end != '\0' || v > 0xFFFF) {
        std::fprintf(stderr,
                     "--trace-nodes: expected comma-separated node ids, "
                     "got '%s'\n",
                     nodes->c_str());
        std::exit(2);
      }
      cli.trace_nodes.push_back(static_cast<std::uint16_t>(v));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  cli.json = consume_bool_flag(argc, argv, "--json");
  if (const auto hosts = consume_flag(argc, argv, "--hosts")) {
    std::size_t pos = 0;
    while (pos <= hosts->size()) {
      const std::size_t comma = hosts->find(',', pos);
      const std::string tok = hosts->substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      // Split on the LAST colon so a future "name:with:colons" host at
      // least fails loudly rather than silently mis-parsing the port.
      const std::size_t colon = tok.rfind(':');
      bool ok = colon != std::string::npos && colon > 0;
      unsigned long port = 0;
      if (ok) {
        const std::string digits = tok.substr(colon + 1);
        char* end = nullptr;
        port = std::strtoul(digits.c_str(), &end, 10);
        ok = !digits.empty() &&
             std::isdigit(static_cast<unsigned char>(digits[0])) != 0 &&
             end != nullptr && *end == '\0' && port >= 1 && port <= 65535;
      }
      if (!ok) {
        std::fprintf(stderr,
                     "--hosts: expected comma-separated host:port entries "
                     "(port 1-65535), got '%s'\n",
                     hosts->c_str());
        std::exit(2);
      }
      cli.hosts.push_back(
          HostEndpoint{tok.substr(0, colon), static_cast<std::uint16_t>(port)});
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  if (const auto serve = consume_uint_flag(argc, argv, "--serve")) {
    if (*serve > 65535) {
      std::fprintf(stderr,
                   "--serve: expected a TCP port (0-65535, 0 = ephemeral), "
                   "got %llu\n",
                   static_cast<unsigned long long>(*serve));
      std::exit(2);
    }
    cli.serve_port = static_cast<int>(*serve);
  }
  cli.lease_trials = static_cast<std::size_t>(
      consume_uint_flag(argc, argv, "--lease").value_or(0));
  cli.status_json = consume_flag(argc, argv, "--status-json").value_or("");
  if (const auto interval =
          consume_uint_flag(argc, argv, "--status-interval-ms")) {
    if (*interval == 0) {
      std::fprintf(stderr,
                   "error: --status-interval-ms expects a positive "
                   "millisecond interval (got \"0\")\n");
      std::exit(2);
    }
    cli.status_interval_ms = *interval;
  }
  cli.profile_phases = consume_bool_flag(argc, argv, "--profile-phases");
  if (cli.serve_port >= 0 && !cli.hosts.empty()) {
    std::fprintf(
        stderr,
        "error: --serve (host agent) and --hosts (coordinator) are "
        "mutually exclusive\n");
    std::exit(2);
  }
  return cli;
}

}  // namespace fourbit::runner
