#include "runner/dispatch.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "runner/journal.hpp"
#include "runner/transport.hpp"
#include "runner/worker.hpp"

namespace fourbit::runner {
namespace {

using Clock = std::chrono::steady_clock;

/// One lease-serving peer: a local worker slot or a host agent.
struct Source {
  std::size_t id = 0;  // worker slot, or position on the --hosts list
  std::string name;    // "w<id>", or "host:port"
  HostEndpoint addr;   // hosts only
  pid_t pid = -1;      // local slots only: the live worker process
  int fd = -1;
  bool hello = false;  // the peer identified itself; leases may follow
  TransportParser parser;

  std::uint32_t lease_id = 0;      // outstanding lease (0 = none)
  std::vector<std::size_t> lease;  // trial indices granted
  /// kTrialStart seen, not yet settled by this peer: when it started.
  std::map<std::size_t, Clock::time_point> in_flight;

  Clock::time_point last_heard{};
  std::uint32_t last_retried_total = 0;
  /// This session settled a trial: a result or terminal failure it
  /// reported. A local slot's session also counts when it died with a
  /// trial in flight.
  bool progress = false;
  /// Consecutive fruitless outcomes: failed connects and sessions that
  /// ended without progress.
  std::size_t fruitless = 0;
  Clock::time_point start_at{};  // earliest next spawn / connect
  bool retired = false;
  /// Sessions lost: this source's share of hard_crashes (local) or
  /// host_losses (hosts).
  std::size_t losses = 0;
  /// Settle ledger: trials this source completed, and terminal
  /// failures charged to it.
  std::uint64_t done_here = 0;
  std::uint64_t failed_here = 0;
  /// Latest fourbit.status/1 snapshot the peer forwarded; folded into
  /// the coordinator's board when its session dies, so merged counters
  /// stay monotonic across respawns and reconnects.
  std::optional<StatusSnapshot> status;
};

/// The one coordinator loop. Drives `local->workers` local slots when
/// `local` is given, else options.hosts; `options` carries the policy
/// both share.
CampaignReport coordinate(const std::vector<ExperimentConfig>& trials,
                          const DispatchOptions& options,
                          const MultiprocessOptions* local) {
  namespace fs = std::filesystem;
  ignore_sigpipe();

  CampaignReport report;
  report.results.resize(trials.size());
  report.completed.assign(trials.size(), 0);
  if (trials.empty()) return report;
  if (local != nullptr && local->exec_argv.empty()) {
    throw std::runtime_error(
        "run_multiprocess: exec_argv is empty (pass CampaignCli::exec_argv)");
  }
  const std::uint64_t journal_failures_before = TrialJournal::write_failures();

  const bool user_journal = !options.supervisor.journal_path.empty();
  const std::string stem = options.supervisor.journal_path;

  std::vector<std::uint8_t> failed_bit(trials.size(), 0);
  std::vector<std::uint8_t> main_has(trials.size(), 0);

  // Resume, stage 1: the main journal (prior completed campaigns /
  // compacted shards). Seed mismatches belong to another campaign.
  if (user_journal) {
    auto loaded = TrialJournal::load(stem);
    report.journal_torn = loaded.torn;
    for (auto& entry : loaded.entries) {
      if (entry.trial_index >= trials.size()) continue;
      if (entry.seed != trials[entry.trial_index].seed) continue;
      main_has[entry.trial_index] = 1;
      if (report.completed[entry.trial_index]) continue;
      report.results[entry.trial_index] = std::move(entry.result);
      report.completed[entry.trial_index] = 1;
      ++report.replayed;
    }
    // Stage 2: shards a SIGKILLed coordinator left behind — results
    // peers had already streamed survived it; pick them up.
    auto merged = TrialJournal::merge_shards(stem);
    report.journal_torn = report.journal_torn || merged.torn;
    for (auto& entry : merged.entries) {
      if (entry.trial_index >= trials.size()) continue;
      if (entry.seed != trials[entry.trial_index].seed) continue;
      if (report.completed[entry.trial_index]) continue;
      report.results[entry.trial_index] = std::move(entry.result);
      report.completed[entry.trial_index] = 1;
      ++report.replayed;
    }
  }

  // The trials this run owes: everything unsettled, or the subset.
  std::vector<std::size_t> owed;
  if (options.supervisor.subset.empty()) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (!report.completed[i]) owed.push_back(i);
    }
  } else {
    for (const std::size_t i : options.supervisor.subset) {
      if (i < trials.size() && !report.completed[i]) owed.push_back(i);
    }
  }

  const auto settled = [&](std::size_t i) {
    return report.completed[i] != 0 || failed_bit[i] != 0;
  };

  std::map<std::size_t, std::size_t> crash_counts;
  std::size_t progress_done = static_cast<std::size_t>(report.replayed);
  std::size_t failed_count = 0;

  const auto emit_progress = [&](std::size_t index,
                                 const ExperimentResult* result,
                                 const TrialFailure* failure) {
    ++progress_done;
    if (failure != nullptr) ++failed_count;
    if (options.supervisor.on_trial_done) {
      TrialProgress p;
      p.trial_index = index;
      p.completed = progress_done;
      p.total = trials.size();
      p.failed = failed_count;
      p.retried = static_cast<std::size_t>(report.retries);
      p.config = &trials[index];
      p.result = result;
      p.failure = failure;
      p.host_losses = static_cast<std::size_t>(report.host_losses);
      p.lease_reassignments =
          static_cast<std::size_t>(report.lease_reassignments);
      options.supervisor.on_trial_done(p);
    }
  };

  // Every result a peer streams goes straight to one coordinator-side
  // shard: it is durable the moment the coordinator has it, so
  // SIGKILLing the coordinator loses nothing.
  std::optional<TrialJournal> remote_shard;
  const auto journal_result = [&](std::size_t i) {
    if (!user_journal) return;
    if (!remote_shard) {
      remote_shard =
          TrialJournal::open_append(TrialJournal::shard_path(stem,
                                                             kRemoteShardId));
    }
    remote_shard->append(static_cast<std::uint32_t>(i), trials[i].seed,
                         report.results[i]);
  };

  // Where local workers flush flight-recorder snapshots: next to the
  // journal (the final compaction sweeps "<stem>.w*"), or in the temp
  // directory. A slot's snapshots are removed once its death is judged.
  const std::string evidence_stem =
      user_journal ? stem
                   : (fs::temp_directory_path() /
                      ("fourbit-" + std::to_string(::getpid())))
                         .string();
  const auto flight_base = [&](const Source& s) {
    return evidence_stem + ".w" + std::to_string(s.id);
  };

  const auto fail_hard = [&](std::size_t index, const std::string& what,
                             int sig, const Source* worker) {
    if (settled(index)) return;
    failed_bit[index] = 1;
    TrialFailure failure;
    failure.kind = FailureKind::kHardCrash;
    failure.what = what;
    failure.trial_index = index;
    failure.seed = trials[index].seed;
    failure.attempt = std::max<std::size_t>(1, crash_counts[index]);
    failure.term_signal = sig;
    // Best evidence available: the worker's last flushed snapshot.
    if (worker != nullptr) {
      if (auto snap = load_flight_snapshot(
              flight_snapshot_path(flight_base(*worker), index))) {
        if (snap->trial_index == index && snap->seed == trials[index].seed) {
          failure.flight = std::move(snap->events);
        }
      }
    }
    report.failures.push_back(std::move(failure));
    emit_progress(index, nullptr, &report.failures.back());
  };

  const auto fail_timeout = [&](std::size_t index) {
    if (settled(index)) return;
    failed_bit[index] = 1;
    ++report.attempts;
    TrialFailure failure;
    failure.kind = FailureKind::kTimeout;
    failure.what = "trial exceeded the coordinator watchdog (" +
                   std::to_string(options.trial_timeout_ms) + " ms in flight); " +
                   (local != nullptr ? "its worker was killed"
                                     : "its host session was dropped");
    failure.trial_index = index;
    failure.seed = trials[index].seed;
    failure.attempt = 1;
    report.failures.push_back(std::move(failure));
    emit_progress(index, nullptr, &report.failures.back());
  };

  std::vector<Source> sources(local != nullptr
                                  ? std::min(local->workers, owed.size())
                                  : options.hosts.size());
  for (std::size_t k = 0; k < sources.size(); ++k) {
    Source& s = sources[k];
    s.id = k;
    if (local != nullptr) {
      s.name = "w" + std::to_string(k);
    } else {
      s.addr = options.hosts[k];
      s.name = s.addr.host + ":" + std::to_string(s.addr.port);
    }
  }
  std::deque<std::size_t> unleased(owed.begin(), owed.end());
  std::uint32_t lease_counter = 0;

  // Backoff jitter seed: campaign-stable but source-distinct, so a fleet
  // of lost peers never comes back in lockstep.
  const auto backoff_seed = [&](const Source& s) {
    return trials.front().seed + 0x9E3779B97F4A7C15ULL * (s.id + 1);
  };
  const Backoff& restart_backoff =
      local != nullptr ? local->respawn_backoff : options.reconnect_backoff;
  const auto schedule_restart = [&](Source& s) {
    s.start_at = Clock::now() +
                 std::chrono::milliseconds(restart_backoff.delay_ms(
                     std::max<std::size_t>(1, s.fruitless), backoff_seed(s)));
  };
  // Why the last local slot retired: once every slot has, the rest of
  // the campaign fails with it.
  std::string retired_what;
  int retired_sig = 0;
  const auto retire = [&](Source& s, const char* outcome,
                          const std::string& why) {
    s.retired = true;
    std::fprintf(stderr,
                 "fourbit-dispatch: retiring %s %s after %zu %s (%s)\n",
                 local != nullptr ? "worker" : "host", s.name.c_str(),
                 s.fruitless, outcome, why.c_str());
  };

  // Merged-status accumulator: metrics absorbed from dead sessions and,
  // for a host fleet, fed directly by the in-process fallback; live
  // sessions contribute their latest forwarded snapshot at publish time.
  StatusBoard status_board;

  // Ends a session: reaps a local worker (SIGKILL first unless it is
  // already gone), charges its in-flight trials as crash suspects, and
  // returns the unsettled rest of its lease to the pool.
  const auto lose = [&](Source& s, const std::string& why, bool eof) {
    if (s.fd < 0) return;
    std::string what;
    int sig = 0;
    if (local != nullptr) {
      if (!eof) ::kill(s.pid, SIGKILL);
      int status = 0;
      ::waitpid(s.pid, &status, 0);
      sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
      const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      what = "worker " + std::to_string(s.id);
      if (s.parser.corrupt()) {
        what += " sent a torn or corrupt pipe frame";
        if (sig != 0) {
          what += " and was killed (signal " + std::to_string(sig) + ")";
        }
      } else if (why.starts_with("heartbeat")) {
        what += " stopped heartbeating for over " +
                std::to_string(options.heartbeat_timeout_ms) +
                " ms and was killed";
      } else if (why == "trial-timeout") {
        what += " was killed after a trial overran the coordinator watchdog";
      } else if (!eof) {
        what += " was killed after " + why;
      } else if (sig != 0) {
        what += " was killed by signal " + std::to_string(sig);
      } else if (code >= 0) {
        what += " exited with status " + std::to_string(code) +
                " before finishing its range";
      } else {
        what += " died unexpectedly";
      }
      ++report.hard_crashes;
      s.pid = -1;
    } else {
      ++report.host_losses;
    }
    ::close(s.fd);
    s.fd = -1;
    s.hello = false;
    s.parser = TransportParser{};
    ++s.losses;
    if (s.status) {
      status_board.absorb_metrics(*s.status);
      s.status.reset();
    }
    // A local death with a trial in flight is not fruitless: the crash
    // count (or the watchdog) settles that trial, so a slot never
    // retires for running into several poison trials.
    if (local != nullptr && !s.in_flight.empty()) s.progress = true;
    // Every trial in flight at the moment of death is a suspect; one
    // that keeps being in flight when its peer dies is the killer.
    for (const auto& [i, since] : s.in_flight) {
      if (settled(i)) continue;
      ++report.attempts;
      const std::size_t crashes = ++crash_counts[i];
      if (crashes < options.max_trial_crashes) continue;
      fail_hard(i,
                local != nullptr
                    ? what
                    : "host session lost while the trial was in flight (" +
                          why + "); trial survived " +
                          std::to_string(crashes) +
                          " host losses across the fleet (last host " +
                          s.name + ")",
                sig, local != nullptr ? &s : nullptr);
      ++s.failed_here;
    }
    if (local != nullptr) {
      for (const auto& [i, since] : s.in_flight) {
        std::remove(flight_snapshot_path(flight_base(s), i).c_str());
      }
    }
    s.in_flight.clear();
    bool returned = false;
    for (const std::size_t i : s.lease) {
      if (!settled(i)) {
        unleased.push_back(i);
        returned = true;
      }
    }
    if (returned && local == nullptr) ++report.lease_reassignments;
    s.lease.clear();
    s.lease_id = 0;
    s.fruitless = s.progress ? 0 : s.fruitless + 1;
    s.progress = false;
    if (s.fruitless >= options.max_host_failures) {
      retire(s, "fruitless sessions", local != nullptr ? what : why);
      retired_what = what;
      retired_sig = sig;
      return;
    }
    schedule_restart(s);
  };

  const auto spawn = [&](Source& s) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("run_multiprocess: socketpair() failed");
    }
    std::vector<std::string> args = local->exec_argv;
    args.insert(args.end(),
                {"--worker-fd", std::to_string(fds[1]), "--worker-id",
                 std::to_string(s.id), "--worker-shard", flight_base(s),
                 "--worker-heartbeat-ms",
                 std::to_string(local->heartbeat_interval_ms)});
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("run_multiprocess: fork() failed");
    }
    if (pid == 0) {
      ::close(fds[0]);
      // The bench preamble and result tables belong to the coordinator's
      // run alone; a worker's stdout is noise.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        ::close(devnull);
      }
      std::vector<char*> argp;
      argp.reserve(args.size() + 1);
      for (auto& arg : args) argp.push_back(arg.data());
      argp.push_back(nullptr);
      ::execvp(argp[0], argp.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL, 0) | O_NONBLOCK);
    ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
    if (s.losses > 0) ++report.worker_respawns;
    s.pid = pid;
    s.fd = fds[0];
  };

  const auto start = [&](Source& s) {
    if (local != nullptr) {
      spawn(s);
    } else {
      const int fd = connect_to_host(s.addr.host, s.addr.port,
                                     options.connect_timeout_ms);
      if (fd < 0) {
        if (++s.fruitless >= options.max_host_failures) {
          retire(s, "failed connects", "connect failed");
        } else {
          schedule_restart(s);
        }
        return;
      }
      s.fd = fd;
    }
    s.hello = false;
    s.parser = TransportParser{};
    s.last_heard = Clock::now();
    s.last_retried_total = 0;
    s.progress = false;
  };

  const auto lease_size = [&](std::size_t live) {
    if (options.lease_trials > 0) return options.lease_trials;
    const std::size_t spread =
        unleased.size() / (2 * std::max<std::size_t>(1, live)) + 1;
    return std::min<std::size_t>(32, spread);
  };

  const auto grant = [&](Source& s, std::size_t live) {
    std::vector<std::size_t> lease;
    const std::size_t want = lease_size(live);
    while (!unleased.empty() && lease.size() < want) {
      const std::size_t i = unleased.front();
      unleased.pop_front();
      if (!settled(i)) lease.push_back(i);
    }
    if (lease.empty()) return;
    s.lease = lease;
    s.lease_id = ++lease_counter;
    ControlMessage m;
    m.kind = ControlKind::kLeaseGrant;
    m.lease = s.lease_id;
    m.text = format_index_spans(lease);
    const auto frame = encode_control_message(m);
    if (!write_all_fd(s.fd, frame.data(), frame.size())) {
      lose(s, "send failed", false);  // the lease returns to the pool
    }
  };

  // False on a protocol violation: the stream is garbage from there on.
  const auto handle_frame = [&](Source& s, TransportFrame frame) -> bool {
    switch (frame.type) {
      case TransportFrame::Type::kStatus: {
        WorkerRecord& rec = frame.record;
        const std::size_t index = rec.trial_index;
        switch (rec.kind) {
          case WorkerRecordKind::kHello:
            s.hello = true;
            return true;
          case WorkerRecordKind::kHeartbeat:
            return true;
          case WorkerRecordKind::kTrialStart:
            // Liveness, not progress: only settling records clear the
            // fruitless counter, so a peer that starts trials but never
            // finishes one still retires.
            if (index < trials.size() && !settled(index)) {
              s.in_flight[index] = Clock::now();
              if (options.supervisor.on_trial_start) {
                options.supervisor.on_trial_start(index, trials[index]);
              }
            }
            return true;
          case WorkerRecordKind::kTrialDone:
          case WorkerRecordKind::kTrialFailed:
            break;
        }
        if (rec.retried_total >= s.last_retried_total) {
          const std::uint32_t delta = rec.retried_total - s.last_retried_total;
          report.retries += delta;
          report.attempts += delta;  // every retry is one more invocation
          s.last_retried_total = rec.retried_total;
        }
        // kTrialDone is liveness only: completion is settled by the
        // result frame that follows it.
        if (rec.kind == WorkerRecordKind::kTrialDone) return true;
        s.in_flight.erase(index);
        if (index >= trials.size() || settled(index)) return true;
        s.progress = true;
        s.fruitless = 0;
        ++report.attempts;
        failed_bit[index] = 1;
        ++s.failed_here;
        TrialFailure failure;
        failure.kind = rec.failure_kind;
        failure.what = std::move(rec.what);
        failure.trial_index = index;
        failure.seed = rec.seed;
        failure.attempt = rec.attempt;
        failure.flight = std::move(rec.flight);
        report.failures.push_back(std::move(failure));
        emit_progress(index, nullptr, &report.failures.back());
        return true;
      }
      case TransportFrame::Type::kResult: {
        JournalEntry& entry = frame.entry;
        const std::size_t index = entry.trial_index;
        if (index >= trials.size()) return true;            // foreign index
        if (entry.seed != trials[index].seed) return true;  // foreign seed
        s.in_flight.erase(index);
        if (failed_bit[index]) return true;  // settled as failed: ignore
        s.progress = true;
        s.fruitless = 0;
        if (report.completed[index]) {
          // Double-completion after a spurious lease expiry: last
          // record wins, the shard-merge rule applied live.
          report.results[index] = std::move(entry.result);
          return true;
        }
        report.results[index] = std::move(entry.result);
        report.completed[index] = 1;
        ++report.attempts;
        ++s.done_here;
        journal_result(index);
        emit_progress(index, &report.results[index], nullptr);
        return true;
      }
      case TransportFrame::Type::kControl: {
        const ControlMessage& m = frame.control;
        if (m.kind == ControlKind::kStatus) {
          // Off-band observability: refresh this peer's contribution to
          // the merged snapshot — never progress, never trial
          // accounting. An undecodable payload is dropped (the CRC
          // passed; this is version skew, not line noise).
          auto snap = decode_status_snapshot(std::span<const std::uint8_t>{
              reinterpret_cast<const std::uint8_t*>(m.text.data()),
              m.text.size()});
          if (snap) s.status = std::move(*snap);
          return true;
        }
        // Only peers send kLeaseComplete; a grant or shutdown coming
        // BACK is a protocol violation.
        if (m.kind != ControlKind::kLeaseComplete) return false;
        if (m.lease != s.lease_id) return true;  // stale lease: ignore
        bool returned = false;
        bool any_settled = false;
        for (const std::size_t i : s.lease) {
          if (settled(i)) {
            any_settled = true;
          } else {
            unleased.push_back(i);
            returned = true;
          }
        }
        if (returned && local == nullptr) ++report.lease_reassignments;
        s.lease.clear();
        s.lease_id = 0;
        if (!any_settled) {
          // A lease "completed" with nothing settled means the peer is
          // running a different trial list (argv drift) or dropping
          // every result. Re-granting forever would wedge the campaign;
          // fruitless-session accounting retires it instead.
          lose(s, "lease completed without settling any trial", false);
        }
        return true;
      }
    }
    return true;
  };

  // Merged fourbit.status/1 publication: coordinator lifecycle truth,
  // per-source lease state and settle ledger, absorbed dead-session
  // metrics, and every source's latest forwarded snapshot. The fallback
  // counters are atomics because during a host fleet's in-process
  // fallback a StatusPublisher thread reads them while run_supervised's
  // callback writes them.
  const bool status_publishing =
      !options.status_path.empty() || static_cast<bool>(options.on_status);
  const auto campaign_start = Clock::now();
  std::uint64_t status_seq = 0;
  auto last_status_publish = campaign_start;
  std::atomic<std::size_t> fallback_settled{0};
  std::atomic<std::size_t> fallback_failed{0};
  std::atomic<std::uint64_t> fallback_retried{0};
  const auto publish_status = [&] {
    StatusSnapshot snap;
    status_board.fill_snapshot(snap);
    const std::uint64_t all_settled_count =
        progress_done + fallback_settled.load(std::memory_order_relaxed);
    const std::uint64_t all_failed =
        failed_count + fallback_failed.load(std::memory_order_relaxed);
    snap.done = all_settled_count - all_failed;
    snap.failed = all_failed;
    snap.retried =
        report.retries + fallback_retried.load(std::memory_order_relaxed);
    snap.replayed = report.replayed;
    snap.hard_crashes = report.hard_crashes;
    snap.worker_respawns = report.worker_respawns;
    snap.host_losses = report.host_losses;
    snap.lease_reassignments = report.lease_reassignments;
    for (const auto& s : sources) {
      snap.in_flight += s.in_flight.size();
      StatusSource src;
      src.name = s.name;
      src.kind = local != nullptr ? StatusSource::Kind::kWorker
                                  : StatusSource::Kind::kHost;
      src.alive = s.fd >= 0;
      src.retired = s.retired;
      src.done = s.done_here;
      src.failed = s.failed_here;
      src.in_flight = s.in_flight.size();
      src.losses = s.losses;
      src.fruitless = s.fruitless;
      std::vector<std::size_t> unsettled;
      for (const std::size_t i : s.lease) {
        if (!settled(i)) unsettled.push_back(i);
      }
      src.lease = format_index_spans(unsettled);
      if (s.status) merge_status_metrics(snap, *s.status);
      snap.sources.push_back(std::move(src));
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - campaign_start).count();
    stamp_status(snap, ++status_seq, elapsed, trials.size());
    if (!options.status_path.empty()) {
      write_status_file(options.status_path, status_json(snap));
    }
    if (options.on_status) options.on_status(snap);
  };

  // ---- the lease loop ----
  while (true) {
    const auto now = Clock::now();

    // Publish at the top of the sweep so the file stays fresh even
    // while every source is down and the loop is just waiting on backoff.
    if (status_publishing &&
        now - last_status_publish >=
            std::chrono::milliseconds(std::max<std::uint64_t>(
                10, options.status_interval_ms))) {
      last_status_publish = now;
      publish_status();
    }

    // Done once every owed trial is settled and no live peer still owes
    // a lease completion (which carries its last status snapshot).
    const bool all_settled = std::all_of(owed.begin(), owed.end(), settled);
    const bool leases_out =
        std::any_of(sources.begin(), sources.end(), [](const Source& s) {
          return s.fd >= 0 && s.lease_id != 0;
        });
    if (all_settled && !leases_out) break;

    std::size_t live = 0;
    bool all_retired = true;
    for (auto& s : sources) {
      if (!all_settled && !s.retired && s.fd < 0 && now >= s.start_at) {
        start(s);
      }
      if (s.fd >= 0) ++live;
      if (!s.retired) all_retired = false;
    }
    if (live == 0) {
      if (all_retired) break;  // nothing can run the rest
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }

    for (auto& s : sources) {
      if (s.fd >= 0 && s.hello && s.lease.empty() && !unleased.empty()) {
        grant(s, live);
      }
    }

    std::vector<pollfd> pfds;
    std::vector<Source*> owners;
    for (auto& s : sources) {
      if (s.fd < 0) continue;
      pfds.push_back(pollfd{s.fd, POLLIN, 0});
      owners.push_back(&s);
    }
    if (pfds.empty()) continue;
    poll_retry(pfds.data(), pfds.size(), 50);

    for (std::size_t x = 0; x < pfds.size(); ++x) {
      Source& s = *owners[x];
      if (s.fd < 0) continue;  // lost earlier this sweep
      if ((pfds[x].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool eof = false;
      std::string why;
      while (true) {
        std::uint8_t buf[65536];
        ssize_t n;
        do {
          n = ::read(s.fd, buf, sizeof buf);
        } while (n < 0 && errno == EINTR);
        if (n > 0) {
          s.last_heard = Clock::now();
          s.parser.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        eof = true;
        why = n == 0 ? "disconnected" : "read failed";
        break;
      }
      // Settle everything the peer managed to report before judging its
      // death: pre-crash results are real completions.
      while (s.fd >= 0) {
        auto frame = s.parser.next();
        if (!frame) break;
        if (!handle_frame(s, std::move(*frame))) {
          lose(s, "protocol violation", false);
        }
      }
      if (s.fd < 0) continue;
      if (s.parser.corrupt()) {
        lose(s, "corrupt stream", false);
      } else if (eof) {
        lose(s, why, true);
      }
    }

    // Deadlines: heartbeat silence and (when armed) per-trial watchdog.
    const auto deadline_now = Clock::now();
    for (auto& s : sources) {
      if (s.fd < 0) continue;
      const auto silent_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline_now -
                                                                s.last_heard)
              .count();
      if (options.heartbeat_timeout_ms != 0 &&
          silent_ms > static_cast<std::int64_t>(options.heartbeat_timeout_ms)) {
        lose(s, "heartbeat silence (" + std::to_string(silent_ms) + " ms)",
             false);
        continue;
      }
      if (options.trial_timeout_ms == 0) continue;
      bool overdue = false;
      for (const auto& [i, since] : s.in_flight) {
        if (deadline_now - since >
                std::chrono::milliseconds(options.trial_timeout_ms) &&
            !settled(i)) {
          // A terminal timeout right now — not a crash-count candidate;
          // collateral in-flight trials go through the suspect
          // accounting in lose().
          fail_timeout(i);
          ++s.failed_here;
          overdue = true;
        }
      }
      if (overdue) lose(s, "trial-timeout", false);
    }
  }

  // Hang up on every peer. A local worker exits through std::exit on
  // the shutdown (its atexit handlers run) and is reaped before its end
  // of the stream closes: a worker that sees its coordinator gone mid-
  // write takes the fast _exit instead.
  {
    ControlMessage bye;
    bye.kind = ControlKind::kShutdown;
    const auto frame = encode_control_message(bye);
    for (auto& s : sources) {
      if (s.fd < 0) continue;
      write_all_fd(s.fd, frame.data(), frame.size());
      if (s.pid > 0) ::waitpid(s.pid, nullptr, 0);
      s.pid = -1;
      ::close(s.fd);
      s.fd = -1;
    }
  }

  // ---- every source retired with work left ----
  std::vector<std::size_t> remaining;
  for (const std::size_t i : owed) {
    if (!settled(i)) remaining.push_back(i);
  }
  if (!remaining.empty() && local != nullptr) {
    // Process isolation is the contract of --workers: the rest fails
    // rather than running in the coordinator.
    for (const std::size_t i : remaining) {
      fail_hard(i, retired_what + " (repeatedly, before reporting any trial)",
                retired_sig, nullptr);
    }
  } else if (!remaining.empty()) {
    std::fprintf(stderr,
                 "fourbit-dispatch: every host is gone; finishing %zu "
                 "remaining trials locally\n",
                 remaining.size());
    SupervisorOptions fallback = options.supervisor;
    fallback.subset = remaining;
    fallback.journal_path =
        user_journal ? TrialJournal::shard_path(stem, kLocalShardId) : "";
    const std::size_t base_done = progress_done;
    const std::size_t base_failed = failed_count;
    const std::uint64_t base_retries = report.retries;
    const auto inner = options.supervisor.on_trial_done;
    fallback.on_trial_done = [&, inner](const TrialProgress& p) {
      fallback_settled.store(p.completed, std::memory_order_relaxed);
      fallback_failed.store(p.failed, std::memory_order_relaxed);
      fallback_retried.store(p.retried, std::memory_order_relaxed);
      if (!inner) return;
      TrialProgress q = p;  // re-base counters onto the whole campaign
      q.completed = base_done + p.completed;
      q.failed = base_failed + p.failed;
      q.retried = static_cast<std::size_t>(base_retries) + p.retried;
      inner(q);
    };
    // The fallback supervisor feeds the same board the peers fed, and a
    // publisher thread keeps the file fresh while run_supervised blocks.
    fallback.status = &status_board;
    std::optional<StatusPublisher> fallback_publisher;
    if (status_publishing) {
      fallback_publisher.emplace(options.status_interval_ms, publish_status);
    }
    CampaignReport fb = run_supervised(trials, fallback);
    fallback_publisher.reset();  // final tick before the report merge
    for (const std::size_t i : remaining) {
      if (fb.completed[i]) {
        report.results[i] = std::move(fb.results[i]);
        report.completed[i] = 1;
      }
    }
    for (auto& f : fb.failures) {
      failed_bit[f.trial_index] = 1;
      report.failures.push_back(std::move(f));
    }
    report.attempts += fb.attempts;
    report.retries += fb.retries;
    report.journal_torn = report.journal_torn || fb.journal_torn;
  }

  if (user_journal) {
    remote_shard.reset();  // flush + close before the merge reads it
    // Late double-completions may sit in the shards; fold them in with
    // the same last-wins rule, then compact everything into the main
    // journal IN INDEX ORDER — the byte order a single-process
    // --threads run would have produced — and delete the shards and any
    // flight snapshots.
    auto merged = TrialJournal::merge_shards(stem);
    report.journal_torn = report.journal_torn || merged.torn;
    for (auto& entry : merged.entries) {
      if (entry.trial_index >= trials.size()) continue;
      if (entry.seed != trials[entry.trial_index].seed) continue;
      if (failed_bit[entry.trial_index]) continue;
      report.results[entry.trial_index] = std::move(entry.result);
      report.completed[entry.trial_index] = 1;
    }
    {
      auto out = TrialJournal::open_append(stem);
      for (std::size_t i = 0; i < trials.size(); ++i) {
        if (!report.completed[i] || main_has[i]) continue;
        out.append(static_cast<std::uint32_t>(i), trials[i].seed,
                   report.results[i]);
      }
    }
    const fs::path stem_path{stem};
    const fs::path dir = stem_path.has_parent_path() ? stem_path.parent_path()
                                                     : fs::path{"."};
    const std::string prefix = stem_path.filename().string() + ".w";
    std::error_code ec;
    for (const auto& dirent : fs::directory_iterator{dir, ec}) {
      const std::string name = dirent.path().filename().string();
      if (name.compare(0, prefix.size(), prefix) == 0) {
        fs::remove(dirent.path(), ec);
      }
    }
  }

  report.journal_write_failures =
      TrialJournal::write_failures() - journal_failures_before;
  // Settlement order is scheduling; the report must not be.
  std::sort(report.failures.begin(), report.failures.end(),
            [](const TrialFailure& a, const TrialFailure& b) {
              return a.trial_index < b.trial_index;
            });
  // Per-host health ledger, in --hosts order (deterministic), for
  // describe() and post-mortems.
  if (local == nullptr) {
    for (const auto& s : sources) {
      HostHealth health;
      health.name = s.name;
      health.completed = s.done_here;
      health.losses = s.losses;
      health.fruitless = s.fruitless;
      health.retired = s.retired;
      report.host_health.push_back(std::move(health));
    }
  }
  // The last published snapshot is the settled end state — a poller
  // never ends the campaign staring at a mid-flight picture.
  if (status_publishing) publish_status();
  return report;
}

}  // namespace

CampaignReport run_distributed(const std::vector<ExperimentConfig>& trials,
                               const DispatchOptions& options) {
  return coordinate(trials, options, nullptr);
}

CampaignReport run_multiprocess(const std::vector<ExperimentConfig>& trials,
                                const MultiprocessOptions& options) {
  DispatchOptions shared;
  shared.supervisor = options.supervisor;
  shared.heartbeat_timeout_ms = options.heartbeat_timeout_ms;
  // A slot whose workers die this many times in a row before settling
  // anything (an exec failure loop, an instant OOM) is retired.
  shared.max_host_failures = std::max<std::size_t>(2, options.max_trial_crashes);
  shared.max_trial_crashes = options.max_trial_crashes;
  shared.trial_timeout_ms = options.trial_timeout_ms;
  shared.status_path = options.status_path;
  shared.status_interval_ms = options.status_interval_ms;
  shared.on_status = options.on_status;
  return coordinate(trials, shared, &options);
}

}  // namespace fourbit::runner
