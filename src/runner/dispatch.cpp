#include "runner/dispatch.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "runner/journal.hpp"
#include "runner/transport.hpp"
#include "runner/worker.hpp"

namespace fourbit::runner {
namespace {

using Clock = std::chrono::steady_clock;

// ---- coordinator ------------------------------------------------------

struct HostSlot {
  std::size_t index = 0;  // position on the --hosts list
  HostEndpoint addr;
  int fd = -1;
  bool hello = false;  // host identified itself as a fourbit agent
  TransportParser parser;

  std::uint32_t lease_id = 0;        // outstanding lease (0 = none)
  std::vector<std::size_t> lease;    // trial indices granted
  std::set<std::size_t> in_flight;   // kTrialStart seen, not settled
  std::map<std::size_t, Clock::time_point> started_at;

  Clock::time_point last_heard{};
  std::uint32_t last_retried_total = 0;
  bool progress_this_session = false;
  /// Consecutive fruitless outcomes: failed connects and sessions that
  /// died without a single trial-progress record.
  std::size_t fruitless = 0;
  Clock::time_point reconnect_at{};
  bool retired = false;
  /// Session deaths charged to this host (its share of host_losses).
  std::size_t losses = 0;
  /// Per-host health ledger across the whole campaign: results this
  /// host delivered, and terminal soft failures it reported.
  std::uint64_t done_here = 0;
  std::uint64_t failed_here = 0;
  /// Latest fourbit.status/1 snapshot forwarded over FT; folded into
  /// the coordinator board when the session dies so merged counters
  /// stay monotonic across reconnects.
  std::optional<StatusSnapshot> status;

  [[nodiscard]] std::string name() const {
    return addr.host + ":" + std::to_string(addr.port);
  }
};

}  // namespace

CampaignReport run_distributed(const std::vector<ExperimentConfig>& trials,
                               const DispatchOptions& options) {
  namespace fs = std::filesystem;
  ignore_sigpipe();

  CampaignReport report;
  report.results.resize(trials.size());
  report.completed.assign(trials.size(), 0);
  if (trials.empty()) return report;
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
    // hosts had already streamed survived it; pick them up.
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

  // Every result accepted over the wire goes straight to a
  // coordinator-side shard: a host's work is durable the moment the
  // coordinator has it, so SIGKILLing the coordinator loses nothing.
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

  const auto fail_hard = [&](std::size_t index, const std::string& what) {
    if (settled(index)) return;
    failed_bit[index] = 1;
    TrialFailure failure;
    failure.kind = FailureKind::kHardCrash;
    failure.what = what;
    failure.trial_index = index;
    failure.seed = trials[index].seed;
    failure.attempt = std::max<std::size_t>(1, crash_counts[index]);
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
                   std::to_string(options.trial_timeout_ms) +
                   " ms in flight); its host session was dropped";
    failure.trial_index = index;
    failure.seed = trials[index].seed;
    failure.attempt = 1;
    report.failures.push_back(std::move(failure));
    emit_progress(index, nullptr, &report.failures.back());
  };

  std::vector<HostSlot> hosts(options.hosts.size());
  for (std::size_t k = 0; k < hosts.size(); ++k) {
    hosts[k].index = k;
    hosts[k].addr = options.hosts[k];
  }
  std::deque<std::size_t> unleased(owed.begin(), owed.end());
  std::uint32_t lease_counter = 0;

  // Backoff jitter seed: campaign-stable but host-distinct, so a fleet
  // of lost hosts never reconnects in lockstep.
  const auto backoff_seed = [&](const HostSlot& h) {
    return trials.front().seed + 0x9E3779B97F4A7C15ULL * (h.index + 1);
  };

  // Merged-status accumulator: metrics absorbed from dead host
  // sessions; live sessions contribute their latest forwarded snapshot
  // at publish time, and the local fallback feeds it directly.
  StatusBoard status_board;

  const auto session_death = [&](HostSlot& h, const std::string& why) {
    if (h.fd < 0) return;
    ::close(h.fd);
    h.fd = -1;
    h.hello = false;
    h.parser = TransportParser{};
    ++report.host_losses;
    ++h.losses;
    // The dead session's last forwarded metrics move into the
    // coordinator's board so the merged counters never regress when the
    // host reconnects with a fresh registry.
    if (h.status) {
      status_board.absorb_metrics(*h.status);
      h.status.reset();
    }
    // The trials in flight when the host died are hard-crash suspects,
    // exactly like trials in flight during a worker death: count the
    // crash against each, quarantine past max_trial_crashes.
    for (const std::size_t i : h.in_flight) {
      if (settled(i)) continue;
      ++report.attempts;
      const std::size_t crashes = ++crash_counts[i];
      if (crashes >= options.max_trial_crashes) {
        fail_hard(i, "host session lost while the trial was in flight (" +
                         why + "); trial survived " +
                         std::to_string(crashes) +
                         " host losses across the fleet (last host " +
                         h.name() + ")");
      }
    }
    h.in_flight.clear();
    h.started_at.clear();
    // Whatever the lease still owes goes back to the pool for another
    // host (or the local fallback).
    bool returned = false;
    for (const std::size_t i : h.lease) {
      if (!settled(i)) {
        unleased.push_back(i);
        returned = true;
      }
    }
    if (returned) ++report.lease_reassignments;
    h.lease.clear();
    h.lease_id = 0;
    if (h.progress_this_session) {
      h.fruitless = 0;
    } else {
      ++h.fruitless;
    }
    h.progress_this_session = false;
    if (h.fruitless >= options.max_host_failures) {
      h.retired = true;
      std::fprintf(stderr,
                   "fourbit-dispatch: retiring host %s after %zu fruitless "
                   "sessions (%s)\n",
                   h.name().c_str(), h.fruitless, why.c_str());
      return;
    }
    h.reconnect_at =
        Clock::now() +
        std::chrono::milliseconds(options.reconnect_backoff.delay_ms(
            std::max<std::size_t>(1, h.fruitless), backoff_seed(h)));
  };

  const auto lease_size = [&](std::size_t live_hosts) {
    if (options.lease_trials > 0) return options.lease_trials;
    const std::size_t spread =
        unleased.size() / (2 * std::max<std::size_t>(1, live_hosts)) + 1;
    return std::min<std::size_t>(32, spread);
  };

  const auto send_to = [&](HostSlot& h, const std::vector<std::uint8_t>& f) {
    if (h.fd < 0) return false;
    if (write_all_fd(h.fd, f.data(), f.size())) return true;
    session_death(h, "send failed");
    return false;
  };

  const auto grant = [&](HostSlot& h, std::size_t live_hosts) {
    std::vector<std::size_t> lease;
    const std::size_t want = lease_size(live_hosts);
    while (!unleased.empty() && lease.size() < want) {
      const std::size_t i = unleased.front();
      unleased.pop_front();
      if (!settled(i)) lease.push_back(i);
    }
    if (lease.empty()) return;
    h.lease = lease;
    h.lease_id = ++lease_counter;
    ControlMessage m;
    m.kind = ControlKind::kLeaseGrant;
    m.lease = h.lease_id;
    m.text = format_index_spans(lease);
    if (!send_to(h, encode_control_message(m))) return;  // lease returned
  };

  const auto handle_frame = [&](HostSlot& h, TransportFrame frame) -> bool {
    switch (frame.type) {
      case TransportFrame::Type::kStatus: {
        WorkerRecord& rec = frame.record;
        const std::size_t index = rec.trial_index;
        switch (rec.kind) {
          case WorkerRecordKind::kHello:
            h.hello = true;
            return true;
          case WorkerRecordKind::kHeartbeat:
          case WorkerRecordKind::kBye:
            return true;
          case WorkerRecordKind::kStatus:
            // Hosts stream status as ControlKind::kStatus; an FW-framed
            // status record counts as liveness only, never progress.
            return true;
          case WorkerRecordKind::kTrialStart:
            // Liveness, not progress: only settling records clear the
            // fruitless counter, so a host that starts trials but never
            // finishes one still retires.
            if (index < trials.size() && !settled(index)) {
              h.in_flight.insert(index);
              h.started_at[index] = Clock::now();
            }
            return true;
          case WorkerRecordKind::kTrialDone:
          case WorkerRecordKind::kTrialFailed:
            break;
        }
        h.progress_this_session = true;
        h.fruitless = 0;
        h.in_flight.erase(index);
        h.started_at.erase(index);
        if (rec.retried_total >= h.last_retried_total) {
          const std::uint32_t delta = rec.retried_total - h.last_retried_total;
          report.retries += delta;
          report.attempts += delta;  // every retry is one more invocation
          h.last_retried_total = rec.retried_total;
        }
        if (index >= trials.size() || settled(index)) return true;
        // kTrialDone is liveness only: completion is settled by the
        // result frame that follows (the wire twin of "results never
        // ride the pipe; they ride the journal").
        if (rec.kind == WorkerRecordKind::kTrialDone) return true;
        ++report.attempts;
        failed_bit[index] = 1;
        ++h.failed_here;
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
        if (index >= trials.size()) return true;          // foreign index
        if (entry.seed != trials[index].seed) return true;  // foreign seed
        if (failed_bit[index]) return true;  // settled as failed: ignore
        h.progress_this_session = true;
        h.fruitless = 0;
        if (report.completed[index]) {
          // Double-completion after a spurious lease expiry: last
          // record wins, the shard-merge rule applied live.
          report.results[index] = std::move(entry.result);
          return true;
        }
        report.results[index] = std::move(entry.result);
        report.completed[index] = 1;
        ++report.attempts;
        ++h.done_here;
        journal_result(index);
        emit_progress(index, &report.results[index], nullptr);
        return true;
      }
      case TransportFrame::Type::kControl: {
        const ControlMessage& m = frame.control;
        if (m.kind == ControlKind::kStatus) {
          // Off-band observability: refresh this host's contribution to
          // the merged snapshot. Liveness only — never progress, never
          // trial accounting. Undecodable payloads are dropped (the CRC
          // passed; this is version skew, not line noise).
          auto snap = decode_status_snapshot(std::span<const std::uint8_t>{
              reinterpret_cast<const std::uint8_t*>(m.text.data()),
              m.text.size()});
          if (snap) h.status = std::move(*snap);
          return true;
        }
        if (m.kind != ControlKind::kLeaseComplete) {
          // Only hosts send kLeaseComplete; a grant or shutdown coming
          // BACK is a protocol violation — the stream is garbage.
          return false;
        }
        if (m.lease != h.lease_id) return true;  // stale lease: ignore
        bool returned = false;
        bool any_settled = false;
        for (const std::size_t i : h.lease) {
          if (settled(i)) {
            any_settled = true;
          } else {
            unleased.push_back(i);
            returned = true;
          }
        }
        if (returned) ++report.lease_reassignments;
        h.lease.clear();
        h.lease_id = 0;
        if (!any_settled) {
          // A lease "completed" with nothing settled means the host is
          // running a different trial list (argv drift) or dropping
          // every result. Re-granting forever would wedge the campaign;
          // fruitless-session accounting retires it instead.
          session_death(h, "lease completed without settling any trial");
        }
        return true;
      }
    }
    return true;
  };

  // Merged fourbit.status/1 publication: coordinator lifecycle truth,
  // per-host lease state/health, absorbed dead-session metrics, and
  // every live host's latest forwarded snapshot. The fallback counters
  // are atomics because during the degradation pass a StatusPublisher
  // thread reads them while run_supervised's callback writes them.
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
    const std::uint64_t local_in_flight = snap.in_flight;
    const std::uint64_t all_settled_count =
        progress_done + fallback_settled.load(std::memory_order_relaxed);
    const std::uint64_t all_failed =
        failed_count + fallback_failed.load(std::memory_order_relaxed);
    snap.done = all_settled_count - all_failed;
    snap.failed = all_failed;
    snap.retried =
        report.retries + fallback_retried.load(std::memory_order_relaxed);
    snap.replayed = report.replayed;
    snap.host_losses = report.host_losses;
    snap.lease_reassignments = report.lease_reassignments;
    std::uint64_t wire_in_flight = 0;
    for (const auto& h : hosts) wire_in_flight += h.in_flight.size();
    snap.in_flight = local_in_flight + wire_in_flight;
    for (const auto& h : hosts) {
      StatusSource src;
      src.name = h.name();
      src.kind = StatusSource::Kind::kHost;
      src.alive = h.fd >= 0;
      src.retired = h.retired;
      src.done = h.done_here;
      src.failed = h.failed_here;
      src.in_flight = h.in_flight.size();
      src.losses = h.losses;
      src.fruitless = h.fruitless;
      src.lease = format_index_spans(h.lease);
      if (h.status) merge_status_metrics(snap, *h.status);
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

  // ---- the dispatch loop ----
  while (true) {
    const auto now = Clock::now();

    // Publish at the top of the sweep so the file stays fresh even
    // while every host is down and the loop is just waiting on backoff.
    if (status_publishing &&
        now - last_status_publish >=
            std::chrono::milliseconds(std::max<std::uint64_t>(
                10, options.status_interval_ms))) {
      last_status_publish = now;
      publish_status();
    }

    bool all_settled = true;
    for (const std::size_t i : owed) {
      if (!settled(i)) {
        all_settled = false;
        break;
      }
    }
    if (all_settled) {
      ControlMessage bye;
      bye.kind = ControlKind::kShutdown;
      const auto frame = encode_control_message(bye);
      for (auto& h : hosts) {
        if (h.fd < 0) continue;
        write_all_fd(h.fd, frame.data(), frame.size());
        ::close(h.fd);
        h.fd = -1;
      }
      break;
    }

    // Reconnect lost hosts whose backoff has elapsed.
    for (auto& h : hosts) {
      if (h.retired || h.fd >= 0 || now < h.reconnect_at) continue;
      const int fd =
          connect_to_host(h.addr.host, h.addr.port, options.connect_timeout_ms);
      if (fd < 0) {
        ++h.fruitless;
        if (h.fruitless >= options.max_host_failures) {
          h.retired = true;
          std::fprintf(stderr,
                       "fourbit-dispatch: retiring host %s after %zu failed "
                       "connects\n",
                       h.name().c_str(), h.fruitless);
          continue;
        }
        h.reconnect_at =
            Clock::now() +
            std::chrono::milliseconds(options.reconnect_backoff.delay_ms(
                std::max<std::size_t>(1, h.fruitless), backoff_seed(h)));
        continue;
      }
      h.fd = fd;
      h.hello = false;
      h.parser = TransportParser{};
      h.last_heard = Clock::now();
      h.last_retried_total = 0;
      h.progress_this_session = false;
    }

    std::size_t live = 0;
    bool all_retired = true;
    for (const auto& h : hosts) {
      if (h.fd >= 0) ++live;
      if (!h.retired) all_retired = false;
    }
    if (live == 0) {
      if (all_retired) break;  // every host is gone: local fallback
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }

    // Grant work to idle identified hosts.
    for (auto& h : hosts) {
      if (h.fd >= 0 && h.hello && h.lease.empty() && !unleased.empty()) {
        grant(h, live);
      }
    }

    // Poll and drain.
    std::vector<pollfd> pfds;
    std::vector<HostSlot*> owners;
    for (auto& h : hosts) {
      if (h.fd < 0) continue;
      pfds.push_back(pollfd{h.fd, POLLIN, 0});
      owners.push_back(&h);
    }
    if (pfds.empty()) continue;
    poll_retry(pfds.data(), pfds.size(), 50);

    for (std::size_t x = 0; x < pfds.size(); ++x) {
      HostSlot& h = *owners[x];
      if (h.fd < 0) continue;  // killed earlier this sweep
      if ((pfds[x].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool dead = false;
      std::string why;
      while (h.fd >= 0) {
        std::uint8_t buf[65536];
        ssize_t n;
        do {
          n = ::read(h.fd, buf, sizeof buf);
        } while (n < 0 && errno == EINTR);
        if (n > 0) {
          h.last_heard = Clock::now();
          h.parser.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        dead = true;
        why = n == 0 ? "disconnected" : "read failed";
        break;
      }
      while (h.fd >= 0) {
        auto frame = h.parser.next();
        if (!frame) break;
        if (!handle_frame(h, std::move(*frame))) {
          dead = true;
          why = "protocol violation";
          break;
        }
      }
      if (h.fd >= 0 && h.parser.corrupt()) {
        dead = true;
        why = "corrupt stream";
      }
      if (dead && h.fd >= 0) session_death(h, why);
    }

    // Deadlines: heartbeat silence and (when armed) per-trial watchdog.
    const auto deadline_now = Clock::now();
    for (auto& h : hosts) {
      if (h.fd < 0) continue;
      const auto silent_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline_now -
                                                                h.last_heard)
              .count();
      if (silent_ms > static_cast<std::int64_t>(options.heartbeat_timeout_ms)) {
        session_death(h, "heartbeat silence (" + std::to_string(silent_ms) +
                             " ms)");
        continue;
      }
      if (options.trial_timeout_ms == 0) continue;
      std::vector<std::size_t> overdue;
      for (const auto& [i, t0] : h.started_at) {
        const auto in_flight_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline_now -
                                                                  t0)
                .count();
        if (in_flight_ms >
            static_cast<std::int64_t>(options.trial_timeout_ms)) {
          overdue.push_back(i);
        }
      }
      if (!overdue.empty()) {
        for (const std::size_t i : overdue) fail_timeout(i);
        session_death(h, "trial-timeout");
      }
    }
  }

  // ---- degradation floor: finish whatever is left locally ----
  std::vector<std::size_t> remaining;
  for (const std::size_t i : owed) {
    if (!settled(i)) remaining.push_back(i);
  }
  if (!remaining.empty()) {
    std::fprintf(stderr,
                 "fourbit-dispatch: every host is gone; finishing %zu "
                 "remaining trials locally\n",
                 remaining.size());
    SupervisorOptions local = options.supervisor;
    local.subset = remaining;
    local.journal_path =
        user_journal ? TrialJournal::shard_path(stem, kLocalShardId) : "";
    const std::size_t base_done = progress_done;
    const std::size_t base_failed = failed_count;
    const std::uint64_t base_retries = report.retries;
    const auto inner = options.supervisor.on_trial_done;
    local.on_trial_done = [&, inner](const TrialProgress& p) {
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
    // The fallback supervisor feeds the same board the wire fed, and a
    // publisher thread keeps the file fresh while run_supervised blocks.
    local.status = &status_board;
    std::optional<StatusPublisher> fallback_publisher;
    if (status_publishing) {
      fallback_publisher.emplace(options.status_interval_ms, publish_status);
    }
    CampaignReport fb = run_supervised(trials, local);
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
    // --threads run would have produced — and delete the shards.
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
  // Settlement order is network scheduling; the report must not be.
  std::sort(report.failures.begin(), report.failures.end(),
            [](const TrialFailure& a, const TrialFailure& b) {
              return a.trial_index < b.trial_index;
            });
  // Per-host health ledger, in --hosts order (deterministic), for
  // describe() and post-mortems.
  for (const auto& h : hosts) {
    HostHealth health;
    health.name = h.name();
    health.completed = h.done_here;
    health.losses = h.losses;
    health.fruitless = h.fruitless;
    health.retired = h.retired;
    report.host_health.push_back(std::move(health));
  }
  // The last published snapshot is the settled end state — a poller
  // never ends the campaign staring at a mid-flight picture.
  if (status_publishing) publish_status();
  return report;
}

// ---- host agent -------------------------------------------------------

namespace {

/// Socket writer shared by the session thread and the heartbeat
/// thread: frames are written whole under a mutex, and the first
/// failed write latches the session dead (the coordinator is gone;
/// everything further is discarded).
class SessionWriter {
 public:
  explicit SessionWriter(int fd) : fd_(fd) {}

  bool send(const std::vector<std::uint8_t>& frame) {
    if (dead_.load(std::memory_order_relaxed)) return false;
    const std::lock_guard<std::mutex> lock{mutex_};
    if (dead_.load(std::memory_order_relaxed)) return false;
    if (!write_all_fd(fd_, frame.data(), frame.size())) {
      dead_.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  [[nodiscard]] bool dead() const {
    return dead_.load(std::memory_order_relaxed);
  }

 private:
  int fd_;
  std::mutex mutex_;
  std::atomic<bool> dead_{false};
};

void run_lease(const std::vector<ExperimentConfig>& trials,
               const CampaignCli& cli, const SupervisorOptions& base,
               SessionWriter& writer, const ControlMessage& grant,
               std::uint32_t& session_retries) {
  std::vector<std::size_t> subset;
  if (auto parsed = parse_index_spans(grant.text)) {
    for (const std::size_t i : *parsed) {
      if (i < trials.size()) subset.push_back(i);
    }
  }

  CampaignReport rep;
  std::set<std::size_t> streamed;
  if (!subset.empty()) {
    SupervisorOptions sopts = base;
    sopts.subset = subset;
    sopts.on_trial_start = [&](std::size_t index,
                               const ExperimentConfig& config) {
      WorkerRecord rec;
      rec.kind = WorkerRecordKind::kTrialStart;
      rec.worker = cli.worker_id;
      rec.trial_index = static_cast<std::uint32_t>(index);
      rec.seed = config.seed;
      writer.send(encode_worker_record(rec));
    };
    sopts.on_trial_done = [&](const TrialProgress& p) {
      WorkerRecord rec;
      rec.worker = cli.worker_id;
      rec.trial_index = static_cast<std::uint32_t>(p.trial_index);
      rec.seed = trials[p.trial_index].seed;
      rec.retried_total =
          session_retries + static_cast<std::uint32_t>(p.retried);
      if (p.failure != nullptr) {
        rec.kind = WorkerRecordKind::kTrialFailed;
        rec.failure_kind = p.failure->kind;
        rec.what = p.failure->what;
        rec.attempt = static_cast<std::uint32_t>(p.failure->attempt);
        rec.flight = p.failure->flight;
      } else {
        rec.kind = WorkerRecordKind::kTrialDone;
        rec.attempt = 1;
      }
      writer.send(encode_worker_record(rec));
      // In-process leases have the result right here: stream it now,
      // so a later trial crashing this agent cannot strand work the
      // coordinator could already have made durable.
      if (p.failure == nullptr && p.result != nullptr) {
        writer.send(encode_journal_record(
            {static_cast<std::uint32_t>(p.trial_index),
             trials[p.trial_index].seed, *p.result}));
        streamed.insert(p.trial_index);
      }
    };
    // Lease-local status flows back over FT as kStatus control frames;
    // the coordinator merges it into the campaign-wide snapshot. The
    // agent itself never writes a --status-json file.
    const std::uint32_t lease_id = grant.lease;
    const auto forward_status = [&writer,
                                 lease_id](const StatusSnapshot& snap) {
      ControlMessage m;
      m.kind = ControlKind::kStatus;
      m.lease = lease_id;
      const auto bytes = encode_status_snapshot(snap);
      m.text.assign(reinterpret_cast<const char*>(bytes.data()),
                    bytes.size());
      writer.send(encode_control_message(m));
    };
    if (cli.workers > 0) {
      // The lease rides the PR 7 worker pool: trial SIGSEGVs take down
      // a worker process, not this agent.
      MultiprocessOptions mp;
      mp.supervisor = sopts;
      mp.workers = cli.workers;
      mp.exec_argv = cli.exec_argv;
      mp.heartbeat_interval_ms = cli.worker_heartbeat_ms;
      mp.trial_timeout_ms =
          cli.max_trial_ms != 0 ? cli.max_trial_ms * 2 + 5000 : 0;
      mp.status_interval_ms = cli.status_interval_ms;
      mp.status_total = trials.size();
      mp.on_status = forward_status;
      rep = run_multiprocess(trials, mp);
    } else {
      StatusBoard board;
      sopts.status = &board;
      const auto lease_start = Clock::now();
      std::uint64_t seq = 0;
      StatusPublisher publisher{cli.status_interval_ms, [&] {
        StatusSnapshot snap;
        board.fill_snapshot(snap);
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - lease_start)
                .count();
        stamp_status(snap, ++seq, elapsed, trials.size());
        forward_status(snap);
      }};
      rep = run_supervised(trials, sopts);
    }
    session_retries += static_cast<std::uint32_t>(rep.retries);

    // Worker-pool leases (results ride shards, not the progress
    // callback) stream whatever was not already sent per-trial.
    for (const std::size_t i : subset) {
      if (!rep.completed[i] || streamed.count(i) != 0) continue;
      writer.send(encode_journal_record(
          {static_cast<std::uint32_t>(i), trials[i].seed, rep.results[i]}));
    }
  }

  ControlMessage done;
  done.kind = ControlKind::kLeaseComplete;
  done.lease = grant.lease;
  writer.send(encode_control_message(done));
}

/// One coordinator session: hello, heartbeats, leases until the
/// coordinator hangs up, shuts us down, or the stream goes bad.
void serve_session(int fd, const std::vector<ExperimentConfig>& trials,
                   const CampaignCli& cli, const SupervisorOptions& options) {
  SessionWriter writer{fd};
  {
    WorkerRecord hello;
    hello.kind = WorkerRecordKind::kHello;
    hello.worker = cli.worker_id;
    writer.send(encode_worker_record(hello));
  }

  // The heartbeat thread waits on `done` rather than sleeping, so a
  // finished session closes (and the next coordinator is accepted) at
  // once instead of after the rest of a heartbeat interval.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  const auto beat = std::chrono::milliseconds(std::max<std::uint64_t>(
      50, cli.worker_heartbeat_ms != 0 ? cli.worker_heartbeat_ms : 250));
  std::thread heartbeat([&] {
    std::unique_lock lock{done_mutex};
    while (!done_cv.wait_for(lock, beat, [&done] { return done; })) {
      lock.unlock();
      WorkerRecord rec;
      rec.kind = WorkerRecordKind::kHeartbeat;
      rec.worker = cli.worker_id;
      writer.send(encode_worker_record(rec));
      lock.lock();
    }
  });

  TransportParser parser;
  std::uint32_t session_retries = 0;
  bool hangup = false;
  while (!hangup && !writer.dead()) {
    pollfd pfd{fd, POLLIN, 0};
    const int polled = poll_retry(&pfd, 1, 500);
    if (polled < 0) break;
    if (polled == 0) continue;

    std::uint8_t buf[65536];
    ssize_t n;
    do {
      n = ::read(fd, buf, sizeof buf);
    } while (n < 0 && errno == EINTR);
    if (n == 0) break;  // coordinator hung up
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    parser.feed(buf, static_cast<std::size_t>(n));
    while (auto frame = parser.next()) {
      if (frame->type != TransportFrame::Type::kControl) {
        hangup = true;  // only control frames flow coordinator -> host
        break;
      }
      switch (frame->control.kind) {
        case ControlKind::kLeaseGrant:
          run_lease(trials, cli, options, writer, frame->control,
                    session_retries);
          break;
        case ControlKind::kShutdown:
          hangup = true;
          break;
        case ControlKind::kLeaseComplete:
        case ControlKind::kStatus:
          hangup = true;  // nonsense from a coordinator
          break;
      }
      if (hangup) break;
    }
    if (parser.corrupt()) break;
  }

  {
    const std::lock_guard lock{done_mutex};
    done = true;
  }
  done_cv.notify_all();
  heartbeat.join();
}

}  // namespace

void run_host_agent(const std::vector<ExperimentConfig>& trials,
                    const CampaignCli& cli, SupervisorOptions options) {
  ignore_sigpipe();
  // The agent keeps no journal and runs no nested distribution:
  // results are durable on the coordinator the moment they land, and a
  // reassigned lease re-runs from scratch anyway (trials are pure).
  options.journal_path.clear();
  options.subset.clear();
  options.on_trial_done = nullptr;
  options.on_trial_start = nullptr;

  const auto listener =
      listen_on(static_cast<std::uint16_t>(std::max(0, cli.serve_port)));
  if (!listener) {
    std::fprintf(stderr, "fourbit-agent: cannot listen on port %d\n",
                 cli.serve_port);
    std::exit(1);
  }
  // The announce line is the agent's API for scripts and tests: an
  // ephemeral --serve 0 port is discoverable only here.
  std::fprintf(stderr, "fourbit-agent: listening on port %u\n",
               static_cast<unsigned>(listener->port));
  std::fflush(stderr);

  for (;;) {
    const int fd = accept_retry(listener->fd);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    serve_session(fd, trials, cli, options);
    ::close(fd);
  }
}

}  // namespace fourbit::runner
