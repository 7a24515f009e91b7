// Campaign coordination: the one lease loop behind --workers and
// --hosts, and the host agent that serves it over TCP.
//
// Topology: one coordinator, N lease-serving peers. A peer is either a
// local slot (a worker process the coordinator fork/execs on a
// socketpair, worker.hpp) or a host agent (any bench binary relaunched
// with `--serve port`, reached over TCP with `--hosts a:port,b:port`).
// Both ends derive the identical trial list from the same bench
// arguments, so the only things that cross the stream are trial INDICES
// (lease grants) and trial RESULTS (journal frames); transport.hpp has
// the frames. The coordinator loop:
//
//   * serves trial-index leases to live peers and tracks per-peer
//     deadlines (heartbeat silence, disconnect, or a corrupt stream ends
//     the session and returns the unsettled part of its lease);
//   * restarts lost peers with capped-exponential Backoff — a local slot
//     is respawned, a host is reconnected — and retires a peer after
//     enough fruitless sessions in a row;
//   * settles a trial on a result or a terminal failure, deduplicating
//     double-completions by (index, seed) last-wins;
//   * attributes a peer's death to the trials that were in flight and
//     marks a trial kHardCrash once it survives max_trial_crashes
//     deaths (the crash-loop quarantine, local and across machines);
//   * journals every accepted result to one coordinator-side shard
//     ("<stem>.w1000000.journal"), so SIGKILLing the coordinator loses
//     nothing a peer already reported; and
//   * once every peer has retired, finishes a host fleet's remaining
//     work in-process (the campaign ALWAYS completes) or, for local
//     slots, fails it as kHardCrash (process isolation is the contract
//     of --workers).
//
// Determinism: every trial is a pure function of its config, results
// ride CRC-framed journal records byte-for-byte, the final report is
// keyed by trial index, and the shard compaction at the end rewrites
// the main journal in index order — so a clean campaign's
// CampaignReport and --journal file are byte-identical to a
// single-process run, and a resume after coordinator SIGKILL is
// bit-identical too. Liveness caveat: a peer that heartbeats but never
// finishes its trial is only expired when --max-trial-ms arms
// trial_timeout_ms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/status.hpp"
#include "runner/supervisor.hpp"

namespace fourbit::runner {

/// Coordinator-side journal shard ids: results accepted from peers, and
/// the in-process fallback's journal, live in these shards until the
/// final compaction folds both into the main journal.
inline constexpr std::size_t kRemoteShardId = 1'000'000;
inline constexpr std::size_t kLocalShardId = 1'000'001;

struct DispatchOptions {
  /// Trial-level policy. journal_path is the main journal stem (shards
  /// live next to it); on_trial_done fires on the coordinator as trials
  /// settle; run_trial/threads apply to the local fallback only.
  SupervisorOptions supervisor;
  /// Host agents to drive (from --hosts). May be empty, in which case
  /// the whole campaign is one local fallback pass.
  std::vector<HostEndpoint> hosts;
  /// Trials per lease grant; 0 = auto (unleased / 2·live peers + 1,
  /// capped at 32 — small enough that a lost peer forfeits little
  /// work). --workers uses the auto rule.
  std::size_t lease_trials = 0;

  /// A host session silent for this long is dead: lease expired.
  std::uint64_t heartbeat_timeout_ms = 10'000;
  /// Per-connect() deadline.
  std::uint64_t connect_timeout_ms = 2'000;
  /// Delay ladder between reconnect attempts to a lost host.
  Backoff reconnect_backoff{250, 10'000, 0.25};
  /// Consecutive fruitless sessions/connect failures (no trial
  /// progress) before a host is retired for the campaign.
  std::size_t max_host_failures = 3;
  /// Host deaths a single trial may be in flight for before it is
  /// declared the killer and marked kHardCrash (crash-loop quarantine).
  std::size_t max_trial_crashes = 2;
  /// Coordinator-side per-trial wall clock (0 = off): expires the
  /// session of a host whose trial outlives it (non-cooperative hangs
  /// on a machine we cannot signal).
  std::uint64_t trial_timeout_ms = 0;

  /// Live observability: publish a merged fourbit.status/1 snapshot —
  /// per-host lease state and health plus every host's forwarded
  /// metrics — to status_path every status_interval_ms
  /// (write-temp-then-rename), and/or hand it to on_status. Strictly
  /// off-band; empty/null disables.
  std::string status_path;
  std::uint64_t status_interval_ms = 1000;
  std::function<void(const StatusSnapshot&)> on_status;
};

/// Runs the campaign across remote host agents. Blocks until every
/// trial is settled; never throws on host misbehavior — only on
/// coordinator-side setup errors (e.g. an unopenable journal).
[[nodiscard]] CampaignReport run_distributed(
    const std::vector<ExperimentConfig>& trials,
    const DispatchOptions& options);

/// Host-agent mode (--serve): listens on cli.serve_port (0 =
/// ephemeral; the bound port is announced on stderr as
/// "fourbit-agent: listening on port N"), then serves coordinator
/// sessions forever — grant in, trials run (each lease through the
/// coordinator loop on local slots when --workers is given, in-process
/// otherwise), statuses and results stream out. Never returns; the agent dies by signal.
/// `options` is the agent's supervisor policy — typically
/// cli.supervisor_options(), run_trial overridden by tests; its
/// journal_path is ignored (results are durable on the coordinator).
[[noreturn]] void run_host_agent(const std::vector<ExperimentConfig>& trials,
                                 const CampaignCli& cli,
                                 SupervisorOptions options);

}  // namespace fourbit::runner
