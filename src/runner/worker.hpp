// Multi-process campaign execution: `--workers K` runs a campaign on K
// local lease slots, each a fork/exec'd worker process that survives
// nothing a trial can do to it but leaves the coordinator standing.
//
// The in-process supervisor (supervisor.hpp) catches what C++ lets it
// catch — exceptions, asserts, cooperative budget timeouts. It is
// structurally blind to SIGSEGV, SIGBUS, OOM kills and std::terminate:
// those take the whole process, and every sibling trial, with it.
// run_multiprocess moves the isolation boundary to processes:
//
//   * The coordinator self-execs argv with hidden --worker-* flags on
//     one end of a socketpair; a worker rebuilds the identical trial
//     list from argv (every bench derives trials purely from its
//     arguments).
//   * A worker is a lease-serving peer. It speaks the host-agent
//     protocol (transport.hpp) over the socketpair: FW records for
//     liveness and trial lifecycle, FJ journal frames for results, FT
//     frames for leases, status and shutdown. The coordinator loop that
//     drives TCP host agents (dispatch.hpp) drives local slots too:
//     one loop grants leases, settles trials, journals results to one
//     coordinator shard, and quarantines crash loops.
//   * The loop reaps a local death with waitpid and converts fatal
//     signals / nonzero exits / torn frames into FailureKind::kHardCrash,
//     attaching the worker's last flushed flight-recorder snapshot when
//     one exists. Dead workers respawn with capped exponential backoff;
//     a trial that keeps killing its worker is marked failed-permanent
//     after max_trial_crashes.
//   * The final CampaignReport is bit-identical to a single-process run
//     for every surviving trial, at any --workers / --threads
//     combination, and a --journal ends up byte-identical too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runner/status.hpp"
#include "runner/supervisor.hpp"
#include "sim/telemetry.hpp"

namespace fourbit::runner {

// ---- FW records: peer -> coordinator liveness and trial lifecycle ----
//
// Frame layout mirrors the journal:
//     magic   u16  0x4657 ("FW")
//     length  u32  payload byte count
//     payload      version u8 | kind u8 | worker u32 | trial_index u32
//                  | seed u64 | attempt u32 | failure_kind u8
//                  | retried_total u32 | what (u32 + bytes)
//                  | flight (u32 + 37-byte events)
//     crc     u16  CRC-16/CCITT over the payload
// TransportParser (transport.hpp) reads them off the stream alongside
// FJ and FT frames.

enum class WorkerRecordKind : std::uint8_t {
  kHello = 0,      // first record of a session; leases follow it
  kHeartbeat = 1,  // liveness tick (heartbeat_interval_ms cadence)
  kTrialStart = 2, // a trial's first attempt is beginning (liveness)
  kTrialDone = 3,  // trial completed; its FJ result frame follows
  kTrialFailed = 4,// trial failed terminally in the peer (settles it)
};

struct WorkerRecord {
  WorkerRecordKind kind = WorkerRecordKind::kHeartbeat;
  std::uint32_t worker = 0;
  std::uint32_t trial_index = 0;
  std::uint64_t seed = 0;
  std::uint32_t attempt = 0;       // attempts consumed by this trial
  FailureKind failure_kind = FailureKind::kException;  // kTrialFailed
  std::uint32_t retried_total = 0; // retries so far, this session
  std::string what;                // kTrialFailed: the failure message
  std::vector<sim::TelemetryEvent> flight;  // kTrialFailed only
};

/// FW frame magic; TransportParser dispatches on it.
inline constexpr std::uint16_t kWorkerRecordMagic = 0x4657;

/// Serializes one record as a complete frame (header + payload + CRC).
[[nodiscard]] std::vector<std::uint8_t> encode_worker_record(
    const WorkerRecord& record);

/// Decodes one FW frame payload (the bytes between the length field
/// and the CRC). Returns nullopt on version or layout mismatch.
[[nodiscard]] std::optional<WorkerRecord> decode_worker_record_payload(
    std::span<const std::uint8_t> payload);

// ---- trial index spans ------------------------------------------------

/// "0-4,7,9-12" for {0,1,2,3,4,7,9,10,11,12}; "" for the empty set.
[[nodiscard]] std::string format_index_spans(
    const std::vector<std::size_t>& indices);

/// Inverse of format_index_spans; nullopt on junk (overlaps and
/// unsorted spans are accepted, duplicates removed).
[[nodiscard]] std::optional<std::vector<std::size_t>> parse_index_spans(
    const std::string& spans);

// ---- flight-recorder snapshots ----------------------------------------
//
// A worker can die holding the only evidence of what its sim was doing.
// run_experiment periodically flushes the flight recorder to
// flight_snapshot_path(base, index) (write-temp-then-rename, so the
// file is always a complete snapshot or absent), where base is the
// worker's --worker-shard; the coordinator loads the latest one into
// the hard-crash TrialFailure.

struct FlightSnapshot {
  std::uint32_t trial_index = 0;
  std::uint64_t seed = 0;
  std::vector<sim::TelemetryEvent> events;
};

void write_flight_snapshot(const std::string& path, std::size_t trial_index,
                           std::uint64_t seed,
                           const std::vector<sim::TelemetryEvent>& events);

/// nullopt when the file is absent, torn, or fails its CRC — crash
/// evidence is best-effort by nature.
[[nodiscard]] std::optional<FlightSnapshot> load_flight_snapshot(
    const std::string& path);

// ---- local lease slots -----------------------------------------------

struct MultiprocessOptions {
  /// Trial-level policy (threads = per-worker threads; journal_path =
  /// the main journal stem, next to which the coordinator keeps its one
  /// result shard; on_trial_start/on_trial_done fire on the coordinator
  /// as trials start and settle).
  SupervisorOptions supervisor;
  std::size_t workers = 1;
  /// The self-exec command: the ORIGINAL argv (CampaignCli::exec_argv).
  /// The coordinator appends --worker-fd/--worker-id/--worker-shard/
  /// --worker-heartbeat-ms when spawning.
  std::vector<std::string> exec_argv;

  /// Worker liveness: a worker that sends nothing for
  /// heartbeat_timeout_ms is presumed wedged, killed, and handled as a
  /// hard crash. Workers tick every heartbeat_interval_ms.
  std::uint64_t heartbeat_interval_ms = 250;
  std::uint64_t heartbeat_timeout_ms = 10'000;
  /// Coordinator-side per-trial wall clock (0 = off): a trial in flight
  /// longer than this gets its worker killed and is marked kTimeout
  /// immediately — the backstop for non-cooperative hangs the in-worker
  /// SimBudget cannot interrupt (e.g. a blocking syscall).
  std::uint64_t trial_timeout_ms = 0;

  /// Backoff between a worker death and its respawn, stepped by the
  /// slot's consecutive fruitless deaths.
  Backoff respawn_backoff{250, 10'000, 0.25};
  /// A trial in flight during this many worker deaths is declared the
  /// killer and marked failed-permanent (kHardCrash) instead of being
  /// retried into a crash loop.
  std::size_t max_trial_crashes = 2;

  /// Live observability. status_path: publish a merged fourbit.status/1
  /// snapshot there every status_interval_ms (write-temp-then-rename).
  /// on_status: additionally hand each merged snapshot to this callback
  /// (a host agent forwards them to its coordinator over FT). Both are
  /// strictly off-band.
  std::string status_path;
  std::uint64_t status_interval_ms = 1000;
  std::function<void(const StatusSnapshot&)> on_status;
};

/// Runs the campaign across worker processes. Blocks until every trial
/// is settled (completed, failed, or failed-permanent) and every worker
/// it spawned is reaped. Never throws on worker misbehavior — only on
/// coordinator-side I/O setup errors.
[[nodiscard]] CampaignReport run_multiprocess(
    const std::vector<ExperimentConfig>& trials,
    const MultiprocessOptions& options);

/// Worker-mode entry: serves the coordinator's leases over cli.worker_fd
/// until it shuts the session down or goes away, then ends the process
/// with std::exit (never returns), so atexit handlers run. `options` is
/// the worker's supervisor policy — typically cli.supervisor_options(),
/// with run_trial overridden by tests; its journal_path is ignored
/// (results are journaled by the coordinator).
[[noreturn]] void run_worker(const std::vector<ExperimentConfig>& trials,
                             const CampaignCli& cli,
                             SupervisorOptions options);

/// The one campaign entry point benches call: dispatches on the parsed
/// CLI — worker mode (never returns), multi-process coordinator
/// (--workers given), or the classic in-process supervised run.
[[nodiscard]] CampaignReport run_campaign(
    const std::vector<ExperimentConfig>& trials, const CampaignCli& cli,
    std::function<void(const TrialProgress&)> progress);

}  // namespace fourbit::runner
