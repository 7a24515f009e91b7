// Live campaign observability: the `fourbit.status/1` snapshot record
// and the accumulator behind it.
//
// A StatusSnapshot is a point-in-time picture of a running campaign:
// trial lifecycle counts (done/failed/retried/in-flight), throughput and
// ETA, one row per worker/host source with its lease state and health,
// and the merged telemetry registry (counters summed, gauges last-wins,
// histograms merged bin-wise). Lease-serving peers — local workers and
// host agents — forward snapshots as FT control frames
// (ControlKind::kStatus); the coordinator merges them and publishes the
// result via `--status-json` (write-temp-then-rename, so the file is
// always one complete JSON object) and the live ticker.
//
// Everything here is strictly off-band: snapshots never touch stdout,
// CampaignReport, or `--journal` files, so clean-run bytes are identical
// with or without status enabled.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/telemetry.hpp"

namespace fourbit::runner {

inline constexpr std::string_view kStatusSchema = "fourbit.status/1";

/// One contributing process/session in a merged snapshot.
struct StatusSource {
  enum class Kind : std::uint8_t { kLocal = 0, kWorker = 1, kHost = 2 };

  std::string name;  // "local", "w3", "127.0.0.1:19731"
  Kind kind = Kind::kLocal;
  bool alive = true;
  bool retired = false;     // crash-loop quarantined (hosts)
  std::uint64_t done = 0;   // trials this source finished cleanly
  std::uint64_t failed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t losses = 0;     // session deaths / respawns of this source
  std::uint64_t fruitless = 0;  // consecutive fruitless sessions (hosts)
  std::string lease;            // current lease span, "" when idle
};

struct StatusCounter {
  std::string component;
  std::string name;
  std::uint64_t value = 0;
};
struct StatusGauge {
  std::string component;
  std::string name;
  double value = 0.0;
};
struct StatusHistogram {
  std::string component;
  std::string name;
  sim::Histogram hist;
};

struct StatusSnapshot {
  std::uint64_t seq = 0;  // per-writer, strictly increasing
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t retried = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t replayed = 0;  // journal replays folded into `done`
  std::uint64_t hard_crashes = 0;
  std::uint64_t worker_respawns = 0;
  std::uint64_t host_losses = 0;
  std::uint64_t lease_reassignments = 0;
  double elapsed_s = 0.0;
  double trials_per_s = 0.0;
  double eta_s = 0.0;  // < 0 = unknown (no completions yet)
  std::vector<StatusSource> sources;
  std::vector<StatusCounter> counters;
  std::vector<StatusGauge> gauges;
  std::vector<StatusHistogram> histograms;
};

/// Snapshot payload codec (ByteWriter/ByteReader, big-endian, histogram
/// bins run-compressed). The bytes travel inside a CRC-framed record —
/// an FT kStatus frame's `text` — so framing and corruption latching
/// are inherited. decode returns nullopt on any
/// malformed payload (bad version, oversized tables, truncation).
[[nodiscard]] std::vector<std::uint8_t> encode_status_snapshot(
    const StatusSnapshot& snapshot);
[[nodiscard]] std::optional<StatusSnapshot> decode_status_snapshot(
    std::span<const std::uint8_t> payload);

/// Renders one `fourbit.status/1` JSON object (single line, trailing
/// newline included) with histogram percentiles precomputed.
[[nodiscard]] std::string status_json(const StatusSnapshot& snapshot);

/// Write-temp-then-rename publisher: a reader polling `path` observes
/// either the previous complete snapshot or this one, never a torn mix.
bool write_status_file(const std::string& path, const std::string& json);

/// Folds `part`'s registry metrics into `into` (counters summed, gauges
/// last-wins, histograms merged). Lifecycle counts and sources are NOT
/// touched: the caller owns those.
void merge_status_metrics(StatusSnapshot& into, const StatusSnapshot& part);

/// Stamps sequencing and timing onto an assembled snapshot: trials_per_s
/// counts only fresh completions (journal replays excluded), eta_s
/// extrapolates the remainder at that rate (-1 until a rate exists).
void stamp_status(StatusSnapshot& snapshot, std::uint64_t seq,
                  double elapsed_s, std::uint64_t total);

/// Fires `tick` every interval_ms on a background thread, plus once at
/// destruction so the last published snapshot is the settled end state.
/// Used where no supervision loop exists to piggyback on (the local
/// supervised path, in-process host leases); `tick` must be safe
/// against concurrent trial threads — StatusBoard is.
class StatusPublisher {
 public:
  StatusPublisher(std::uint64_t interval_ms, std::function<void()> tick);
  ~StatusPublisher();
  StatusPublisher(const StatusPublisher&) = delete;
  StatusPublisher& operator=(const StatusPublisher&) = delete;

 private:
  std::function<void()> tick_;
  std::uint64_t interval_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Thread-safe accumulator fed by trial threads on the side that runs
/// trials (local supervisor, worker process, host agent). Trials push
/// their whole telemetry registry periodically (the flush-hook cadence)
/// and once at settle; the board turns repeated pushes into deltas keyed
/// by (trial, component, name) so the aggregate counts each increment
/// exactly once, aggregated across nodes and trials.
class StatusBoard {
 public:
  // ---- trial lifecycle (supervisor thread / worker threads) ----------
  void trial_started(std::uint64_t trial);
  /// A failed attempt about to be retried: per-trial delta state resets
  /// (the retry's registry restarts from zero).
  void attempt_reset(std::uint64_t trial);
  void trial_settled(std::uint64_t trial, bool failed,
                     std::uint64_t wall_ms);
  void add_replayed(std::uint64_t n);

  // ---- registry feed (trial threads, mid-trial + at settle) ----------
  void publish_registry(std::uint64_t trial,
                        const sim::TelemetryContext& telemetry);

  /// Permanently folds a remote source's last snapshot metrics into this
  /// board (used when a worker/host session dies: its partial registry
  /// contribution survives the respawn, keeping merged counters
  /// monotonic).
  void absorb_metrics(const StatusSnapshot& snapshot);

  /// Records one sample into a board-level histogram (e.g. the
  /// coordinator's "runner"/"trial_wall_ms").
  void record_histogram(const std::string& component,
                        const std::string& name, std::uint64_t value);

  // ---- snapshot assembly ---------------------------------------------
  /// Fills lifecycle counts and sorted metric tables into `out`
  /// (deterministic order: std::map iteration). Leaves seq, total,
  /// timing, and sources for the caller.
  void fill_snapshot(StatusSnapshot& out) const;

 private:
  using Key = std::pair<std::string, std::string>;  // (component, name)

  mutable std::mutex mutex_;
  std::map<Key, std::uint64_t> counters_;
  std::map<Key, double> gauges_;
  std::map<Key, sim::Histogram> histograms_;
  // Per-live-trial last-seen registry values for delta computation.
  std::unordered_map<std::uint64_t, std::map<Key, std::uint64_t>>
      trial_counter_seen_;
  std::unordered_map<std::uint64_t, std::map<Key, sim::Histogram>>
      trial_hist_seen_;
  std::uint64_t done_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t replayed_ = 0;
};

}  // namespace fourbit::runner
