#include "runner/worker.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "common/byte_io.hpp"
#include "common/crc16.hpp"
#include "runner/dispatch.hpp"
#include "runner/journal.hpp"

namespace fourbit::runner {
namespace {

constexpr std::uint16_t kPipeMagic = kWorkerPipeMagic;  // "FW"
constexpr std::uint16_t kSnapshotMagic = 0x4653;  // "FS"
constexpr std::uint8_t kPipeVersion = 1;
constexpr std::size_t kFrameHeaderBytes = 6;  // magic u16 + length u32
constexpr std::size_t kCrcBytes = 2;
/// Sanity cap on one frame: a length field past this is corruption, not
/// a giant record (the largest real record is a kTrialFailed carrying a
/// 128-event flight plus an exception message).
constexpr std::size_t kMaxFrameBytes = 1 << 20;
constexpr std::size_t kMaxFlightEvents = 4096;

void encode_event(ByteWriter& w, const sim::TelemetryEvent& e) {
  w.u64(static_cast<std::uint64_t>(e.at.us()));
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.u16(e.node);
  w.u16(e.peer);
  w.u16(e.arg);
  w.u16(e.arg2);
  w.f64(e.v0);
  w.f64(e.v1);
}

[[nodiscard]] std::optional<sim::TelemetryEvent> decode_event(ByteReader& r) {
  sim::TelemetryEvent e;
  e.at = sim::Time::from_us(static_cast<std::int64_t>(r.u64()));
  const std::uint8_t kind = r.u8();
  if (kind >= sim::kEventKindCount) return std::nullopt;
  e.kind = static_cast<sim::EventKind>(kind);
  e.node = r.u16();
  e.peer = r.u16();
  e.arg = r.u16();
  e.arg2 = r.u16();
  e.v0 = r.f64();
  e.v1 = r.f64();
  if (!r.ok()) return std::nullopt;
  return e;
}

[[nodiscard]] std::optional<WorkerRecord> decode_record_payload(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  if (r.u8() != kPipeVersion) return std::nullopt;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(WorkerRecordKind::kStatus)) {
    return std::nullopt;
  }
  WorkerRecord rec;
  rec.kind = static_cast<WorkerRecordKind>(kind);
  rec.worker = r.u32();
  rec.trial_index = r.u32();
  rec.seed = r.u64();
  rec.attempt = r.u32();
  const std::uint8_t failure_kind = r.u8();
  if (failure_kind >= kFailureKindCount) return std::nullopt;
  rec.failure_kind = static_cast<FailureKind>(failure_kind);
  rec.retried_total = r.u32();
  const std::uint32_t what_len = r.u32();
  if (!r.ok() || what_len > kMaxFrameBytes ||
      r.remaining() < what_len) {
    return std::nullopt;
  }
  rec.what.reserve(what_len);
  for (std::uint32_t i = 0; i < what_len; ++i) {
    rec.what.push_back(static_cast<char>(r.u8()));
  }
  const std::uint32_t flight_count = r.u32();
  if (!r.ok() || flight_count > kMaxFlightEvents) return std::nullopt;
  rec.flight.reserve(flight_count);
  for (std::uint32_t i = 0; i < flight_count; ++i) {
    auto event = decode_event(r);
    if (!event) return std::nullopt;
    rec.flight.push_back(*event);
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return rec;
}

[[nodiscard]] std::vector<std::uint8_t> frame_payload(
    std::uint16_t magic, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  ByteWriter framer{frame};
  framer.u16(magic);
  framer.u32(static_cast<std::uint32_t>(payload.size()));
  framer.bytes(payload);
  framer.u16(crc16(payload));
  return frame;
}

}  // namespace

std::optional<WorkerRecord> decode_worker_record_payload(
    std::span<const std::uint8_t> payload) {
  return decode_record_payload(payload);
}

std::vector<std::uint8_t> encode_worker_record(const WorkerRecord& record) {
  std::vector<std::uint8_t> payload;
  ByteWriter w{payload};
  w.u8(kPipeVersion);
  w.u8(static_cast<std::uint8_t>(record.kind));
  w.u32(record.worker);
  w.u32(record.trial_index);
  w.u64(record.seed);
  w.u32(record.attempt);
  w.u8(static_cast<std::uint8_t>(record.failure_kind));
  w.u32(record.retried_total);
  w.u32(static_cast<std::uint32_t>(record.what.size()));
  for (const char c : record.what) w.u8(static_cast<std::uint8_t>(c));
  w.u32(static_cast<std::uint32_t>(record.flight.size()));
  for (const auto& event : record.flight) encode_event(w, event);
  return frame_payload(kPipeMagic, payload);
}

void WorkerPipeParser::feed(const std::uint8_t* data, std::size_t n) {
  if (corrupt_) return;
  buffer_.insert(buffer_.end(), data, data + n);
}

std::optional<WorkerRecord> WorkerPipeParser::next() {
  if (corrupt_) return std::nullopt;
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > 65536) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  const std::size_t avail = buffer_.size() - pos_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  const std::span<const std::uint8_t> rest{buffer_.data() + pos_, avail};
  ByteReader header{rest.first(kFrameHeaderBytes)};
  if (header.u16() != kPipeMagic) {
    corrupt_ = true;
    return std::nullopt;
  }
  const std::uint32_t length = header.u32();
  if (length > kMaxFrameBytes) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (avail < kFrameHeaderBytes + length + kCrcBytes) return std::nullopt;
  const auto payload = rest.subspan(kFrameHeaderBytes, length);
  ByteReader crc_reader{rest.subspan(kFrameHeaderBytes + length, kCrcBytes)};
  if (crc_reader.u16() != crc16(payload)) {
    corrupt_ = true;
    return std::nullopt;
  }
  auto rec = decode_record_payload(payload);
  if (!rec) {
    corrupt_ = true;
    return std::nullopt;
  }
  pos_ += kFrameHeaderBytes + length + kCrcBytes;
  return rec;
}

std::string format_index_spans(const std::vector<std::size_t>& indices) {
  std::vector<std::size_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::string out;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(sorted[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(sorted[j]);
    }
    i = j + 1;
  }
  return out;
}

std::optional<std::vector<std::size_t>> parse_index_spans(
    const std::string& spans) {
  std::vector<std::size_t> out;
  if (spans.empty()) return out;
  std::size_t pos = 0;
  const auto parse_number = [&](std::size_t& value) -> bool {
    if (pos >= spans.size() || spans[pos] < '0' || spans[pos] > '9') {
      return false;
    }
    value = 0;
    while (pos < spans.size() && spans[pos] >= '0' && spans[pos] <= '9') {
      const std::size_t digit = static_cast<std::size_t>(spans[pos] - '0');
      if (value > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
        return false;
      }
      value = value * 10 + digit;
      ++pos;
    }
    return true;
  };
  while (true) {
    std::size_t lo = 0;
    if (!parse_number(lo)) return std::nullopt;
    std::size_t hi = lo;
    if (pos < spans.size() && spans[pos] == '-') {
      ++pos;
      if (!parse_number(hi) || hi < lo) return std::nullopt;
    }
    for (std::size_t v = lo; v <= hi; ++v) out.push_back(v);
    if (pos == spans.size()) break;
    if (spans[pos] != ',') return std::nullopt;
    ++pos;
    if (pos == spans.size()) return std::nullopt;  // trailing comma
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void write_flight_snapshot(const std::string& path, std::size_t trial_index,
                           std::uint64_t seed,
                           const std::vector<sim::TelemetryEvent>& events) {
  std::vector<std::uint8_t> payload;
  ByteWriter w{payload};
  w.u8(kPipeVersion);
  w.u32(static_cast<std::uint32_t>(trial_index));
  w.u64(seed);
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const auto& event : events) encode_event(w, event);
  const auto frame = frame_payload(kSnapshotMagic, payload);

  // Write-temp-then-rename: the snapshot at `path` is always either a
  // previous complete snapshot or this one — never a torn mix. No fsync:
  // the evidence must survive a *process* death, not a power cut.
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return;  // best-effort: no evidence beats no trial
  const bool wrote =
      std::fwrite(frame.data(), 1, frame.size(), file) == frame.size();
  std::fclose(file);
  if (!wrote) {
    std::remove(tmp.c_str());
    return;
  }
  std::rename(tmp.c_str(), path.c_str());
}

std::optional<FlightSnapshot> load_flight_snapshot(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(file);

  if (bytes.size() < kFrameHeaderBytes + kCrcBytes) return std::nullopt;
  ByteReader header{std::span<const std::uint8_t>{bytes}.first(
      kFrameHeaderBytes)};
  if (header.u16() != kSnapshotMagic) return std::nullopt;
  const std::uint32_t length = header.u32();
  if (bytes.size() != kFrameHeaderBytes + length + kCrcBytes) {
    return std::nullopt;
  }
  const std::span<const std::uint8_t> payload{
      bytes.data() + kFrameHeaderBytes, length};
  ByteReader crc_reader{std::span<const std::uint8_t>{
      bytes.data() + kFrameHeaderBytes + length, kCrcBytes}};
  if (crc_reader.u16() != crc16(payload)) return std::nullopt;

  ByteReader r{payload};
  if (r.u8() != kPipeVersion) return std::nullopt;
  FlightSnapshot snap;
  snap.trial_index = r.u32();
  snap.seed = r.u64();
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxFlightEvents) return std::nullopt;
  snap.events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto event = decode_event(r);
    if (!event) return std::nullopt;
    snap.events.push_back(*event);
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return snap;
}

// ---- worker side ------------------------------------------------------

namespace {

/// Serialized full-frame writes to the coordinator pipe. Frames (a
/// kTrialFailed with its flight is ~5 KB) exceed PIPE_BUF, so partial
/// writes are possible; the mutex plus the write loop keep concurrent
/// trial threads and the heartbeat thread from interleaving frames. A
/// failed write means the coordinator is gone — with SIGPIPE ignored it
/// surfaces as EPIPE — and a worker with no coordinator just dies; its
/// journal shard already holds everything durable.
class PipeWriter {
 public:
  PipeWriter(int fd, std::uint32_t worker) : fd_(fd), worker_(worker) {}

  void send(WorkerRecord record) {
    record.worker = worker_;
    const auto frame = encode_worker_record(record);
    const std::lock_guard<std::mutex> lock{mutex_};
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::_exit(1);
      }
      off += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
  std::uint32_t worker_;
  std::mutex mutex_;
};

}  // namespace

void run_worker(const std::vector<ExperimentConfig>& trials,
                const CampaignCli& cli, SupervisorOptions options) {
  // A dying coordinator must surface as an EPIPE write error (handled),
  // not a SIGPIPE death that would itself read as a worker hard-crash.
  std::signal(SIGPIPE, SIG_IGN);

  const auto spans = parse_index_spans(cli.worker_trials);
  if (!spans) {
    std::fprintf(stderr, "--worker-trials: malformed span list '%s'\n",
                 cli.worker_trials.c_str());
    std::exit(2);
  }
  auto writer = std::make_shared<PipeWriter>(cli.worker_fd, cli.worker_id);

  options.subset = *spans;
  options.journal_path = cli.worker_shard;
  options.flight_flush_base = cli.worker_shard;

  // Live status rides the pipe, never a file: --status-json is the
  // coordinator's to honor (a worker writing it too would race the
  // merged snapshot), so worker mode deliberately ignores it.
  auto board = std::make_shared<StatusBoard>();
  options.status = board.get();

  WorkerRecord hello;
  hello.kind = WorkerRecordKind::kHello;
  writer->send(hello);

  // Trials already in this worker's shard (a previous incarnation
  // finished them before dying) will be silently replayed by
  // run_supervised; announce them as done up front so the coordinator
  // settles them instead of waiting forever. attempt == 0 marks them as
  // replays, not fresh executions.
  if (!cli.worker_shard.empty()) {
    const std::set<std::size_t> mine(spans->begin(), spans->end());
    auto loaded = TrialJournal::load(cli.worker_shard);
    for (const auto& entry : loaded.entries) {
      if (entry.trial_index >= trials.size()) continue;
      if (mine.count(entry.trial_index) == 0) continue;
      if (entry.seed != trials[entry.trial_index].seed) continue;
      WorkerRecord rec;
      rec.kind = WorkerRecordKind::kTrialDone;
      rec.trial_index = entry.trial_index;
      rec.seed = entry.seed;
      rec.attempt = 0;
      writer->send(rec);
    }
  }

  options.on_trial_start = [writer](std::size_t index,
                                    const ExperimentConfig& config) {
    WorkerRecord rec;
    rec.kind = WorkerRecordKind::kTrialStart;
    rec.trial_index = static_cast<std::uint32_t>(index);
    rec.seed = config.seed;
    writer->send(rec);
  };
  options.on_trial_done = [writer](const TrialProgress& p) {
    WorkerRecord rec;
    rec.trial_index = static_cast<std::uint32_t>(p.trial_index);
    rec.retried_total = static_cast<std::uint32_t>(p.retried);
    if (p.failure != nullptr) {
      rec.kind = WorkerRecordKind::kTrialFailed;
      rec.seed = p.failure->seed;
      rec.attempt = static_cast<std::uint32_t>(p.failure->attempt);
      rec.failure_kind = p.failure->kind;
      rec.what = p.failure->what;
      rec.flight = p.failure->flight;
    } else {
      rec.kind = WorkerRecordKind::kTrialDone;
      rec.seed = p.config != nullptr ? p.config->seed : 0;
      rec.attempt = 1;
    }
    writer->send(rec);
  };

  // The heartbeat thread waits on `finished` rather than sleeping, so
  // the worker exits as soon as its trials settle instead of waiting
  // out the rest of a heartbeat interval.
  std::mutex finished_mutex;
  std::condition_variable finished_cv;
  bool finished = false;
  const auto interval =
      std::chrono::milliseconds(std::max<std::uint64_t>(
          10, cli.worker_heartbeat_ms));
  // Status snapshots piggyback on the heartbeat thread at their own
  // (slower) cadence: one extra frame kind on an existing liveness
  // channel, zero new threads.
  const auto status_every = std::chrono::milliseconds(
      std::max<std::uint64_t>(10, cli.status_interval_ms));
  const std::uint64_t my_total = spans->size();
  const auto worker_start = std::chrono::steady_clock::now();
  std::uint64_t status_seq = 0;
  const auto send_status = [writer, board, my_total, worker_start,
                            &status_seq] {
    StatusSnapshot snap;
    board->fill_snapshot(snap);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - worker_start)
                               .count();
    stamp_status(snap, ++status_seq, elapsed, my_total);
    const auto bytes = encode_status_snapshot(snap);
    WorkerRecord rec;
    rec.kind = WorkerRecordKind::kStatus;
    rec.what.assign(reinterpret_cast<const char*>(bytes.data()),
                    bytes.size());
    writer->send(std::move(rec));
  };
  std::thread heartbeat{[writer, &finished_mutex, &finished_cv, &finished,
                         interval, status_every, &send_status] {
    auto last_status = std::chrono::steady_clock::now();
    std::unique_lock lock{finished_mutex};
    while (!finished) {
      lock.unlock();
      WorkerRecord rec;
      rec.kind = WorkerRecordKind::kHeartbeat;
      writer->send(rec);
      const auto now = std::chrono::steady_clock::now();
      if (now - last_status >= status_every) {
        send_status();
        last_status = now;
      }
      lock.lock();
      finished_cv.wait_for(lock, interval, [&finished] { return finished; });
    }
  }};

  (void)run_supervised(trials, options);

  {
    const std::lock_guard lock{finished_mutex};
    finished = true;
  }
  finished_cv.notify_all();
  heartbeat.join();
  send_status();  // the final, settled picture of this shard
  WorkerRecord bye;
  bye.kind = WorkerRecordKind::kBye;
  writer->send(bye);
  std::exit(0);
}

// ---- coordinator ------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

struct WorkerSlot {
  std::uint32_t id = 0;
  pid_t pid = -1;
  int fd = -1;
  WorkerPipeParser parser;
  std::vector<std::size_t> assigned;  // static round-robin assignment
  std::set<std::size_t> in_flight;    // started, not yet settled
  std::map<std::size_t, Clock::time_point> started_at;
  std::size_t respawns = 0;
  bool spawned_once = false;
  /// Consecutive deaths with zero records of progress — the exec-fails-
  /// in-a-loop guard (e.g. the binary was deleted mid-campaign).
  std::size_t fruitless_deaths = 0;
  bool progress_since_spawn = false;
  std::uint32_t last_retried_total = 0;
  Clock::time_point last_heard{};
  std::optional<Clock::time_point> respawn_at;  // dead, awaiting backoff
  bool retired = false;  // nothing left to do, no live process
  /// Latest fourbit.status/1 snapshot this incarnation streamed; folded
  /// into the coordinator's board when the worker dies so merged
  /// counters stay monotonic across respawns.
  std::optional<StatusSnapshot> status;
};

}  // namespace

CampaignReport run_multiprocess(const std::vector<ExperimentConfig>& trials,
                                const MultiprocessOptions& options) {
  namespace fs = std::filesystem;
  CampaignReport report;
  report.results.resize(trials.size());
  report.completed.assign(trials.size(), 0);
  if (trials.empty()) return report;
  const std::uint64_t journal_failures_before = TrialJournal::write_failures();
  if (options.exec_argv.empty()) {
    throw std::runtime_error(
        "run_multiprocess: exec_argv is empty (pass CampaignCli::exec_argv)");
  }

  const bool user_journal = !options.supervisor.journal_path.empty();
  std::string stem = options.supervisor.journal_path;
  fs::path temp_dir;
  if (!user_journal) {
    // Shards need a home even without --journal; they are deleted after
    // the final merge.
    temp_dir = fs::temp_directory_path() /
               ("fourbit-mp-" + std::to_string(::getpid()));
    std::error_code ec;
    fs::create_directories(temp_dir, ec);
    stem = (temp_dir / "campaign").string();
  }

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
  }
  // Resume, stage 2: shards a SIGKILLed coordinator left behind — the
  // workers' results survived it; pick them up before re-running.
  {
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

  // Still-pending trials, round-robin across the worker slots.
  std::vector<std::size_t> pending;
  if (options.supervisor.subset.empty()) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (!report.completed[i]) pending.push_back(i);
    }
  } else {
    for (const std::size_t i : options.supervisor.subset) {
      if (i < trials.size() && !report.completed[i]) pending.push_back(i);
    }
  }

  const std::size_t nworkers = std::max<std::size_t>(
      1, std::min(options.workers, std::max<std::size_t>(1, pending.size())));
  std::vector<WorkerSlot> slots(nworkers);
  for (std::size_t k = 0; k < nworkers; ++k) {
    slots[k].id = static_cast<std::uint32_t>(k);
  }
  for (std::size_t j = 0; j < pending.size(); ++j) {
    slots[j % nworkers].assigned.push_back(pending[j]);
  }

  std::map<std::size_t, std::size_t> crash_counts;
  std::size_t progress_done = static_cast<std::size_t>(report.replayed);
  std::size_t failed_count = 0;

  const auto settled = [&](std::size_t i) {
    return report.completed[i] != 0 || failed_bit[i] != 0;
  };
  const auto remaining_of = [&](const WorkerSlot& slot) {
    std::vector<std::size_t> rem;
    for (const std::size_t i : slot.assigned) {
      if (!settled(i)) rem.push_back(i);
    }
    return rem;
  };

  const auto emit_progress = [&](std::size_t index,
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
      p.result = nullptr;  // results materialize at the final shard merge
      p.failure = failure;
      options.supervisor.on_trial_done(p);
    }
  };

  // Merged-status accumulator: holds metrics absorbed from dead worker
  // incarnations; live slots contribute their latest snapshot directly
  // at publish time.
  StatusBoard status_board;

  const auto fail_hard = [&](std::size_t index, const WorkerSlot& slot,
                             const std::string& what, int sig) {
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
    const auto snapshot_file = flight_snapshot_path(
        TrialJournal::shard_path(stem, slot.id), index);
    if (auto snap = load_flight_snapshot(snapshot_file)) {
      if (snap->trial_index == index && snap->seed == trials[index].seed) {
        failure.flight = std::move(snap->events);
      }
    }
    report.failures.push_back(std::move(failure));
    emit_progress(index, &report.failures.back());
  };

  const auto fail_timeout = [&](std::size_t index) {
    if (settled(index)) return;
    failed_bit[index] = 1;
    ++report.attempts;
    TrialFailure failure;
    failure.kind = FailureKind::kTimeout;
    failure.what = "trial exceeded the coordinator watchdog (" +
                   std::to_string(options.trial_timeout_ms) +
                   " ms in flight); its worker was killed";
    failure.trial_index = index;
    failure.seed = trials[index].seed;
    failure.attempt = 1;
    report.failures.push_back(std::move(failure));
    emit_progress(index, &report.failures.back());
  };

  const auto handle_record = [&](WorkerSlot& slot, WorkerRecord rec) {
    const std::size_t index = rec.trial_index;
    switch (rec.kind) {
      case WorkerRecordKind::kHello:
      case WorkerRecordKind::kHeartbeat:
      case WorkerRecordKind::kBye:
        return;
      case WorkerRecordKind::kStatus: {
        // Strictly off-band: a snapshot is neither progress nor trial
        // accounting, it only refreshes this slot's contribution to the
        // next merged publication. An undecodable payload is dropped
        // (the CRC already passed; this is a version skew, not noise).
        auto snap = decode_status_snapshot(std::span<const std::uint8_t>{
            reinterpret_cast<const std::uint8_t*>(rec.what.data()),
            rec.what.size()});
        if (snap) slot.status = std::move(*snap);
        return;
      }
      case WorkerRecordKind::kTrialStart:
        if (index < trials.size() && !settled(index)) {
          slot.in_flight.insert(index);
          slot.started_at[index] = Clock::now();
        }
        slot.progress_since_spawn = true;
        slot.fruitless_deaths = 0;
        return;
      case WorkerRecordKind::kTrialDone:
      case WorkerRecordKind::kTrialFailed:
        break;
    }
    slot.progress_since_spawn = true;
    slot.fruitless_deaths = 0;
    slot.in_flight.erase(index);
    slot.started_at.erase(index);
    if (rec.retried_total >= slot.last_retried_total) {
      const std::uint32_t delta = rec.retried_total - slot.last_retried_total;
      report.retries += delta;
      report.attempts += delta;  // every retry is one more invocation
      slot.last_retried_total = rec.retried_total;
    }
    if (index >= trials.size() || settled(index)) return;
    if (rec.kind == WorkerRecordKind::kTrialDone) {
      // attempt == 0 marks a shard replay, not a fresh execution. The
      // result itself is durable in the shard; it is merged at the end.
      if (rec.attempt != 0) ++report.attempts;
      report.completed[index] = 1;
      emit_progress(index, nullptr);
      return;
    }
    ++report.attempts;
    failed_bit[index] = 1;
    TrialFailure failure;
    failure.kind = rec.failure_kind;
    failure.what = std::move(rec.what);
    failure.trial_index = index;
    failure.seed = rec.seed;
    failure.attempt = rec.attempt;
    failure.flight = std::move(rec.flight);
    report.failures.push_back(std::move(failure));
    emit_progress(index, &report.failures.back());
  };

  const auto spawn = [&](WorkerSlot& slot) {
    const auto rem = remaining_of(slot);
    int fds[2];
    if (::pipe(fds) != 0) {
      throw std::runtime_error("run_multiprocess: pipe() failed");
    }
    const std::string shard = TrialJournal::shard_path(stem, slot.id);
    std::vector<std::string> args = options.exec_argv;
    args.push_back("--worker-fd");
    args.push_back(std::to_string(fds[1]));
    args.push_back("--worker-id");
    args.push_back(std::to_string(slot.id));
    args.push_back("--worker-shard");
    args.push_back(shard);
    args.push_back("--worker-trials");
    args.push_back(format_index_spans(rem));
    args.push_back("--worker-heartbeat-ms");
    args.push_back(std::to_string(options.heartbeat_interval_ms));

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
    const int flags = ::fcntl(fds[0], F_GETFL, 0);
    ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
    ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
    slot.pid = pid;
    slot.fd = fds[0];
    slot.parser = WorkerPipeParser{};
    slot.in_flight.clear();
    slot.started_at.clear();
    slot.last_retried_total = 0;
    slot.progress_since_spawn = false;
    slot.last_heard = Clock::now();
    slot.respawn_at.reset();
  };

  const auto worker_death = [&](WorkerSlot& slot, bool already_eof,
                                const char* cause) {
    if (!already_eof && slot.pid > 0) ::kill(slot.pid, SIGKILL);
    int status = 0;
    ::waitpid(slot.pid, &status, 0);
    ::close(slot.fd);
    slot.fd = -1;
    slot.pid = -1;
    // The dead incarnation's last metrics move into the coordinator's
    // board: merged counters stay monotonic across the respawn (the
    // respawned worker's registry restarts from zero).
    if (slot.status) {
      status_board.absorb_metrics(*slot.status);
      slot.status.reset();
    }

    const bool corrupt = slot.parser.corrupt();
    const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    auto rem = remaining_of(slot);
    // Only a clean exit with an empty range is a normal retirement;
    // exit 0 with unfinished work means the worker lost its way.
    if (!corrupt && code == 0 && rem.empty()) {
      slot.retired = true;
      return;
    }

    ++report.hard_crashes;
    std::string what = "worker " + std::to_string(slot.id);
    if (corrupt) {
      what += " sent a torn or corrupt pipe frame";
      if (sig != 0) what += " and was killed (signal " +
                            std::to_string(sig) + ")";
    } else if (std::string_view{cause} == "heartbeat") {
      what += " stopped heartbeating for over " +
              std::to_string(options.heartbeat_timeout_ms) +
              " ms and was killed";
    } else if (std::string_view{cause} == "trial-timeout") {
      what += " was killed after a trial overran the coordinator watchdog";
    } else if (sig != 0) {
      what += " was killed by signal " + std::to_string(sig);
    } else if (code >= 0) {
      what += " exited with status " + std::to_string(code) +
              " before finishing its range";
    } else {
      what += " died unexpectedly";
    }

    // Every trial in flight at the moment of death is a suspect; one
    // that keeps being in flight when its worker dies is the killer.
    const std::set<std::size_t> suspects = slot.in_flight;
    for (const std::size_t index : suspects) {
      ++crash_counts[index];
      ++report.attempts;
      if (crash_counts[index] >= options.max_trial_crashes) {
        fail_hard(index, slot, what, sig);
      }
    }
    if (suspects.empty() && !slot.progress_since_spawn) {
      // Death before any record of progress: nothing to blame, so after
      // a few of these in a row (exec failure loop, instant OOM) the
      // whole range is declared unrunnable rather than respawn forever.
      ++slot.fruitless_deaths;
      if (slot.fruitless_deaths >=
          std::max<std::size_t>(2, options.max_trial_crashes)) {
        for (const std::size_t index : rem) {
          fail_hard(index,
                    slot, what + " (repeatedly, before reporting any trial)",
                    sig);
        }
      }
    }
    slot.in_flight.clear();
    slot.started_at.clear();

    rem = remaining_of(slot);
    if (rem.empty()) {
      slot.retired = true;
      return;
    }
    const std::uint64_t delay_ms = options.respawn_backoff.delay_ms(
        slot.respawns + 1, trials[rem.front()].seed);
    slot.respawn_at = Clock::now() + std::chrono::milliseconds(delay_ms);
  };

  const auto drain = [&](WorkerSlot& slot) {
    while (auto rec = slot.parser.next()) handle_record(slot, *rec);
  };

  // Merged fourbit.status/1 publication: coordinator lifecycle truth +
  // absorbed dead-incarnation metrics + every live slot's latest
  // snapshot, stamped and pushed to --status-json and/or on_status.
  const bool status_publishing =
      !options.status_path.empty() || static_cast<bool>(options.on_status);
  const auto campaign_start = Clock::now();
  std::uint64_t status_seq = 0;
  auto last_status_publish = campaign_start;
  const auto publish_status = [&] {
    StatusSnapshot snap;
    status_board.fill_snapshot(snap);
    // progress_done counts settles of both kinds; the snapshot splits
    // them back out (done = clean completions only).
    snap.done = progress_done - failed_count;
    snap.failed = failed_count;
    snap.retried = report.retries;
    snap.replayed = report.replayed;
    snap.hard_crashes = report.hard_crashes;
    snap.worker_respawns = report.worker_respawns;
    std::uint64_t in_flight = 0;
    for (const auto& slot : slots) in_flight += slot.in_flight.size();
    snap.in_flight = in_flight;
    for (const auto& slot : slots) {
      StatusSource src;
      src.name = "w" + std::to_string(slot.id);
      src.kind = StatusSource::Kind::kWorker;
      src.alive = slot.pid > 0;
      src.retired = slot.retired;
      src.in_flight = slot.in_flight.size();
      src.losses = slot.respawns;
      src.fruitless = slot.fruitless_deaths;
      src.lease = format_index_spans(remaining_of(slot));
      if (slot.status) {
        src.done = slot.status->done;
        src.failed = slot.status->failed;
        merge_status_metrics(snap, *slot.status);
      }
      snap.sources.push_back(std::move(src));
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - campaign_start).count();
    stamp_status(snap, ++status_seq, elapsed,
                 options.status_total != 0
                     ? static_cast<std::uint64_t>(options.status_total)
                     : trials.size());
    if (!options.status_path.empty()) {
      write_status_file(options.status_path, status_json(snap));
    }
    if (options.on_status) options.on_status(snap);
  };

  // ---- the supervision loop ----
  while (true) {
    bool any_live = false;
    bool any_pending_respawn = false;
    const auto now = Clock::now();
    for (auto& slot : slots) {
      if (slot.retired) continue;
      if (slot.pid < 0) {
        if (remaining_of(slot).empty()) {
          slot.retired = true;
          continue;
        }
        if (!slot.respawn_at || now >= *slot.respawn_at) {
          const bool is_respawn = slot.spawned_once;
          spawn(slot);
          slot.spawned_once = true;
          if (is_respawn) {
            ++slot.respawns;
            ++report.worker_respawns;
          }
          any_live = true;
        } else {
          any_pending_respawn = true;
        }
        continue;
      }
      any_live = true;
    }
    if (!any_live && !any_pending_respawn) break;

    std::vector<pollfd> pfds;
    std::vector<WorkerSlot*> owners;
    for (auto& slot : slots) {
      if (slot.retired || slot.pid < 0) continue;
      pfds.push_back(pollfd{slot.fd, POLLIN, 0});
      owners.push_back(&slot);
    }
    if (pfds.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    // EINTR here is routine (SIGCHLD from a dying worker lands exactly
    // when poll sleeps); treat it as an early timeout, never an error.
    int polled;
    do {
      polled = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
    } while (polled < 0 && errno == EINTR);
    if (polled < 0) {
      for (auto& pfd : pfds) pfd.revents = 0;
    }

    for (std::size_t x = 0; x < pfds.size(); ++x) {
      WorkerSlot& slot = *owners[x];
      if ((pfds[x].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool eof = false;
      std::uint8_t buf[4096];
      while (true) {
        const ssize_t n = ::read(slot.fd, buf, sizeof buf);
        if (n > 0) {
          slot.parser.feed(buf, static_cast<std::size_t>(n));
          slot.last_heard = Clock::now();
          continue;
        }
        if (n == 0) {
          eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        eof = true;
        break;
      }
      // Settle everything the worker managed to report before judging
      // its death: pre-crash Done records are real completions.
      drain(slot);
      if (slot.parser.corrupt()) {
        worker_death(slot, false, "corrupt");
      } else if (eof) {
        worker_death(slot, true, "eof");
      }
    }

    // Watchdogs over the still-living.
    const auto check = Clock::now();
    for (auto& slot : slots) {
      if (slot.retired || slot.pid < 0) continue;
      if (options.heartbeat_timeout_ms != 0 &&
          check - slot.last_heard >
              std::chrono::milliseconds(options.heartbeat_timeout_ms)) {
        drain(slot);
        worker_death(slot, false, "heartbeat");
        continue;
      }
      if (options.trial_timeout_ms != 0) {
        std::vector<std::size_t> overdue;
        for (const auto& [index, since] : slot.started_at) {
          if (check - since >
              std::chrono::milliseconds(options.trial_timeout_ms)) {
            overdue.push_back(index);
          }
        }
        if (!overdue.empty()) {
          // The overdue trial is a terminal timeout right now — not a
          // crash-count candidate; collateral in-flight trials go
          // through the usual suspect accounting in worker_death.
          for (const std::size_t index : overdue) {
            slot.in_flight.erase(index);
            slot.started_at.erase(index);
            fail_timeout(index);
          }
          worker_death(slot, false, "trial-timeout");
        }
      }
    }

    if (status_publishing) {
      const auto tick = Clock::now();
      if (tick - last_status_publish >=
          std::chrono::milliseconds(
              std::max<std::uint64_t>(10, options.status_interval_ms))) {
        last_status_publish = tick;
        publish_status();
      }
    }
  }

  // ---- final merge: the shards hold every fresh result ----
  auto merged = TrialJournal::merge_shards(stem);
  report.journal_torn = report.journal_torn || merged.torn;
  for (auto& entry : merged.entries) {
    if (entry.trial_index >= trials.size()) continue;
    if (entry.seed != trials[entry.trial_index].seed) continue;
    if (failed_bit[entry.trial_index]) continue;
    report.results[entry.trial_index] = std::move(entry.result);
    report.completed[entry.trial_index] = 1;
  }

  if (user_journal) {
    // Compact: fold shard results into the main journal, then delete the
    // shards (and their flight snapshots) — a later resume sees one
    // journal, exactly as a single-process run would have left it.
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
  } else {
    std::error_code ec;
    fs::remove_all(temp_dir, ec);
  }

  report.journal_write_failures =
      TrialJournal::write_failures() - journal_failures_before;
  // Completion order is scheduling; the report must not be.
  std::sort(report.failures.begin(), report.failures.end(),
            [](const TrialFailure& a, const TrialFailure& b) {
              return a.trial_index < b.trial_index;
            });
  // The last published snapshot is the settled end state (done == total
  // on a clean run) — pollers never end on a mid-campaign picture.
  if (status_publishing) publish_status();
  return report;
}

CampaignReport run_campaign(
    const std::vector<ExperimentConfig>& trials, const CampaignCli& cli,
    std::function<void(const TrialProgress&)> progress) {
  if (cli.worker_fd >= 0) {
    run_worker(trials, cli, cli.supervisor_options());  // never returns
  }
  if (cli.serve_port >= 0) {
    run_host_agent(trials, cli, cli.supervisor_options());  // never returns
  }
  if (!cli.hosts.empty()) {
    DispatchOptions options;
    options.supervisor = cli.supervisor_options();
    options.supervisor.on_trial_done = std::move(progress);
    options.hosts = cli.hosts;
    options.lease_trials = cli.lease_trials;
    // Same backstop rationale as the worker pool below: the remote
    // host's own SimBudget should win; this only catches hosts whose
    // machine we cannot signal.
    options.trial_timeout_ms =
        cli.max_trial_ms != 0 ? cli.max_trial_ms * 2 + 5000 : 0;
    options.status_path = cli.status_json;
    options.status_interval_ms = cli.status_interval_ms;
    return run_distributed(trials, options);
  }
  if (cli.workers == 0) {
    auto options = cli.supervisor_options();
    options.on_trial_done = std::move(progress);
    if (cli.status_json.empty()) return run_supervised(trials, options);
    // In-process run with live status: a board fed by the supervisor
    // and a publisher thread writing the file. The publisher's
    // destructor runs after run_supervised returns, so the last write
    // is the settled end state.
    StatusBoard board;
    options.status = &board;
    const auto started = Clock::now();
    std::uint64_t seq = 0;
    StatusPublisher publisher{cli.status_interval_ms, [&] {
      StatusSnapshot snap;
      board.fill_snapshot(snap);
      StatusSource src;
      src.name = "local";
      src.kind = StatusSource::Kind::kLocal;
      src.done = snap.done;
      src.failed = snap.failed;
      src.in_flight = snap.in_flight;
      snap.sources.push_back(std::move(src));
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - started).count();
      stamp_status(snap, ++seq, elapsed, trials.size());
      write_status_file(cli.status_json, status_json(snap));
    }};
    return run_supervised(trials, options);
  }
  MultiprocessOptions options;
  options.supervisor = cli.supervisor_options();
  options.supervisor.on_trial_done = std::move(progress);
  options.workers = cli.workers;
  options.exec_argv = cli.exec_argv;
  options.status_path = cli.status_json;
  options.status_interval_ms = cli.status_interval_ms;
  // The coordinator backstop must out-wait the in-worker SimBudget (the
  // cooperative watchdog should win the race and record a retryable
  // soft timeout); it only fires on non-cooperative hangs.
  options.trial_timeout_ms =
      cli.max_trial_ms != 0 ? cli.max_trial_ms * 2 + 5000 : 0;
  return run_multiprocess(trials, options);
}

}  // namespace fourbit::runner
