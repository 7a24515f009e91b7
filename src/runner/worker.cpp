#include "runner/worker.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/byte_io.hpp"
#include "common/crc16.hpp"
#include "runner/dispatch.hpp"
#include "runner/journal.hpp"
#include "runner/transport.hpp"

namespace fourbit::runner {
namespace {

constexpr std::uint16_t kSnapshotMagic = 0x4653;  // "FS"
constexpr std::uint8_t kRecordVersion = 1;
constexpr std::size_t kFrameHeaderBytes = 6;  // magic u16 + length u32
constexpr std::size_t kCrcBytes = 2;
constexpr std::size_t kMaxWhatBytes = 1 << 20;
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
  ByteReader r{payload};
  if (r.u8() != kRecordVersion) return std::nullopt;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(WorkerRecordKind::kTrialFailed)) {
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
  if (!r.ok() || what_len > kMaxWhatBytes ||
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

std::vector<std::uint8_t> encode_worker_record(const WorkerRecord& record) {
  std::vector<std::uint8_t> payload;
  ByteWriter w{payload};
  w.u8(kRecordVersion);
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
  return frame_payload(kWorkerRecordMagic, payload);
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
  w.u8(kRecordVersion);
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
  if (r.u8() != kRecordVersion) return std::nullopt;
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

// ---- the lease-serving peer -------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/// Stream writer shared by the session thread and the heartbeat thread:
/// frames are written whole under a mutex, and the first failed write
/// latches the session dead (the coordinator is gone; everything further
/// is discarded). A worker process has nothing left to serve once its
/// coordinator is gone, so it exits on that write instead.
class SessionWriter {
 public:
  SessionWriter(int fd, bool exit_on_hangup)
      : fd_(fd), exit_on_hangup_(exit_on_hangup) {}

  void send(const std::vector<std::uint8_t>& frame) {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (dead_.load(std::memory_order_relaxed)) return;
    if (write_all_fd(fd_, frame.data(), frame.size())) return;
    if (exit_on_hangup_) ::_exit(1);
    dead_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool dead() const {
    return dead_.load(std::memory_order_relaxed);
  }

 private:
  int fd_;
  bool exit_on_hangup_;
  std::mutex mutex_;
  std::atomic<bool> dead_{false};
};

/// One coordinator session: hello, heartbeats and status, then leases
/// until the coordinator shuts the session down, hangs up, or the
/// stream goes bad. A host agent given --workers runs each lease
/// through run_multiprocess; a worker, or an agent without, runs it
/// in-process.
void serve_session(int fd, const std::vector<ExperimentConfig>& trials,
                   const CampaignCli& cli, SupervisorOptions options,
                   bool worker) {
  const bool pooled = !worker && cli.workers > 0;
  // A peer keeps no journal: results are durable on the coordinator the
  // moment they land, and a reassigned lease re-runs from scratch
  // anyway (trials are pure). --status-json is the coordinator's to
  // publish, too.
  options.journal_path.clear();
  options.subset.clear();
  SessionWriter writer{fd, worker};
  const auto send_record = [&](WorkerRecord rec) {
    rec.worker = cli.worker_id;
    writer.send(encode_worker_record(rec));
  };
  WorkerRecord hello;
  hello.kind = WorkerRecordKind::kHello;
  send_record(hello);

  // One board for the whole session, so the snapshot this peer forwards
  // always covers every lease it served. A pooled lease merges its
  // workers' metrics through its own coordinator; that picture rides
  // along until the lease ends and is absorbed here.
  StatusBoard board;
  std::mutex status_mutex;
  std::optional<StatusSnapshot> pool_status;
  std::uint64_t status_seq = 0;
  const auto session_start = Clock::now();
  const auto send_status = [&] {
    StatusSnapshot snap;
    {
      const std::lock_guard lock{status_mutex};
      board.fill_snapshot(snap);
      if (pool_status) merge_status_metrics(snap, *pool_status);
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - session_start).count();
      stamp_status(snap, ++status_seq, elapsed, trials.size());
    }
    const auto bytes = encode_status_snapshot(snap);
    ControlMessage m;
    m.kind = ControlKind::kStatus;
    m.text.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    writer.send(encode_control_message(m));
  };

  // The heartbeat thread waits on `done` rather than sleeping, so a
  // finished session ends at once instead of after the rest of a
  // heartbeat interval. Status rides it at its own (slower) cadence.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  const auto beat = std::chrono::milliseconds(
      std::max<std::uint64_t>(10, cli.worker_heartbeat_ms));
  const auto status_every = std::chrono::milliseconds(
      std::max<std::uint64_t>(10, cli.status_interval_ms));
  std::thread heartbeat([&] {
    auto last_status = Clock::now();
    std::unique_lock lock{done_mutex};
    while (!done_cv.wait_for(lock, beat, [&done] { return done; })) {
      lock.unlock();
      send_record(WorkerRecord{});
      if (Clock::now() - last_status >= status_every) {
        send_status();
        last_status = Clock::now();
      }
      lock.lock();
    }
  });

  std::uint32_t session_retries = 0;
  const auto run_lease = [&](const ControlMessage& grant) {
    SupervisorOptions sopts = options;
    if (auto parsed = parse_index_spans(grant.text)) {
      for (const std::size_t i : *parsed) {
        if (i < trials.size()) sopts.subset.push_back(i);
      }
    }
    if (!sopts.subset.empty()) {
      sopts.on_trial_start = [&](std::size_t index,
                                 const ExperimentConfig& config) {
        WorkerRecord rec;
        rec.kind = WorkerRecordKind::kTrialStart;
        rec.trial_index = static_cast<std::uint32_t>(index);
        rec.seed = config.seed;
        send_record(rec);
      };
      sopts.on_trial_done = [&](const TrialProgress& p) {
        WorkerRecord rec;
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
        send_record(rec);
        // Stream the result now, so a later trial crashing this peer
        // cannot strand work the coordinator could already have made
        // durable.
        if (p.failure == nullptr && p.result != nullptr) {
          writer.send(encode_journal_record(
              {static_cast<std::uint32_t>(p.trial_index),
               trials[p.trial_index].seed, *p.result}));
        }
      };
      CampaignReport rep;
      if (pooled) {
        // Trial SIGSEGVs take down a worker process, not this agent.
        MultiprocessOptions mp;
        mp.supervisor = sopts;
        mp.workers = cli.workers;
        mp.exec_argv = cli.exec_argv;
        mp.heartbeat_interval_ms = cli.worker_heartbeat_ms;
        mp.trial_timeout_ms =
            cli.max_trial_ms != 0 ? cli.max_trial_ms * 2 + 5000 : 0;
        mp.status_interval_ms = cli.status_interval_ms;
        mp.on_status = [&](const StatusSnapshot& snap) {
          const std::lock_guard lock{status_mutex};
          pool_status = snap;
        };
        rep = run_multiprocess(trials, mp);
        const std::lock_guard lock{status_mutex};
        if (pool_status) board.absorb_metrics(*pool_status);
        pool_status.reset();
      } else {
        sopts.status = &board;
        rep = run_supervised(trials, sopts);
      }
      session_retries += static_cast<std::uint32_t>(rep.retries);
    }
    // The lease's settled picture reaches the coordinator before the
    // lease does, so its final snapshot misses nothing.
    send_status();
    ControlMessage complete;
    complete.kind = ControlKind::kLeaseComplete;
    complete.lease = grant.lease;
    writer.send(encode_control_message(complete));
  };

  TransportParser parser;
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
      // Only lease grants and shutdowns flow coordinator -> peer; any
      // other frame is nonsense from a coordinator.
      if (frame->type != TransportFrame::Type::kControl ||
          frame->control.kind != ControlKind::kLeaseGrant) {
        hangup = true;
        break;
      }
      run_lease(frame->control);
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

void run_worker(const std::vector<ExperimentConfig>& trials,
                const CampaignCli& cli, SupervisorOptions options) {
  // A dying coordinator must surface as a failed write (handled), not a
  // SIGPIPE death that would itself read as a worker hard-crash.
  ignore_sigpipe();
  options.flight_flush_base = cli.worker_shard;
  serve_session(cli.worker_fd, trials, cli, options, /*worker=*/true);
  std::exit(0);
}

void run_host_agent(const std::vector<ExperimentConfig>& trials,
                    const CampaignCli& cli, SupervisorOptions options) {
  ignore_sigpipe();
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
    serve_session(fd, trials, cli, options, /*worker=*/false);
    ::close(fd);
  }
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
