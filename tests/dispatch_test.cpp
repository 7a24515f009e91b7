// Tests of distributed campaign dispatch (runner/dispatch.hpp) and its
// TCP transport (runner/transport.hpp): the control-frame codec, the
// mixed-magic TransportParser, a mutation fuzzer over the stream
// parser, the --hosts/--serve/--lease CLI surface, the journal
// write-failure latch, and end-to-end localhost campaigns against real
// host-agent processes that get SIGKILLed mid-trial.
//
// This binary self-execs as its own host agents: main() checks for
// --serve and, when present, rebuilds the trial list from --dt-* flags
// and enters run_host_agent with a scenario-driven run_trial override
// instead of running gtest. An agent given --workers self-execs again
// for its workers, which main() routes to run_worker on --worker-fd.
// Scenarios key on the SEED (trial i has seed base + i) because
// agent-side leases run without tracing, so config.trace_trial is not
// stamped.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/dispatch.hpp"
#include "runner/journal.hpp"
#include "runner/supervisor.hpp"
#include "runner/transport.hpp"
#include "runner/worker.hpp"
#include "sim/telemetry.hpp"
#include "sim/time.hpp"

namespace fourbit::runner {
namespace {

// ---- shared scenario machinery (used by tests AND agent mode) ---------

/// Deterministic fake result, a pure function of the seed: agents and
/// the in-process reference compute identical bytes.
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

/// Trial list both ends rebuild independently: seeds base, base+1, ...
std::vector<ExperimentConfig> scenario_trials(std::size_t n,
                                              std::uint64_t base) {
  std::vector<ExperimentConfig> trials(n);
  for (std::size_t i = 0; i < n; ++i) trials[i].seed = base + i;
  return trials;
}

struct Scenario {
  std::string kind = "clean";
  std::size_t arg = 0;  // "segv@3": trial index; "slow@25": ms per trial
};

Scenario parse_scenario(const std::string& text) {
  Scenario s;
  const auto at = text.find('@');
  if (at == std::string::npos) {
    s.kind = text;
  } else {
    s.kind = text.substr(0, at);
    s.arg = static_cast<std::size_t>(
        std::strtoul(text.c_str() + at + 1, nullptr, 10));
  }
  return s;
}

/// The agent-side trial executor: misbehaves per the scenario, keyed on
/// seed - base (the trial index), else returns the synthetic result.
std::function<ExperimentResult(const ExperimentConfig&)> scenario_run_trial(
    Scenario scenario, std::uint64_t base) {
  return [scenario, base](const ExperimentConfig& config) {
    const std::size_t index =
        static_cast<std::size_t>(config.seed - base);
    if (scenario.kind == "slow") {
      std::this_thread::sleep_for(std::chrono::milliseconds(scenario.arg));
    } else if (index == scenario.arg) {
      if (scenario.kind == "segv") {
        // In-process agent: this takes the whole agent down — the
        // cross-machine analogue of a worker SIGSEGV.
        ::raise(SIGSEGV);
      } else if (scenario.kind == "fail") {
        throw std::runtime_error("scenario soft failure");
      }
    }
    return synthetic_result(config.seed);
  };
}

std::function<ExperimentResult(const ExperimentConfig&)> clean_run_trial() {
  return [](const ExperimentConfig& config) {
    return synthetic_result(config.seed);
  };
}

}  // namespace

/// Agent-mode entry (called from main when --serve is present): rebuild
/// the trial list from the --dt-* flags and serve leases forever.
[[noreturn]] void dt_agent_main(int argc, char** argv, CampaignCli cli) {
  const Scenario scenario = parse_scenario(
      consume_flag(argc, argv, "--dt-scenario").value_or("clean"));
  const std::size_t n = static_cast<std::size_t>(
      consume_uint_flag(argc, argv, "--dt-trials").value_or(0));
  const std::uint64_t base =
      consume_uint_flag(argc, argv, "--dt-seed").value_or(1);
  auto options = cli.supervisor_options();
  options.run_trial = scenario_run_trial(scenario, base);
  run_host_agent(scenario_trials(n, base), cli, std::move(options));
}

/// Worker-mode entry (called from main when --worker-fd is present): an
/// agent started with --workers self-execs its workers, which rebuild
/// the same trial list and scenario and serve the agent's leases.
[[noreturn]] void dt_worker_main(int argc, char** argv, CampaignCli cli) {
  const Scenario scenario = parse_scenario(
      consume_flag(argc, argv, "--dt-scenario").value_or("clean"));
  const std::size_t n = static_cast<std::size_t>(
      consume_uint_flag(argc, argv, "--dt-trials").value_or(0));
  const std::uint64_t base =
      consume_uint_flag(argc, argv, "--dt-seed").value_or(1);
  auto options = cli.supervisor_options();
  options.run_trial = scenario_run_trial(scenario, base);
  run_worker(scenario_trials(n, base), cli, std::move(options));
}

namespace {

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.mean_depth, b.mean_depth);
  EXPECT_EQ(a.per_node_delivery, b.per_node_delivery);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_tx, b.data_tx);
  EXPECT_EQ(a.parent_changes, b.parent_changes);
  EXPECT_EQ(a.final_tree.depths, b.final_tree.depths);
  EXPECT_EQ(a.final_tree.mean_depth, b.final_tree.mean_depth);
}

std::string temp_stem(const char* name) {
  return (std::filesystem::path{::testing::TempDir()} /
          (std::string{"fourbit_"} + name + "_" +
           std::to_string(::getpid()) + ".journal"))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The single-process reference the distributed report and journal must
/// match byte for byte.
CampaignReport reference_report(std::size_t n, std::uint64_t base,
                                const std::string& journal = "") {
  SupervisorOptions options;
  options.threads = 1;
  options.run_trial = clean_run_trial();
  options.journal_path = journal;
  return run_supervised(scenario_trials(n, base), options);
}

/// One self-exec'd host-agent process: --serve 0 plus the scenario
/// flags and any `extra` agent flags, with stderr on a pipe so the
/// announced ephemeral port can be parsed. SIGKILLed (idempotently) on
/// destruction.
class SpawnedAgent {
 public:
  SpawnedAgent(const std::string& scenario, std::size_t n,
               std::uint64_t base,
               const std::vector<std::string>& extra = {}) {
    int err_pipe[2] = {-1, -1};
    if (::pipe(err_pipe) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(err_pipe[1], 2);
      ::close(err_pipe[0]);
      ::close(err_pipe[1]);
      std::vector<std::string> args = {
          "/proc/self/exe", "--serve",    "0",
          "--dt-scenario",  scenario,     "--dt-trials",
          std::to_string(n), "--dt-seed", std::to_string(base),
          "--threads",      "1"};
      args.insert(args.end(), extra.begin(), extra.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv("/proc/self/exe", argv.data());
      ::_exit(127);
    }
    ::close(err_pipe[1]);
    err_fd_ = err_pipe[0];
    if (pid_ > 0) port_ = read_announced_port();
  }

  ~SpawnedAgent() {
    kill_now();
    if (err_fd_ >= 0) ::close(err_fd_);
  }

  void kill_now() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  [[nodiscard]] std::uint16_t read_announced_port() {
    std::string text;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{err_fd_, POLLIN, 0};
      if (poll_retry(&pfd, 1, 100) <= 0) continue;
      char buf[512];
      const ssize_t n = ::read(err_fd_, buf, sizeof buf);
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
      const auto pos = text.find("listening on port ");
      if (pos == std::string::npos) continue;
      const auto eol = text.find('\n', pos);
      if (eol == std::string::npos) continue;
      return static_cast<std::uint16_t>(
          std::strtoul(text.c_str() + pos + 18, nullptr, 10));
    }
    return 0;
  }

  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Dispatch options tuned for fast tests: snappy reconnect backoff and
/// two strikes before a host is retired.
DispatchOptions dt_options(const std::vector<std::uint16_t>& ports,
                           const std::string& journal = "") {
  DispatchOptions options;
  options.supervisor.threads = 1;
  options.supervisor.run_trial = clean_run_trial();
  options.supervisor.journal_path = journal;
  for (const auto port : ports) {
    options.hosts.push_back(HostEndpoint{"127.0.0.1", port});
  }
  options.heartbeat_timeout_ms = 5000;
  options.connect_timeout_ms = 2000;
  options.reconnect_backoff = Backoff{10, 50, 0.0};
  options.max_host_failures = 2;
  return options;
}

/// An ephemeral port nothing listens on (bound once, then released).
std::uint16_t dead_port() {
  auto listener = listen_on(0);
  if (!listener) return 1;  // port 1: virtually always refused
  const std::uint16_t port = listener->port;
  ::close(listener->fd);
  return port;
}

// ---- control-frame codec and the demultiplexing parser ----------------

TEST(ControlCodecTest, RoundTripsEveryKind) {
  // kStatus carries an encoded binary snapshot payload, so its text
  // must survive embedded NULs and high bytes.
  std::string binary_status;
  binary_status.push_back('\0');
  binary_status.push_back('\xff');
  binary_status += "status-bytes";
  for (const auto kind : {ControlKind::kLeaseGrant, ControlKind::kLeaseComplete,
                          ControlKind::kShutdown, ControlKind::kStatus}) {
    ControlMessage m;
    m.kind = kind;
    m.lease = 0xABCD1234u;
    if (kind == ControlKind::kLeaseGrant) {
      m.text = "0-4,9,12-13";
    } else if (kind == ControlKind::kStatus) {
      m.text = binary_status;
    }
    const auto frame = encode_control_message(m);
    TransportParser parser;
    parser.feed(frame.data(), frame.size());
    const auto out = parser.next();
    ASSERT_TRUE(out.has_value());
    ASSERT_EQ(out->type, TransportFrame::Type::kControl);
    EXPECT_EQ(out->control.kind, m.kind);
    EXPECT_EQ(out->control.lease, m.lease);
    EXPECT_EQ(out->control.text, m.text);
    EXPECT_FALSE(parser.corrupt());
  }
}

TEST(TransportParserTest, DemultiplexesMixedMagicsInOrder) {
  WorkerRecord status;
  status.kind = WorkerRecordKind::kTrialStart;
  status.worker = 3;
  status.trial_index = 7;
  status.seed = 107;
  JournalEntry entry{7, 107, synthetic_result(107)};
  ControlMessage control;
  control.kind = ControlKind::kLeaseComplete;
  control.lease = 42;

  std::vector<std::uint8_t> stream;
  for (const auto& frame :
       {encode_worker_record(status), encode_journal_record(entry),
        encode_control_message(control)}) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  // Every chunking of the same bytes must yield the same three frames.
  for (const std::size_t chunk : {1ul, 2ul, 3ul, 5ul, 64ul, stream.size()}) {
    TransportParser parser;
    std::vector<TransportFrame> frames;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      parser.feed(stream.data() + at, std::min(chunk, stream.size() - at));
      while (auto f = parser.next()) frames.push_back(std::move(*f));
    }
    ASSERT_EQ(frames.size(), 3u) << "chunk=" << chunk;
    ASSERT_EQ(frames[0].type, TransportFrame::Type::kStatus);
    EXPECT_EQ(frames[0].record.trial_index, 7u);
    ASSERT_EQ(frames[1].type, TransportFrame::Type::kResult);
    EXPECT_EQ(frames[1].entry.seed, 107u);
    expect_identical(frames[1].entry.result, synthetic_result(107));
    ASSERT_EQ(frames[2].type, TransportFrame::Type::kControl);
    EXPECT_EQ(frames[2].control.lease, 42u);
    EXPECT_FALSE(parser.corrupt());
  }
}

TEST(TransportParserTest, UnknownMagicLatchesCorrupt) {
  const std::uint8_t junk[8] = {0x12, 0x34, 0, 0, 0, 0, 0, 0};
  TransportParser parser;
  parser.feed(junk, sizeof junk);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.corrupt());
}

TEST(TransportParserTest, BadCrcLatchesCorrupt) {
  ControlMessage m;
  m.kind = ControlKind::kLeaseGrant;
  m.text = "0-3";
  auto frame = encode_control_message(m);
  frame.back() ^= 0xFF;  // CRC trailer
  TransportParser parser;
  parser.feed(frame.data(), frame.size());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.corrupt());
}

TEST(TransportParserTest, DuplicatedFrameIsTwoValidFrames) {
  // Duplication is NOT a framing error — dedup is the coordinator's
  // (index, seed) last-wins rule, not the parser's.
  JournalEntry entry{4, 104, synthetic_result(104)};
  const auto frame = encode_journal_record(entry);
  std::vector<std::uint8_t> stream{frame.begin(), frame.end()};
  stream.insert(stream.end(), frame.begin(), frame.end());
  TransportParser parser;
  parser.feed(stream.data(), stream.size());
  EXPECT_TRUE(parser.next().has_value());
  EXPECT_TRUE(parser.next().has_value());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.corrupt());
}

TEST(TransportParserTest, OversizedLengthLatchesCorruptInsteadOfBuffering) {
  // magic "FT" + a length field claiming 256 MiB: the parser must
  // reject it up front, not wait for 256 MiB that will never come.
  const std::uint8_t header[6] = {0x54, 0x46, 0, 0, 0, 0x10};
  TransportParser parser;
  parser.feed(header, sizeof header);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.corrupt());
}

// ---- mutation fuzz over both stream parsers ---------------------------

namespace {

struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

std::vector<std::uint8_t> fuzz_corpus() {
  std::vector<std::uint8_t> stream;
  const auto add = [&](const std::vector<std::uint8_t>& frame) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  };
  for (std::uint32_t i = 0; i < 4; ++i) {
    WorkerRecord start;
    start.kind = WorkerRecordKind::kTrialStart;
    start.trial_index = i;
    start.seed = 100 + i;
    add(encode_worker_record(start));
    WorkerRecord done;
    done.kind = WorkerRecordKind::kTrialDone;
    done.trial_index = i;
    done.seed = 100 + i;
    done.attempt = 1;
    add(encode_worker_record(done));
    add(encode_journal_record({i, 100 + i, synthetic_result(100 + i)}));
  }
  ControlMessage complete;
  complete.kind = ControlKind::kLeaseComplete;
  complete.lease = 1;
  add(encode_control_message(complete));
  return stream;
}

/// Feeds `stream` to two parsers, one in random chunks and one a byte
/// at a time. The only demands: no crash, no OOB (ASan's job), no
/// unbounded frame production, and a latched parser stays latched.
void exercise_parsers(const std::vector<std::uint8_t>& stream, Lcg& rng) {
  TransportParser transport;
  TransportParser bytewise;
  std::size_t frames = 0;
  std::size_t at = 0;
  while (at < stream.size()) {
    const std::size_t chunk =
        std::min(stream.size() - at, rng.below(97) + 1);
    transport.feed(stream.data() + at, chunk);
    for (std::size_t b = 0; b < chunk; ++b) {
      const bool was_corrupt = bytewise.corrupt();
      bytewise.feed(stream.data() + at + b, 1);
      while (auto f = bytewise.next()) {
        ASSERT_FALSE(was_corrupt) << "frame produced after corrupt latch";
        ++frames;
      }
    }
    at += chunk;
    const bool was_corrupt = transport.corrupt();
    while (auto f = transport.next()) {
      ASSERT_FALSE(was_corrupt) << "frame produced after corrupt latch";
      ++frames;
    }
    ASSERT_LE(frames, 4 * stream.size());
  }
}

}  // namespace

TEST(TransportFuzzTest, MutatedStreamsNeverCrashOrOverread) {
  const std::vector<std::uint8_t> corpus = fuzz_corpus();
  Lcg rng{0x46574654464AULL};

  {
    // The pristine corpus must parse fully on the transport side.
    TransportParser parser;
    parser.feed(corpus.data(), corpus.size());
    std::size_t frames = 0;
    while (parser.next()) ++frames;
    EXPECT_EQ(frames, 13u);
    EXPECT_FALSE(parser.corrupt());
  }

  for (int round = 0; round < 400; ++round) {
    std::vector<std::uint8_t> mutated = corpus;
    switch (rng.below(4)) {
      case 0: {  // byte flips
        const std::size_t flips = rng.below(8) + 1;
        for (std::size_t f = 0; f < flips; ++f) {
          mutated[rng.below(mutated.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      }
      case 1:  // truncation
        mutated.resize(rng.below(mutated.size()));
        break;
      case 2: {  // splice: drop a random middle run
        const std::size_t from = rng.below(mutated.size());
        const std::size_t len = rng.below(mutated.size() - from) + 1;
        mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(from),
                      mutated.begin() +
                          static_cast<std::ptrdiff_t>(from + len));
        break;
      }
      default: {  // duplicate a random run into a random spot
        const std::size_t from = rng.below(mutated.size());
        const std::size_t len = rng.below(mutated.size() - from) + 1;
        const std::vector<std::uint8_t> run(
            mutated.begin() + static_cast<std::ptrdiff_t>(from),
            mutated.begin() + static_cast<std::ptrdiff_t>(from + len));
        const std::size_t to = rng.below(mutated.size());
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(to),
                       run.begin(), run.end());
        break;
      }
    }
    exercise_parsers(mutated, rng);
  }
}

// ---- the --hosts / --serve / --lease CLI surface ----------------------

namespace {

CampaignCli parse_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  return consume_campaign_cli(argc, argv.data());
}

}  // namespace

TEST(DispatchCliTest, ParsesHostsServeAndLease) {
  const auto cli = parse_cli({"--hosts", "alpha:9001,127.0.0.1:65535",
                              "--lease", "4"});
  ASSERT_EQ(cli.hosts.size(), 2u);
  EXPECT_EQ(cli.hosts[0].host, "alpha");
  EXPECT_EQ(cli.hosts[0].port, 9001);
  EXPECT_EQ(cli.hosts[1].host, "127.0.0.1");
  EXPECT_EQ(cli.hosts[1].port, 65535);
  EXPECT_EQ(cli.lease_trials, 4u);
  EXPECT_EQ(cli.serve_port, -1);

  const auto agent = parse_cli({"--serve", "0"});
  EXPECT_EQ(agent.serve_port, 0);
  EXPECT_TRUE(agent.hosts.empty());
}

TEST(DispatchCliDeathTest, JunkHostsExitsTwo) {
  const auto junk = {"alpha",     "alpha:",     ":9001",     "alpha:0",
                     "alpha:70000", "alpha:90x1", "",          "a:1,,b:2",
                     "a:1,b"};
  for (const auto* hosts : junk) {
    EXPECT_EXIT(parse_cli({"--hosts", hosts}), ::testing::ExitedWithCode(2),
                "--hosts")
        << "accepted junk --hosts '" << hosts << "'";
  }
}

TEST(DispatchCliDeathTest, JunkServeExitsTwo) {
  EXPECT_EXIT(parse_cli({"--serve", "70000"}), ::testing::ExitedWithCode(2),
              "--serve");
  EXPECT_EXIT(parse_cli({"--serve", "many"}), ::testing::ExitedWithCode(2),
              "--serve");
  EXPECT_EXIT(parse_cli({"--serve", "-1"}), ::testing::ExitedWithCode(2),
              "--serve");
}

TEST(DispatchCliDeathTest, ServePlusHostsExitsTwo) {
  EXPECT_EXIT(parse_cli({"--serve", "9001", "--hosts", "a:1"}),
              ::testing::ExitedWithCode(2), "mutually exclusive");
}

// ---- journal write-failure latch (satellite bugfix) -------------------

TEST(JournalWriteFailureTest, LatchesDisabledInsteadOfThrowing) {
  const std::string path = temp_stem("jwf");
  auto journal = TrialJournal::open_append(path);
  const auto result = synthetic_result(5);
  journal.append(0, 5, result);
  EXPECT_TRUE(journal.healthy());

  const std::uint64_t before = TrialJournal::write_failures();
  ::close(journal.fd());  // inject EBADF: the documented test hook
  journal.append(1, 6, result);  // must degrade, not throw
  EXPECT_FALSE(journal.healthy());
  EXPECT_EQ(TrialJournal::write_failures(), before + 1);

  journal.append(2, 7, result);  // latched: a silent no-op
  EXPECT_EQ(TrialJournal::write_failures(), before + 1);

  // The record written while healthy survives intact.
  const auto loaded = TrialJournal::load(path);
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0].trial_index, 0u);
  expect_identical(loaded.entries[0].result, result);
  std::filesystem::remove(path);
}

TEST(JournalWriteFailureTest, SupervisedCampaignFinishesUnjournaled) {
  const std::string path = temp_stem("jwf_campaign");
  // Pre-latch a journal at the same path to prove append failures do
  // not propagate: the campaign itself must latch its own journal.
  SupervisorOptions options;
  options.threads = 1;
  options.journal_path = path;
  std::size_t sabotaged = 0;
  options.run_trial = [&](const ExperimentConfig& config) {
    return synthetic_result(config.seed);
  };
  // Sabotage from the progress callback: after the first trial lands,
  // close the journal's fd behind its back. Requires reaching into the
  // journal, which run_supervised owns — so instead point the journal
  // at a path whose directory disappears mid-run.
  const std::string doomed_dir =
      (std::filesystem::path{::testing::TempDir()} /
       ("fourbit_doomed_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(doomed_dir);
  options.journal_path = doomed_dir + "/campaign.journal";
  options.on_trial_done = [&](const TrialProgress& p) {
    if (p.completed == 1 && sabotaged == 0) {
      ++sabotaged;
      // Unlink the journal file and its directory: the already-open fd
      // keeps working on most filesystems, so ALSO exhaust it is not
      // portable — this test only asserts the campaign completes and
      // the counter plumbing reports whatever failures occurred.
      std::error_code ec;
      std::filesystem::remove_all(doomed_dir, ec);
    }
  };
  const auto report = run_supervised(scenario_trials(4, 60), options);
  EXPECT_TRUE(report.all_completed());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(report.completed[i]);
    expect_identical(report.results[i], synthetic_result(60 + i));
  }
  std::error_code ec;
  std::filesystem::remove_all(doomed_dir, ec);
}

// ---- end-to-end localhost campaigns -----------------------------------

TEST(DispatchTest, EmptyHostListRunsLocally) {
  const auto trials = scenario_trials(6, 300);
  DispatchOptions options = dt_options({});
  const auto report = run_distributed(trials, options);
  const auto reference = reference_report(6, 300);
  ASSERT_TRUE(report.all_completed());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    expect_identical(report.results[i], reference.results[i]);
  }
  EXPECT_EQ(report.host_losses, 0u);
}

TEST(DispatchTest, CleanTwoHostRunMatchesSingleProcess) {
  const std::uint64_t base = 400;
  const std::size_t n = 12;
  SpawnedAgent a{"clean", n, base};
  SpawnedAgent b{"clean", n, base};
  ASSERT_NE(a.port(), 0);
  ASSERT_NE(b.port(), 0);

  const std::string stem = temp_stem("clean2");
  const std::string ref_stem = temp_stem("clean2_ref");
  DispatchOptions options = dt_options({a.port(), b.port()}, stem);
  options.lease_trials = 3;  // both hosts participate
  const auto trials = scenario_trials(n, base);
  const auto report = run_distributed(trials, options);
  const auto reference = reference_report(n, base, ref_stem);

  ASSERT_TRUE(report.all_completed());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(report.completed[i]);
    expect_identical(report.results[i], reference.results[i]);
  }
  EXPECT_EQ(report.attempts, reference.attempts);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.host_losses, 0u);
  EXPECT_EQ(report.lease_reassignments, 0u);
  EXPECT_EQ(report.journal_write_failures, 0u);
  // The journal a distributed campaign compacts is byte-identical to
  // the single-process journal.
  EXPECT_EQ(slurp(stem), slurp(ref_stem));
  EXPECT_FALSE(slurp(stem).empty());
  // No shard files survive the compaction.
  EXPECT_FALSE(std::filesystem::exists(
      TrialJournal::shard_path(stem, kRemoteShardId)));
  EXPECT_FALSE(std::filesystem::exists(
      TrialJournal::shard_path(stem, kLocalShardId)));
  std::filesystem::remove(stem);
  std::filesystem::remove(ref_stem);
}

TEST(DispatchTest, FinishedSessionClosesWithoutWaitingOutHeartbeat) {
  // The agent serves one session at a time, so a second campaign is
  // accepted only once the first session has closed. With a 2 s
  // heartbeat, a session end that slept out the heartbeat interval would
  // hold the second campaign back by up to 2 s.
  const std::uint64_t base = 450;
  const std::size_t n = 2;
  SpawnedAgent agent{"clean", n, base, {"--worker-heartbeat-ms", "2000"}};
  ASSERT_NE(agent.port(), 0);

  const auto trials = scenario_trials(n, base);
  const auto start = std::chrono::steady_clock::now();
  for (int campaign = 0; campaign < 2; ++campaign) {
    const auto report = run_distributed(trials, dt_options({agent.port()}));
    ASSERT_TRUE(report.all_completed());
    EXPECT_EQ(report.host_losses, 0u);
    ASSERT_EQ(report.host_health.size(), 1u);
    EXPECT_EQ(report.host_health[0].completed, n);  // served, not local
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 1000);
}

TEST(DispatchTest, HostSigkilledMidTrialLeaseReassigned) {
  const std::uint64_t base = 500;
  const std::size_t n = 16;
  SpawnedAgent a{"slow@25", n, base};
  SpawnedAgent b{"slow@25", n, base};
  ASSERT_NE(a.port(), 0);
  ASSERT_NE(b.port(), 0);

  DispatchOptions options = dt_options({a.port(), b.port()});
  options.lease_trials = 8;  // half the campaign each: the victim is
                             // guaranteed to die mid-lease
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    b.kill_now();
  });
  const auto trials = scenario_trials(n, base);
  const auto report = run_distributed(trials, options);
  killer.join();

  const auto reference = reference_report(n, base);
  ASSERT_TRUE(report.all_completed());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(report.completed[i]);
    expect_identical(report.results[i], reference.results[i]);
  }
  EXPECT_GE(report.host_losses, 1u);
  EXPECT_GE(report.lease_reassignments, 1u);
}

TEST(DispatchTest, StatusStaysWellFormedThroughHostLoss) {
  // The ISSUE acceptance scenario: a fleet campaign losing a host to
  // SIGKILL mid-lease must stream continuously valid fourbit.status/1
  // snapshots — strictly increasing seq, stable total, host sources with
  // the loss attributed — and land a settled final --status-json file,
  // while the campaign itself still completes every trial.
  const std::uint64_t base = 900;
  const std::size_t n = 16;
  SpawnedAgent a{"slow@25", n, base};
  SpawnedAgent b{"slow@25", n, base};
  ASSERT_NE(a.port(), 0);
  ASSERT_NE(b.port(), 0);

  const std::string status_path = temp_stem("host_loss_status");
  DispatchOptions options = dt_options({a.port(), b.port()});
  options.lease_trials = 8;
  options.status_path = status_path;
  options.status_interval_ms = 30;
  std::mutex snaps_mutex;  // the all-hosts-dead fallback publisher is a
                           // second caller thread; never engaged here,
                           // but the callback contract allows it
  std::vector<StatusSnapshot> snaps;
  options.on_status = [&](const StatusSnapshot& snap) {
    const std::lock_guard<std::mutex> lock{snaps_mutex};
    snaps.push_back(snap);
  };
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    b.kill_now();
  });
  const auto report = run_distributed(scenario_trials(n, base), options);
  killer.join();

  ASSERT_TRUE(report.all_completed());
  EXPECT_GE(report.host_losses, 1u);
  ASSERT_EQ(report.host_health.size(), 2u);

  ASSERT_FALSE(snaps.empty());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].total, n);
    if (i > 0) {
      EXPECT_GT(snaps[i].seq, snaps[i - 1].seq);
    }
  }
  const auto& last = snaps.back();
  EXPECT_EQ(last.done, n);
  EXPECT_EQ(last.failed, 0u);
  EXPECT_EQ(last.in_flight, 0u);
  EXPECT_GE(last.host_losses, 1u);
  std::size_t host_rows = 0;
  std::uint64_t losses = 0;
  std::uint64_t source_done = 0;
  for (const auto& src : last.sources) {
    EXPECT_EQ(src.lease, "") << src.name;
    source_done += src.done;
    if (src.kind != StatusSource::Kind::kHost) continue;
    ++host_rows;
    losses += src.losses;
  }
  EXPECT_EQ(host_rows, 2u);
  EXPECT_GE(losses, 1u);
  EXPECT_EQ(source_done, last.done);

  const std::string text = slurp(status_path);
  EXPECT_NE(text.find("\"schema\":\"fourbit.status/1\""), std::string::npos);
  EXPECT_NE(text.find("\"done\":16"), std::string::npos);
  EXPECT_TRUE(text.ends_with("}\n"));
  EXPECT_FALSE(std::filesystem::exists(status_path + ".tmp"));
  std::filesystem::remove(status_path);
}

TEST(DispatchTest, HostStatusCoversEveryLeaseOfTheSession) {
  // Each host serves several leases in one session. The metrics it
  // forwards must cover all of them, and the coordinator's final
  // snapshot must include every host's last lease: one trial wall time
  // per trial in the campaign-wide histogram.
  const std::uint64_t base = 950;
  const std::size_t n = 8;
  SpawnedAgent a{"clean", n, base};
  SpawnedAgent b{"clean", n, base};
  ASSERT_NE(a.port(), 0);
  ASSERT_NE(b.port(), 0);

  DispatchOptions options = dt_options({a.port(), b.port()});
  options.lease_trials = 2;  // at least two leases per host
  options.status_interval_ms = 20;
  std::vector<StatusSnapshot> snaps;
  options.on_status = [&](const StatusSnapshot& snap) {
    snaps.push_back(snap);
  };
  const auto report = run_distributed(scenario_trials(n, base), options);
  ASSERT_TRUE(report.all_completed());
  ASSERT_EQ(report.host_health.size(), 2u);
  EXPECT_EQ(report.host_health[0].completed + report.host_health[1].completed,
            n);

  ASSERT_FALSE(snaps.empty());
  const auto& last = snaps.back();
  EXPECT_EQ(last.done, n);
  const sim::Histogram* wall = nullptr;
  for (const auto& h : last.histograms) {
    if (h.component == "runner" && h.name == "trial_wall_ms") wall = &h.hist;
  }
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, n);
}

TEST(DispatchTest, AgentWorkerPoolContainsTrialSegv) {
  // An agent started with --workers runs each lease on local worker
  // slots: the trial that SIGSEGVs kills a worker, never the agent, so
  // the coordinator loses no host and receives the trial as a hard
  // crash while every other trial completes.
  const std::uint64_t base = 980;
  const std::size_t n = 8;
  SpawnedAgent agent{"segv@3", n, base, {"--workers", "2"}};
  ASSERT_NE(agent.port(), 0);

  const auto report =
      run_distributed(scenario_trials(n, base), dt_options({agent.port()}));
  EXPECT_EQ(report.host_losses, 0u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].trial_index, 3u);
  EXPECT_EQ(report.failures[0].kind, FailureKind::kHardCrash);
  const auto reference = reference_report(n, base);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 3) continue;
    ASSERT_TRUE(report.completed[i]) << "trial " << i;
    expect_identical(report.results[i], reference.results[i]);
  }
}

TEST(DispatchTest, AllHostsDeadFallsBackToLocalRun) {
  const std::uint64_t base = 600;
  const std::size_t n = 8;
  SpawnedAgent a{"slow@20", n, base};
  ASSERT_NE(a.port(), 0);

  // Host list: one real agent (killed almost immediately) and one port
  // nobody listens on. Every host dies; the campaign must not.
  DispatchOptions options = dt_options({a.port(), dead_port()});
  options.lease_trials = 4;
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    a.kill_now();
  });
  const auto trials = scenario_trials(n, base);
  const auto report = run_distributed(trials, options);
  killer.join();

  const auto reference = reference_report(n, base);
  ASSERT_TRUE(report.all_completed());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(report.completed[i]);
    expect_identical(report.results[i], reference.results[i]);
  }
  EXPECT_GE(report.host_losses, 1u);
}

TEST(DispatchTest, CrashLoopingTrialAcrossHostsBecomesHardCrash) {
  const std::uint64_t base = 700;
  const std::size_t n = 8;
  // Both agents SIGSEGV on trial 3: the trial crash-loops across the
  // fleet and must be quarantined as kHardCrash, not retried forever.
  SpawnedAgent a{"segv@3", n, base};
  SpawnedAgent b{"segv@3", n, base};
  ASSERT_NE(a.port(), 0);
  ASSERT_NE(b.port(), 0);

  DispatchOptions options = dt_options({a.port(), b.port()});
  options.lease_trials = 2;
  options.max_trial_crashes = 2;
  const auto trials = scenario_trials(n, base);
  const auto report = run_distributed(trials, options);

  const auto reference = reference_report(n, base);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 3) continue;
    ASSERT_TRUE(report.completed[i]) << "trial " << i;
    expect_identical(report.results[i], reference.results[i]);
  }
  EXPECT_GE(report.host_losses, 1u);
  // Trial 3 either crash-looped into quarantine or — when an agent died
  // before its kTrialStart reached the coordinator, leaving the crash
  // unattributed — completed on the (clean) local fallback. Both are
  // acceptable terminal states; a hung campaign is not.
  if (!report.completed[3]) {
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].trial_index, 3u);
    EXPECT_EQ(report.failures[0].kind, FailureKind::kHardCrash);
  }
}

TEST(DispatchTest, CoordinatorSigkillResumeIsBitIdentical) {
  const std::uint64_t base = 800;
  const std::size_t n = 10;
  SpawnedAgent a{"slow@25", n, base};
  SpawnedAgent b{"slow@25", n, base};
  ASSERT_NE(a.port(), 0);
  ASSERT_NE(b.port(), 0);

  const std::string stem = temp_stem("resume");
  const std::string ref_stem = temp_stem("resume_ref");
  const auto trials = scenario_trials(n, base);

  // First attempt runs in a fork and is SIGKILLed mid-campaign.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    DispatchOptions options = dt_options({a.port(), b.port()}, stem);
    options.lease_trials = 3;
    const auto ignored = run_distributed(trials, options);
    (void)ignored;
    ::_exit(0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);

  // Second attempt resumes from the journal shards the first left
  // behind — and the agents, which lost their session, serve it again.
  DispatchOptions options = dt_options({a.port(), b.port()}, stem);
  options.lease_trials = 3;
  const auto report = run_distributed(trials, options);
  const auto reference = reference_report(n, base, ref_stem);

  ASSERT_TRUE(report.all_completed());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(report.completed[i]);
    expect_identical(report.results[i], reference.results[i]);
  }
  EXPECT_EQ(slurp(stem), slurp(ref_stem));
  EXPECT_FALSE(slurp(stem).empty());
  std::filesystem::remove(stem);
  std::filesystem::remove(ref_stem);
}

}  // namespace
}  // namespace fourbit::runner

int main(int argc, char** argv) {
  auto cli = fourbit::runner::consume_campaign_cli(argc, argv);
  if (cli.worker_fd >= 0) {
    fourbit::runner::dt_worker_main(argc, argv, std::move(cli));
  }
  if (cli.serve_port >= 0) {
    fourbit::runner::dt_agent_main(argc, argv, std::move(cli));
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
