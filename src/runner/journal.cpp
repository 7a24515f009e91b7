#include "runner/journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/byte_io.hpp"
#include "common/crc16.hpp"

namespace fourbit::runner {
namespace {

constexpr std::uint16_t kMagic = kJournalMagic;  // "FJ"
constexpr std::uint8_t kVersion = 2;
constexpr std::size_t kFrameHeaderBytes = 6;  // magic u16 + length u32
constexpr std::size_t kCrcBytes = 2;

std::atomic<std::uint64_t> g_write_failures{0};

// Every field of ExperimentResult, in declaration order. Bump kVersion
// when this layout changes; load() drops records of other versions.
void encode_result(ByteWriter& w, const ExperimentResult& r) {
  w.f64(r.cost);
  w.f64(r.delivery_ratio);
  w.f64(r.mean_depth);
  w.u32(static_cast<std::uint32_t>(r.per_node_delivery.size()));
  for (const double d : r.per_node_delivery) w.f64(d);
  w.u64(r.generated);
  w.u64(r.delivered);
  w.u64(r.data_tx);
  w.u64(r.beacon_tx);
  w.u64(r.radio_frames);
  w.u64(r.retx_drops);
  w.u64(r.queue_drops);
  w.u64(r.duplicates);
  w.u64(r.parent_changes);
  w.u32(static_cast<std::uint32_t>(r.final_tree.depths.size()));
  for (const int d : r.final_tree.depths) {
    w.u32(static_cast<std::uint32_t>(d));
  }
  w.f64(r.final_tree.mean_depth);
  w.u32(static_cast<std::uint32_t>(r.final_tree.routed));
  w.u32(static_cast<std::uint32_t>(r.final_tree.total));
  w.u64(r.node_crashes);
  w.u64(r.node_reboots);
  w.u64(r.link_outages);
  w.u64(r.route_losses);
  w.u64(r.parent_evictions);
  w.u64(r.pin_refusals);
  w.f64(r.mean_time_to_reroute_s);
  w.f64(r.max_time_to_reroute_s);
  w.f64(r.mean_time_to_first_route_s);
  w.f64(r.mean_table_refill_s);
  w.u64(r.generated_during_outage);
  w.u64(r.generated_post_outage);
  w.f64(r.delivery_during_outage);
  w.f64(r.delivery_post_outage);
  w.f64(r.worst_node_mah);
  w.f64(r.mean_tx_mah);
  w.f64(r.projected_lifetime_days);
  w.u64(r.arena_bytes);
  w.u64(r.eq_resizes);
}

ExperimentResult decode_result(ByteReader& r) {
  ExperimentResult out;
  out.cost = r.f64();
  out.delivery_ratio = r.f64();
  out.mean_depth = r.f64();
  const std::uint32_t deliveries = r.u32();
  out.per_node_delivery.reserve(deliveries);
  for (std::uint32_t i = 0; i < deliveries && r.ok(); ++i) {
    out.per_node_delivery.push_back(r.f64());
  }
  out.generated = r.u64();
  out.delivered = r.u64();
  out.data_tx = r.u64();
  out.beacon_tx = r.u64();
  out.radio_frames = r.u64();
  out.retx_drops = r.u64();
  out.queue_drops = r.u64();
  out.duplicates = r.u64();
  out.parent_changes = r.u64();
  const std::uint32_t depths = r.u32();
  out.final_tree.depths.reserve(depths);
  for (std::uint32_t i = 0; i < depths && r.ok(); ++i) {
    out.final_tree.depths.push_back(static_cast<int>(r.u32()));
  }
  out.final_tree.mean_depth = r.f64();
  out.final_tree.routed = r.u32();
  out.final_tree.total = r.u32();
  out.node_crashes = r.u64();
  out.node_reboots = r.u64();
  out.link_outages = r.u64();
  out.route_losses = r.u64();
  out.parent_evictions = r.u64();
  out.pin_refusals = r.u64();
  out.mean_time_to_reroute_s = r.f64();
  out.max_time_to_reroute_s = r.f64();
  out.mean_time_to_first_route_s = r.f64();
  out.mean_table_refill_s = r.f64();
  out.generated_during_outage = r.u64();
  out.generated_post_outage = r.u64();
  out.delivery_during_outage = r.f64();
  out.delivery_post_outage = r.f64();
  out.worst_node_mah = r.f64();
  out.mean_tx_mah = r.f64();
  out.projected_lifetime_days = r.f64();
  out.arena_bytes = r.u64();
  out.eq_resizes = r.u64();
  return out;
}

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return bytes;  // no journal yet: empty
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(file);
  return bytes;
}

/// Byte length of the leading run of intact records: where a torn tail
/// (if any) begins.
std::size_t clean_prefix_bytes(const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::span<const std::uint8_t> rest{bytes.data() + pos,
                                             bytes.size() - pos};
    if (rest.size() < kFrameHeaderBytes) break;
    ByteReader header{rest.first(kFrameHeaderBytes)};
    if (header.u16() != kMagic) break;
    const std::uint32_t length = header.u32();
    if (rest.size() < kFrameHeaderBytes + length + kCrcBytes) break;
    const auto payload = rest.subspan(kFrameHeaderBytes, length);
    ByteReader crc_reader{rest.subspan(kFrameHeaderBytes + length, kCrcBytes)};
    if (crc_reader.u16() != crc16(payload)) break;
    if (!decode_journal_record_payload(payload)) break;
    pos += kFrameHeaderBytes + length + kCrcBytes;
  }
  return pos;
}

}  // namespace

std::vector<std::uint8_t> encode_journal_record(const JournalEntry& entry) {
  std::vector<std::uint8_t> payload;
  ByteWriter writer{payload};
  writer.u8(kVersion);
  writer.u32(entry.trial_index);
  writer.u64(entry.seed);
  encode_result(writer, entry.result);

  std::vector<std::uint8_t> frame;
  ByteWriter framer{frame};
  framer.u16(kMagic);
  framer.u32(static_cast<std::uint32_t>(payload.size()));
  framer.bytes(payload);
  framer.u16(crc16(payload));
  return frame;
}

std::optional<JournalEntry> decode_journal_record_payload(
    std::span<const std::uint8_t> payload) {
  ByteReader reader{payload};
  if (reader.u8() != kVersion) return std::nullopt;
  JournalEntry entry;
  entry.trial_index = reader.u32();
  entry.seed = reader.u64();
  entry.result = decode_result(reader);
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return entry;
}

TrialJournal::LoadResult TrialJournal::load(const std::string& path) {
  LoadResult out;
  const std::vector<std::uint8_t> bytes = read_all(path);
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    // Any framing or CRC failure from here on means a torn tail (or
    // corruption); the suffix cannot be trusted, so replay stops.
    const std::span<const std::uint8_t> rest{bytes.data() + pos,
                                             bytes.size() - pos};
    if (rest.size() < kFrameHeaderBytes) {
      out.torn = true;
      break;
    }
    ByteReader header{rest.first(kFrameHeaderBytes)};
    if (header.u16() != kMagic) {
      out.torn = true;
      break;
    }
    const std::uint32_t length = header.u32();
    if (rest.size() < kFrameHeaderBytes + length + kCrcBytes) {
      out.torn = true;
      break;
    }
    const auto payload = rest.subspan(kFrameHeaderBytes, length);
    ByteReader crc_reader{rest.subspan(kFrameHeaderBytes + length, kCrcBytes)};
    if (crc_reader.u16() != crc16(payload)) {
      out.torn = true;
      break;
    }
    auto entry = decode_journal_record_payload(payload);
    if (!entry) {
      out.torn = true;
      break;
    }
    out.entries.push_back(std::move(*entry));
    pos += kFrameHeaderBytes + length + kCrcBytes;
  }
  return out;
}

std::string TrialJournal::shard_path(const std::string& stem,
                                     std::size_t shard) {
  return stem + ".w" + std::to_string(shard) + ".journal";
}

TrialJournal::ShardMergeResult TrialJournal::merge_shards(
    const std::string& stem) {
  ShardMergeResult out;

  // Find every "<basename>.w<k>.journal" sibling of `stem`, sorted
  // numerically by shard id so "last record wins" is deterministic.
  namespace fs = std::filesystem;
  const fs::path stem_path{stem};
  const fs::path dir =
      stem_path.has_parent_path() ? stem_path.parent_path() : fs::path{"."};
  const std::string prefix = stem_path.filename().string() + ".w";
  const std::string suffix = ".journal";
  std::vector<std::pair<std::uint64_t, fs::path>> shards;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator{dir, ec}) {
    const std::string name = dirent.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty()) continue;
    std::uint64_t worker = 0;
    bool numeric = true;
    for (const char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      worker = worker * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!numeric) continue;
    shards.emplace_back(worker, dirent.path());
  }
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Dedup by (index, seed): the latest complete record replaces any
  // earlier one, so a trial journaled twice (overlapping ranges after a
  // respawn or resume) settles on the most recent write.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> slot_of;
  for (const auto& [worker, path] : shards) {
    ++out.shards;
    LoadResult loaded = load(path.string());
    out.torn = out.torn || loaded.torn;
    for (auto& entry : loaded.entries) {
      ++out.records;
      const auto key = std::make_pair(entry.trial_index, entry.seed);
      const auto it = slot_of.find(key);
      if (it != slot_of.end()) {
        out.entries[it->second] = std::move(entry);
      } else {
        slot_of.emplace(key, out.entries.size());
        out.entries.push_back(std::move(entry));
      }
    }
  }
  return out;
}

TrialJournal TrialJournal::open_append(const std::string& path) {
  // A process killed mid-append leaves a torn tail. Appending AFTER it
  // would strand every subsequent record: framing is lost at the first
  // bad byte, so load() could never reach them. Truncate to the clean
  // prefix first — exactly the bytes load() would replay anyway.
  const std::vector<std::uint8_t> bytes = read_all(path);
  const std::size_t clean = clean_prefix_bytes(bytes);
  if (clean < bytes.size()) {
    std::error_code ec;
    std::filesystem::resize_file(path, clean, ec);
    if (ec) {
      throw std::runtime_error("cannot truncate torn trial journal tail: " +
                               path);
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    throw std::runtime_error("cannot open trial journal for append: " + path);
  }
  return TrialJournal{file};
}

void TrialJournal::append(std::uint32_t trial_index, std::uint64_t seed,
                          const ExperimentResult& result) {
  if (file_ == nullptr) return;  // latched disabled by an earlier failure

  const std::vector<std::uint8_t> frame =
      encode_journal_record({trial_index, seed, result});

  // One fsync per trial: a journaled record must survive SIGKILL the
  // moment append() returns — that is the whole point of the journal.
  // A failure anywhere in write/flush/fsync (ENOSPC, EIO) only costs
  // that safety net, so it must not abort the campaign: latch the
  // journal disabled and keep running. The partial frame left behind
  // is a torn tail, which load()/open_append() already drop/truncate.
  const bool wrote =
      std::fwrite(frame.data(), 1, frame.size(), file_) == frame.size() &&
      std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0;
  if (wrote) return;

  const int err = errno;
  g_write_failures.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "fourbit-journal: write failed (%s); journaling disabled for "
               "the rest of the campaign (runner/journal_write_failures)\n",
               std::strerror(err));
  std::fflush(stderr);
  std::fclose(file_);
  file_ = nullptr;
}

int TrialJournal::fd() const {
  return file_ != nullptr ? ::fileno(file_) : -1;
}

std::uint64_t TrialJournal::write_failures() {
  return g_write_failures.load(std::memory_order_relaxed);
}

TrialJournal& TrialJournal::operator=(TrialJournal&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

TrialJournal::~TrialJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

}  // namespace fourbit::runner
