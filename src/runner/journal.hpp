// Crash-safe trial-result journal: append-only, CRC-framed, fsynced.
//
// A multi-hour campaign must not lose every finished trial to one
// process death. Each completed ExperimentResult is appended as one
// durably-flushed record; a relaunched campaign replays the journal,
// skips the finished trials, and — because every trial is a pure
// function of its config — produces results bit-identical to an
// uninterrupted run (doubles travel as raw IEEE-754 bit patterns).
//
// File layout: a plain sequence of records, each
//     magic    u16   0x464A ("FJ")
//     length   u32   payload byte count
//     payload        version u8 | trial_index u32 | seed u64
//                    | ExperimentResult fields (journal.cpp)
//     crc      u16   CRC-16/CCITT over the payload
//
// append() fflushes and fsyncs before returning, so after a SIGKILL at
// any instant the file is a clean record prefix plus at most one torn
// tail, which load() detects via the frame length/CRC and drops (the
// interrupted trial simply re-runs). Nothing in the file is ever
// rewritten in place.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runner/experiment.hpp"

namespace fourbit::runner {

/// One replayed record.
struct JournalEntry {
  std::uint32_t trial_index = 0;
  std::uint64_t seed = 0;
  ExperimentResult result;
};

/// Journal frame magic ("FJ"). The transport layer multiplexes journal
/// frames over the host/coordinator socket and dispatches on this.
inline constexpr std::uint16_t kJournalMagic = 0x464A;

/// One complete journal frame (header + payload + CRC) for `entry` —
/// the exact bytes append() writes. Used by the dispatch transport to
/// ship results over a socket in the same self-describing framing.
[[nodiscard]] std::vector<std::uint8_t> encode_journal_record(
    const JournalEntry& entry);

/// Decodes one journal frame payload (the bytes between the length
/// field and the CRC). Returns nullopt on version or layout mismatch.
[[nodiscard]] std::optional<JournalEntry> decode_journal_record_payload(
    std::span<const std::uint8_t> payload);

class TrialJournal {
 public:
  struct LoadResult {
    std::vector<JournalEntry> entries;
    /// A trailing partial or corrupt record was found and dropped — the
    /// expected shape after a mid-write kill. Replay of the clean
    /// prefix proceeds normally.
    bool torn = false;
  };

  /// Shard k of a campaign journal: "<stem>.w<k>.journal" next to the
  /// main journal at `stem`. A coordinator journals into shards while
  /// it runs (dispatch.hpp) and compacts them into `stem` at the end.
  [[nodiscard]] static std::string shard_path(const std::string& stem,
                                              std::size_t shard);

  struct ShardMergeResult {
    /// Union of every intact record across all shards, deduplicated by
    /// (trial_index, seed): when the same trial appears in multiple
    /// shards, the last complete record — shard order ascending by
    /// shard id, file order within a shard — wins.
    std::vector<JournalEntry> entries;
    std::size_t shards = 0;   // shard files found
    std::size_t records = 0;  // intact records read (pre-dedup)
    bool torn = false;        // any shard had a torn tail
  };

  /// Loads and merges every "<stem>.w*.journal" shard (numeric order by
  /// shard id). Seed validation is the caller's job at replay time —
  /// exactly as for load() — so a foreign-seed shard record is rejected
  /// there, not here.
  [[nodiscard]] static ShardMergeResult merge_shards(const std::string& stem);

  /// Replays every intact record. A missing file is an empty journal.
  [[nodiscard]] static LoadResult load(const std::string& path);

  /// Opens `path` for appending, creating it if needed. Any torn tail
  /// left by a mid-write kill is truncated first, so records appended
  /// now stay reachable by load() (framing would otherwise be lost at
  /// the first garbage byte). Throws std::runtime_error when the file
  /// cannot be opened or the tail cannot be truncated.
  [[nodiscard]] static TrialJournal open_append(const std::string& path);

  /// Appends one completed trial and makes it durable (fflush + fsync)
  /// before returning. A write or fsync failure (ENOSPC, EIO, a yanked
  /// volume) must not kill a multi-hour campaign over a lost safety
  /// net: the journal latches into a disabled state instead — one
  /// stderr warning, the process-wide write_failures() counter bumps
  /// (exported as runner/journal_write_failures), and every later
  /// append() on this journal is a no-op. The campaign finishes
  /// unjournaled; only resume durability is lost.
  void append(std::uint32_t trial_index, std::uint64_t seed,
              const ExperimentResult& result);

  /// False once a write failure has latched the journal disabled.
  [[nodiscard]] bool healthy() const { return file_ != nullptr; }

  /// Underlying file descriptor, -1 when disabled. Diagnostic/test
  /// hook (tests inject write failures by closing it).
  [[nodiscard]] int fd() const;

  /// Process-wide count of append() write failures (monotonic).
  [[nodiscard]] static std::uint64_t write_failures();

  TrialJournal(TrialJournal&& other) noexcept : file_(other.file_) {
    other.file_ = nullptr;
  }
  TrialJournal& operator=(TrialJournal&& other) noexcept;
  ~TrialJournal();

  TrialJournal(const TrialJournal&) = delete;
  TrialJournal& operator=(const TrialJournal&) = delete;

 private:
  explicit TrialJournal(std::FILE* file) : file_(file) {}

  std::FILE* file_ = nullptr;
};

}  // namespace fourbit::runner
