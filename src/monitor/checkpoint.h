// Versioned JSONL checkpoint journal for the online monitor.
//
// Each record is one self-contained JSON line carrying one shard's full
// resumable state (controller counters, trigger history, detector state)
// plus enough identity — schema version, detector spec, shard topology — to
// refuse a checkpoint that does not match the monitor restoring it. The
// journal is append-only and flushed per record, so a crash can at worst
// leave one torn final line; the reader skips any line that does not parse
// and keeps the LAST valid record per shard, which makes recovery robust
// against partial writes without fsync gymnastics. Doubles are serialized
// via std::to_chars shortest-round-trip form, so a restored detector is
// bit-identical to the saved one.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/checkpoint.h"

namespace rejuv::monitor {

/// One shard's checkpoint record. Fleet mode reuses the format with
/// shard = dense stream id and the external stream id in `stream_id`
/// ("sid" on the wire); the key is emitted only when set, so classic
/// per-shard records stay byte-identical to the PR 3 format and old
/// readers simply ignore it.
struct ShardCheckpoint {
  std::uint32_t version = core::kCheckpointVersion;
  std::string spec;                 ///< detector spec, for identity checks
  std::uint32_t shard = 0;          ///< which shard this record belongs to
  std::uint32_t shard_count = 1;    ///< topology at save time
  std::uint64_t triggers_since_action = 0;  ///< hysteresis accumulator
  core::ControllerState controller;
  /// Fleet mode: the external (wire) stream id behind this record's dense
  /// id (`shard` holds the dense id there). Emitted as "sid" only when set,
  /// so single-monitor journals stay byte-identical to PR 3.
  std::optional<std::uint32_t> stream_id;
};

/// Serializes a record to one JSON line (no trailing newline).
std::string to_json(const ShardCheckpoint& checkpoint);

/// Parses one journal line; nullopt when the line is torn, malformed, or
/// carries an unknown schema version.
std::optional<ShardCheckpoint> parse_checkpoint_line(std::string_view line);

/// Append-only journal writer; append() is thread-safe (shard workers
/// checkpoint concurrently) and flushes each record.
///
/// Opening a journal whose last line is torn (a crash mid-append) first
/// terminates that line with '\n', so the next record starts a line of its
/// own instead of being glued onto the fragment and lost.
///
/// With a compaction threshold set, the writer bounds journal growth: once
/// the file exceeds the threshold it is rewritten to only the last valid
/// record per shard, in ascending shard order (tmp file + atomic rename, so
/// a crash mid-compaction leaves either the old or the new journal, never a
/// mix). A journal whose live set alone exceeds the threshold raises the
/// next trip point to twice the live size, keeping the rewrite cost
/// amortized O(1) per append.
///
/// Compaction does not re-parse what the writer wrote itself: the writer
/// indexes the byte range of the last line it appended per shard and copies
/// those lines verbatim. Only the bytes already in the file at open are
/// parsed, once, at the first compaction; their surviving records are
/// re-serialized with to_json. The result is byte-identical to rewriting
/// `to_json` of every record read_latest_checkpoints returns, because
/// to_json(parse(line)) == line for every line this writer emits, given
/// counters below 2^53 (the parser reads numbers as doubles) and strings
/// without control characters (the parser does not read the \u00XX escapes
/// to_json writes for them, so such a line is dropped on restore).
class CheckpointWriter {
 public:
  /// Called after each compaction with (live records kept, journal bytes
  /// before, journal bytes after). Invoked under the writer lock — keep it
  /// cheap and reentrancy-free.
  using CompactionHook = std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>;

  /// Opens `path` for appending; throws std::invalid_argument on failure.
  /// `compact_threshold_bytes` = 0 disables compaction (the PR 3 behavior).
  explicit CheckpointWriter(const std::string& path, std::uint64_t compact_threshold_bytes = 0);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Serializes and appends one record. Allocation-free once the writer
  /// has seen the record's shard and a record of its size.
  void append(const ShardCheckpoint& checkpoint);

  const std::string& path() const noexcept { return path_; }
  std::uint64_t compactions() const noexcept { return compactions_; }
  void set_compaction_hook(CompactionHook hook) { hook_ = std::move(hook); }

 private:
  /// Byte range of one journal line, trailing '\n' included.
  struct LineRef {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };
  /// `unindexed_` value meaning "the whole file, later appends included".
  static constexpr std::uint64_t kWholeFile = ~std::uint64_t{0};

  /// Rewrites the journal to the live set; called with mutex_ held.
  void compact_locked();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
  std::string line_;                   ///< serialization buffer, reused per append
  std::uint64_t bytes_ = 0;            ///< current journal size
  std::uint64_t compact_threshold_ = 0;
  std::uint64_t next_compact_ = 0;     ///< adaptive trip point
  std::uint64_t compactions_ = 0;
  /// Compaction only: the last line appended per shard, and the length of
  /// the journal's head that the index does not cover (the bytes present at
  /// open; kWholeFile once a failed write leaves the offsets unknown).
  std::unordered_map<std::uint32_t, LineRef> index_;
  std::uint64_t unindexed_ = 0;
  CompactionHook hook_;
};

/// Scans the journal and returns the last valid record of each shard,
/// sorted by shard index. Unreadable file => empty vector (a fresh start);
/// torn or corrupt lines are skipped silently.
std::vector<ShardCheckpoint> read_latest_checkpoints(const std::string& path);

}  // namespace rejuv::monitor
