#include "monitor/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "obs/sink.h"

namespace rejuv::monitor {

namespace {

template <typename Integer>
void append_int(std::string& out, Integer value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

// Shortest form that parses back to the identical double (std::to_chars),
// the same guarantee the trace sinks rely on.
void append_double(std::string& out, double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

template <typename T, typename AppendOne>
void append_joined(std::string& out, const std::vector<T>& values, AppendOne append_one) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    append_one(out, values[i]);
  }
}

std::optional<std::vector<std::uint64_t>> split_u64(std::string_view text) {
  std::vector<std::uint64_t> values;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = text.substr(start, comma - start);
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(item.data(), item.data() + item.size(), value);
    if (ec != std::errc{} || ptr != item.data() + item.size()) return std::nullopt;
    values.push_back(value);
    start = comma + 1;
  }
  return values;
}

std::optional<std::vector<double>> split_f64(std::string_view text) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = text.substr(start, comma - start);
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(item.data(), item.data() + item.size(), value);
    if (ec != std::errc{} || ptr != item.data() + item.size()) return std::nullopt;
    values.push_back(value);
    start = comma + 1;
  }
  return values;
}

// --- Minimal JSON cursor, mirroring the trace reader's scanner. ---

struct Scanner {
  std::string_view text;
  std::size_t pos = 0;

  bool done() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  void skip_spaces() {
    while (!done() && (peek() == ' ' || peek() == '\t')) ++pos;
  }
  bool consume(char c) {
    skip_spaces();
    if (done() || peek() != c) return false;
    ++pos;
    return true;
  }
};

std::optional<std::string> parse_string(Scanner& scanner) {
  if (!scanner.consume('"')) return std::nullopt;
  std::string value;
  while (!scanner.done()) {
    const char c = scanner.text[scanner.pos++];
    if (c == '"') return value;
    if (c != '\\') {
      value.push_back(c);
      continue;
    }
    if (scanner.done()) return std::nullopt;
    const char escape = scanner.text[scanner.pos++];
    switch (escape) {
      case '"':
      case '\\':
      case '/':
        value.push_back(escape);
        break;
      case 'n':
        value.push_back('\n');
        break;
      case 'r':
        value.push_back('\r');
        break;
      case 't':
        value.push_back('\t');
        break;
      default:
        return std::nullopt;  // the writer emits nothing fancier
    }
  }
  return std::nullopt;  // unterminated: a torn final line
}

std::optional<double> parse_number(Scanner& scanner) {
  scanner.skip_spaces();
  const auto* first = scanner.text.data() + scanner.pos;
  const auto* last = scanner.text.data() + scanner.text.size();
  double value = 0.0;
  const auto result = std::from_chars(first, last, value);
  if (result.ec != std::errc{} || result.ptr == first) return std::nullopt;
  scanner.pos += static_cast<std::size_t>(result.ptr - first);
  return value;
}

void append_bool(std::string& out, bool value) { out += value ? "true" : "false"; }

void append_string(std::string& out, std::string_view text) {
  out += '"';
  obs::append_json_escaped(out, text);
  out += '"';
}

// Appends one record's JSON line (no trailing newline) to `line`; with a
// reused buffer, serialization allocates nothing.
void append_json(std::string& line, const ShardCheckpoint& checkpoint) {
  const core::ControllerState& controller = checkpoint.controller;
  const core::DetectorState& detector = controller.detector;
  line += "{\"v\":";
  append_int(line, checkpoint.version);
  line += ",\"spec\":";
  append_string(line, checkpoint.spec);
  line += ",\"shard\":";
  append_int(line, checkpoint.shard);
  line += ",\"shards\":";
  append_int(line, checkpoint.shard_count);
  line += ",\"tsa\":";
  append_int(line, checkpoint.triggers_since_action);
  // Fleet-mode external stream id; absent on classic per-shard records so
  // those stay byte-identical to the PR 3 format.
  if (checkpoint.stream_id) {
    line += ",\"sid\":";
    append_int(line, *checkpoint.stream_id);
  }
  line += ",\"obs\":";
  append_int(line, controller.observations);
  line += ",\"cooldown\":";
  append_int(line, controller.cooldown_remaining);
  line += ",\"triggers\":\"";
  append_joined(line, controller.trigger_indices, append_int<std::uint64_t>);
  line += "\",\"alg\":";
  append_string(line, detector.algorithm);
  line += ",\"cascade\":";
  append_bool(line, detector.has_cascade);
  line += ",\"bucket\":";
  append_int(line, detector.bucket);
  line += ",\"fill\":";
  append_int(line, detector.fill);
  line += ",\"window\":";
  append_bool(line, detector.has_window);
  line += ",\"wlen\":";
  append_int(line, detector.window_length);
  line += ",\"wnext\":";
  append_int(line, detector.window_next);
  line += ",\"wcount\":";
  append_int(line, detector.window_count);
  line += ",\"wsum\":";
  append_double(line, detector.window_sum);
  line += ",\"curn\":";
  append_int(line, detector.current_n);
  line += ",\"lastavg\":";
  append_double(line, detector.last_average);
  line += ",\"calib\":";
  append_bool(line, detector.calibrating);
  line += ",\"ccount\":";
  append_int(line, detector.calibration_count);
  line += ",\"cmean\":";
  append_double(line, detector.calibration_mean);
  line += ",\"cm2\":";
  append_double(line, detector.calibration_m2);
  line += ",\"cmin\":";
  append_double(line, detector.calibration_min);
  line += ",\"cmax\":";
  append_double(line, detector.calibration_max);
  line += ",\"bmean\":";
  append_double(line, detector.baseline_mean);
  line += ",\"bstddev\":";
  append_double(line, detector.baseline_stddev);
  // Registry extension payload: families beyond the flat fields (Adaptive,
  // EDiv, Entropy, MK, ...). Old readers ignore the unknown keys; an empty
  // tag keeps the line byte-identical to the pre-extension format.
  if (!detector.extra_tag.empty() || !detector.extra_u64.empty() || !detector.extra_f64.empty()) {
    line += ",\"xtag\":";
    append_string(line, detector.extra_tag);
    line += ",\"xu\":\"";
    append_joined(line, detector.extra_u64, append_int<std::uint64_t>);
    line += "\",\"xf\":\"";
    append_joined(line, detector.extra_f64, append_double);
    line += '"';
  }
  line += '}';
}

}  // namespace

std::string to_json(const ShardCheckpoint& checkpoint) {
  std::string line;
  line.reserve(512);
  append_json(line, checkpoint);
  return line;
}

std::optional<ShardCheckpoint> parse_checkpoint_line(std::string_view line) {
  Scanner scanner{line};
  if (!scanner.consume('{')) return std::nullopt;

  ShardCheckpoint checkpoint;
  checkpoint.version = 0;  // must be seen explicitly
  core::ControllerState& controller = checkpoint.controller;
  core::DetectorState& detector = controller.detector;
  bool saw_spec = false;
  bool first = true;
  while (true) {
    if (scanner.consume('}')) break;
    if (!first && !scanner.consume(',')) return std::nullopt;
    first = false;

    const auto key = parse_string(scanner);
    if (!key || !scanner.consume(':')) return std::nullopt;
    scanner.skip_spaces();
    if (scanner.done()) return std::nullopt;

    if (scanner.peek() == '"') {
      const auto text = parse_string(scanner);
      if (!text) return std::nullopt;
      if (*key == "spec") {
        checkpoint.spec = *text;
        saw_spec = true;
      } else if (*key == "triggers") {
        auto values = split_u64(*text);
        if (!values) return std::nullopt;
        controller.trigger_indices = std::move(*values);
      } else if (*key == "alg") {
        detector.algorithm = *text;
      } else if (*key == "xtag") {
        detector.extra_tag = *text;
      } else if (*key == "xu") {
        auto values = split_u64(*text);
        if (!values) return std::nullopt;
        detector.extra_u64 = std::move(*values);
      } else if (*key == "xf") {
        auto values = split_f64(*text);
        if (!values) return std::nullopt;
        detector.extra_f64 = std::move(*values);
      }
      continue;
    }
    if (scanner.text.substr(scanner.pos, 4) == "true") {
      scanner.pos += 4;
      if (*key == "cascade") detector.has_cascade = true;
      if (*key == "window") detector.has_window = true;
      if (*key == "calib") detector.calibrating = true;
      continue;
    }
    if (scanner.text.substr(scanner.pos, 5) == "false") {
      scanner.pos += 5;
      continue;  // all booleans default to false
    }
    const auto number = parse_number(scanner);
    if (!number) return std::nullopt;
    if (*key == "v") {
      checkpoint.version = static_cast<std::uint32_t>(*number);
    } else if (*key == "shard") {
      checkpoint.shard = static_cast<std::uint32_t>(*number);
    } else if (*key == "shards") {
      checkpoint.shard_count = static_cast<std::uint32_t>(*number);
    } else if (*key == "tsa") {
      checkpoint.triggers_since_action = static_cast<std::uint64_t>(*number);
    } else if (*key == "sid") {
      checkpoint.stream_id = static_cast<std::uint32_t>(*number);
    } else if (*key == "obs") {
      controller.observations = static_cast<std::uint64_t>(*number);
    } else if (*key == "cooldown") {
      controller.cooldown_remaining = static_cast<std::uint64_t>(*number);
    } else if (*key == "bucket") {
      detector.bucket = static_cast<std::uint64_t>(*number);
    } else if (*key == "fill") {
      detector.fill = static_cast<std::int64_t>(*number);
    } else if (*key == "wlen") {
      detector.window_length = static_cast<std::uint64_t>(*number);
    } else if (*key == "wnext") {
      detector.window_next = static_cast<std::uint64_t>(*number);
    } else if (*key == "wcount") {
      detector.window_count = static_cast<std::uint64_t>(*number);
    } else if (*key == "wsum") {
      detector.window_sum = *number;
    } else if (*key == "curn") {
      detector.current_n = static_cast<std::uint64_t>(*number);
    } else if (*key == "lastavg") {
      detector.last_average = *number;
    } else if (*key == "ccount") {
      detector.calibration_count = static_cast<std::uint64_t>(*number);
    } else if (*key == "cmean") {
      detector.calibration_mean = *number;
    } else if (*key == "cm2") {
      detector.calibration_m2 = *number;
    } else if (*key == "cmin") {
      detector.calibration_min = *number;
    } else if (*key == "cmax") {
      detector.calibration_max = *number;
    } else if (*key == "bmean") {
      detector.baseline_mean = *number;
    } else if (*key == "bstddev") {
      detector.baseline_stddev = *number;
    }  // unknown keys are ignored (forward compatibility within a version)
  }
  if (!saw_spec || checkpoint.version != core::kCheckpointVersion) return std::nullopt;
  return checkpoint;
}

namespace {

// Last valid record per shard among the lines of `path` that start before
// byte `limit`, skipping the shards `skip` names; torn or foreign lines are
// skipped, and an unreadable file yields nothing.
template <typename Skip>
std::map<std::uint32_t, ShardCheckpoint> latest_records(const std::string& path,
                                                        std::uint64_t limit, Skip skip) {
  std::ifstream in(path);
  std::map<std::uint32_t, ShardCheckpoint> latest;
  std::string line;
  std::uint64_t consumed = 0;
  while (consumed < limit && std::getline(in, line)) {
    consumed += line.size() + 1;
    auto checkpoint = parse_checkpoint_line(line);
    if (!checkpoint || skip(checkpoint->shard)) continue;
    latest[checkpoint->shard] = std::move(*checkpoint);
  }
  return latest;
}

// A journal opened read-only, closed on scope exit.
class ReadOnlyFile {
 public:
  explicit ReadOnlyFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~ReadOnlyFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;

  bool is_open() const noexcept { return fd_ >= 0; }

  /// Reads exactly `length` bytes at `offset`; false on a short read, an
  /// error or a file that did not open.
  bool read_at(char* out, std::uint64_t length, std::uint64_t offset) const {
    while (length > 0) {
      const ssize_t n = ::pread(fd_, out, length, static_cast<off_t>(offset));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      out += n;
      length -= static_cast<std::uint64_t>(n);
      offset += static_cast<std::uint64_t>(n);
    }
    return true;
  }

 private:
  int fd_;
};

}  // namespace

CheckpointWriter::CheckpointWriter(const std::string& path, std::uint64_t compact_threshold_bytes)
    : path_(path), compact_threshold_(compact_threshold_bytes),
      next_compact_(compact_threshold_bytes) {
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    throw std::invalid_argument("cannot open checkpoint journal for append: " + path);
  }
  // "a" positions writes at the end but reports offset 0 until the first
  // write; seek explicitly so bytes_ reflects a pre-existing journal.
  std::fseek(file_, 0, SEEK_END);
  const long size = std::ftell(file_);
  if (size > 0) bytes_ = static_cast<std::uint64_t>(size);
  // A crash mid-append leaves a torn last line: end it, so the next record
  // is a line of its own (and every indexed offset starts a line).
  if (bytes_ > 0) {
    char last = '\n';  // stays '\n' if the last byte cannot be read
    ReadOnlyFile(path).read_at(&last, 1, bytes_ - 1);
    if (last != '\n') {
      std::fputc('\n', file_);
      std::fflush(file_);
      ++bytes_;
    }
  }
  unindexed_ = bytes_;
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointWriter::append(const ShardCheckpoint& checkpoint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  line_.clear();
  append_json(line_, checkpoint);
  line_ += '\n';
  const bool written = std::fwrite(line_.data(), 1, line_.size(), file_) == line_.size() &&
                       std::fflush(file_) == 0;
  if (compact_threshold_ == 0) {
    bytes_ += line_.size();
    return;
  }
  if (!written) {
    // Whatever reached the file, the offsets are unknown now: index nothing
    // until the next compaction, which re-parses the whole journal.
    std::clearerr(file_);
    index_.clear();
    unindexed_ = kWholeFile;
  } else if (unindexed_ != kWholeFile) {
    index_.insert_or_assign(checkpoint.shard, LineRef{bytes_, line_.size()});
  }
  bytes_ += line_.size();
  if (bytes_ >= next_compact_) compact_locked();
}

void CheckpointWriter::compact_locked() {
  // Live records come from two places: the lines this writer appended
  // (indexed, copied verbatim) and the records of the unindexed head of the
  // file (parsed here, re-serialized). Each goes out in ascending shard
  // order, the order read_latest_checkpoints returns.
  const std::map<std::uint32_t, ShardCheckpoint> inherited =
      unindexed_ == 0 ? std::map<std::uint32_t, ShardCheckpoint>{}
                      : latest_records(path_, unindexed_, [this](std::uint32_t shard) {
                          return index_.count(shard) != 0;
                        });
  std::vector<std::pair<std::uint32_t, LineRef>> indexed(index_.begin(), index_.end());
  std::sort(indexed.begin(), indexed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  const ReadOnlyFile journal(path_);
  if (!journal.is_open()) return;  // can't compact now; append path still works
  const std::string tmp_path = path_ + ".compact.tmp";
  std::FILE* tmp = std::fopen(tmp_path.c_str(), "w");
  if (tmp == nullptr) return;
  // The new journal's layout, which becomes the index once it is in place.
  std::vector<std::pair<std::uint32_t, LineRef>> rebased;
  rebased.reserve(indexed.size() + inherited.size());
  std::string line;
  std::uint64_t live_bytes = 0;
  bool ok = true;
  auto next_inherited = inherited.begin();
  auto next_indexed = indexed.begin();
  while (ok && (next_inherited != inherited.end() || next_indexed != indexed.end())) {
    std::uint32_t shard = 0;
    if (next_indexed == indexed.end() ||
        (next_inherited != inherited.end() && next_inherited->first < next_indexed->first)) {
      shard = next_inherited->first;
      line.clear();
      append_json(line, next_inherited->second);
      line += '\n';
      ++next_inherited;
    } else {
      shard = next_indexed->first;
      const LineRef ref = next_indexed->second;
      line.resize(ref.length);
      ok = journal.read_at(line.data(), ref.length, ref.offset);
      ++next_indexed;
    }
    ok = ok && std::fwrite(line.data(), 1, line.size(), tmp) == line.size();
    rebased.emplace_back(shard, LineRef{live_bytes, line.size()});
    live_bytes += line.size();
  }
  ok = ok && std::fflush(tmp) == 0;
  if (!ok || std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    std::fclose(tmp);
    std::remove(tmp_path.c_str());
    return;
  }
  // The temp file's handle now appends to the renamed journal.
  std::fclose(file_);
  file_ = tmp;
  for (const auto& [shard, ref] : rebased) index_.insert_or_assign(shard, ref);
  unindexed_ = 0;
  const std::uint64_t before = bytes_;
  bytes_ = live_bytes;
  ++compactions_;
  // A journal that is mostly live would otherwise trip on every append;
  // back off to twice the live size so rewrites stay amortized O(1).
  next_compact_ = std::max(compact_threshold_, live_bytes * 2);
  if (hook_) hook_(rebased.size(), before, live_bytes);
}

std::vector<ShardCheckpoint> read_latest_checkpoints(const std::string& path) {
  std::map<std::uint32_t, ShardCheckpoint> latest =
      latest_records(path, std::numeric_limits<std::uint64_t>::max(),
                     [](std::uint32_t) { return false; });
  std::vector<ShardCheckpoint> records;
  records.reserve(latest.size());
  for (auto& [shard, record] : latest) records.push_back(std::move(record));
  return records;
}

}  // namespace rejuv::monitor
