// Shared pieces of the end-to-end benchmark: clocks and process counters,
// order statistics, the result line, and the in-memory span recorder the
// traced runs use.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since an arbitrary process-wide origin.
double now_s();
/// Sleeps (never spins) until now_s() reaches `deadline_s`.
void sleep_until_s(double deadline_s);
/// Process user + system CPU seconds (all threads).
double process_cpu_s();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Order statistic with linear interpolation; `p` in [0, 1]; 0 when empty.
double quantile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Prints `result` as the one-line JSON object the benchmark ends with.
void print_result(const Result& result);
/// Formats a double with every digit (shortest round-trip form).
std::string num(double value);

/// Working directory for span dumps and summaries, inside the checkout.
std::string out_dir();
/// Directory for checkpoint journals, inside out_dir().
std::string journal_dir();
/// Mounts a private tmpfs on journal_dir(), visible to this process only
/// and gone when it exits, so journal I/O measures the checkpoint layer
/// rather than the disk. Must run before the process starts any thread.
/// Returns whether journal_dir() is on tmpfs afterwards: false without the
/// privilege to mount, unless the checkout itself is on tmpfs.
bool mount_private_journal_tmpfs();

/// Fixed-size log-bucketed histogram of positive durations in seconds
/// (1 us .. 100 s, 5% wide buckets): constant memory however many samples.
class LogHistogram {
 public:
  void add(double seconds);
  void merge(const LogHistogram& other);
  /// Upper edge of the bucket holding quantile `p`; 0 when empty.
  double quantile(double p) const;
  double max() const noexcept { return max_; }
  std::uint64_t count() const noexcept { return count_; }

 private:
  static constexpr std::size_t kBuckets = 400;
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double max_ = 0.0;
};

// --- Spans ---------------------------------------------------------------

/// One timed interval on one thread. `parent` indexes the same thread's
/// span list (-1 for a root span).
struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread span list. Spans nest through an explicit stack, so a child
/// closes before its parent; self time = duration - children's durations.
/// A recorder belongs to one thread while it records.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string thread_name);

  /// Opens a span named by an id from name_id(); returns its index.
  std::int32_t begin(std::uint16_t name);
  void end(std::int32_t index);
  /// Records a span that was timed elsewhere (no nesting under the stack).
  void add(std::uint16_t name, std::int64_t start_ns, std::int64_t end_ns);

  const std::string& thread_name() const noexcept { return thread_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::int64_t first_ns() const;
  std::int64_t last_ns() const;

 private:
  std::string thread_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Interns a span name (thread-safe; call once per name, outside hot loops).
/// Names are registered before spans are written, so name_of's reference
/// stays valid.
std::uint16_t name_id(const std::string& name);
const std::string& name_of(std::uint16_t id);
std::int64_t ns_now();

/// Totals per span name over a set of recorders.
struct SpanTotals {
  std::vector<double> total_s;  ///< indexed by name id
  std::vector<double> self_s;

  double total(std::uint16_t name) const { return name < total_s.size() ? total_s[name] : 0.0; }
  double self(std::uint16_t name) const { return name < self_s.size() ? self_s[name] : 0.0; }
};
SpanTotals totals(const std::vector<const SpanRecorder*>& recorders);

/// How much of a thread's work the layer spans account for. Busy time is
/// the traced wall time (first span start to last span end) minus the self
/// time of the `idle` spans (waiting for input). Unattributed time is the
/// self time of the `containers` (spans that only group layer calls) plus
/// the gaps between root spans: work that no layer span covers.
struct Attribution {
  double busy_s = 0.0;
  double unattributed_s = 0.0;
  double share() const { return busy_s > 0.0 ? unattributed_s / busy_s : 0.0; }
};
Attribution attribution(const SpanRecorder& recorder, const std::vector<std::uint16_t>& containers,
                        const std::vector<std::uint16_t>& idle);

/// Writes every span as one JSON line (name, start, end, parent, thread).
void write_spans(const std::string& path, const std::vector<const SpanRecorder*>& recorders);

/// Scoped span; a null recorder makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::uint16_t name)
      : recorder_(recorder), index_(recorder ? recorder->begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

/// Prints the host fingerprint line ("fingerprint {...}") to stdout.
/// `journal_fs` names where journals live ("tmpfs", or "none" without one).
void print_fingerprint(const std::string& journal_fs);

}  // namespace perfbench
