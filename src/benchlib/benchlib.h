// Unified benchmarking subsystem: steady-state timing with warmup,
// repetition, and robust (median/MAD) reporting.
//
// The figure benches reproduce the paper's *statistics*; this library
// measures the *machinery* — how many nanoseconds one observation costs on
// each hot path. Design goals, in order:
//
//   1. Robust numbers on shared/noisy machines: per-benchmark repetitions
//      are summarized by median and median-absolute-deviation, not mean and
//      variance, so a single preempted repetition cannot shift the result.
//   2. Steady state only: the iteration count is auto-calibrated until one
//      repetition exceeds a minimum duration, and warmup repetitions are
//      discarded, so cold caches and lazy page-ins never land in the stats.
//   3. Machine-readable output: results serialize to a single BENCH.json
//      (schema below) that tools/ci.sh diffs against bench/baseline.json —
//      the regression gate every perf PR runs against.
//
// A benchmark is a callable `void(std::uint64_t iterations)` that performs
// exactly `iterations` operations; the harness owns calibration and timing.
// Fixture state lives in the closure, so setup cost is paid once, outside
// the timed region; per-operation setup goes through untimed().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rejuv::benchlib {

/// Compiler barrier: forces `value` to be materialized, preventing the
/// optimizer from deleting a benchmark body whose results are unused.
template <typename T>
inline void do_not_optimize(T const& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  volatile T sink = value;
  (void)sink;
#endif
}

/// Runs `setup` inside a benchmark body without counting its time: for
/// per-operation setup that cannot be hoisted into the fixture, such as
/// refilling a journal before each timed compaction.
void untimed(const std::function<void()>& setup);

/// Timing protocol for one run of a suite.
struct BenchOptions {
  int repetitions = 9;          ///< timed repetitions entering the stats
  int warmup_repetitions = 2;   ///< discarded repetitions run first
  double min_rep_seconds = 0.05;  ///< calibration target per repetition
  /// CI quick mode: fewer, shorter repetitions (the ratio gate is tolerant).
  static BenchOptions quick();
};

/// Robust summary of one benchmark's repetitions, in ns per operation.
struct BenchResult {
  std::string suite;   ///< e.g. "detector"
  std::string name;    ///< e.g. "detector.sraa.observe"
  double median_ns = 0.0;  ///< median over repetitions
  double mad_ns = 0.0;     ///< median absolute deviation around median_ns
  double mean_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
  double ops_per_second = 0.0;  ///< 1e9 / median_ns
  std::uint64_t iterations = 0;  ///< calibrated operations per repetition
  int repetitions = 0;
};

/// Median of `values` (not required to be sorted; copied internally).
double median(std::vector<double> values);

/// Median absolute deviation of `values` around `center`.
double median_abs_deviation(std::vector<double> values, double center);

/// One registered benchmark: `run(n)` performs exactly n operations.
struct Benchmark {
  std::string suite;
  std::string name;
  std::function<void(std::uint64_t)> run;
};

/// Named collection of benchmarks; the registry preserves registration
/// order so BENCH.json is stable across runs.
class Registry {
 public:
  /// Registers a benchmark under `suite` with a globally unique `name`;
  /// throws std::invalid_argument on a duplicate name.
  void add(std::string suite, std::string name, std::function<void(std::uint64_t)> run);

  const std::vector<Benchmark>& benchmarks() const noexcept { return benchmarks_; }

  /// Suites present, in first-registration order.
  std::vector<std::string> suites() const;

  /// Runs every benchmark whose suite matches `suite` ("all" = every suite)
  /// and whose name contains `filter` (empty = no filter), in registration
  /// order. `progress` (may be null) receives each result as it lands, so a
  /// CLI can stream a table while a long suite runs.
  std::vector<BenchResult> run(const BenchOptions& options, const std::string& suite = "all",
                               const std::string& filter = "",
                               std::ostream* progress = nullptr) const;

 private:
  std::vector<Benchmark> benchmarks_;
};

/// Times one benchmark under `options` (exposed for benchlib's own tests).
BenchResult run_benchmark(const Benchmark& benchmark, const BenchOptions& options);

/// Run metadata stamped into BENCH.json, so a result file is traceable to
/// the build that produced it.
struct RunMetadata {
  std::string git_sha = "unknown";
  std::string mode = "full";  ///< "full" or "quick"
  int repetitions = 0;
  double min_rep_seconds = 0.0;
};

/// Writes the BENCH.json document: metadata plus one object per benchmark.
void write_json(std::ostream& out, const RunMetadata& metadata,
                const std::vector<BenchResult>& results);

/// A parsed baseline: benchmark name -> median ns/op.
struct BaselineFile {
  std::string git_sha;
  std::map<std::string, double> median_ns;
};

/// Parses a BENCH.json document (e.g. bench/baseline.json). Returns nullopt
/// when the text is not a valid document of the write_json schema.
std::optional<BaselineFile> parse_bench_json(const std::string& text);

/// Reads and parses a BENCH.json file; throws std::invalid_argument when
/// the file cannot be opened or does not parse.
BaselineFile read_baseline_file(const std::string& path);

/// One benchmark that got slower than the gate allows.
struct Regression {
  std::string name;
  double baseline_ns = 0.0;
  double current_ns = 0.0;
  double ratio = 0.0;  ///< current / baseline
};

/// Outcome of gating `results` against a baseline.
struct CompareReport {
  std::vector<Regression> regressions;       ///< current > max_ratio * baseline
  std::vector<std::string> missing_in_baseline;  ///< new benchmarks (not gated)
  std::vector<std::string> improved;         ///< current < baseline / max_ratio

  bool passed() const noexcept { return regressions.empty(); }
};

/// Ratio gate: a benchmark regresses when current median exceeds
/// `max_ratio` times its baseline median. Benchmarks absent from the
/// baseline are listed but never fail the gate (a new benchmark must be
/// land-able before its baseline exists).
CompareReport compare_to_baseline(const std::vector<BenchResult>& results,
                                  const BaselineFile& baseline, double max_ratio);

}  // namespace rejuv::benchlib
