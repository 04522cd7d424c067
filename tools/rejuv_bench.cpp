// rejuv_bench — hot-path benchmark runner and perf regression gate.
//
// Runs the standard suites (src/benchlib/suites.h) with steady-state timing
// (warmup, calibration, median/MAD over repetitions), prints a table, and
// optionally writes a machine-readable BENCH.json and/or gates the results
// against a checked-in baseline. The gate is a ratio test: a benchmark
// regresses when its median exceeds --max-ratio times the baseline median —
// deliberately loose (2x by default) so CI noise does not flake, while real
// hot-path regressions still fail at PR time.
//
// Usage:
//   rejuv_bench [--suite=all|detector|bank|sim|monitor|obs] [--filter=SUBSTR]
//               [--quick] [--reps=N] [--min-rep-ms=M]
//               [--out=FILE] [--check=BASELINE] [--max-ratio=R] [--list]
//
//   --suite=NAME     run one suite only [all]
//   --filter=SUBSTR  only benchmarks whose name contains SUBSTR
//   --quick          CI mode: fewer, shorter repetitions
//   --reps=N         override timed repetitions
//   --min-rep-ms=M   override the per-repetition calibration target
//   --out=FILE       write BENCH.json (git SHA + config + per-bench stats)
//   --check=FILE     gate against a baseline BENCH.json; exit 3 on regression
//   --max-ratio=R    gate threshold, current/baseline [2.0]
//   --list           print registered benchmarks and exit
//
// Exit codes: 0 success, 1 usage/IO error, 3 regression gate failure.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "benchlib/benchlib.h"
#include "benchlib/suites.h"
#include "common/expect.h"
#include "common/flags.h"
#include "common/table.h"

namespace {

using namespace rejuv;

/// Best-effort short git SHA of the working tree; "unknown" outside a repo.
std::string current_git_sha() {
  std::FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buffer[64] = {};
  std::string sha;
  if (std::fgets(buffer, sizeof buffer, pipe) != nullptr) sha = buffer;
  ::pclose(pipe);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

std::string fmt_ns(double ns) { return common::format_double(ns, 2); }

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = common::Flags::parse(argc, argv);
    flags.expect_only({"suite", "filter", "quick", "reps", "min-rep-ms", "out", "check",
                       "max-ratio", "list"});

    benchlib::Registry registry;
    benchlib::register_standard_suites(registry);

    if (flags.has("list")) {
      for (const auto& benchmark : registry.benchmarks()) {
        std::cout << benchmark.suite << "\t" << benchmark.name << "\n";
      }
      return 0;
    }

    const std::string suite = flags.get("suite").value_or("all");
    if (suite != "all") {
      const auto suites = registry.suites();
      REJUV_EXPECT(std::find(suites.begin(), suites.end(), suite) != suites.end(),
                   "unknown --suite: " + suite);
    }
    const std::string filter = flags.get("filter").value_or("");

    benchlib::BenchOptions options =
        flags.has("quick") ? benchlib::BenchOptions::quick() : benchlib::BenchOptions{};
    options.repetitions =
        static_cast<int>(flags.get_int("reps", options.repetitions));
    options.min_rep_seconds = flags.get_double("min-rep-ms", options.min_rep_seconds * 1e3) / 1e3;

    std::cerr << "running suite '" << suite << "' (" << options.repetitions << " reps, >= "
              << common::format_double(options.min_rep_seconds * 1e3, 1) << " ms each)\n";
    const auto results = registry.run(options, suite, filter, &std::cerr);
    REJUV_EXPECT(!results.empty(), "no benchmark matches --suite/--filter");

    common::Table table({"benchmark", "median_ns", "mad_ns", "min_ns", "ops_per_s", "iters"});
    for (const auto& result : results) {
      table.add_row({result.name, fmt_ns(result.median_ns), fmt_ns(result.mad_ns),
                     fmt_ns(result.min_ns), common::format_double(result.ops_per_second, 0),
                     std::to_string(result.iterations)});
    }
    common::print_table(std::cout, "rejuv-bench (" + suite + ")", table);

    benchlib::RunMetadata metadata;
    metadata.git_sha = current_git_sha();
    metadata.mode = flags.has("quick") ? "quick" : "full";
    metadata.repetitions = options.repetitions;
    metadata.min_rep_seconds = options.min_rep_seconds;

    if (const auto out_path = flags.get("out")) {
      std::ofstream out(*out_path);
      REJUV_EXPECT(out.is_open(), "cannot open --out file: " + *out_path);
      benchlib::write_json(out, metadata, results);
      std::cerr << "wrote " << results.size() << " benchmark(s) -> " << *out_path << "\n";
    }

    if (const auto baseline_path = flags.get("check")) {
      const double max_ratio = flags.get_double("max-ratio", 2.0);
      const auto baseline = benchlib::read_baseline_file(*baseline_path);
      const auto report = benchlib::compare_to_baseline(results, baseline, max_ratio);
      for (const auto& name : report.missing_in_baseline) {
        std::cerr << "note: '" << name << "' not in baseline (new benchmark, not gated)\n";
      }
      for (const auto& name : report.improved) {
        std::cerr << "note: '" << name << "' improved past the gate ratio; "
                  << "consider refreshing " << *baseline_path << "\n";
      }
      if (!report.passed()) {
        std::cerr << "PERF GATE FAILED (max-ratio " << common::format_double(max_ratio, 2)
                  << " vs " << *baseline_path << ", baseline sha " << baseline.git_sha << "):\n";
        for (const auto& regression : report.regressions) {
          std::cerr << "  " << regression.name << ": " << fmt_ns(regression.current_ns)
                    << " ns/op vs baseline " << fmt_ns(regression.baseline_ns) << " ("
                    << common::format_double(regression.ratio, 2) << "x)\n";
        }
        return 3;
      }
      std::cerr << "perf gate passed: " << results.size() - report.missing_in_baseline.size()
                << " benchmark(s) within " << common::format_double(max_ratio, 2)
                << "x of baseline\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "rejuv_bench: " << error.what() << "\n"
              << "see the header of tools/rejuv_bench.cpp for usage\n";
    return 1;
  }
}
