// Shared driver for the figure-reproduction binaries.
//
// Each fig* binary declares its configuration list and calls run_figure,
// which runs the sweeps under the environment-controlled protocol
// (REJUV_FULL=1 restores the paper's 5x100,000-transaction runs) and prints
// the response-time table, the loss table, a per-config summary, and the
// side-by-side comparison against the paper's quoted spot values.
//
// Flags: --loads=0.5,1,...  --txns=N  --reps=N  --seed=N  --threads=N
// All figure binaries share one process-wide work-stealing pool, so nested
// sweeps cannot oversubscribe the host; --threads (or REJUV_THREADS) sizes
// it, REJUV_SEQUENTIAL=1 bypasses it.
#pragma once

#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "common/table.h"
#include "exec/pool.h"
#include "harness/experiment.h"
#include "harness/paper.h"
#include "harness/report.h"

namespace rejuv::bench {

struct FigureOptions {
  harness::SimulationProtocol protocol;
  std::vector<double> loads;
};

inline FigureOptions parse_figure_options(int argc, const char* const* argv) {
  const auto flags = bench::parse_flags(argc, argv, {"txns", "reps", "seed", "loads", "threads"});
  FigureOptions options;
  options.protocol = harness::SimulationProtocol::from_environment();
  options.protocol.transactions_per_replication = static_cast<std::uint64_t>(flags.get_int(
      "txns", static_cast<std::int64_t>(options.protocol.transactions_per_replication)));
  options.protocol.replications = static_cast<std::uint64_t>(
      flags.get_int("reps", static_cast<std::int64_t>(options.protocol.replications)));
  options.protocol.base_seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(options.protocol.base_seed)));
  options.loads = flags.get_double_list("loads", harness::default_load_grid());
  if (const auto threads = flags.get_int("threads", 0); threads > 0) {
    exec::ThreadPool::configure_shared(static_cast<std::size_t>(threads));
  }
  return options;
}

inline void print_protocol(const FigureOptions& options) {
  std::cout << "protocol: " << options.protocol.replications << " replication(s) x "
            << options.protocol.transactions_per_replication
            << " transactions per point, seed " << options.protocol.base_seed
            << " (REJUV_FULL=1 for the paper's 5x100000)\n\n";
}

/// Runs and prints one figure. `figure_label` selects the paper references
/// to compare against (e.g. "Fig. 9"); pass extra labels for text-quoted
/// values that belong to the same bench.
inline std::vector<harness::SweepResult> run_figure(
    const std::string& title, std::span<const core::DetectorConfig> configs,
    const FigureOptions& options, std::span<const std::string> reference_figures,
    bool with_loss_table) {
  std::cout << "### " << title << "\n\n";
  print_protocol(options);

  const auto sweeps = harness::run_sweeps(configs, harness::paper_system(), options.loads,
                                          options.protocol);

  common::print_table(std::cout, title + " — average response time [s] vs offered load [CPUs]",
                      harness::response_time_table(sweeps));
  if (with_loss_table) {
    common::print_table(std::cout, title + " — fraction of transactions lost vs offered load",
                        harness::loss_table(sweeps));
  }
  common::print_table(std::cout, title + " — per-configuration summary",
                      harness::summary_table(sweeps));

  const auto references = harness::paper_spot_values();
  for (const std::string& figure : reference_figures) {
    const auto comparison = harness::reference_comparison_table(sweeps, references, figure);
    if (comparison.row_count() > 0) {
      common::print_table(std::cout, "paper-quoted values (" + figure + ") vs this run",
                          comparison);
    }
  }
  return sweeps;
}

}  // namespace rejuv::bench
