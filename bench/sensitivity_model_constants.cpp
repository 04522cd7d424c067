// Extension bench: how robust are the §5 conclusions to the §3 model
// constants?
//
// The paper fixes GC pause = 60 s, heap = 3 GB, overhead threshold = 50
// threads. This sweep perturbs each constant (half / paper / double) and
// re-runs the Fig. 16 trio at 9.0 CPUs, reporting for every variant whether
// the two orderings of interest hold:
//   - SARAA < SRAA in average RT (the paper's §5.5 claim; reproduced), and
//   - CLTA < SRAA in average RT (our documented deviation from §5.6 — if it
//     held only for the paper's exact constants it would be a tuning
//     artifact; holding across the grid shows it is structural).
#include <iostream>

#include "bench_flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/controller.h"
#include "harness/paper.h"
#include "model/ecommerce.h"
#include "sim/simulator.h"

namespace {

using namespace rejuv;

double run_rt(const core::DetectorConfig& detector, const model::EcommerceConfig& config,
              std::uint64_t transactions, std::uint64_t seed) {
  common::RngStream arrival_rng(seed, 0);
  common::RngStream service_rng(seed, 1);
  sim::Simulator simulator;
  model::EcommerceSystem system(simulator, config, arrival_rng, service_rng);
  core::RejuvenationController controller(core::make_detector(detector));
  system.set_decision([&controller](double rt) { return controller.observe(rt); });
  system.run_transactions(transactions);
  return system.metrics().response_time.mean();
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_flags(argc, argv, {"txns", "seed"});
  const auto transactions = static_cast<std::uint64_t>(flags.get_int("txns", 50000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20060625));

  std::cout << "### extension — sensitivity of the Fig. 16 orderings to the model constants\n\n"
            << "9.0 CPUs offered load, " << transactions << " transactions per cell\n\n";

  const auto sraa = harness::sraa_config({2, 5, 3});
  const auto saraa = harness::saraa_config({2, 5, 3});
  const auto clta = harness::clta_config(30, 1.96);

  common::Table table({"gc_pause_s", "heap_mb", "overhead_threshold", "sraa_rt", "saraa_rt",
                       "clta_rt", "saraa<sraa", "clta<sraa"});
  int saraa_wins = 0;
  int clta_wins = 0;
  int cells = 0;

  for (const double pause : {30.0, 60.0, 120.0}) {
    for (const double heap : {1536.0, 3072.0, 6144.0}) {
      for (const std::size_t threshold : {25u, 50u, 100u}) {
        model::EcommerceConfig config = harness::paper_system();
        config.arrival_rate = 9.0 * config.service_rate;
        config.gc_pause_seconds = pause;
        config.heap_mb = heap;
        config.thread_overhead_threshold = threshold;

        const double sraa_rt = run_rt(sraa, config, transactions, seed);
        const double saraa_rt = run_rt(saraa, config, transactions, seed);
        const double clta_rt = run_rt(clta, config, transactions, seed);
        const bool saraa_better = saraa_rt < sraa_rt;
        const bool clta_better = clta_rt < sraa_rt;
        saraa_wins += saraa_better ? 1 : 0;
        clta_wins += clta_better ? 1 : 0;
        ++cells;
        table.add_row({common::format_double(pause, 0), common::format_double(heap, 0),
                       std::to_string(threshold), common::format_double(sraa_rt, 2),
                       common::format_double(saraa_rt, 2), common::format_double(clta_rt, 2),
                       saraa_better ? "yes" : "NO", clta_better ? "yes" : "NO"});
      }
    }
  }
  common::print_table(std::cout, "orderings across the constants grid", table);

  std::cout << "SARAA beats SRAA in " << saraa_wins << "/" << cells
            << " cells (paper's §5.5 claim)\n"
            << "CLTA beats SRAA in " << clta_wins << "/" << cells
            << " cells (our §5.6 deviation: structural, not a tuning artifact, if high)\n";
  return 0;
}
