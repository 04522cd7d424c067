// Extension bench: admission control vs rejuvenation vs both.
//
// Rejuvenation cures degradation after the fact; admission control prevents
// one of its amplifiers (the >50-thread kernel-overhead regime) before the
// fact, by rejecting arrivals when the system holds too many threads. But
// admission control cannot reclaim the heap, so GC pauses keep occurring —
// it bounds the spiral without removing its source. The interesting
// operating policy is the combination: admit conservatively, and rejuvenate
// on lasting degradation.
//
// The table sweeps offered load and reports the two §5 assessment metrics
// plus the loss decomposition (rejected vs flushed).
#include <iostream>

#include "bench_flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/controller.h"
#include "harness/paper.h"
#include "model/ecommerce.h"
#include "queueing/mmck.h"
#include "sim/simulator.h"

namespace {

using namespace rejuv;

struct Row {
  double avg_rt;
  double max_rt;
  double loss;
  std::uint64_t rejected;
  std::uint64_t flushed;
  std::uint64_t rejuvenations;
};

Row run(double load_cpus, std::size_t admission_limit, bool with_detector,
        std::uint64_t transactions, std::uint64_t seed) {
  model::EcommerceConfig config = harness::paper_system();
  config.arrival_rate = load_cpus * config.service_rate;
  config.admission_limit = admission_limit;

  common::RngStream arrival_rng(seed, 0);
  common::RngStream service_rng(seed, 1);
  sim::Simulator simulator;
  model::EcommerceSystem system(simulator, config, arrival_rng, service_rng);
  core::RejuvenationController controller(
      with_detector ? core::make_detector(harness::saraa_config({2, 5, 3})) : nullptr);
  system.set_decision([&controller](double rt) { return controller.observe(rt); });
  system.run_transactions(transactions);

  const model::EcommerceMetrics& m = system.metrics();
  return {m.response_time.mean(),
          m.response_time.count() > 0 ? m.response_time.max() : 0.0,
          m.loss_fraction(),
          m.lost_to_admission,
          m.lost_to_rejuvenation,
          m.rejuvenation_count};
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_flags(argc, argv, {"txns", "seed", "limit"});
  const auto transactions = static_cast<std::uint64_t>(flags.get_int("txns", 50000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20060625));
  // Cap the thread count right at the kernel-overhead threshold.
  const auto limit = static_cast<std::size_t>(flags.get_int("limit", 50));

  std::cout << "### extension — admission control (limit " << limit
            << " threads) vs rejuvenation (SARAA(2,5,3))\n\n";

  // Analytic sanity anchor: the abstracted admission-controlled system is
  // M/M/16/50.
  const queueing::MmckQueue analytic(1.8, 0.2, 16, limit);
  std::cout << "analytic M/M/16/" << limit << " at 9.0 CPUs (no aging): blocking "
            << common::format_double(analytic.blocking_probability(), 6) << ", mean RT "
            << common::format_double(analytic.mean_response_time(), 3) << " s\n\n";

  common::Table table({"load_cpus", "policy", "avg_rt", "max_rt", "loss", "rejected", "flushed",
                       "rejuvenations"});
  for (const double load : {5.0, 8.0, 9.0, 10.0}) {
    struct Policy {
      const char* name;
      std::size_t limit;
      bool detector;
    };
    const Policy policies[] = {{"none", 0, false},
                               {"admission", limit, false},
                               {"rejuvenation", 0, true},
                               {"both", limit, true}};
    for (const Policy& policy : policies) {
      const Row row = run(load, policy.limit, policy.detector, transactions, seed);
      table.add_row({common::format_double(load, 1), policy.name,
                     common::format_double(row.avg_rt, 2), common::format_double(row.max_rt, 1),
                     common::format_double(row.loss, 4), std::to_string(row.rejected),
                     std::to_string(row.flushed), std::to_string(row.rejuvenations)});
    }
  }
  common::print_table(std::cout, "admission control vs rejuvenation", table);

  std::cout << "reading: admission control alone bounds the overhead spiral but keeps paying\n"
               "GC pauses forever; rejuvenation alone clears the heap but only after damage\n"
               "shows in the metric; the combination dominates both at high load.\n";
  return 0;
}
