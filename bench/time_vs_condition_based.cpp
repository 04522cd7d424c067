// Extension bench: time-based rejuvenation (Huang et al. [9]) vs the
// paper's condition-based (measurement-driven) detectors.
//
// Part 1 — analytic: the four-state Huang CTMC solved exactly. Steady-state
// availability and downtime-cost rate as a function of the rejuvenation
// rate, plus the binary policy verdict the exponential chain admits (the
// cost is monotone in the rate: rejuvenate as aggressively as restores
// allow, or not at all, depending on the cost weights).
//
// Part 2 — simulation: periodic rejuvenation of the e-commerce system at
// 9.0 CPUs, sweeping the interval, against SARAA(2,5,3). Expectation:
// short intervals waste transactions on unnecessary flushes, long intervals
// leave GC-driven soft failures unrepaired for most of a cycle; the
// condition-based detector sits near the envelope of the whole sweep
// without needing the interval tuned.
#include <iostream>

#include "bench_flags.h"
#include "availability/huang_model.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/controller.h"
#include "harness/paper.h"
#include "model/ecommerce.h"
#include "sim/simulator.h"

namespace {

using namespace rejuv;

struct SimRow {
  double avg_rt;
  double loss;
  std::uint64_t rejuvenations;
};

SimRow run_periodic(double load_cpus, double interval_seconds, std::uint64_t transactions,
                    std::uint64_t seed) {
  model::EcommerceConfig config = harness::paper_system();
  config.arrival_rate = load_cpus * config.service_rate;
  common::RngStream arrival_rng(seed, 0);
  common::RngStream service_rng(seed, 1);
  sim::Simulator simulator;
  model::EcommerceSystem system(simulator, config, arrival_rng, service_rng);
  if (interval_seconds > 0.0) system.enable_periodic_rejuvenation(interval_seconds);
  system.run_transactions(transactions);
  return {system.metrics().response_time.mean(), system.metrics().loss_fraction(),
          system.metrics().rejuvenation_count};
}

SimRow run_condition_based(double load_cpus, std::uint64_t transactions, std::uint64_t seed) {
  model::EcommerceConfig config = harness::paper_system();
  config.arrival_rate = load_cpus * config.service_rate;
  common::RngStream arrival_rng(seed, 0);
  common::RngStream service_rng(seed, 1);
  sim::Simulator simulator;
  model::EcommerceSystem system(simulator, config, arrival_rng, service_rng);
  core::RejuvenationController controller(
      core::make_detector(harness::saraa_config({2, 5, 3})));
  system.set_decision([&controller](double rt) { return controller.observe(rt); });
  system.run_transactions(transactions);
  return {system.metrics().response_time.mean(), system.metrics().loss_fraction(),
          system.metrics().rejuvenation_count};
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_flags(argc, argv, {"txns", "seed"});
  const auto transactions = static_cast<std::uint64_t>(flags.get_int("txns", 100000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20060625));

  std::cout << "### extension — time-based vs condition-based rejuvenation\n\n";

  // ---- Part 1: the Huang et al. CTMC, solved exactly.
  availability::HuangParameters params;  // defaults: rates per hour
  common::Table analytic({"rejuvenation_rate_per_h", "availability", "P_failed",
                          "P_rejuvenating", "cost_rate"});
  for (const double rate : {0.0, 0.001, 0.005, 0.02, 0.1, 0.5, 2.0}) {
    params.rejuvenation_rate = rate;
    const auto solution = availability::solve(params);
    analytic.add_row({common::format_double(rate, 3),
                      common::format_double(solution.availability, 6),
                      common::format_general(
                          solution.probability[static_cast<std::size_t>(
                              availability::State::kFailed)]),
                      common::format_general(
                          solution.probability[static_cast<std::size_t>(
                              availability::State::kRejuvenating)]),
                      common::format_general(solution.downtime_cost_rate)});
  }
  common::print_table(std::cout, "Huang et al. [9] model — exact steady state", analytic);

  const bool worthwhile = availability::rejuvenation_worthwhile(params);
  const double optimal = availability::optimal_rejuvenation_rate(params);
  params.rejuvenation_rate = optimal;
  std::cout << "policy verdict: rejuvenation is "
            << (worthwhile ? "worthwhile (cost is decreasing in the rate)" : "not worthwhile")
            << "; cost at the favourable boundary " << common::format_general(optimal)
            << "/h is " << common::format_general(availability::solve(params).downtime_cost_rate)
            << " vs " << common::format_general([&] {
                 availability::HuangParameters none = params;
                 none.rejuvenation_rate = 0.0;
                 return availability::solve(none).downtime_cost_rate;
               }())
            << " without rejuvenation\n\n";

  // ---- Part 2: simulation at a heavy (9.0 CPUs) and a light (2.0 CPUs)
  // load. The same timer serves both; the detector adapts by itself.
  common::Table sim_table({"policy", "rt@9", "loss@9", "rejuv@9", "rt@2", "loss@2", "rejuv@2"});
  auto add_row = [&sim_table](const std::string& name, const SimRow& heavy, const SimRow& light) {
    sim_table.add_row({name, common::format_double(heavy.avg_rt, 2),
                       common::format_double(heavy.loss, 4), std::to_string(heavy.rejuvenations),
                       common::format_double(light.avg_rt, 2),
                       common::format_double(light.loss, 4),
                       std::to_string(light.rejuvenations)});
  };
  add_row("none", run_periodic(9.0, 0.0, transactions, seed),
          run_periodic(2.0, 0.0, transactions, seed));
  for (const double interval : {60.0, 120.0, 240.0, 480.0, 960.0, 1920.0}) {
    add_row("periodic " + common::format_double(interval, 0) + " s",
            run_periodic(9.0, interval, transactions, seed),
            run_periodic(2.0, interval, transactions, seed));
  }
  add_row("SARAA(2,5,3)", run_condition_based(9.0, transactions, seed),
          run_condition_based(2.0, transactions, seed));
  common::print_table(std::cout, "e-commerce system — periodic vs measurement-driven",
                      sim_table);

  std::cout
      << "reading: a timer tuned to the heavy-load GC cadence (~120 s) wins at that one\n"
         "operating point, but the same timer keeps flushing a healthy lightly-loaded\n"
         "system (loss@2 with zero benefit), and an untuned timer is far worse at both.\n"
         "The measurement-driven detector needs no tuning: quiet at 2 CPUs, reactive at 9.\n";
  return 0;
}
