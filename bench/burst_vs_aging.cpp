// Extension bench: the paper's central design claim (§1) — the bucket
// cascade distinguishes degradation caused by *bursts in the arrival
// process* (which passes on its own; rejuvenating wastes transactions) from
// degradation caused by *software aging* (which only rejuvenation clears).
//
// Scenario BURSTS: bursty MMPP arrivals, garbage collection disabled — all
//   slowdowns are queueing, the system always recovers by itself. A good
//   detector fires rarely here.
// Scenario AGING: Poisson arrivals at high load with the full GC/overhead
//   aging dynamic — the system never recovers without rejuvenation. A good
//   detector fires reliably here.
//
// Expectation (paper §5.1): single-bucket configurations rejuvenate heavily
// in BOTH scenarios (burst-intolerant); multi-bucket configurations stay
// quiet under bursts yet still catch aging.
#include <iostream>
#include <memory>

#include "bench_flags.h"
#include "common/table.h"
#include "core/controller.h"
#include "harness/paper.h"
#include "model/ecommerce.h"
#include "sim/simulator.h"
#include "workload/arrival_process.h"

namespace {

using namespace rejuv;

struct Outcome {
  double avg_rt;
  double loss;
  std::uint64_t rejuvenations;
};

enum class Scenario { kBursts, kAging };

std::unique_ptr<workload::ArrivalProcess> make_process(Scenario scenario) {
  if (scenario == Scenario::kBursts) {
    // Normal 1.0 tps with bursts to 3.6 tps (mean 30 s, every ~300 s):
    // transiently just above the 3.2 tps service capacity, so queues build
    // and response times rise by 1-2 sigma for a minute — the short-term
    // deviation the cascade is designed to ride out — then drain on their
    // own.
    return std::make_unique<workload::MmppProcess>(1.0, 3.6, 300.0, 30.0);
  }
  return std::make_unique<workload::PoissonProcess>(1.8);
}

Outcome run(const core::DetectorConfig& detector_config, Scenario scenario,
            std::uint64_t transactions, std::uint64_t seed) {
  model::EcommerceConfig config = harness::paper_system();
  config.arrival_rate = 1.8;  // placeholder; the process below drives arrivals
  config.gc_enabled = scenario == Scenario::kAging;

  common::RngStream arrival_rng(seed, 0);
  common::RngStream service_rng(seed, 1);
  sim::Simulator simulator;
  model::EcommerceSystem system(simulator, config, arrival_rng, service_rng);
  system.set_arrival_process(make_process(scenario));

  core::RejuvenationController controller(core::make_detector(detector_config));
  system.set_decision([&controller](double rt) { return controller.observe(rt); });
  system.run_transactions(transactions);

  return {system.metrics().response_time.mean(), system.metrics().loss_fraction(),
          system.metrics().rejuvenation_count};
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_flags(argc, argv, {"txns", "seed"});
  const auto transactions = static_cast<std::uint64_t>(flags.get_int("txns", 40000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20060625));

  std::cout << "### extension — burst tolerance vs aging detection (" << transactions
            << " transactions per cell)\n\n"
            << "BURSTS: MMPP(1.0 tps, 8x bursts), no aging; rejuvenations here are waste.\n"
            << "AGING:  Poisson 1.8 tps with GC-driven soft failures; rejuvenations here "
               "are the cure.\n\n";

  const core::DetectorConfig configs[] = {
      harness::sraa_config({15, 1, 1}), harness::sraa_config({3, 1, 5}),
      harness::sraa_config({1, 5, 3}),  harness::sraa_config({3, 5, 1}),
      harness::saraa_config({2, 5, 3}), harness::clta_config(30, 1.96)};

  common::Table table({"config", "bursts_rejuv", "bursts_loss", "bursts_rt", "aging_rejuv",
                       "aging_loss", "aging_rt"});
  for (const auto& config : configs) {
    const Outcome bursts = run(config, Scenario::kBursts, transactions, seed);
    const Outcome aging = run(config, Scenario::kAging, transactions, seed);
    table.add_row({core::describe(config), std::to_string(bursts.rejuvenations),
                   common::format_double(bursts.loss, 5), common::format_double(bursts.avg_rt, 2),
                   std::to_string(aging.rejuvenations), common::format_double(aging.loss, 5),
                   common::format_double(aging.avg_rt, 2)});
  }
  common::print_table(std::cout, "burst tolerance vs aging detection", table);

  std::cout << "reading: K=1 configurations rejuvenate in both columns; K=5 configurations\n"
               "rejuvenate orders of magnitude less under bursts while still responding to "
               "aging.\n";
  return 0;
}
