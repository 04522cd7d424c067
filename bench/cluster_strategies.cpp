// Extension bench: cluster-level rejuvenation (the paper's companion work
// [2] extends the single-server algorithms to clusters of hosts).
//
// Sweeps a 4-host cluster across aggregate offered load and compares:
//   - no rejuvenation (the aging spiral takes every host),
//   - simultaneous (uncoordinated) per-host rejuvenation,
//   - rolling rejuvenation (at most one host restoring at a time),
// under a 120 s capacity-restoration time with a health-checking balancer,
// contrasts routing policies at the heaviest load, and closes with the
// coordinator's full strategy x budget scorecard (rolling / simultaneous /
// load-triggered / budget-aware under node chaos, Huang downtime cost
// included) from cluster::run_sweep.
#include <iostream>
#include <memory>

#include "bench_flags.h"
#include "cluster/cluster.h"
#include "cluster/sweep.h"
#include "common/table.h"
#include "harness/paper.h"

namespace {

using namespace rejuv;

struct Row {
  double avg_rt;
  double loss;
  std::uint64_t rejuvenations;
  std::uint64_t deferred;
};

Row run(cluster::ClusterConfig config, const cluster::DetectorFactory& factory,
        std::uint64_t transactions, std::uint64_t seed) {
  sim::Simulator simulator;
  cluster::Cluster cluster(simulator, config, factory, seed);
  cluster.run_transactions(transactions);
  const cluster::ClusterMetrics m = cluster.metrics();
  return {m.response_time.mean(), m.loss_fraction(), m.rejuvenations,
          m.deferred_rejuvenations};
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_flags(argc, argv, {"txns", "seed"});
  const auto transactions = static_cast<std::uint64_t>(flags.get_int("txns", 40000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20060625));
  constexpr std::size_t kHosts = 4;

  std::cout << "### extension — cluster rejuvenation strategies (4 hosts, SARAA(2,5,3) per "
               "host, 120 s restore)\n\n";

  const cluster::DetectorFactory saraa = [] {
    return core::make_detector(harness::saraa_config({2, 5, 3}));
  };
  const cluster::DetectorFactory none = [] { return std::unique_ptr<core::Detector>(); };

  common::Table table({"load_cpus_per_host", "none_rt", "none_loss", "simul_rt", "simul_loss",
                       "rolling_rt", "rolling_loss", "rolling_deferred"});
  for (const double per_host_load : {2.0, 5.0, 8.0, 9.0, 10.0}) {
    cluster::ClusterConfig config;
    config.hosts = kHosts;
    config.host_config = harness::paper_system();
    config.host_config.rejuvenation_downtime_seconds = 120.0;
    config.total_arrival_rate =
        per_host_load * config.host_config.service_rate * static_cast<double>(kHosts);

    const Row unmanaged = run(config, none, transactions, seed);
    config.strategy = cluster::RejuvenationStrategy::kSimultaneous;
    const Row simultaneous = run(config, saraa, transactions, seed);
    config.strategy = cluster::RejuvenationStrategy::kRolling;
    const Row rolling = run(config, saraa, transactions, seed);

    table.add_row({common::format_double(per_host_load, 1),
                   common::format_double(unmanaged.avg_rt, 2),
                   common::format_double(unmanaged.loss, 4),
                   common::format_double(simultaneous.avg_rt, 2),
                   common::format_double(simultaneous.loss, 4),
                   common::format_double(rolling.avg_rt, 2),
                   common::format_double(rolling.loss, 4),
                   std::to_string(rolling.deferred)});
  }
  common::print_table(std::cout, "cluster strategies vs per-host offered load", table);

  std::cout << "routing policies at 9.0 CPUs/host (simultaneous strategy):\n\n";
  common::Table routing_table({"routing", "avg_rt", "loss", "rejuvenations"});
  for (const auto& [name, policy] :
       {std::pair{"round-robin", cluster::RoutingPolicy::kRoundRobin},
        std::pair{"random", cluster::RoutingPolicy::kRandom},
        std::pair{"least-loaded", cluster::RoutingPolicy::kLeastLoaded}}) {
    cluster::ClusterConfig config;
    config.hosts = kHosts;
    config.host_config = harness::paper_system();
    config.host_config.rejuvenation_downtime_seconds = 120.0;
    config.total_arrival_rate = 9.0 * config.host_config.service_rate * kHosts;
    config.routing = policy;
    config.strategy = cluster::RejuvenationStrategy::kSimultaneous;
    const Row row = run(config, saraa, transactions, seed);
    routing_table.add_row({name, common::format_double(row.avg_rt, 2),
                           common::format_double(row.loss, 4), std::to_string(row.rejuvenations)});
  }
  common::print_table(std::cout, "routing policy comparison", routing_table);

  // Coordinator scorecard: all four strategies under node chaos, common
  // random numbers across cases, Huang downtime cost per measured schedule.
  std::cout << "coordinator strategies at 8.0 CPUs/host under node chaos\n"
               "(crash + hang + false triggers; 60 s restore, auto budgets):\n\n";
  cluster::SweepConfig sweep;
  sweep.cluster.hosts = kHosts;
  sweep.cluster.host_config = harness::paper_system();
  sweep.cluster.host_config.rejuvenation_downtime_seconds = 60.0;
  sweep.cluster.total_arrival_rate =
      8.0 * sweep.cluster.host_config.service_rate * static_cast<double>(kHosts);
  sweep.cluster.node_fault_plan = "seed=11,crash@1,hang@3,false-trigger@2000";
  sweep.cluster.checkpoint_every_observations = 1;
  sweep.transactions = transactions / 2;
  sweep.replications = 2;
  sweep.base_seed = seed;
  common::Table scorecard({"strategy", "budget", "avg_rt", "loss", "rejuvs", "deferred",
                           "crashes", "hangs", "huang_cost"});
  for (const cluster::StrategyScore& score : cluster::run_sweep(sweep, saraa)) {
    scorecard.add_row({std::string(cluster::strategy_name(score.strategy)),
                       std::to_string(score.budget),
                       common::format_double(score.metrics.response_time.mean(), 2),
                       common::format_double(score.metrics.loss_fraction(), 4),
                       std::to_string(score.metrics.rejuvenations),
                       std::to_string(score.metrics.deferred_rejuvenations),
                       std::to_string(score.metrics.crashes),
                       std::to_string(score.metrics.hangs),
                       common::format_general(score.huang_cost_rate)});
  }
  common::print_table(std::cout, "coordinator strategy scorecard", scorecard);
  return 0;
}
