// rejuv_cluster — fault-tolerant cluster rejuvenation orchestrator driver.
//
// Sweeps rejuvenation strategy x capacity budget over a cluster of
// EcommerceSystem replicas coordinated under a bounded capacity-impact
// budget, optionally with node-level chaos (crash / hang / slow-restore /
// false-trigger), and prints a strategy scorecard: cluster-wide response
// time, lost transactions, robustness counters and the Huang-model downtime
// cost each measured schedule implies.
//
// Usage examples:
//   rejuv_cluster                                    # 4 strategies, auto budget
//   rejuv_cluster --strategies=rolling,budget-aware --budgets=1,2
//   rejuv_cluster --hosts=8 --fault-plan='seed=7,crash@1,h2:hang@1'
//   rejuv_cluster --strategies=rolling --trace=run.jsonl --txns=5000
//
// Flags (defaults in brackets):
//   --hosts=N              cluster size [4]
//   --strategies=...       comma list of rolling|simultaneous|load-triggered|
//                          budget-aware [all four]
//   --budgets=...          comma list of max-hosts-down budgets; 0 = the
//                          strategy's auto budget [0]
//   --fault-plan=SPEC      node chaos plan, e.g. 'seed=7,crash@1,h2:hang@1,
//                          slow@2:400ms,false-trigger@900' [none]
//   --detector=SPEC        per-host detector spec ['SRAA(n=2,K=5,D=3)']
//   --rate=R               aggregate arrival rate (txn/s) [6.4]
//   --downtime=SECONDS     capacity-restore duration per rejuvenation [5]
//   --deadline=SECONDS     restore watchdog deadline [4x downtime]
//   --repair=SECONDS       crash reboot time [2x downtime]
//   --checkpoint-every=N   host checkpoint cadence in observations [1]
//   --oblivious            balancer sprays down hosts instead of routing
//                          around them (lost_to_down_host accounting)
//   --txns, --reps, --seed protocol [20000, 3, 20060625]
//   --threads=N            shared pool size (REJUV_SEQUENTIAL=1 bypasses)
//   --csv=FILE             also write the scorecard as CSV (exact bytes;
//                          used by the CI parallel-vs-sequential diff)
//   --trace=FILE           write a JSONL event trace; forces a single
//                          (strategy, budget) case, one replication, run on
//                          the calling thread (the tracer is single-writer)
//   --metrics              dump the cluster.* metrics registry to stderr
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/sweep.h"
#include "common/expect.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/factory.h"
#include "core/spec.h"
#include "exec/pool.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "sim/simulator.h"

namespace {

using namespace rejuv;

std::vector<cluster::RejuvenationStrategy> parse_strategies(const common::Flags& flags) {
  const std::string spec = flags.get("strategies")
                               .value_or("rolling,simultaneous,load-triggered,budget-aware");
  std::vector<cluster::RejuvenationStrategy> strategies;
  std::stringstream stream(spec);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const auto strategy = cluster::parse_strategy(token);
    if (!strategy) {
      throw std::invalid_argument("unknown strategy \"" + token +
                                  "\" (rolling|simultaneous|load-triggered|budget-aware)");
    }
    strategies.push_back(*strategy);
  }
  REJUV_EXPECT(!strategies.empty(), "--strategies must name at least one strategy");
  return strategies;
}

std::vector<std::size_t> parse_budgets(const common::Flags& flags) {
  std::vector<std::size_t> budgets;
  for (const double value : flags.get_double_list("budgets", {0.0})) {
    REJUV_EXPECT(value >= 0.0, "budgets must be non-negative");
    budgets.push_back(static_cast<std::size_t>(value));
  }
  return budgets;
}

cluster::SweepConfig parse_sweep(const common::Flags& flags) {
  cluster::SweepConfig sweep;
  sweep.cluster.hosts = static_cast<std::size_t>(flags.get_int("hosts", 4));
  sweep.cluster.total_arrival_rate = flags.get_double("rate", 6.4);
  sweep.cluster.host_config.rejuvenation_downtime_seconds = flags.get_double("downtime", 5.0);
  sweep.cluster.restore_deadline_seconds = flags.get_double("deadline", 0.0);
  sweep.cluster.crash_repair_seconds = flags.get_double("repair", 0.0);
  sweep.cluster.node_fault_plan = flags.get("fault-plan").value_or("");
  sweep.cluster.checkpoint_every_observations =
      static_cast<std::uint64_t>(flags.get_int("checkpoint-every", 1));
  sweep.cluster.route_around_down_hosts = !flags.has("oblivious");
  sweep.strategies = parse_strategies(flags);
  sweep.budgets = parse_budgets(flags);
  sweep.transactions = static_cast<std::uint64_t>(flags.get_int("txns", 20000));
  sweep.replications = static_cast<std::uint64_t>(flags.get_int("reps", 3));
  sweep.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 20060625));
  return sweep;
}

cluster::DetectorFactory parse_detector(const common::Flags& flags, std::string& label) {
  const core::DetectorConfig config =
      core::parse_spec(flags.get("detector").value_or("SRAA(n=2,K=5,D=3)"));
  label = core::describe(config);
  return [config] { return core::make_detector(config); };
}

common::Table scorecard(const std::vector<cluster::StrategyScore>& scores) {
  common::Table table({"strategy", "budget", "mean_rt", "loss_frac", "offered", "completed",
                       "lost", "rejuvs", "deferred", "crashes", "hangs", "retries", "repairs",
                       "false_trig", "max_down", "huang_cost"});
  for (const cluster::StrategyScore& score : scores) {
    const cluster::ClusterMetrics& m = score.metrics;
    const std::uint64_t lost = m.lost_all_down + m.lost_to_down_host + m.lost_on_hosts;
    table.add_row({std::string(cluster::strategy_name(score.strategy)),
                   std::to_string(score.budget),
                   common::format_double(m.response_time.mean(), 4),
                   common::format_double(m.loss_fraction(), 6), std::to_string(m.offered),
                   std::to_string(m.completed), std::to_string(lost),
                   std::to_string(m.rejuvenations), std::to_string(m.deferred_rejuvenations),
                   std::to_string(m.crashes), std::to_string(m.hangs),
                   std::to_string(m.retries), std::to_string(m.repairs),
                   std::to_string(m.false_triggers), std::to_string(m.max_hosts_down),
                   common::format_general(score.huang_cost_rate)});
  }
  return table;
}

/// Traced runs: one (strategy, budget) case, one replication, calling
/// thread only — the tracer is a single-writer sink.
int run_traced(const cluster::SweepConfig& sweep, const cluster::DetectorFactory& factory,
               const std::string& trace_path, bool dump_metrics) {
  REJUV_EXPECT(sweep.strategies.size() == 1 && sweep.budgets.size() == 1,
               "--trace runs exactly one case; pass one --strategies and one --budgets value");
  std::ofstream out(trace_path);
  REJUV_EXPECT(out.good(), "cannot open trace file");
  obs::JsonlSink sink(out);
  obs::MetricsRegistry registry;

  cluster::ClusterConfig config = sweep.cluster;
  config.strategy = sweep.strategies.front();
  config.max_hosts_down = sweep.budgets.front();

  sim::Simulator simulator;
  cluster::Cluster cluster_run(simulator, config, factory, sweep.base_seed);
  cluster_run.set_instrumentation(&sink, &registry);
  cluster_run.run_transactions(sweep.transactions);

  const cluster::ClusterMetrics metrics = cluster_run.metrics();
  std::cout << "trace written to " << trace_path << "\n"
            << "strategy=" << cluster::strategy_name(config.strategy)
            << " budget=" << cluster_run.coordinator().config().max_hosts_down
            << " completed=" << metrics.completed
            << " lost=" << metrics.lost_all_down + metrics.lost_to_down_host + metrics.lost_on_hosts
            << " rejuvenations=" << metrics.rejuvenations
            << " mean_rt=" << common::format_double(metrics.response_time.mean(), 4) << "\n";
  if (dump_metrics) registry.write(std::cerr);
  return 0;
}

int run(const common::Flags& flags) {
  if (const auto threads = flags.get_int("threads", 0); threads > 0) {
    exec::ThreadPool::configure_shared(static_cast<std::size_t>(threads));
  }

  const cluster::SweepConfig sweep = parse_sweep(flags);
  std::string detector_label;
  const cluster::DetectorFactory factory = parse_detector(flags, detector_label);

  if (const auto trace = flags.get("trace")) {
    return run_traced(sweep, factory, *trace, flags.has("metrics"));
  }

  const std::vector<cluster::StrategyScore> scores = cluster::run_sweep(sweep, factory);
  const common::Table table = scorecard(scores);

  std::cout << "cluster rejuvenation scorecard: hosts=" << sweep.cluster.hosts
            << " detector=" << detector_label
            << " downtime=" << common::format_double(
                   sweep.cluster.host_config.rejuvenation_downtime_seconds, 2)
            << "s txns=" << sweep.transactions << " reps=" << sweep.replications;
  if (!sweep.cluster.node_fault_plan.empty()) {
    std::cout << " fault-plan=" << sweep.cluster.node_fault_plan;
  }
  std::cout << "\n\n" << table.to_text();

  if (const auto csv = flags.get("csv")) {
    std::ofstream out(*csv);
    REJUV_EXPECT(out.good(), "cannot open CSV file");
    out << table.to_csv();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = common::Flags::parse(argc, argv);
    flags.expect_only({"hosts", "strategies", "budgets", "fault-plan", "detector", "rate",
                       "downtime", "deadline", "repair", "checkpoint-every", "oblivious", "txns",
                       "reps", "seed", "threads", "csv", "trace", "metrics"});
    return run(flags);
  } catch (const std::exception& error) {
    std::cerr << "rejuv-cluster: " << error.what() << "\n"
              << "see the usage comment at the top of tools/rejuv_cluster.cpp\n";
    return 1;
  }
}
