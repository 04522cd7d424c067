// Tests for the cluster coordinator: strategy parsing and selection rules,
// node fault plan validation, per-fault-kind chaos accounting, the capacity
// budget invariant (including a randomized 120-case property sweep that also
// proves zero starved triggers), and sweep determinism.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/sweep.h"
#include "common/rng.h"
#include "core/factory.h"
#include "core/spec.h"
#include "harness/paper.h"

namespace rejuv::cluster {
namespace {

DetectorFactory hair_trigger() {
  // Fires on any single observation above 10 s — plenty of rejuvenations
  // per run, which is what the chaos ordinals key on.
  const core::DetectorConfig config = core::parse_spec("QuantileThreshold(x=10,r=1)");
  return [config] { return core::make_detector(config); };
}

DetectorFactory null_factory() {
  return [] { return std::unique_ptr<core::Detector>(); };
}

/// A small cluster loaded hard enough (8 CPUs' worth per host) that the
/// hair-trigger detector rejuvenates repeatedly within a short run.
ClusterConfig chaos_cluster(std::size_t hosts) {
  ClusterConfig config;
  config.hosts = hosts;
  config.host_config = harness::paper_system();
  config.host_config.rejuvenation_downtime_seconds = 5.0;
  config.total_arrival_rate =
      8.0 * config.host_config.service_rate * static_cast<double>(hosts);
  config.strategy = RejuvenationStrategy::kRolling;
  return config;
}

// ------------------------------------------------------- strategies

TEST(Strategy, NamesRoundTripThroughParser) {
  for (const auto strategy :
       {RejuvenationStrategy::kSimultaneous, RejuvenationStrategy::kRolling,
        RejuvenationStrategy::kLoadTriggered, RejuvenationStrategy::kBudgetAware}) {
    EXPECT_EQ(parse_strategy(strategy_name(strategy)), strategy);
    EXPECT_EQ(make_strategy(strategy)->name(), strategy_name(strategy));
  }
  EXPECT_FALSE(parse_strategy("round-robin").has_value());
  EXPECT_FALSE(parse_strategy("").has_value());
}

TEST(Strategy, BudgetAwarePicksHighestEscalationTiesToOldest) {
  const auto strategy = make_strategy(RejuvenationStrategy::kBudgetAware);
  const std::vector<PendingTrigger> pending{{0, 0.0, 1}, {1, 1.0, 3}, {2, 2.0, 3}};
  SchedulingContext context;
  EXPECT_EQ(strategy->select(pending, context), 1u);  // first maximum = oldest of the tie
  EXPECT_EQ(strategy->select({}, context), Strategy::kHold);
}

TEST(Strategy, LoadTriggeredHoldsUntilTheValley) {
  const auto strategy = make_strategy(RejuvenationStrategy::kLoadTriggered);
  const std::vector<PendingTrigger> pending{{0, 0.0, 0}};
  SchedulingContext context;
  context.inflight_threshold = 4;
  context.cluster_inflight = 10;
  EXPECT_EQ(strategy->select(pending, context), Strategy::kHold);
  context.cluster_inflight = 4;  // at the threshold counts as a valley
  EXPECT_EQ(strategy->select(pending, context), 0u);
}

// ------------------------------------------------------- validation

TEST(CoordinatorValidation, RejectsSourceLevelFaultKinds) {
  sim::Simulator simulator;
  CoordinatorConfig config;
  config.hosts = 2;
  config.downtime_seconds = 5.0;
  EXPECT_THROW(Coordinator(simulator, config, faults::FaultPlan::parse("disconnect@3"), 1, {}),
               std::invalid_argument);
  EXPECT_THROW(Coordinator(simulator, config, faults::FaultPlan::parse("garble@2x3"), 1, {}),
               std::invalid_argument);
  EXPECT_NO_THROW(
      Coordinator(simulator, config, faults::FaultPlan::parse("crash@1,h1:hang@1,slow@2:100ms"),
                  1, {}));
}

TEST(CoordinatorValidation, RejectsOutOfRangeHostsAndInstantRestores) {
  sim::Simulator simulator;
  CoordinatorConfig config;
  config.hosts = 2;
  config.downtime_seconds = 5.0;
  EXPECT_THROW(Coordinator(simulator, config, faults::FaultPlan::parse("h2:hang@1"), 1, {}),
               std::invalid_argument);
  config.downtime_seconds = 0.0;  // instantaneous restores leave nothing to crash
  EXPECT_THROW(Coordinator(simulator, config, faults::FaultPlan::parse("crash@1"), 1, {}),
               std::invalid_argument);
  config.downtime_seconds = 5.0;
  config.max_hosts_down = 3;  // budget larger than the cluster
  EXPECT_THROW(Coordinator(simulator, config, {}, 1, {}), std::invalid_argument);
}

// ------------------------------------------------------- chaos accounting

TEST(Chaos, CrashIsCountedAndRepaired) {
  ClusterConfig config = chaos_cluster(2);
  config.node_fault_plan = "seed=7,crash@1";
  sim::Simulator simulator;
  Cluster cluster(simulator, config, hair_trigger(), 11);
  cluster.run_transactions(6000);
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.crashes, 1u);
  EXPECT_EQ(m.repairs, 1u);
  EXPECT_EQ(cluster.coordinator().stats().crashes, 1u);
  EXPECT_EQ(cluster.node_state(0), NodeState::kUp);
  EXPECT_EQ(cluster.node_state(1), NodeState::kUp);
}

TEST(Chaos, HangTripsTheWatchdogAndRetriesWithBackoff) {
  ClusterConfig config = chaos_cluster(2);
  config.node_fault_plan = "hang@1";
  sim::Simulator simulator;
  Cluster cluster(simulator, config, hair_trigger(), 12);
  cluster.run_transactions(6000);
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.hangs, 1u);
  EXPECT_EQ(m.retries, 1u);
  // The retried attempt completes: no restore is permanently stuck.
  const CoordinatorStats& stats = cluster.coordinator().stats();
  EXPECT_EQ(stats.restores_completed, stats.restores_started);
}

TEST(Chaos, SlowRestoreExtendsTheAttemptWithoutRetrying) {
  ClusterConfig config = chaos_cluster(2);
  config.node_fault_plan = "slow@1:2000ms";
  sim::Simulator simulator;
  Cluster cluster(simulator, config, hair_trigger(), 13);
  cluster.run_transactions(6000);
  const CoordinatorStats& stats = cluster.coordinator().stats();
  EXPECT_EQ(stats.slow_restores, 1u);
  // 5 s + 2 s is still inside the 20 s watchdog deadline: no hang, no retry.
  EXPECT_EQ(stats.hangs, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(Chaos, FalseTriggerRejuvenatesAHostWhoseDetectorNeverFires) {
  ClusterConfig config = chaos_cluster(2);
  config.node_fault_plan = "false-trigger@50";
  sim::Simulator simulator;
  Cluster cluster(simulator, config, null_factory(), 14);
  cluster.run_transactions(6000);
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.false_triggers, 1u);
  EXPECT_EQ(m.rejuvenations, 1u);  // the only trigger source in this run
}

TEST(Chaos, HostScopedFaultsKeyOnPerHostOrdinals) {
  // h1:false-trigger@30 fires on host 1's 30th completed transaction; host 0
  // completes transactions too, so a cluster-wide ordinal would fire earlier
  // on whichever host reached 30 cluster-wide — the per-host pin means the
  // rejuvenation lands on host 1 specifically.
  ClusterConfig config = chaos_cluster(2);
  config.node_fault_plan = "h1:false-trigger@30";
  sim::Simulator simulator;
  Cluster cluster(simulator, config, null_factory(), 15);
  cluster.run_transactions(6000);
  EXPECT_EQ(cluster.metrics().false_triggers, 1u);
  EXPECT_EQ(cluster.host_metrics(1).rejuvenation_count, 1u);
  EXPECT_EQ(cluster.host_metrics(0).rejuvenation_count, 0u);
}

// ------------------------------------------------------- budget

TEST(Budget, RollingDefersButNeverExceedsOneHostDown) {
  ClusterConfig config = chaos_cluster(4);
  config.strategy = RejuvenationStrategy::kRolling;  // auto budget = 1
  sim::Simulator simulator;
  Cluster cluster(simulator, config, hair_trigger(), 21);
  cluster.run_transactions(12000);
  const ClusterMetrics m = cluster.metrics();
  EXPECT_GT(m.rejuvenations, 4u);
  EXPECT_GT(m.deferred_rejuvenations, 0u);
  EXPECT_LE(m.max_hosts_down, 1u);
  EXPECT_EQ(cluster.pending_rejuvenations(), 0u);
}

TEST(Budget, ExplicitBudgetCapsSimultaneousRestores) {
  ClusterConfig config = chaos_cluster(4);
  config.strategy = RejuvenationStrategy::kSimultaneous;
  config.max_hosts_down = 2;
  sim::Simulator simulator;
  Cluster cluster(simulator, config, hair_trigger(), 22);
  cluster.run_transactions(12000);
  EXPECT_LE(cluster.metrics().max_hosts_down, 2u);
  EXPECT_EQ(cluster.coordinator().config().max_hosts_down, 2u);
}

TEST(Budget, FractionSpellingDerivesTheHostBudget) {
  ClusterConfig config = chaos_cluster(4);
  config.max_capacity_loss_fraction = 0.5;  // floor(0.5 * 4) = 2 hosts
  EXPECT_EQ(coordinator_config(config).max_hosts_down, 2u);
  config.max_capacity_loss_fraction = 0.1;  // never below one host
  EXPECT_EQ(coordinator_config(config).max_hosts_down, 1u);
  config.max_hosts_down = 3;  // explicit budget wins over the fraction
  EXPECT_EQ(coordinator_config(config).max_hosts_down, 3u);
}

// ------------------------------------------------------- property sweep

TEST(CoordinatorProperty, BudgetHoldsAndNoTriggerStarvesAcrossRandomizedChaos) {
  // The robustness contract, stated as a property: for ANY strategy, ANY
  // budget, ANY fault plan and ANY seed, (a) the hosts-down high-water mark
  // never exceeds the resolved budget, (b) every deferred trigger is
  // eventually served (the run ends with an empty pending queue), and
  // (c) transactions are conserved.
  const std::vector<std::string> plans = {
      "",
      "crash@1",
      "hang@1",
      "slow@1:500ms",
      "false-trigger@200",
      "seed=5,crash@1,hang@2",
      "h0:hang@1,crash@2,false-trigger@300",
      "hang@1,hang@2,slow@3:250ms,false-trigger@100,false-trigger@400",
  };
  common::SplitMix64 rng(0xC0FFEE);
  for (int i = 0; i < 120; ++i) {
    const std::size_t hosts = 2 + rng.next() % 4;  // 2..5
    const auto strategy = static_cast<RejuvenationStrategy>(rng.next() % 4);
    const std::size_t budget = rng.next() % (hosts + 1);  // 0 (auto) .. hosts
    const std::string& plan = plans[rng.next() % plans.size()];
    const std::uint64_t seed = rng.next();

    ClusterConfig config = chaos_cluster(hosts);
    config.strategy = strategy;
    config.max_hosts_down = budget;
    config.node_fault_plan = plan;

    sim::Simulator simulator;
    Cluster cluster(simulator, config, hair_trigger(), seed);
    cluster.run_transactions(1500);
    const ClusterMetrics m = cluster.metrics();
    const std::size_t resolved = cluster.coordinator().config().max_hosts_down;
    ASSERT_GE(resolved, 1u) << "case " << i;
    ASSERT_LE(m.max_hosts_down, resolved)
        << "case " << i << ": budget violated (strategy=" << strategy_name(strategy)
        << " budget=" << budget << " hosts=" << hosts << " plan=\"" << plan << "\")";
    ASSERT_EQ(cluster.pending_rejuvenations(), 0u)
        << "case " << i << ": starved trigger (strategy=" << strategy_name(strategy)
        << " plan=\"" << plan << "\")";
    ASSERT_EQ(m.completed + m.lost_on_hosts + m.lost_all_down + m.lost_to_down_host, m.offered)
        << "case " << i;
  }
}

// ------------------------------------------------------- sweep

TEST(Sweep, ValidatesEveryBudgetAgainstTheCluster) {
  SweepConfig sweep;
  sweep.cluster = chaos_cluster(3);
  sweep.budgets = {0, 5};  // 5 > hosts
  EXPECT_THROW(validate(sweep), std::invalid_argument);
  sweep.budgets = {0, 2};
  EXPECT_NO_THROW(validate(sweep));
  sweep.replications = 0;
  EXPECT_THROW(validate(sweep), std::invalid_argument);
}

TEST(Sweep, DeterministicCaseOrderedScorecard) {
  SweepConfig sweep;
  sweep.cluster = chaos_cluster(3);
  sweep.cluster.node_fault_plan = "seed=3,crash@1,hang@2";
  sweep.budgets = {0, 2};
  sweep.transactions = 2000;
  sweep.replications = 2;
  sweep.base_seed = 31;

  const auto run = [&sweep] { return run_sweep(sweep, hair_trigger()); };
  const std::vector<StrategyScore> a = run();
  const std::vector<StrategyScore> b = run();
  ASSERT_EQ(a.size(), sweep.strategies.size() * sweep.budgets.size());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Case order is (strategy, budget) row-major.
    EXPECT_EQ(a[i].strategy, sweep.strategies[i / sweep.budgets.size()]) << i;
    EXPECT_EQ(a[i].strategy, b[i].strategy) << i;
    EXPECT_EQ(a[i].budget, b[i].budget) << i;
    EXPECT_EQ(a[i].metrics.completed, b[i].metrics.completed) << i;
    EXPECT_EQ(a[i].metrics.rejuvenations, b[i].metrics.rejuvenations) << i;
    EXPECT_EQ(a[i].metrics.response_time.mean(), b[i].metrics.response_time.mean()) << i;
    EXPECT_EQ(a[i].huang_cost_rate, b[i].huang_cost_rate) << i;
    EXPECT_EQ(a[i].sim_seconds, b[i].sim_seconds) << i;
    // The Huang pricing is populated and sane whenever the case rejuvenated.
    if (a[i].metrics.rejuvenations > 0) {
      EXPECT_GT(a[i].rejuvenations_per_host_hour, 0.0) << i;
      EXPECT_GT(a[i].huang_availability, 0.0) << i;
      EXPECT_LE(a[i].huang_availability, 1.0) << i;
      EXPECT_GE(a[i].huang_cost_rate, 0.0) << i;
    }
  }
}

}  // namespace
}  // namespace rejuv::cluster
