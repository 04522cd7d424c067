// Tests for rejuv::cluster: load balancing policies, failover, the rolling
// rejuvenation strategy, conservation, and determinism.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster.h"
#include "core/factory.h"
#include "core/spec.h"
#include "harness/paper.h"

namespace rejuv::cluster {
namespace {

ClusterConfig small_cluster(std::size_t hosts, double total_rate) {
  ClusterConfig config;
  config.hosts = hosts;
  config.host_config = harness::paper_system();
  config.total_arrival_rate = total_rate;
  return config;
}

DetectorFactory saraa_factory() {
  return [] { return core::make_detector(harness::saraa_config({2, 5, 3})); };
}

/// Fires on any single observation above 10 s: hosts rejuvenate constantly.
DetectorFactory hair_trigger() {
  const core::DetectorConfig config = core::parse_spec("QuantileThreshold(x=10,r=1)");
  return [config] { return core::make_detector(config); };
}

DetectorFactory null_factory() {
  return [] { return std::unique_ptr<core::Detector>(); };
}

// ------------------------------------------------------- validation

TEST(ClusterConfigValidation, RejectsDegenerateClusters) {
  ClusterConfig config = small_cluster(0, 1.0);
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = small_cluster(4, 0.0);
  EXPECT_THROW(validate(config), std::invalid_argument);
  EXPECT_NO_THROW(validate(small_cluster(4, 6.4)));
}

// ------------------------------------------------------- conservation

class ClusterConservation : public ::testing::TestWithParam<RoutingPolicy> {};

TEST_P(ClusterConservation, OfferedEqualsCompletedPlusLost) {
  ClusterConfig config = small_cluster(4, 7.0);
  config.routing = GetParam();
  sim::Simulator simulator;
  Cluster cluster(simulator, config, saraa_factory(), 5);
  cluster.run_transactions(20000);
  const ClusterMetrics m = cluster.metrics();
  EXPECT_EQ(m.offered, 20000u);
  EXPECT_EQ(m.completed + m.lost_on_hosts + m.lost_all_down + m.lost_to_down_host, 20000u);
  std::uint64_t routed = 0;
  for (std::size_t h = 0; h < cluster.host_count(); ++h) routed += cluster.routed_to(h);
  EXPECT_EQ(routed + m.lost_all_down + m.lost_to_down_host, m.offered);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ClusterConservation,
                         ::testing::Values(RoutingPolicy::kRoundRobin, RoutingPolicy::kRandom,
                                           RoutingPolicy::kLeastLoaded));

TEST(Cluster, DeterministicForFixedSeed) {
  auto run = [] {
    ClusterConfig config = small_cluster(3, 5.0);
    sim::Simulator simulator;
    Cluster cluster(simulator, config, saraa_factory(), 9);
    cluster.run_transactions(5000);
    const ClusterMetrics m = cluster.metrics();
    return std::make_tuple(m.completed, m.lost_on_hosts, m.rejuvenations,
                           m.response_time.mean());
  };
  EXPECT_EQ(run(), run());
}

TEST(Cluster, IsSingleRun) {
  ClusterConfig config = small_cluster(2, 2.0);
  sim::Simulator simulator;
  Cluster cluster(simulator, config, null_factory(), 1);
  cluster.run_transactions(100);
  EXPECT_THROW(cluster.run_transactions(100), std::invalid_argument);
}

// ------------------------------------------------------- routing

TEST(Routing, RoundRobinIsExactlyBalancedWhenNoHostGoesDown) {
  ClusterConfig config = small_cluster(4, 4.0);
  config.routing = RoutingPolicy::kRoundRobin;
  sim::Simulator simulator;
  Cluster cluster(simulator, config, null_factory(), 2);
  cluster.run_transactions(8000);
  for (std::size_t h = 0; h < 4; ++h) EXPECT_EQ(cluster.routed_to(h), 2000u);
}

TEST(Routing, RandomIsApproximatelyBalanced) {
  ClusterConfig config = small_cluster(4, 4.0);
  config.routing = RoutingPolicy::kRandom;
  sim::Simulator simulator;
  Cluster cluster(simulator, config, null_factory(), 3);
  cluster.run_transactions(20000);
  for (std::size_t h = 0; h < 4; ++h) {
    EXPECT_NEAR(static_cast<double>(cluster.routed_to(h)), 5000.0, 250.0);
  }
}

TEST(Routing, LeastLoadedAvoidsBusyHosts) {
  // Host 0 gets preloaded with a long backlog by routing the first chunk to
  // it (round robin on 1 host), then least-loaded spreads away from it.
  // Simpler check: with least-loaded, the spread of routed counts stays
  // tight even though service times are random.
  ClusterConfig config = small_cluster(4, 10.0);
  config.routing = RoutingPolicy::kLeastLoaded;
  sim::Simulator simulator;
  Cluster cluster(simulator, config, null_factory(), 4);
  cluster.run_transactions(20000);
  std::uint64_t lo = 20000, hi = 0;
  for (std::size_t h = 0; h < 4; ++h) {
    lo = std::min(lo, cluster.routed_to(h));
    hi = std::max(hi, cluster.routed_to(h));
  }
  EXPECT_LT(hi - lo, 600u);
}

// ------------------------------------------------------- failover

TEST(Failover, DownHostsReceiveNothingWhenRoutedAround) {
  ClusterConfig config = small_cluster(2, 3.2);
  config.host_config.rejuvenation_downtime_seconds = 300.0;
  config.routing = RoutingPolicy::kRoundRobin;
  config.route_around_down_hosts = true;
  // Rolling keeps at least one host up, so with failover no transaction can
  // reach a down host or find the whole cluster down.
  config.strategy = RejuvenationStrategy::kRolling;
  sim::Simulator simulator;
  // Hair-trigger detector: hosts rejuvenate constantly, so one is often down.
  Cluster cluster(simulator, config, hair_trigger(), 6);
  cluster.run_transactions(10000);
  const ClusterMetrics m = cluster.metrics();
  EXPECT_GT(m.rejuvenations, 5u);
  EXPECT_EQ(m.lost_all_down, 0u);
  EXPECT_EQ(m.lost_to_down_host, 0u);
}

TEST(Failover, SimultaneousStrategyCanLoseTheWholeCluster) {
  // Same setup without staggering: simultaneous auto-budget lets both hosts
  // be down at once, and the balancer then has nowhere to route.
  ClusterConfig config = small_cluster(2, 3.2);
  config.host_config.rejuvenation_downtime_seconds = 300.0;
  config.routing = RoutingPolicy::kRoundRobin;
  config.route_around_down_hosts = true;
  config.strategy = RejuvenationStrategy::kSimultaneous;
  sim::Simulator simulator;
  Cluster cluster(simulator, config, hair_trigger(), 6);
  cluster.run_transactions(10000);
  EXPECT_GT(cluster.metrics().lost_all_down, 0u);
}

TEST(Failover, ObliviousBalancerLosesDowntimeTraffic) {
  ClusterConfig config = small_cluster(2, 3.2);
  config.host_config.rejuvenation_downtime_seconds = 300.0;
  config.routing = RoutingPolicy::kRoundRobin;
  config.route_around_down_hosts = false;
  sim::Simulator simulator;
  Cluster cluster(simulator, config, hair_trigger(), 6);
  cluster.run_transactions(10000);
  // Host models run with zero internal downtime now — the loss shows up as
  // the balancer spraying transactions at coordinator-down hosts.
  EXPECT_GT(cluster.metrics().lost_to_down_host, 100u);
}

// Regression: transactions arriving while EVERY host is down must be counted
// as lost (lost_all_down), never silently dropped or routed to a down host.
TEST(Failover, AllHostsDownTransactionsAreAccountedAsLost) {
  // A single host with long restores and a hair-trigger detector: while it
  // restores, the health-checked balancer has no eligible host at all.
  ClusterConfig config = small_cluster(1, 1.6);
  config.host_config.rejuvenation_downtime_seconds = 300.0;
  config.route_around_down_hosts = true;
  config.strategy = RejuvenationStrategy::kRolling;
  sim::Simulator simulator;
  Cluster cluster(simulator, config, hair_trigger(), 6);
  cluster.run_transactions(10000);
  const ClusterMetrics m = cluster.metrics();
  EXPECT_GT(m.rejuvenations, 0u);
  EXPECT_GT(m.lost_all_down, 0u);
  EXPECT_EQ(m.completed + m.lost_on_hosts + m.lost_all_down + m.lost_to_down_host, 10000u);
  EXPECT_EQ(cluster.routed_to(0) + m.lost_all_down, m.offered);
}

// ------------------------------------------------------- rolling strategy

TEST(RollingStrategy, DefersOverlappingRestores) {
  ClusterConfig config = small_cluster(4, 7.2);
  config.host_config.rejuvenation_downtime_seconds = 120.0;
  config.strategy = RejuvenationStrategy::kRolling;
  sim::Simulator simulator;
  Cluster cluster(simulator, config, saraa_factory(), 7);
  cluster.run_transactions(30000);
  const ClusterMetrics m = cluster.metrics();
  EXPECT_GT(m.rejuvenations, 10u);
  EXPECT_GT(m.deferred_rejuvenations, 0u);
}

TEST(RollingStrategy, SimultaneousStrategyNeverDefers) {
  ClusterConfig config = small_cluster(4, 7.2);
  config.host_config.rejuvenation_downtime_seconds = 120.0;
  config.strategy = RejuvenationStrategy::kSimultaneous;
  sim::Simulator simulator;
  Cluster cluster(simulator, config, saraa_factory(), 7);
  cluster.run_transactions(30000);
  EXPECT_EQ(cluster.metrics().deferred_rejuvenations, 0u);
}

TEST(RollingStrategy, LosesLessThanSimultaneousUnderAggressiveTriggers) {
  // With long restores and trigger-happy detectors, uncoordinated
  // rejuvenation can take most of the cluster down at once; rolling keeps
  // capacity up and loses fewer transactions.
  auto run = [](RejuvenationStrategy strategy) {
    ClusterConfig config = small_cluster(4, 7.2);
    config.host_config.rejuvenation_downtime_seconds = 240.0;
    config.strategy = strategy;
    config.route_around_down_hosts = true;
    sim::Simulator simulator;
    Cluster cluster(simulator, config,
                    [] {
                      return core::make_detector(harness::sraa_config({15, 1, 1}));
                    },
                    8);
    cluster.run_transactions(30000);
    return cluster.metrics().loss_fraction();
  };
  EXPECT_LT(run(RejuvenationStrategy::kRolling),
            run(RejuvenationStrategy::kSimultaneous));
}

// ------------------------------------------------------- custom workloads

TEST(ClusterWorkload, AcceptsCustomArrivalProcess) {
  ClusterConfig config = small_cluster(2, 2.0);
  sim::Simulator simulator;
  Cluster cluster(simulator, config, null_factory(), 21);
  cluster.set_arrival_process(
      std::make_unique<workload::TraceProcess>(std::vector<double>{5.0}));
  cluster.run_transactions(200);
  EXPECT_GE(simulator.now(), 995.0);  // deterministic arrivals every 5 s
  EXPECT_EQ(cluster.metrics().offered, 200u);
}

TEST(ClusterWorkload, ProcessCannotChangeMidRun) {
  ClusterConfig config = small_cluster(2, 2.0);
  sim::Simulator simulator;
  Cluster cluster(simulator, config, null_factory(), 22);
  cluster.run_transactions(50);
  EXPECT_THROW(
      cluster.set_arrival_process(std::make_unique<workload::PoissonProcess>(1.0)),
      std::invalid_argument);
}

TEST(ClusterWorkload, BurstyTrafficSpreadsAcrossHosts) {
  // MMPP bursts at the balancer: least-loaded routing keeps the per-host
  // split balanced even though arrivals cluster in time.
  ClusterConfig config = small_cluster(4, 2.0);
  config.routing = RoutingPolicy::kLeastLoaded;
  sim::Simulator simulator;
  Cluster cluster(simulator, config, null_factory(), 23);
  cluster.set_arrival_process(
      std::make_unique<workload::MmppProcess>(1.0, 6.0, 200.0, 40.0));
  cluster.run_transactions(20000);
  // Least-loaded breaks idle ties toward low host indices, so the split is
  // only roughly even; the property that matters is that no host starves.
  std::uint64_t lo = 20000, hi = 0;
  for (std::size_t h = 0; h < 4; ++h) {
    lo = std::min(lo, cluster.routed_to(h));
    hi = std::max(hi, cluster.routed_to(h));
  }
  EXPECT_GT(lo, 3000u);
  EXPECT_LT(hi, 8000u);
  EXPECT_EQ(cluster.metrics().completed + cluster.metrics().lost_on_hosts +
                cluster.metrics().lost_all_down,
            20000u);
}

// ------------------------------------------------------- behaviour

TEST(Cluster, RejuvenationKeepsClusterRtBounded) {
  // 4 hosts at 9 CPUs offered load each: unmanaged the aging spiral takes
  // hold on every host; with SARAA detectors the aggregate RT stays sane.
  auto run = [](const DetectorFactory& factory) {
    ClusterConfig config = small_cluster(4, 4.0 * 1.8);
    sim::Simulator simulator;
    Cluster cluster(simulator, config, factory, 10);
    cluster.run_transactions(40000);
    return cluster.metrics().response_time.mean();
  };
  const double unmanaged = run(null_factory());
  const double managed = run(saraa_factory());
  EXPECT_GT(unmanaged, 5.0 * managed);
}

TEST(Cluster, HostAccessorsAreRangeChecked) {
  ClusterConfig config = small_cluster(2, 2.0);
  sim::Simulator simulator;
  Cluster cluster(simulator, config, null_factory(), 1);
  EXPECT_THROW(cluster.host_metrics(2), std::invalid_argument);
  EXPECT_THROW(cluster.routed_to(5), std::invalid_argument);
}

}  // namespace
}  // namespace rejuv::cluster
