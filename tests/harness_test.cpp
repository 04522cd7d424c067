// Tests for rejuv::harness: protocols, point/sweep drivers, determinism,
// common-random-numbers workload sharing, paper configuration lists, and
// report table construction.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "core/spec.h"
#include "harness/experiment.h"
#include "harness/paper.h"
#include "harness/report.h"

namespace rejuv::harness {
namespace {

SimulationProtocol tiny_protocol() {
  SimulationProtocol protocol;
  protocol.transactions_per_replication = 2000;
  protocol.replications = 2;
  protocol.base_seed = 7;
  return protocol;
}

// ------------------------------------------------------- protocol

TEST(SimulationProtocol, PaperProtocolMatchesSection5) {
  const auto protocol = SimulationProtocol::paper_protocol();
  EXPECT_EQ(protocol.transactions_per_replication, 100000u);
  EXPECT_EQ(protocol.replications, 5u);
}

TEST(SimulationProtocol, EnvironmentOverrides) {
  ::setenv("REJUV_TXNS", "1234", 1);
  ::setenv("REJUV_REPS", "3", 1);
  const auto protocol = SimulationProtocol::from_environment();
  EXPECT_EQ(protocol.transactions_per_replication, 1234u);
  EXPECT_EQ(protocol.replications, 3u);
  ::unsetenv("REJUV_TXNS");
  ::unsetenv("REJUV_REPS");
}

TEST(SimulationProtocol, FullSwitchRestoresPaperProtocol) {
  ::setenv("REJUV_FULL", "1", 1);
  const auto protocol = SimulationProtocol::from_environment();
  EXPECT_EQ(protocol.transactions_per_replication, 100000u);
  EXPECT_EQ(protocol.replications, 5u);
  ::unsetenv("REJUV_FULL");
}

// ------------------------------------------------------- run_point

TEST(RunPoint, ProducesConsistentCounters) {
  const auto result =
      run_point(sraa_config({2, 5, 3}), paper_system(), 8.0, tiny_protocol());
  EXPECT_DOUBLE_EQ(result.offered_load_cpus, 8.0);
  EXPECT_EQ(result.completed + result.lost, 2u * 2000u);
  EXPECT_GT(result.avg_response_time, 0.0);
  EXPECT_GE(result.loss_fraction, 0.0);
  EXPECT_LE(result.loss_fraction, 1.0);
  EXPECT_GT(result.gc_count, 0u);
}

TEST(RunPoint, IsDeterministicForFixedSeed) {
  const auto a = run_point(sraa_config({2, 5, 3}), paper_system(), 9.0, tiny_protocol());
  const auto b = run_point(sraa_config({2, 5, 3}), paper_system(), 9.0, tiny_protocol());
  EXPECT_DOUBLE_EQ(a.avg_response_time, b.avg_response_time);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.rejuvenations, b.rejuvenations);
}

TEST(RunPoint, SeedChangesResults) {
  SimulationProtocol other = tiny_protocol();
  other.base_seed = 8;
  const auto a = run_point(sraa_config({2, 5, 3}), paper_system(), 9.0, tiny_protocol());
  const auto b = run_point(sraa_config({2, 5, 3}), paper_system(), 9.0, other);
  EXPECT_NE(a.avg_response_time, b.avg_response_time);
}

TEST(RunPoint, WorkloadIsSharedAcrossDetectors) {
  // Common random numbers: with rejuvenation disabled via the None family
  // and via an SRAA config that never fires (astronomical baseline), the
  // workload realization must be identical.
  const core::DetectorConfig none{"None"};
  core::DetectorConfig inert = sraa_config({2, 5, 3});
  inert.baseline = core::Baseline{1e18, 1.0};
  const auto a = run_point(none, paper_system(), 6.0, tiny_protocol());
  const auto b = run_point(inert, paper_system(), 6.0, tiny_protocol());
  EXPECT_DOUBLE_EQ(a.avg_response_time, b.avg_response_time);
  EXPECT_EQ(a.gc_count, b.gc_count);
}

TEST(RunPoint, ReplicationIntervalPopulated) {
  const auto result = run_point(sraa_config({2, 5, 3}), paper_system(), 5.0, tiny_protocol());
  EXPECT_GT(result.rt_half_width, 0.0);
}

TEST(RunPoint, RejectsNonPositiveLoad) {
  EXPECT_THROW(run_point(sraa_config({2, 5, 3}), paper_system(), 0.0, tiny_protocol()),
               std::invalid_argument);
}

// ------------------------------------------------------- custom factories

TEST(RunCustomPoint, DriveExtensionDetectors) {
  const core::DetectorConfig config = core::parse_spec("QuantileThreshold(x=15,r=1)");
  const auto factory = [config] { return core::make_detector(config); };
  const auto result = run_custom_point(factory, paper_system(), 8.0, tiny_protocol());
  EXPECT_EQ(result.completed + result.lost, 2u * 2000u);
  EXPECT_GT(result.rejuvenations, 0u);
}

TEST(RunCustomPoint, NullFactoryMeansUnmanaged) {
  const auto result = run_custom_point([] { return std::unique_ptr<core::Detector>(); },
                                       paper_system(), 8.0, tiny_protocol());
  EXPECT_EQ(result.rejuvenations, 0u);
}

TEST(RunCustomSweep, LabelsAndDeterminismMatchConfigSweep) {
  // The config-driven sweep and the equivalent factory-driven sweep must
  // produce identical results (same workload, same detector).
  const std::vector<double> loads{9.0};
  const auto config = sraa_config({2, 5, 3});
  const auto by_config = run_sweep(config, paper_system(), loads, tiny_protocol());
  const auto by_factory = run_custom_sweep(
      "SRAA(n=2,K=5,D=3)", [&config] { return core::make_detector(config); }, paper_system(),
      loads, tiny_protocol());
  EXPECT_EQ(by_factory.label, by_config.label);
  EXPECT_DOUBLE_EQ(by_factory.points[0].avg_response_time,
                   by_config.points[0].avg_response_time);
  EXPECT_EQ(by_factory.points[0].rejuvenations, by_config.points[0].rejuvenations);
}

// The pooled (point × replication) fan-out must be *bit*-identical to the
// forced-sequential path — every field, compared with exact equality, over
// a multi-point multi-replication sweep. This is the in-process twin of
// the CLI smoke that diffs --threads=4 CSV output against
// REJUV_SEQUENTIAL=1 (the shared pool's size is process-wide, so the
// thread-count axis is exercised there and in exec_test's
// ParallelMap.ResultsLandInIndexOrderAtAnyThreadCount).
TEST(RunCustomSweep, ParallelSweepBitIdenticalToSequential) {
  const std::vector<double> loads{2.0, 5.0, 9.0};
  SimulationProtocol parallel = tiny_protocol();
  parallel.replications = 3;
  parallel.parallel_points = true;
  SimulationProtocol sequential = parallel;
  sequential.parallel_points = false;

  const auto config = sraa_config({2, 5, 3});
  const auto par = run_sweep(config, paper_system(), loads, parallel);
  const auto seq = run_sweep(config, paper_system(), loads, sequential);

  ASSERT_EQ(par.points.size(), seq.points.size());
  for (std::size_t i = 0; i < par.points.size(); ++i) {
    const PointResult& p = par.points[i];
    const PointResult& s = seq.points[i];
    // EXPECT_EQ on doubles is exact comparison, not a tolerance.
    EXPECT_EQ(p.offered_load_cpus, s.offered_load_cpus) << "point " << i;
    EXPECT_EQ(p.avg_response_time, s.avg_response_time) << "point " << i;
    EXPECT_EQ(p.rt_half_width, s.rt_half_width) << "point " << i;
    EXPECT_EQ(p.loss_fraction, s.loss_fraction) << "point " << i;
    EXPECT_EQ(p.max_response_time, s.max_response_time) << "point " << i;
    EXPECT_EQ(p.completed, s.completed) << "point " << i;
    EXPECT_EQ(p.lost, s.lost) << "point " << i;
    EXPECT_EQ(p.rejuvenations, s.rejuvenations) << "point " << i;
    EXPECT_EQ(p.gc_count, s.gc_count) << "point " << i;
  }
}

TEST(RunCustomPoint, ParallelReplicationsBitIdenticalToSequential) {
  SimulationProtocol parallel = tiny_protocol();
  parallel.replications = 4;
  parallel.parallel_points = true;
  SimulationProtocol sequential = parallel;
  sequential.parallel_points = false;
  const auto p = run_point(sraa_config({2, 5, 3}), paper_system(), 9.0, parallel);
  const auto s = run_point(sraa_config({2, 5, 3}), paper_system(), 9.0, sequential);
  EXPECT_EQ(p.avg_response_time, s.avg_response_time);
  EXPECT_EQ(p.rt_half_width, s.rt_half_width);
  EXPECT_EQ(p.max_response_time, s.max_response_time);
  EXPECT_EQ(p.completed, s.completed);
  EXPECT_EQ(p.lost, s.lost);
  EXPECT_EQ(p.rejuvenations, s.rejuvenations);
  EXPECT_EQ(p.gc_count, s.gc_count);
}

// ------------------------------------------------------- sweeps

TEST(RunSweep, CoversAllLoadsInOrder) {
  const std::vector<double> loads{0.5, 4.0, 9.0};
  const auto sweep = run_sweep(sraa_config({2, 5, 3}), paper_system(), loads, tiny_protocol());
  ASSERT_EQ(sweep.points.size(), 3u);
  EXPECT_EQ(sweep.label, "SRAA(n=2,K=5,D=3)");
  for (std::size_t i = 0; i < loads.size(); ++i) {
    EXPECT_DOUBLE_EQ(sweep.points[i].offered_load_cpus, loads[i]);
  }
}

TEST(RunSweeps, OneSweepPerConfig) {
  const auto configs = fig16_configs();
  const std::vector<double> loads{1.0};
  const auto sweeps = run_sweeps(configs, paper_system(), loads, tiny_protocol());
  ASSERT_EQ(sweeps.size(), configs.size());
  EXPECT_EQ(sweeps[0].label, "CLTA(n=30,z=1.96)");
}

// ------------------------------------------------------- M/M/c series

TEST(SimulateMmc, ReturnsFullSeries) {
  const auto series = simulate_mmc_response_times(1.6, 0.2, 16, 5000, 3, 0);
  EXPECT_EQ(series.size(), 5000u);
  for (double rt : series) EXPECT_GT(rt, 0.0);
}

TEST(SimulateMmc, StreamsAreIndependentReplications) {
  const auto a = simulate_mmc_response_times(1.6, 0.2, 16, 1000, 3, 0);
  const auto b = simulate_mmc_response_times(1.6, 0.2, 16, 1000, 3, 1);
  EXPECT_NE(a, b);
  const auto a_again = simulate_mmc_response_times(1.6, 0.2, 16, 1000, 3, 0);
  EXPECT_EQ(a, a_again);
}

// ------------------------------------------------------- paper configs

TEST(PaperConfigs, ProductsAreAsStated) {
  for (const auto& config : fig09_configs()) EXPECT_EQ(config.nkd_product(), 15u);
  for (const auto& config : fig11_configs()) EXPECT_EQ(config.nkd_product(), 30u);
  for (const auto& config : fig12_configs()) EXPECT_EQ(config.nkd_product(), 30u);
  for (const auto& config : fig14_configs()) EXPECT_EQ(config.nkd_product(), 30u);
  for (const auto& config : fig15_configs()) EXPECT_EQ(config.nkd_product(), 30u);
  for (const auto& config : fig16_configs()) EXPECT_EQ(config.nkd_product(), 30u);
}

TEST(PaperConfigs, CountsMatchTheFigures) {
  EXPECT_EQ(fig09_configs().size(), 7u);
  EXPECT_EQ(fig11_configs().size(), 7u);
  EXPECT_EQ(fig12_configs().size(), 7u);
  EXPECT_EQ(fig14_configs().size(), 8u);  // 7 + the (5,2,3) from §5.4's text
  EXPECT_EQ(fig15_configs().size(), 4u);
  EXPECT_EQ(fig16_configs().size(), 3u);
}

TEST(PaperConfigs, DoublingRelationsHold) {
  // Fig. 11 doubles the n component of Fig. 9's configurations.
  const auto base = fig09_configs();
  const auto doubled = fig11_configs();
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(doubled[i].get_count("n"), 2 * base[i].get_count("n"));
    EXPECT_EQ(doubled[i].get_count("K"), base[i].get_count("K"));
    EXPECT_EQ(doubled[i].get_count("D"), base[i].get_count("D"));
  }
}

TEST(PaperConfigs, BaselineIsFiveFive) {
  EXPECT_DOUBLE_EQ(paper_baseline().mean, 5.0);
  EXPECT_DOUBLE_EQ(paper_baseline().stddev, 5.0);
  for (const auto& config : fig09_configs()) {
    EXPECT_DOUBLE_EQ(config.baseline.mean, 5.0);
    EXPECT_DOUBLE_EQ(config.baseline.stddev, 5.0);
  }
}

TEST(PaperConfigs, SystemConstantsMatchSection3) {
  const auto system = paper_system();
  EXPECT_EQ(system.cpus, 16u);
  EXPECT_DOUBLE_EQ(system.service_rate, 0.2);
  EXPECT_EQ(system.thread_overhead_threshold, 50u);
  EXPECT_DOUBLE_EQ(system.overhead_factor, 2.0);
  EXPECT_DOUBLE_EQ(system.heap_mb, 3072.0);
  EXPECT_DOUBLE_EQ(system.alloc_mb, 10.0);
  EXPECT_DOUBLE_EQ(system.gc_free_threshold_mb, 100.0);
  EXPECT_DOUBLE_EQ(system.gc_pause_seconds, 60.0);
}

TEST(PaperReferences, CoverEveryFigureBench) {
  const auto references = paper_spot_values();
  EXPECT_GE(references.size(), 15u);
  bool has_fig16_loss = false;
  for (const auto& ref : references) {
    EXPECT_FALSE(ref.config.empty());
    EXPECT_GT(ref.value, 0.0);
    has_fig16_loss = has_fig16_loss || (ref.figure == "Fig. 16" && ref.metric == "loss fraction");
  }
  EXPECT_TRUE(has_fig16_loss);
}

// ------------------------------------------------------- report

std::vector<SweepResult> fake_sweeps() {
  SweepResult a;
  a.label = "SRAA(n=2,K=5,D=3)";
  a.points = {{0.5, 5.0, 0.1, 0.0, 5.5, 100, 0, 1, 2}, {9.0, 11.9, 0.2, 0.05, 80.0, 95, 5, 3, 4}};
  SweepResult b;
  b.label = "CLTA(n=30,z=1.96)";
  b.points = {{0.5, 5.1, 0.1, 0.001, 6.0, 99, 1, 2, 2}, {9.0, 12.8, 0.2, 0.07, 90.0, 93, 7, 4, 4}};
  return {a, b};
}

TEST(Report, ResponseTimeTableShape) {
  const auto sweeps = fake_sweeps();
  const auto table = response_time_table(sweeps);
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_NE(table.to_text().find("11.90"), std::string::npos);
  EXPECT_NE(table.to_text().find("12.80"), std::string::npos);
}

TEST(Report, LossTableUsesSixDigits) {
  const auto sweeps = fake_sweeps();
  const auto table = loss_table(sweeps);
  EXPECT_NE(table.to_csv().find("0.001000"), std::string::npos);
}

TEST(Report, SummaryTableOneRowPerConfig) {
  const auto sweeps = fake_sweeps();
  const auto table = summary_table(sweeps);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Report, FindPointLocatesExactLoad) {
  const auto sweeps = fake_sweeps();
  const auto* point = find_point(sweeps, "CLTA(n=30,z=1.96)", 9.0);
  ASSERT_NE(point, nullptr);
  EXPECT_DOUBLE_EQ(point->avg_response_time, 12.8);
  EXPECT_EQ(find_point(sweeps, "CLTA(n=30,z=1.96)", 7.0), nullptr);
  EXPECT_EQ(find_point(sweeps, "nonexistent", 9.0), nullptr);
}

TEST(Report, ReferenceComparisonPicksMatchingRows) {
  const auto sweeps = fake_sweeps();
  const auto table =
      reference_comparison_table(sweeps, paper_spot_values(), "Fig. 16");
  // Matching rows: CLTA loss at 0.5, SRAA RT at 9.0, CLTA RT at 9.0.
  // The SARAA reference has no matching sweep and is skipped.
  EXPECT_EQ(table.row_count(), 3u);
  EXPECT_NE(table.to_text().find("11.94"), std::string::npos);  // paper value column
}

}  // namespace
}  // namespace rejuv::harness
