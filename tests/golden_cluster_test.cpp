// Golden-trace regression test for the cluster coordinator's event kinds:
// a fixed-seed 2-host chaos run (crash + hang + deferral + checkpoint
// restore) is replayed in-process and byte-compared against the JSONL trace
// committed under tests/golden/. This pins the node_* / rejuv_deferred wire
// format, the coordinator's event ordering, and the cluster's determinism
// the same way golden_trace_test.cpp pins the single-host harness.
//
// To refresh after an intentional format or simulation change:
//
//   REJUV_REGEN_GOLDEN=1 ./build/tests/golden_cluster_test
//
// then regenerate the paired rejuv-trace summary (see tests/golden/README.md)
// and re-run the suite before committing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "cluster/cluster.h"
#include "core/factory.h"
#include "core/spec.h"
#include "harness/paper.h"
#include "obs/sink.h"
#include "obs/trace_reader.h"

#ifndef REJUV_GOLDEN_DIR
#error "REJUV_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

using namespace rejuv;

const char* const kGoldenFile = "cluster_chaos.jsonl";

std::string golden_path() { return std::string(REJUV_GOLDEN_DIR) + "/" + kGoldenFile; }

/// Regenerates the cluster chaos trace through exactly the code path
/// `rejuv-cluster --trace=FILE` uses: one traced sequential run.
std::string regenerate() {
  cluster::ClusterConfig config;
  config.hosts = 2;
  config.host_config = harness::paper_system();
  config.host_config.rejuvenation_downtime_seconds = 5.0;
  config.total_arrival_rate = 8.0 * config.host_config.service_rate * 2.0;
  config.strategy = cluster::RejuvenationStrategy::kRolling;
  config.node_fault_plan = "seed=7,crash@1,hang@2,false-trigger@500";
  config.checkpoint_every_observations = 1;

  std::ostringstream trace;
  obs::JsonlSink sink(trace);
  sim::Simulator simulator;
  const core::DetectorConfig detector = core::parse_spec("QuantileThreshold(x=10,r=1)");
  cluster::Cluster cluster(
      simulator, config, [detector] { return core::make_detector(detector); }, 20060625);
  cluster.set_instrumentation(&sink, nullptr);
  cluster.run_transactions(4000);
  return trace.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// 1-based line number of the first difference, or 0 when equal.
std::size_t first_diff_line(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  std::size_t line = 0;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    ++line;
    if (!ga && !gb) return 0;
    if (ga != gb || la != lb) return line;
  }
}

TEST(GoldenClusterTest, RegeneratedTraceMatchesCommittedGolden) {
  const std::string trace = regenerate();
  ASSERT_FALSE(trace.empty());
  const std::string path = golden_path();

  if (std::getenv("REJUV_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << trace;
    return;
  }

  const std::string committed = read_file(path);
  ASSERT_FALSE(committed.empty())
      << path << " missing; regenerate with REJUV_REGEN_GOLDEN=1 golden_cluster_test";
  EXPECT_EQ(trace.size(), committed.size());
  const std::size_t diff_line = first_diff_line(trace, committed);
  EXPECT_EQ(diff_line, 0u)
      << kGoldenFile << ": regenerated trace first differs at line " << diff_line
      << " — an intentional format/simulation change needs REJUV_REGEN_GOLDEN=1 plus a "
         "refreshed rejuv-trace summary golden";
}

TEST(GoldenClusterTest, GoldenLinesRoundTripThroughParserAndSerializer) {
  std::ifstream in(golden_path());
  ASSERT_TRUE(in.is_open()) << golden_path();
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto event = obs::parse_trace_line(line);
    ASSERT_TRUE(event.has_value()) << kGoldenFile << ":" << line_number << ": " << line;
    EXPECT_EQ(obs::to_json(*event), line) << kGoldenFile << ":" << line_number;
  }
  EXPECT_GT(line_number, 0u);
}

TEST(GoldenClusterTest, GoldenExercisesEveryClusterEventKind) {
  // A chaos golden that never crashed, hung, deferred, or restored a
  // checkpoint would pin nothing this PR added; guard the case against
  // config tweaks degrading its coverage.
  const auto events = obs::read_trace_file(golden_path());
  ASSERT_FALSE(events.empty());
  std::set<obs::EventType> kinds;
  for (const auto& event : events) kinds.insert(event.type);
  for (const auto required :
       {obs::EventType::kRejuvenationTriggered, obs::EventType::kNodeRestoreStart,
        obs::EventType::kNodeRestoreEnd, obs::EventType::kNodeCrash, obs::EventType::kNodeHang,
        obs::EventType::kNodeRetry, obs::EventType::kNodeRepair,
        obs::EventType::kRejuvenationDeferred, obs::EventType::kCheckpointSaved,
        obs::EventType::kCheckpointRestored}) {
    EXPECT_TRUE(kinds.count(required))
        << "golden trace lacks event kind #" << static_cast<int>(required);
  }
}

}  // namespace
