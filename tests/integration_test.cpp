// End-to-end integration tests: the qualitative claims of paper §5 must hold
// on reduced-budget runs of the full pipeline (model + detectors + harness).
// These use fixed seeds, so they are deterministic; the tolerances encode
// "the paper's orderings", not exact values.
#include <gtest/gtest.h>

#include "core/spec.h"
#include "harness/experiment.h"
#include "harness/paper.h"

namespace rejuv::harness {
namespace {

SimulationProtocol test_protocol() {
  SimulationProtocol protocol;
  protocol.transactions_per_replication = 30000;
  protocol.replications = 2;
  protocol.base_seed = 20060625;
  return protocol;
}

// §5.1, Fig. 9/10: the K = 1 vs K > 1 dichotomy.
TEST(Section51, SingleBucketGivesBetterRtButLosesAtLowLoad) {
  const auto protocol = test_protocol();
  const auto single = run_point(sraa_config({15, 1, 1}), paper_system(), 9.0, protocol);
  const auto multi = run_point(sraa_config({3, 5, 1}), paper_system(), 9.0, protocol);
  EXPECT_LT(single.avg_response_time, multi.avg_response_time);

  const auto single_low = run_point(sraa_config({15, 1, 1}), paper_system(), 0.5, protocol);
  const auto multi_low = run_point(sraa_config({3, 5, 1}), paper_system(), 0.5, protocol);
  EXPECT_GT(single_low.loss_fraction, 0.0005);
  EXPECT_LT(multi_low.loss_fraction, 0.0005);
  // ... and at high load the single bucket loses less (it rejuvenates before
  // long queues build).
  EXPECT_LT(single.loss_fraction, multi.loss_fraction);
}

// §5.2, Fig. 11: doubling the sample size hurts the response time.
TEST(Section52, DoublingSampleSizeRaisesHighLoadRt) {
  const auto protocol = test_protocol();
  for (const auto& [base, doubled] :
       std::vector<std::pair<NkdTriple, NkdTriple>>{{{3, 5, 1}, {6, 5, 1}},
                                                    {{5, 3, 1}, {10, 3, 1}}}) {
    const auto rt_base = run_point(sraa_config(base), paper_system(), 9.0, protocol);
    const auto rt_doubled = run_point(sraa_config(doubled), paper_system(), 9.0, protocol);
    EXPECT_LT(rt_base.avg_response_time, rt_doubled.avg_response_time)
        << "(" << base.n << "," << base.k << "," << base.d << ")";
  }
}

// §5.3, Fig. 12: doubling the depth is milder than doubling the sample size.
TEST(Section53, DepthDoublingIsLessSevereThanSampleDoubling) {
  const auto protocol = test_protocol();
  const auto depth2 = run_point(sraa_config({3, 5, 2}), paper_system(), 9.0, protocol);
  const auto sample2 = run_point(sraa_config({6, 5, 1}), paper_system(), 9.0, protocol);
  EXPECT_LT(depth2.avg_response_time, sample2.avg_response_time);
  const auto depth2b = run_point(sraa_config({5, 3, 2}), paper_system(), 9.0, protocol);
  const auto sample2b = run_point(sraa_config({10, 3, 1}), paper_system(), 9.0, protocol);
  EXPECT_LT(depth2b.avg_response_time, sample2b.avg_response_time);
}

// §5.3, Fig. 13: multi-bucket configs with deep buckets lose nothing at low
// load while K = 1 configs still lose measurably.
TEST(Section53, DeepMultiBucketConfigsLoseNothingAtLowLoad) {
  const auto protocol = test_protocol();
  for (const NkdTriple triple : {NkdTriple{1, 3, 10}, NkdTriple{1, 5, 6}, NkdTriple{5, 3, 2}}) {
    const auto point = run_point(sraa_config(triple), paper_system(), 0.5, protocol);
    EXPECT_LT(point.loss_fraction, 0.0002)
        << "(" << triple.n << "," << triple.k << "," << triple.d << ")";
  }
  for (const NkdTriple triple : {NkdTriple{3, 1, 10}, NkdTriple{5, 1, 6}, NkdTriple{15, 1, 2}}) {
    const auto point = run_point(sraa_config(triple), paper_system(), 0.5, protocol);
    EXPECT_GT(point.loss_fraction, 0.0002)
        << "(" << triple.n << "," << triple.k << "," << triple.d << ")";
  }
}

// §5.4: the tradeoff configurations single out by the text.
TEST(Section54, TradeoffConfigsBalanceBothMetrics) {
  const auto protocol = test_protocol();
  const auto best = run_point(sraa_config({3, 2, 5}), paper_system(), 0.5, protocol);
  EXPECT_LT(best.loss_fraction, 0.001);
  const auto best_high = run_point(sraa_config({3, 2, 5}), paper_system(), 9.0, protocol);
  EXPECT_LT(best_high.avg_response_time, 13.0);  // paper: 10.3 s
}

// §5.5, Fig. 15: SARAA improves the high-load RT over SRAA while keeping
// negligible low-load loss.
TEST(Section55, SaraaBeatsSraaAtHighLoad) {
  const auto protocol = test_protocol();
  for (const NkdTriple triple : {NkdTriple{2, 5, 3}, NkdTriple{2, 3, 5}, NkdTriple{6, 5, 1}}) {
    const auto sraa = run_point(sraa_config(triple), paper_system(), 9.0, protocol);
    const auto saraa = run_point(saraa_config(triple), paper_system(), 9.0, protocol);
    EXPECT_LT(saraa.avg_response_time, sraa.avg_response_time)
        << "(" << triple.n << "," << triple.k << "," << triple.d << ")";
  }
  const auto saraa_low = run_point(saraa_config({2, 5, 3}), paper_system(), 0.5, protocol);
  EXPECT_LT(saraa_low.loss_fraction, 0.0002);
}

// §5.6, Fig. 16: CLTA drops measurably more transactions at low load than
// the bucket-cascade algorithms (its false-alarm rate is the §4.1 tail mass).
TEST(Section56, CltaLosesMoreAtLowLoad) {
  const auto protocol = test_protocol();
  const auto clta = run_point(clta_config(30, 1.96), paper_system(), 0.5, protocol);
  const auto sraa = run_point(sraa_config({2, 5, 3}), paper_system(), 0.5, protocol);
  EXPECT_GT(clta.loss_fraction, 5.0 * sraa.loss_fraction + 0.0005);
  // The paper quotes 0.001406; the order of magnitude must match.
  EXPECT_GT(clta.loss_fraction, 0.0005);
  EXPECT_LT(clta.loss_fraction, 0.01);
}

// The motivating scenario: rejuvenation prevents the soft-failure spiral.
TEST(Motivation, RejuvenationBoundsTheHighLoadRt) {
  const auto protocol = test_protocol();
  const core::DetectorConfig none{"None"};
  const auto unmanaged = run_point(none, paper_system(), 9.0, protocol);
  const auto managed = run_point(saraa_config({2, 5, 3}), paper_system(), 9.0, protocol);
  EXPECT_GT(unmanaged.avg_response_time, 10.0 * managed.avg_response_time);
  EXPECT_LT(managed.max_response_time, unmanaged.max_response_time);
}

// SARAA's acceleration is the mechanism behind §5.5's improvement: disabling
// it must not *improve* the high-load RT.
TEST(Ablation, AccelerationHelpsOrIsNeutralAtHighLoad) {
  const auto protocol = test_protocol();
  const core::DetectorConfig accelerated = saraa_config({10, 3, 1});
  const core::DetectorConfig pinned = core::parse_spec("SARAA-noaccel(n=10,K=3,D=1)");
  const auto fast = run_point(accelerated, paper_system(), 9.0, protocol);
  const auto slow = run_point(pinned, paper_system(), 9.0, protocol);
  EXPECT_LE(fast.avg_response_time, slow.avg_response_time * 1.05);
}

}  // namespace
}  // namespace rejuv::harness
