// Tests for the comparison detector families (core/extensions.h), the trend
// statistics (stats/trend.h), and the CTMC stationary solver closing the
// loop on the paper's Fig. 1.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/extensions.h"
#include "core/factory.h"
#include "core/spec.h"
#include "markov/stationary.h"
#include "queueing/mmc.h"
#include "sim/variates.h"
#include "stats/trend.h"

namespace rejuv {
namespace {

// ------------------------------------------------------- Mann-Kendall

TEST(MannKendall, MonotoneSequencesSaturateS) {
  const std::vector<double> up{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto result_up = stats::mann_kendall(up);
  EXPECT_EQ(result_up.s, 10);  // n(n-1)/2
  EXPECT_TRUE(result_up.increasing());
  const std::vector<double> down{5.0, 4.0, 3.0, 2.0, 1.0};
  const auto result_down = stats::mann_kendall(down);
  EXPECT_EQ(result_down.s, -10);
  EXPECT_TRUE(result_down.decreasing());
}

TEST(MannKendall, IidNoiseIsInsignificant) {
  common::RngStream rng(71, 0);
  int significant = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> window(50);
    for (double& x : window) x = rng.uniform01();
    if (stats::mann_kendall(window).increasing(1.645)) ++significant;
  }
  // One-sided 5% test: expect ~10 of 200; allow generous slack.
  EXPECT_LT(significant, 25);
}

TEST(MannKendall, DetectsTrendUnderNoise) {
  common::RngStream rng(71, 1);
  std::vector<double> window(60);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = 0.2 * static_cast<double>(i) + 3.0 * sim::standard_normal(rng);
  }
  EXPECT_TRUE(stats::mann_kendall(window).increasing(1.96));
}

TEST(MannKendall, VarianceFormula) {
  const std::vector<double> window(10, 0.0);
  // All ties: S = 0, variance = n(n-1)(2n+5)/18 = 10*9*25/18 = 125.
  const auto result = stats::mann_kendall(window);
  EXPECT_EQ(result.s, 0);
  EXPECT_DOUBLE_EQ(result.variance, 125.0);
  EXPECT_DOUBLE_EQ(result.z, 0.0);
}

TEST(MannKendall, RejectsTinyWindows) {
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW(stats::mann_kendall(two), std::invalid_argument);
}

TEST(SenSlope, RecoversLinearSlope) {
  std::vector<double> window(20);
  for (std::size_t i = 0; i < window.size(); ++i) window[i] = 4.0 + 0.5 * static_cast<double>(i);
  EXPECT_NEAR(stats::sen_slope(window), 0.5, 1e-12);
}

TEST(SenSlope, RobustToOutliers) {
  std::vector<double> window(21);
  for (std::size_t i = 0; i < window.size(); ++i) window[i] = 0.3 * static_cast<double>(i);
  window[10] = 1000.0;  // single outlier must not move the median slope much
  EXPECT_NEAR(stats::sen_slope(window), 0.3, 0.05);
}

// ------------------------------------------------------- QuantileThreshold
//
// The comparison policies are registry families: every test builds them the
// way the tools do, from a spec string through make_detector().

std::unique_ptr<core::Detector> build(const std::string& spec) {
  return core::make_detector(core::parse_spec(spec));
}

TEST(QuantileThreshold, SingleExceedanceFires) {
  const auto detector = build("QuantileThreshold(x=15,r=1)");
  EXPECT_EQ(detector->observe(14.9), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(15.1), core::Decision::kRejuvenate);
}

TEST(QuantileThreshold, RunLengthRequirement) {
  const auto detector = build("QuantileThreshold(x=10,r=3)");
  EXPECT_EQ(detector->observe(11.0), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(11.0), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(9.0), core::Decision::kContinue);  // run broken
  EXPECT_EQ(detector->observe(11.0), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(11.0), core::Decision::kContinue);
  EXPECT_EQ(detector->observe(11.0), core::Decision::kRejuvenate);
  EXPECT_EQ(detector->snapshot().fill, 0);  // the run restarts after a trigger
}

TEST(QuantileThreshold, FalseAlarmRateMatchesTailMass) {
  // The paper's §4.1 objection quantified: on healthy Exp(5) traffic the
  // 97.5% rule fires on ~2.5% of observations.
  core::DetectorConfig config{"QuantileThreshold"};
  config.set("x", -5.0 * std::log(0.025)).set("r", 1);
  const auto detector = core::make_detector(config);
  common::RngStream rng(73, 0);
  int triggers = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (detector->observe(sim::exponential(rng, 0.2)) == core::Decision::kRejuvenate) ++triggers;
  }
  EXPECT_NEAR(static_cast<double>(triggers) / kSamples, 0.025, 0.003);
}

TEST(QuantileThreshold, NameIsTheCanonicalSpec) {
  // The name prints the threshold exactly, so checkpoints and traces carry a
  // spec that parses back to the same detector.
  core::DetectorConfig config{"QuantileThreshold"};
  config.set("x", 16.3791).set("r", 2);
  EXPECT_EQ(core::make_detector(config)->name(), "QuantileThreshold(x=16.3791,r=2)");
  EXPECT_EQ(core::parse_spec(core::describe(config)), config);
}

// ------------------------------------------------------- Bobbio policies

TEST(BobbioDeterministic, FiresExactlyAtThreshold) {
  const auto policy = build("BobbioDet(L=30)");
  EXPECT_EQ(policy->observe(29.999), core::Decision::kContinue);
  EXPECT_EQ(policy->observe(30.0), core::Decision::kRejuvenate);
}

TEST(BobbioRisk, ProbabilityRampsLinearly) {
  const auto detector = build("BobbioRisk(c=10,w=10,seed=1)");
  const auto& policy = dynamic_cast<const core::RiskBasedPolicy&>(*detector);
  EXPECT_DOUBLE_EQ(policy.rejuvenation_probability(5.0), 0.0);
  EXPECT_DOUBLE_EQ(policy.rejuvenation_probability(10.0), 0.0);
  EXPECT_DOUBLE_EQ(policy.rejuvenation_probability(15.0), 0.5);
  EXPECT_DOUBLE_EQ(policy.rejuvenation_probability(20.0), 1.0);
  EXPECT_DOUBLE_EQ(policy.rejuvenation_probability(25.0), 1.0);
}

TEST(BobbioRisk, EmpiricalTriggerFrequencyTracksProbability) {
  const auto policy = build("BobbioRisk(c=10,w=10,seed=2)");
  int triggers = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (policy->observe(15.0) == core::Decision::kRejuvenate) ++triggers;
  }
  EXPECT_NEAR(static_cast<double>(triggers) / kSamples, 0.5, 0.01);
}

TEST(BobbioRisk, AlwaysFiresAtMaximumLevel) {
  const auto policy = build("BobbioRisk(c=10,w=10,seed=3)");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy->observe(20.0), core::Decision::kRejuvenate);
  }
}

TEST(BobbioRisk, ValidatesLevels) {
  EXPECT_THROW(core::parse_spec("BobbioRisk(c=10,w=0)"), std::invalid_argument);
  EXPECT_THROW(core::parse_spec("BobbioRisk(c=10,w=-5)"), std::invalid_argument);
  EXPECT_THROW(core::parse_spec("BobbioRisk(c=0,w=10)"), std::invalid_argument);
  EXPECT_THROW(core::parse_spec("BobbioRisk(seed=1.5)"), std::invalid_argument);
}

TEST(BobbioRisk, RestoreRejectsAnAllZeroGeneratorState) {
  // Split-resume of the draws is a registry-wide property test; the all-zero
  // xoshiro state is a fixed point and must never be restored.
  const auto policy = build("BobbioRisk(c=10,w=10,seed=4)");
  core::DetectorState state = policy->save_state();
  ASSERT_EQ(state.extra_u64.size(), 4u);
  policy->restore_state(state);
  state.extra_u64.assign(4, 0);
  EXPECT_THROW(policy->restore_state(state), std::invalid_argument);
}

// ------------------------------------------------------- TrendDetector

TEST(TrendDetector, FiresOnClimbingResponseTimes) {
  const auto detector = build("Trend(w=30,z=1.96,s=0)");
  core::Decision last = core::Decision::kContinue;
  for (int i = 0; i < 30; ++i) {
    last = detector->observe(5.0 + 0.5 * i);
  }
  EXPECT_EQ(last, core::Decision::kRejuvenate);
}

TEST(TrendDetector, QuietOnStationaryNoise) {
  const auto detector = build("Trend(w=30,z=2.326,s=0.05)");
  common::RngStream rng(79, 0);
  int triggers = 0;
  for (int i = 0; i < 60000; ++i) {
    if (detector->observe(sim::exponential(rng, 0.2)) == core::Decision::kRejuvenate) ++triggers;
  }
  // 2000 windows at a ~1% one-sided level: the trigger rate must sit near
  // the nominal level (the slope floor of 0.05 filters only a little of the
  // Exp(5) noise, whose Sen-slope spread is much wider).
  EXPECT_GT(triggers, 5);
  EXPECT_LT(triggers, 45);
}

TEST(TrendDetector, SlopeFloorFiltersShallowTrends) {
  // A statistically significant but shallow trend must not fire when the
  // minimum slope is above it.
  const auto strict = build("Trend(w=30,z=1.96,s=1)");
  core::Decision last = core::Decision::kContinue;
  for (int i = 0; i < 30; ++i) last = strict->observe(5.0 + 0.01 * i);
  EXPECT_EQ(last, core::Decision::kContinue);
}

TEST(TrendDetector, ResetDropsPartialWindow) {
  const auto detector = build("Trend(w=10,z=1.96,s=0)");
  for (int i = 0; i < 5; ++i) detector->observe(1.0 * i);
  EXPECT_EQ(detector->snapshot().pending, 5u);
  detector->reset();
  EXPECT_EQ(detector->snapshot().pending, 0u);
}

TEST(TrendDetector, FiresOnTheFirstAgingWindowUnlikeMk) {
  // Why Trend is its own family: MK feeds window verdicts through a
  // cascade that overflows only at fill > 1, so even MK(L=1) needs a second
  // aging window, while Trend fires on the first.
  const auto trend = build("Trend(w=30,z=1.96,s=0)");
  const auto mk = build("MK(w=30,z=1.96,s=0,L=1)");
  std::size_t trend_first = 0;
  std::size_t mk_first = 0;
  for (std::size_t i = 1; i <= 90; ++i) {
    const double value = 5.0 + 0.5 * static_cast<double>((i - 1) % 30);
    if (trend->observe(value) == core::Decision::kRejuvenate && trend_first == 0) trend_first = i;
    if (mk->observe(value) == core::Decision::kRejuvenate && mk_first == 0) mk_first = i;
  }
  EXPECT_EQ(trend_first, 30u);
  EXPECT_EQ(mk_first, 60u);
}

// ------------------------------------------------------- stationary (Fig. 1)

TEST(Stationary, TwoStateChainClosedForm) {
  markov::Ctmc chain(2);
  chain.add_transition(0, 1, 2.0);
  chain.add_transition(1, 0, 3.0);
  const auto pi = markov::stationary_distribution(chain);
  EXPECT_NEAR(pi[0], 0.6, 1e-12);
  EXPECT_NEAR(pi[1], 0.4, 1e-12);
}

TEST(Stationary, RejectsAbsorbingStates) {
  markov::Ctmc chain(2);
  chain.add_transition(0, 1, 1.0);
  EXPECT_THROW(markov::stationary_distribution(chain), std::invalid_argument);
}

TEST(Stationary, Fig1BirthDeathMatchesErlangWc) {
  // Solve the Fig. 1 chain numerically and compare P(fewer than c jobs)
  // against the Erlang-based Wc of the queueing library.
  const double lambda = 1.6, mu = 0.2;
  const std::size_t c = 16;
  const auto chain = markov::build_mmc_birth_death_chain(lambda, mu, c, 400);
  const auto pi = markov::stationary_distribution(chain);
  double wc = 0.0;
  for (std::size_t k = 0; k < c; ++k) wc += pi[k];
  EXPECT_NEAR(wc, queueing::MmcQueue(lambda, mu, c).probability_no_wait(), 1e-9);
}

TEST(Stationary, Fig1MeanJobsMatchesLittlesLaw) {
  const double lambda = 2.4, mu = 0.2;
  const std::size_t c = 16;
  const auto chain = markov::build_mmc_birth_death_chain(lambda, mu, c, 600);
  const auto pi = markov::stationary_distribution(chain);
  double mean_jobs = 0.0;
  for (std::size_t k = 0; k < pi.size(); ++k) mean_jobs += static_cast<double>(k) * pi[k];
  EXPECT_NEAR(mean_jobs, queueing::MmcQueue(lambda, mu, c).mean_jobs_in_system(), 1e-6);
}

TEST(Stationary, MmppPhaseProbabilities) {
  // The MMPP's mean_rate uses the stationary phase split; validate it
  // against the generic solver.
  markov::Ctmc phases(2);
  phases.add_transition(0, 1, 1.0 / 90.0);  // normal -> burst
  phases.add_transition(1, 0, 1.0 / 10.0);  // burst -> normal
  const auto pi = markov::stationary_distribution(phases);
  EXPECT_NEAR(pi[1], 0.1, 1e-12);
}

TEST(BirthDeathBuilder, ValidatesArguments) {
  EXPECT_THROW(markov::build_mmc_birth_death_chain(0.0, 0.2, 16, 100), std::invalid_argument);
  EXPECT_THROW(markov::build_mmc_birth_death_chain(1.0, 0.2, 16, 8), std::invalid_argument);
}

}  // namespace
}  // namespace rejuv
