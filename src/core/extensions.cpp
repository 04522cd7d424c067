#include "core/extensions.h"

#include <algorithm>

#include "common/expect.h"
#include "stats/trend.h"

namespace rejuv::core {

namespace {
constexpr const char* kQuantileTag = "QuantileThreshold.v1";
constexpr const char* kTrendTag = "Trend.v1";
constexpr const char* kRiskTag = "BobbioRisk.v1";

/// Largest seed a double-valued count parameter holds exactly.
constexpr double kMaxExactSeed = 9007199254740992.0;  // 2^53

void expect_tag(const DetectorState& state, const char* tag) {
  REJUV_EXPECT(state.extra_tag == tag, std::string(tag) + " checkpoint extension tag mismatch: \"" +
                                           state.extra_tag + "\"");
}
}  // namespace

DetectorDescriptor quantile_threshold_descriptor() {
  DetectorDescriptor descriptor;
  descriptor.name = "QuantileThreshold";
  descriptor.summary = "trigger on r consecutive observations above a fixed RT quantile x";
  descriptor.checkpoint_tag = kQuantileTag;
  descriptor.params = {
      real_param("x", 15.0, "response-time threshold, e.g. an upper quantile of healthy RT", 0.0,
                 /*strict_min=*/true),
      count_param("r", 1, "consecutive exceedances needed to trigger"),
  };
  descriptor.make = [](const DetectorConfig& config) -> std::unique_ptr<Detector> {
    return std::make_unique<QuantileThresholdDetector>(config.get("x"), config.get_count("r"),
                                                       config.baseline);
  };
  return descriptor;
}

DetectorDescriptor trend_descriptor() {
  DetectorDescriptor descriptor;
  descriptor.name = "Trend";
  descriptor.summary = "trigger on the first window with a significant Mann-Kendall/Sen uptrend";
  descriptor.checkpoint_tag = kTrendTag;
  descriptor.params = {
      count_param("w", 30, "observations per trend-test window", 3),
      real_param("z", 1.96, "one-sided Mann-Kendall quantile for an increasing trend", 0.0,
                 /*strict_min=*/true),
      real_param("s", 0.0, "minimum Sen slope per observation to trigger", 0.0),
  };
  descriptor.make = [](const DetectorConfig& config) -> std::unique_ptr<Detector> {
    return std::make_unique<TrendDetector>(config.get_count("w"), config.get("z"),
                                           config.get("s"), config.baseline);
  };
  return descriptor;
}

DetectorDescriptor bobbio_det_descriptor() {
  DetectorDescriptor descriptor;
  descriptor.name = "BobbioDet";
  descriptor.summary = "Bobbio et al. deterministic policy: trigger at degradation level L";
  descriptor.params = {
      real_param("L", 30.0, "maximum degradation level; an observation at or above it triggers",
                 0.0, /*strict_min=*/true),
  };
  descriptor.make = [](const DetectorConfig& config) -> std::unique_ptr<Detector> {
    return std::make_unique<DeterministicThresholdPolicy>(config.get("L"), config.baseline);
  };
  return descriptor;
}

DetectorDescriptor bobbio_risk_descriptor() {
  DetectorDescriptor descriptor;
  descriptor.name = "BobbioRisk";
  descriptor.summary =
      "Bobbio et al. risk-based policy: trigger probability rises linearly from c to c + w";
  descriptor.checkpoint_tag = kRiskTag;
  ParamSpec seed = count_param("seed", 99, "seed of the randomized trigger decision", 0);
  seed.max_value = kMaxExactSeed;
  descriptor.params = {
      real_param("c", 15.0, "confidence level where the trigger probability starts to rise", 0.0,
                 /*strict_min=*/true),
      real_param("w", 30.0, "band width: the probability reaches 1 at level c + w", 0.0,
                 /*strict_min=*/true),
      seed,
  };
  descriptor.make = [](const DetectorConfig& config) -> std::unique_ptr<Detector> {
    return std::make_unique<RiskBasedPolicy>(config.get("c"), config.get("w"), config.baseline,
                                             config.get_count("seed"));
  };
  return descriptor;
}

QuantileThresholdDetector::QuantileThresholdDetector(double threshold,
                                                     std::uint64_t consecutive_exceedances,
                                                     Baseline baseline)
    : threshold_(threshold), required_(consecutive_exceedances), baseline_(baseline) {
  REJUV_EXPECT(threshold > 0.0, "threshold must be positive");
  REJUV_EXPECT(consecutive_exceedances >= 1, "need at least one exceedance");
  validate(baseline_);
}

Decision QuantileThresholdDetector::observe(double value) {
  last_value_ = value;
  if (value > threshold_) {
    ++run_length_;
    if (run_length_ >= required_) {
      run_length_ = 0;
      if (tracer_ != nullptr) {
        tracer_->detector_triggered(value, threshold_, /*bucket=*/-1, /*count=*/1);
      }
      return Decision::kRejuvenate;
    }
  } else {
    run_length_ = 0;
  }
  return Decision::kContinue;
}

void QuantileThresholdDetector::reset() { run_length_ = 0; }

obs::DetectorSnapshot QuantileThresholdDetector::snapshot() const {
  obs::DetectorSnapshot snapshot = base_snapshot();
  snapshot.fill = static_cast<std::int32_t>(run_length_);   // exceedance run so far
  snapshot.depth = static_cast<std::int32_t>(required_);
  snapshot.sample_size = 1;
  snapshot.last_average = last_value_;
  snapshot.current_target = threshold_;
  return snapshot;
}

DetectorState QuantileThresholdDetector::save_state() const {
  DetectorState state = Detector::save_state();
  state.extra_tag = kQuantileTag;
  state.extra_u64 = {run_length_};
  return state;
}

void QuantileThresholdDetector::restore_state(const DetectorState& state) {
  Detector::restore_state(state);
  expect_tag(state, kQuantileTag);
  REJUV_EXPECT(state.extra_u64.size() == 1 && state.extra_u64[0] < required_,
               "QuantileThreshold checkpoint run length out of range");
  run_length_ = state.extra_u64[0];
}

std::string QuantileThresholdDetector::name() const {
  return "QuantileThreshold(x=" + spec_number(threshold_) + ",r=" + std::to_string(required_) +
         ")";
}

DeterministicThresholdPolicy::DeterministicThresholdPolicy(double max_degradation_level,
                                                           Baseline baseline)
    : max_level_(max_degradation_level), baseline_(baseline) {
  REJUV_EXPECT(max_degradation_level > 0.0, "threshold must be positive");
  validate(baseline_);
}

Decision DeterministicThresholdPolicy::observe(double value) {
  last_value_ = value;
  if (value >= max_level_) {
    if (tracer_ != nullptr) {
      tracer_->detector_triggered(value, max_level_, /*bucket=*/-1, /*count=*/1);
    }
    return Decision::kRejuvenate;
  }
  return Decision::kContinue;
}

obs::DetectorSnapshot DeterministicThresholdPolicy::snapshot() const {
  obs::DetectorSnapshot snapshot = base_snapshot();
  snapshot.sample_size = 1;
  snapshot.last_average = last_value_;
  snapshot.current_target = max_level_;
  return snapshot;
}

std::string DeterministicThresholdPolicy::name() const {
  return "BobbioDet(L=" + spec_number(max_level_) + ")";
}

RiskBasedPolicy::RiskBasedPolicy(double confidence_level, double band_width, Baseline baseline,
                                 std::uint64_t seed)
    : confidence_level_(confidence_level),
      band_width_(band_width),
      max_level_(confidence_level + band_width),
      baseline_(baseline),
      seed_(seed),
      rng_(seed, /*stream_id=*/0xB0BB10) {
  REJUV_EXPECT(confidence_level > 0.0, "confidence level must be positive");
  REJUV_EXPECT(band_width > 0.0 && max_level_ > confidence_level,
               "maximum level must exceed the confidence level");
  validate(baseline_);
}

double RiskBasedPolicy::rejuvenation_probability(double value) const {
  if (value < confidence_level_) return 0.0;
  if (value >= max_level_) return 1.0;
  return (value - confidence_level_) / (max_level_ - confidence_level_);
}

Decision RiskBasedPolicy::observe(double value) {
  last_value_ = value;
  const double p = rejuvenation_probability(value);
  const bool trigger = p >= 1.0 || (p > 0.0 && rng_.uniform01() < p);
  if (trigger && tracer_ != nullptr) {
    tracer_->detector_triggered(value, confidence_level_, /*bucket=*/-1, /*count=*/1);
  }
  return trigger ? Decision::kRejuvenate : Decision::kContinue;
}

obs::DetectorSnapshot RiskBasedPolicy::snapshot() const {
  obs::DetectorSnapshot snapshot = base_snapshot();
  snapshot.sample_size = 1;
  snapshot.last_average = last_value_;
  snapshot.current_target = max_level_;
  return snapshot;
}

DetectorState RiskBasedPolicy::save_state() const {
  DetectorState state = Detector::save_state();
  state.extra_tag = kRiskTag;
  const common::Xoshiro256pp::State& words = rng_.state();
  state.extra_u64.assign(words.begin(), words.end());
  return state;
}

void RiskBasedPolicy::restore_state(const DetectorState& state) {
  Detector::restore_state(state);
  expect_tag(state, kRiskTag);
  REJUV_EXPECT(state.extra_u64.size() == 4, "BobbioRisk checkpoint needs 4 generator words");
  common::Xoshiro256pp::State words{};
  std::copy(state.extra_u64.begin(), state.extra_u64.end(), words.begin());
  REJUV_EXPECT(std::any_of(words.begin(), words.end(), [](std::uint64_t w) { return w != 0; }),
               "BobbioRisk checkpoint generator state is all zero");
  rng_.set_state(words);
}

std::string RiskBasedPolicy::name() const {
  return "BobbioRisk(c=" + spec_number(confidence_level_) + ",w=" + spec_number(band_width_) +
         ",seed=" + std::to_string(seed_) + ")";
}

TrendDetector::TrendDetector(std::size_t window, double z_alpha, double min_slope,
                             Baseline baseline)
    : window_(window), z_alpha_(z_alpha), min_slope_(min_slope), baseline_(baseline) {
  REJUV_EXPECT(window >= 3, "trend window needs at least 3 observations");
  REJUV_EXPECT(z_alpha > 0.0, "z_alpha must be positive");
  REJUV_EXPECT(min_slope >= 0.0, "minimum slope must be non-negative");
  validate(baseline_);
  buffer_.reserve(window);
}

Decision TrendDetector::observe(double value) {
  last_value_ = value;
  buffer_.push_back(value);
  if (buffer_.size() < window_) return Decision::kContinue;
  const auto test = stats::mann_kendall(buffer_);
  const double slope = stats::sen_slope(buffer_);
  buffer_.clear();
  if (test.increasing(z_alpha_) && slope >= min_slope_) {
    if (tracer_ != nullptr) {
      tracer_->detector_triggered(slope, min_slope_, /*bucket=*/-1, /*count=*/1);
    }
    return Decision::kRejuvenate;
  }
  return Decision::kContinue;
}

void TrendDetector::reset() { buffer_.clear(); }

obs::DetectorSnapshot TrendDetector::snapshot() const {
  obs::DetectorSnapshot snapshot = base_snapshot();
  snapshot.sample_size = static_cast<std::uint32_t>(window_);
  snapshot.pending = static_cast<std::uint32_t>(buffer_.size());
  snapshot.last_average = last_value_;
  snapshot.current_target = min_slope_;
  return snapshot;
}

DetectorState TrendDetector::save_state() const {
  DetectorState state = Detector::save_state();
  state.extra_tag = kTrendTag;
  state.extra_f64 = buffer_;
  return state;
}

void TrendDetector::restore_state(const DetectorState& state) {
  Detector::restore_state(state);
  expect_tag(state, kTrendTag);
  REJUV_EXPECT(state.extra_u64.empty() && state.extra_f64.size() < window_,
               "Trend checkpoint window fill out of range");
  buffer_ = state.extra_f64;
}

std::string TrendDetector::name() const {
  return "Trend(w=" + std::to_string(window_) + ",z=" + spec_number(z_alpha_) +
         ",s=" + spec_number(min_slope_) + ")";
}

}  // namespace rejuv::core
