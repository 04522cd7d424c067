#include "core/factory.h"

#include <cmath>

#include "common/expect.h"
#include "core/spec.h"

namespace rejuv::core {

DetectorDescriptor null_descriptor() {
  DetectorDescriptor descriptor;
  descriptor.name = "None";
  descriptor.summary = "never rejuvenate (the unmanaged baseline)";
  descriptor.needs_baseline = false;
  descriptor.make = [](const DetectorConfig& config) -> std::unique_ptr<Detector> {
    return std::make_unique<NullDetector>(config.baseline);
  };
  return descriptor;
}

std::unique_ptr<Detector> make_detector(const DetectorConfig& config) {
  validate_config(config);
  return config.descriptor().make(config);
}

std::string describe(const DetectorConfig& config) {
  const DetectorDescriptor& descriptor = config.descriptor();
  std::string text = descriptor.name;
  if (descriptor.params.empty()) return text;
  text += "(";
  for (std::size_t i = 0; i < descriptor.params.size(); ++i) {
    const ParamSpec& param = descriptor.params[i];
    if (i > 0) text += ",";
    text += param.key;
    text += "=";
    if (param.kind == ParamSpec::Kind::kCount) {
      text += std::to_string(static_cast<long long>(std::llround(config.values()[i])));
    } else {
      text += spec_number(config.values()[i]);
    }
  }
  text += ")";
  return text;
}

CalibratingDetector::CalibratingDetector(DetectorConfig config, std::uint64_t calibration_size)
    : config_(config), estimator_(calibration_size), active_baseline_(config.baseline) {
  REJUV_EXPECT(!config.is_null(), "calibrating a null detector is meaningless");
}

Decision CalibratingDetector::observe(double value) {
  if (inner_ == nullptr) {
    if (estimator_.observe(value)) {
      active_baseline_ = estimator_.estimate();
      // Degenerate calibration (constant metric) falls back to a unit sigma
      // so the inner detector remains constructible.
      if (active_baseline_.stddev <= 0.0) active_baseline_.stddev = 1.0;
      DetectorConfig calibrated = config_;
      calibrated.baseline = active_baseline_;
      inner_ = make_detector(calibrated);
      inner_->set_tracer(tracer_);
    }
    return Decision::kContinue;
  }
  return inner_->observe(value);
}

std::size_t CalibratingDetector::observe_all(std::span<const double> values) {
  std::size_t consumed = 0;
  if (inner_ == nullptr) {
    // Calibration head: feed the estimator per value (observe() builds the
    // inner detector at the exact boundary observation). None of these can
    // trigger, so the batch only ends early if the post-boundary tail does.
    while (consumed < values.size() && inner_ == nullptr) {
      observe(values[consumed++]);
    }
    if (consumed == values.size()) return values.size();
  }
  const std::size_t index = inner_->observe_all(values.subspan(consumed));
  const std::size_t tail = values.size() - consumed;
  return index == tail ? values.size() : consumed + index;
}

obs::DetectorSnapshot CalibratingDetector::snapshot() const {
  if (inner_ != nullptr) {
    obs::DetectorSnapshot snapshot = inner_->snapshot();
    snapshot.algorithm = name();
    return snapshot;
  }
  obs::DetectorSnapshot snapshot = base_snapshot();
  snapshot.pending = static_cast<std::uint32_t>(estimator_.observed());
  return snapshot;
}

void CalibratingDetector::set_tracer(obs::Tracer* tracer) noexcept {
  tracer_ = tracer;
  if (inner_ != nullptr) inner_->set_tracer(tracer);
}

void CalibratingDetector::reset() {
  if (inner_ != nullptr) inner_->reset();
}

DetectorState CalibratingDetector::save_state() const {
  if (inner_ == nullptr) {
    DetectorState state = Detector::save_state();
    state.calibrating = true;
    const stats::RunningStats& stats = estimator_.stats();
    state.calibration_count = stats.count();
    state.calibration_mean = stats.raw_mean();
    state.calibration_m2 = stats.m2();
    state.calibration_min = stats.min();
    state.calibration_max = stats.max();
    return state;
  }
  DetectorState state = inner_->save_state();
  state.algorithm = name();
  state.baseline_mean = active_baseline_.mean;
  state.baseline_stddev = active_baseline_.stddev;
  return state;
}

void CalibratingDetector::restore_state(const DetectorState& state) {
  Detector::restore_state(state);
  if (state.calibrating) {
    inner_.reset();
    stats::RunningStats stats;
    stats.restore(state.calibration_count, state.calibration_mean, state.calibration_m2,
                  state.calibration_min, state.calibration_max);
    estimator_.restore(stats);
    active_baseline_ = config_.baseline;
    return;
  }
  active_baseline_ = Baseline{state.baseline_mean, state.baseline_stddev};
  DetectorConfig calibrated = config_;
  calibrated.baseline = active_baseline_;
  inner_ = make_detector(calibrated);
  inner_->set_tracer(tracer_);
  DetectorState inner_state = state;
  inner_state.algorithm = inner_->name();
  inner_->restore_state(inner_state);
}

std::string CalibratingDetector::name() const {
  return "Calibrating[" + (inner_ != nullptr ? inner_->name() : describe(config_)) + "]";
}

const Baseline& CalibratingDetector::baseline() const { return active_baseline_; }

}  // namespace rejuv::core
