// Comparison policies beyond the paper's three algorithms, registered as
// ordinary detector families so every tool builds them from a spec string.
//
// - QuantileThreshold(x,r): the strawman §4.1 dismisses — trigger when r
//   successive observations exceed a pre-determined upper quantile x of the
//   healthy RT distribution. Kept as a baseline precisely because it is
//   "not robust for short-term deviations".
// - BobbioDet(L) / BobbioRisk(c,w,seed): the two policies of Bobbio, Sereno
//   & Anglano [5], which the paper cites as its closest relatives. Both
//   monitor a degradation level against a maximum threshold; the
//   deterministic policy rejuvenates as soon as the threshold L is reached,
//   the risk-based one rejuvenates with a probability that grows linearly
//   across the band [c, c + w] and is certain at or above c + w.
// - Trend(w,z,s): a Mann-Kendall trend monitor in the spirit of the
//   measurement-based aging estimation of Trivedi et al. [15]. It fires on
//   the first significantly increasing window; the MK family instead feeds
//   its verdicts through an escalation cascade, so even MK(L=1) needs two
//   net aging windows and the two cannot share an implementation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "core/registry.h"

namespace rejuv::core {

/// Registry descriptors of the comparison families.
DetectorDescriptor quantile_threshold_descriptor();  ///< QuantileThreshold(x, r)
DetectorDescriptor trend_descriptor();               ///< Trend(w, z, s)
DetectorDescriptor bobbio_det_descriptor();          ///< BobbioDet(L)
DetectorDescriptor bobbio_risk_descriptor();         ///< BobbioRisk(c, w, seed)

/// Triggers when `consecutive_exceedances` successive observations exceed
/// the threshold (1 = the pure quantile rule).
class QuantileThresholdDetector final : public Detector {
 public:
  /// `threshold` is the pre-computed quantile value (e.g. from
  /// queueing::MmcQueue::response_time_quantile).
  QuantileThresholdDetector(double threshold, std::uint64_t consecutive_exceedances,
                            Baseline baseline);

  Decision observe(double value) override;
  void reset() override;
  std::string name() const override;
  const Baseline& baseline() const override { return baseline_; }
  obs::DetectorSnapshot snapshot() const override;
  DetectorState save_state() const override;
  void restore_state(const DetectorState& state) override;

 private:
  double threshold_;
  std::uint64_t required_;
  Baseline baseline_;
  std::uint64_t run_length_ = 0;
  double last_value_ = 0.0;
};

/// Bobbio et al.'s deterministic policy: rejuvenate as soon as the observed
/// degradation level reaches the maximum threshold. Stateless between
/// observations, so the base checkpoint suffices.
class DeterministicThresholdPolicy final : public Detector {
 public:
  DeterministicThresholdPolicy(double max_degradation_level, Baseline baseline);

  Decision observe(double value) override;
  void reset() override {}
  std::string name() const override;
  const Baseline& baseline() const override { return baseline_; }
  obs::DetectorSnapshot snapshot() const override;

 private:
  double max_level_;
  Baseline baseline_;
  double last_value_ = 0.0;
};

/// Bobbio et al.'s risk-based policy: between the confidence level and the
/// maximum threshold, rejuvenate with probability proportional to the
/// excursion; at or above the maximum, always rejuvenate.
class RiskBasedPolicy final : public Detector {
 public:
  /// The maximum level is `confidence_level + band_width`. `seed` makes the
  /// randomized decision reproducible.
  RiskBasedPolicy(double confidence_level, double band_width, Baseline baseline,
                  std::uint64_t seed);

  Decision observe(double value) override;
  void reset() override {}
  std::string name() const override;
  const Baseline& baseline() const override { return baseline_; }
  obs::DetectorSnapshot snapshot() const override;
  /// Carries the generator state, so a restored policy draws the same
  /// randomness an uninterrupted one would.
  DetectorState save_state() const override;
  void restore_state(const DetectorState& state) override;

  /// Rejuvenation probability assigned to an observation at `value`.
  double rejuvenation_probability(double value) const;

 private:
  double confidence_level_;
  double band_width_;
  double max_level_;
  Baseline baseline_;
  std::uint64_t seed_;
  common::RngStream rng_;
  double last_value_ = 0.0;
};

/// Mann-Kendall trend monitor: collects disjoint windows of `window`
/// observations and triggers on a significant increasing trend whose Sen
/// slope is at least `min_slope` per observation.
class TrendDetector final : public Detector {
 public:
  TrendDetector(std::size_t window, double z_alpha, double min_slope, Baseline baseline);

  Decision observe(double value) override;
  void reset() override;
  std::string name() const override;
  const Baseline& baseline() const override { return baseline_; }
  obs::DetectorSnapshot snapshot() const override;
  DetectorState save_state() const override;
  void restore_state(const DetectorState& state) override;

 private:
  std::size_t window_;
  double z_alpha_;
  double min_slope_;
  Baseline baseline_;
  std::vector<double> buffer_;
  double last_value_ = 0.0;
};

}  // namespace rejuv::core
