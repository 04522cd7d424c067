// Declarative detector configuration and construction.
//
// The experiment harness sweeps dozens of detector configurations;
// DetectorConfig (core/registry.h) is the value type those sweeps are
// written in, and make_detector turns one into a live Detector by
// dispatching through the DetectorRegistry — the single construction path
// shared by the harness, the CLIs and the online monitor.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/clta.h"
#include "core/detector.h"
#include "core/registry.h"
#include "core/saraa.h"
#include "core/sraa.h"
#include "core/static_rejuvenation.h"

namespace rejuv::core {

/// The "None" detector: consumes observations and never rejuvenates (the
/// unmanaged baseline). Having a real object instead of a nullptr lets
/// every consumer — controller, harness, monitor — feed the detector
/// unconditionally.
class NullDetector final : public Detector {
 public:
  explicit NullDetector(Baseline baseline = {}) : baseline_(baseline) {}

  Decision observe(double) override { return Decision::kContinue; }
  std::size_t observe_all(std::span<const double> values) override { return values.size(); }
  void reset() override {}
  std::string name() const override { return "None"; }
  const Baseline& baseline() const override { return baseline_; }

 private:
  Baseline baseline_;
};

/// Registry descriptor of the "None" family.
DetectorDescriptor null_descriptor();

/// Builds the configured detector through the registry; never null (the
/// "None" family yields a NullDetector that never rejuvenates). Throws
/// std::invalid_argument on an invalid configuration.
std::unique_ptr<Detector> make_detector(const DetectorConfig& config);

/// Canonical spec string derived from the family's schema, e.g.
/// "SRAA(n=2,K=5,D=3)" — always identical to make_detector(config)->name(),
/// and parse_spec(describe(config)) == config.
std::string describe(const DetectorConfig& config);

/// A detector that first estimates the baseline from an initial calibration
/// window (assumed healthy), then behaves as the configured algorithm with
/// the estimated (muX, sigmaX) — the paper's section 6 future-work item.
/// Observations consumed during calibration never trigger rejuvenation.
/// Works for any registered family.
class CalibratingDetector final : public Detector {
 public:
  /// `config.baseline` is ignored; it is replaced by the estimate.
  CalibratingDetector(DetectorConfig config, std::uint64_t calibration_size);

  Decision observe(double value) override;
  /// Batch path with an exact split at the calibration boundary: the head
  /// of the batch feeds the estimator (never triggering), the tail past the
  /// boundary goes to the freshly built inner detector's own observe_all.
  /// Decisions are byte-identical to looping observe() — a batch that
  /// straddles the boundary must behave exactly as if it had arrived one
  /// value at a time (tests/property_test.cpp pins the straddle).
  std::size_t observe_all(std::span<const double> values) override;
  /// Resets the inner detector only; the calibrated baseline is retained.
  void reset() override;
  std::string name() const override;
  /// Baseline so far: the estimate once calibrated, otherwise the config's
  /// placeholder.
  const Baseline& baseline() const override;
  /// The inner detector's snapshot once calibrated; before that, a view of
  /// the calibration progress (pending = observations consumed).
  obs::DetectorSnapshot snapshot() const override;
  /// Forwards the tracer to the inner detector (also on later creation).
  void set_tracer(obs::Tracer* tracer) noexcept override;
  /// Captures the calibration accumulator while calibrating, otherwise the
  /// inner detector's state plus the active baseline.
  DetectorState save_state() const override;
  /// Rebuilds the inner detector from the saved baseline when the saved
  /// state was post-calibration.
  void restore_state(const DetectorState& state) override;

  bool calibrated() const noexcept { return inner_ != nullptr; }

 private:
  DetectorConfig config_;
  BaselineEstimator estimator_;
  std::unique_ptr<Detector> inner_;
  Baseline active_baseline_;
};

}  // namespace rejuv::core
