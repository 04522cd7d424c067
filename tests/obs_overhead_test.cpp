// Hot paths must be allocation-free in steady state: a tracer with no sink
// attached performs no allocation, attaching one to a full simulation run
// changes neither the allocation count nor any simulation result, and the
// detectors' observe / observe_all loops never touch the heap once
// constructed — the monitor drains millions of observations per second
// through them.
//
// This test links the counting global allocator (counting_allocator.cpp),
// so it lives in its own binary (the counter would otherwise tax every
// other test).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/clta.h"
#include "core/controller.h"
#include "core/factory.h"
#include "core/saraa.h"
#include "core/sraa.h"
#include "core/static_rejuvenation.h"
#include "counting_allocator.h"
#include "model/ecommerce.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace {

using namespace rejuv;
using rejuv::test::allocations;

TEST(TracerOverheadTest, DisabledEmittersAllocateNothing) {
  obs::Tracer tracer;  // no sink
  const std::uint64_t before = allocations();
  for (int i = 0; i < 10'000; ++i) {
    tracer.set_time(static_cast<double>(i));
    tracer.transaction_completed(1.0);
    tracer.sample(10.0, 5.0, true, 2, 1, 4);
    tracer.escalated(3, 0, 2);
    tracer.deescalated(2, 1, 4);
    tracer.detector_triggered(30.0, 25.0, 4, 5);
    tracer.cooldown_suppressed(10);
    tracer.gc_start(90.0);
    tracer.gc_end(500.0);
    tracer.admission_rejected(51);
    tracer.downtime_lost();
    tracer.rejuvenation_executed(100);
    tracer.external_reset();
  }
  EXPECT_EQ(allocations(), before);
  EXPECT_EQ(tracer.events_emitted(), 0u);
}

// Steady-state event scheduling must be allocation-free: once the queue's
// node slab and heap have grown to the working depth, pop + push cycles
// (the simulator's per-event pattern) and cancel + push cycles (the
// GC-postpone pattern) recycle slab nodes and never touch the heap. The
// closure stays within libstdc++'s std::function small-buffer size, exactly
// like the model's completion closures.
TEST(EventQueueOverheadTest, SteadyStateSchedulingAllocatesNothing) {
  sim::EventQueue queue;
  common::RngStream rng(0x5EED, 3);
  constexpr std::size_t kDepth = 512;
  double drained = 0.0;
  for (std::size_t i = 0; i < kDepth; ++i) {
    queue.push(rng.uniform01() * 100.0, [&drained] { drained += 1.0; });
  }
  // Warm one full cycle so every lazily grown buffer reaches capacity.
  for (int i = 0; i < 2'000; ++i) {
    auto [time, action] = queue.pop();
    queue.push(time + rng.uniform01() + 1e-6, std::move(action));
  }

  const std::uint64_t before = allocations();
  sim::EventId last = queue.next_id();
  for (int i = 0; i < 10'000; ++i) {
    auto [time, action] = queue.pop();
    action();
    last = queue.push(time + rng.uniform01() + 1e-6, std::move(action));
  }
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(queue.cancel(last));
    last = queue.push(queue.next_time() + rng.uniform01() + 1e-6, [&drained] { drained += 1.0; });
  }
  EXPECT_EQ(allocations(), before) << "steady-state scheduling touched the heap";
  EXPECT_EQ(queue.size(), kDepth);
  EXPECT_GT(drained, 0.0);
}

// One deterministic replication of the §3 model under SRAA.
model::EcommerceMetrics run_replication(obs::Tracer* tracer, std::uint64_t* alloc_count) {
  model::EcommerceConfig config;
  config.arrival_rate = 9.0 * config.service_rate;

  common::RngStream arrival_rng(20060625, 0);
  common::RngStream service_rng(20060625, 1);
  sim::Simulator simulator;
  model::EcommerceSystem system(simulator, config, arrival_rng, service_rng);

  core::DetectorConfig detector_config{"SRAA"};
  detector_config.set("n", 2).set("K", 5).set("D", 3);
  core::RejuvenationController controller(core::make_detector(detector_config));
  system.set_decision([&controller](double rt) { return controller.observe(rt); });

  if (tracer != nullptr) {
    system.set_tracer(tracer);
    controller.set_tracer(tracer);
  }

  const std::uint64_t before = allocations();
  system.run_transactions(5'000);
  *alloc_count = allocations() - before;
  return system.metrics();
}

/// A healthy/degraded mix around the (5, 5) baseline so every cascade path
/// — escalation, de-escalation, trigger reset — runs inside the counted
/// region, not just the within-bucket fast path.
std::vector<double> make_mixed_stream(std::size_t count) {
  std::vector<double> values(count);
  common::RngStream rng(0xA110C, 7);
  for (std::size_t i = 0; i < count; ++i) {
    const bool degraded = (i / 64) % 3 == 2;  // every third block of 64
    values[i] = degraded ? 15.0 + 25.0 * rng.uniform01() : 10.0 * rng.uniform01();
  }
  return values;
}

std::vector<std::unique_ptr<core::Detector>> make_all_detectors() {
  const core::Baseline baseline{5.0, 5.0};
  std::vector<std::unique_ptr<core::Detector>> detectors;
  detectors.push_back(std::make_unique<core::StaticRejuvenation>(5, 3, baseline));
  detectors.push_back(std::make_unique<core::Sraa>(core::SraaParams{2, 5, 3}, baseline));
  detectors.push_back(std::make_unique<core::Saraa>(core::SaraaParams{2, 5, 3, true}, baseline));
  detectors.push_back(std::make_unique<core::Clta>(core::CltaParams{30, 1.96}, baseline));
  return detectors;
}

TEST(DetectorOverheadTest, SteadyStateObserveAllocatesNothing) {
  const std::vector<double> values = make_mixed_stream(4'096);
  for (const auto& detector : make_all_detectors()) {
    std::uint64_t triggers = 0;
    const std::uint64_t before = allocations();
    for (const double value : values) {
      triggers += detector->observe(value) == core::Decision::kRejuvenate ? 1u : 0u;
    }
    EXPECT_EQ(allocations(), before)
        << detector->name() << ": observe() allocated on the steady-state path";
    EXPECT_GT(triggers, 0u) << detector->name() << ": stream too tame to cover trigger paths";
  }
}

TEST(DetectorOverheadTest, BatchObserveAllAllocatesNothing) {
  const std::vector<double> values = make_mixed_stream(4'096);
  for (const auto& detector : make_all_detectors()) {
    std::uint64_t triggers = 0;
    const std::uint64_t before = allocations();
    std::span<const double> remaining(values);
    while (!remaining.empty()) {
      const std::size_t batch_len = remaining.size() < 512 ? remaining.size() : 512;
      std::span<const double> batch = remaining.subspan(0, batch_len);
      while (!batch.empty()) {
        const std::size_t index = detector->observe_all(batch);
        if (index == batch.size()) break;
        ++triggers;
        batch = batch.subspan(index + 1);
      }
      remaining = remaining.subspan(batch_len);
    }
    EXPECT_EQ(allocations(), before)
        << detector->name() << ": observe_all() allocated on the batch path";
    EXPECT_GT(triggers, 0u) << detector->name() << ": stream too tame to cover trigger paths";
  }
}

TEST(TracerOverheadTest, NullSinkRunMatchesBaselineAllocationsAndResults) {
  std::uint64_t baseline_allocs = 0;
  const model::EcommerceMetrics baseline = run_replication(nullptr, &baseline_allocs);

  obs::Tracer disabled;  // attached everywhere, but no sink
  std::uint64_t traced_allocs = 0;
  const model::EcommerceMetrics traced = run_replication(&disabled, &traced_allocs);

  // Identical simulation results...
  EXPECT_EQ(traced.completed, baseline.completed);
  EXPECT_EQ(traced.arrivals, baseline.arrivals);
  EXPECT_EQ(traced.rejuvenation_count, baseline.rejuvenation_count);
  EXPECT_EQ(traced.gc_count, baseline.gc_count);
  EXPECT_DOUBLE_EQ(traced.response_time.mean(), baseline.response_time.mean());
  // ...and not a single extra allocation from the disabled tracer.
  EXPECT_EQ(traced_allocs, baseline_allocs);
  EXPECT_EQ(disabled.events_emitted(), 0u);
  EXPECT_GT(baseline.completed, 0u);
}

}  // namespace
