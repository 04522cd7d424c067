// Microbenchmarks (google-benchmark): per-observation cost of each detector,
// event-queue operations, end-to-end simulation throughput, and the
// analytical kernels (eq. 1 CDF, eq. 4 density).
//
// The detectors sit on the request completion path of a production system,
// so their per-observation cost matters; everything here should be tens of
// nanoseconds.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "core/factory.h"
#include "harness/paper.h"
#include "markov/stationary.h"
#include "model/ecommerce.h"
#include "queueing/mmc.h"
#include "sim/simulator.h"
#include "sim/variates.h"
#include "stats/ks_test.h"
#include "stats/p2_quantile.h"
#include "stats/trend.h"

namespace {

using namespace rejuv;

void DetectorObserve(benchmark::State& state, core::DetectorConfig config) {
  const auto detector = core::make_detector(config);
  common::RngStream rng(1, 0);
  // Pre-generate a healthy RT stream so the loop measures only the detector.
  std::vector<double> stream(4096);
  for (double& value : stream) value = sim::exponential(rng, 1.0 / 5.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector->observe(stream[i]));
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SraaObserve(benchmark::State& state) {
  DetectorObserve(state, harness::sraa_config({2, 5, 3}));
}
void BM_SaraaObserve(benchmark::State& state) {
  DetectorObserve(state, harness::saraa_config({2, 5, 3}));
}
void BM_CltaObserve(benchmark::State& state) {
  DetectorObserve(state, harness::clta_config(30, 1.96));
}
void BM_StaticObserve(benchmark::State& state) {
  core::DetectorConfig config{"Static"};
  config.set("K", 5).set("D", 3);
  config.baseline = harness::paper_baseline();
  DetectorObserve(state, config);
}
BENCHMARK(BM_StaticObserve);
BENCHMARK(BM_SraaObserve);
BENCHMARK(BM_SaraaObserve);
BENCHMARK(BM_CltaObserve);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  common::RngStream rng(2, 0);
  const auto noop = [] {};
  // Keep a standing population so push/pop work against a realistic heap.
  for (int i = 0; i < 1024; ++i) queue.push(rng.uniform01(), noop);
  for (auto _ : state) {
    queue.push(queue.next_time() + rng.uniform01(), noop);
    benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EcommerceTransaction(benchmark::State& state) {
  const double load_cpus = static_cast<double>(state.range(0));
  std::uint64_t transactions_total = 0;
  for (auto _ : state) {
    model::EcommerceConfig config = harness::paper_system();
    config.arrival_rate = load_cpus * config.service_rate;
    common::RngStream arrival_rng(3, 0);
    common::RngStream service_rng(3, 1);
    sim::Simulator simulator;
    model::EcommerceSystem system(simulator, config, arrival_rng, service_rng);
    core::RejuvenationController controller(
        core::make_detector(harness::saraa_config({2, 5, 3})));
    system.set_decision([&controller](double rt) { return controller.observe(rt); });
    system.run_transactions(10'000);
    transactions_total += 10'000;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(transactions_total));
}
BENCHMARK(BM_EcommerceTransaction)->Arg(1)->Arg(8)->Arg(9);

void BM_MmcResponseTimeCdf(benchmark::State& state) {
  const queueing::MmcQueue queue(1.6, 0.2, 16);
  double x = 0.0;
  for (auto _ : state) {
    x += 0.001;
    if (x > 30.0) x = 0.0;
    benchmark::DoNotOptimize(queue.response_time_cdf(x));
  }
}
BENCHMARK(BM_MmcResponseTimeCdf);

void BM_SampleAveragePdf(benchmark::State& state) {
  const queueing::MmcQueue queue(1.6, 0.2, 16);
  const auto dist = queue.sample_average_distribution(static_cast<std::size_t>(state.range(0)));
  double x = 3.0;
  for (auto _ : state) {
    x += 0.01;
    if (x > 8.0) x = 3.0;
    benchmark::DoNotOptimize(dist.pdf(x));
  }
}
BENCHMARK(BM_SampleAveragePdf)->Arg(5)->Arg(30);

void BM_P2QuantilePush(benchmark::State& state) {
  stats::P2Quantile estimator(0.95);
  common::RngStream rng(4, 0);
  std::vector<double> stream(4096);
  for (double& value : stream) value = sim::exponential(rng, 0.2);
  std::size_t i = 0;
  for (auto _ : state) {
    estimator.push(stream[i]);
    i = (i + 1) & 4095;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_P2QuantilePush);

void BM_MannKendallWindow(benchmark::State& state) {
  const auto window_size = static_cast<std::size_t>(state.range(0));
  common::RngStream rng(5, 0);
  std::vector<double> window(window_size);
  for (double& value : window) value = rng.uniform01();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::mann_kendall(window));
  }
}
BENCHMARK(BM_MannKendallWindow)->Arg(30)->Arg(100);

void BM_KsTest(benchmark::State& state) {
  common::RngStream rng(6, 0);
  std::vector<double> samples(1000);
  for (double& value : samples) value = sim::exponential(rng, 1.0);
  const auto cdf = [](double x) { return x <= 0.0 ? 0.0 : 1.0 - std::exp(-x); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_test(samples, cdf));
  }
}
BENCHMARK(BM_KsTest);

void BM_StationaryBirthDeath(benchmark::State& state) {
  const auto truncation = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto chain = markov::build_mmc_birth_death_chain(1.6, 0.2, 16, truncation);
    benchmark::DoNotOptimize(markov::stationary_distribution(chain));
  }
}
BENCHMARK(BM_StationaryBirthDeath)->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
