// paper-sweep: the paper's Fig. 9 experiment (fig09_configs() x
// default_load_grid()) through harness::run_sweeps on the exec pool with
// two workers plus the calling thread.
#include "sweep.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#include "core/factory.h"
#include "exec/pool.h"
#include "harness/experiment.h"
#include "harness/paper.h"

namespace perfbench {

namespace core = rejuv::core;
namespace harness = rejuv::harness;

namespace {

constexpr std::size_t kPoolWorkers = 2;
constexpr int kSetupReps = 3;  ///< set-ups timed before and after each sweep
constexpr std::size_t kLatencyConfig = 1;  ///< SRAA(n=1,K=5,D=3)
constexpr double kLatencyLoad = 9.0;
constexpr std::uint64_t kObserveSampleMask = 63;  ///< time 1 in 64 observe() calls

harness::SimulationProtocol protocol_for(std::uint64_t seed) {
  harness::SimulationProtocol protocol;  // 2 replications x 20,000 transactions
  protocol.base_seed = seed;
  protocol.parallel_points = true;
  return protocol;
}

bool same_point(const harness::PointResult& a, const harness::PointResult& b) {
  return a.offered_load_cpus == b.offered_load_cpus &&
         a.avg_response_time == b.avg_response_time && a.rt_half_width == b.rt_half_width &&
         a.loss_fraction == b.loss_fraction && a.max_response_time == b.max_response_time &&
         a.completed == b.completed && a.lost == b.lost && a.rejuvenations == b.rejuvenations &&
         a.gc_count == b.gc_count;
}

/// Rows of `got` that differ from the sequential reference.
std::uint64_t mismatches(const std::vector<harness::SweepResult>& got,
                         const std::vector<harness::SweepResult>& reference) {
  std::uint64_t failed = 0;
  for (std::size_t c = 0; c < reference.size(); ++c) {
    for (std::size_t p = 0; p < reference[c].points.size(); ++p) {
      const bool ok = c < got.size() && p < got[c].points.size() &&
                      same_point(got[c].points[p], reference[c].points[p]);
      if (!ok) ++failed;
    }
  }
  return failed;
}

// --- Traced run: per-thread spans from a DetectorFactory decorator --------

struct ThreadTrace {
  SpanRecorder spans;
  std::uint64_t observe_calls = 0;
  std::uint64_t sampled = 0;
  std::int64_t sampled_ns = 0;
  explicit ThreadTrace(std::string name) : spans(std::move(name)) {}
};

std::mutex traces_mutex;
std::vector<std::unique_ptr<ThreadTrace>> traces;

ThreadTrace& thread_trace() {
  thread_local ThreadTrace* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard<std::mutex> lock(traces_mutex);
    traces.push_back(std::make_unique<ThreadTrace>("thread" + std::to_string(traces.size())));
    mine = traces.back().get();
  }
  return *mine;
}

/// Forwards to the real detector; its lifetime is one replication (the
/// harness builds a detector per replication and drops it at the end), so
/// construction-to-destruction is the replication span.
class TimedDetector final : public core::Detector {
 public:
  explicit TimedDetector(std::unique_ptr<core::Detector> inner)
      : inner_(std::move(inner)), trace_(thread_trace()), start_ns_(ns_now()) {}
  ~TimedDetector() override {
    static const std::uint16_t name = name_id("model.replication");
    trace_.spans.add(name, start_ns_, ns_now());
    trace_.observe_calls += calls_;
  }

  core::Decision observe(double value) override {
    if ((++calls_ & kObserveSampleMask) != 0) return inner_->observe(value);
    const std::int64_t t0 = ns_now();
    const core::Decision decision = inner_->observe(value);
    trace_.sampled_ns += ns_now() - t0;
    ++trace_.sampled;
    return decision;
  }
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }
  const core::Baseline& baseline() const override { return inner_->baseline(); }
  rejuv::obs::DetectorSnapshot snapshot() const override { return inner_->snapshot(); }
  core::DetectorState save_state() const override { return inner_->save_state(); }
  void restore_state(const core::DetectorState& state) override { inner_->restore_state(state); }
  void set_tracer(rejuv::obs::Tracer* tracer) noexcept override { inner_->set_tracer(tracer); }

 private:
  std::unique_ptr<core::Detector> inner_;
  ThreadTrace& trace_;
  std::int64_t start_ns_;
  std::uint64_t calls_ = 0;
};

/// Cost of the two clock reads around a sampled observe().
double clock_pair_ns() {
  std::vector<double> pairs;
  for (int i = 0; i < 1001; ++i) {
    const std::int64_t a = ns_now();
    pairs.push_back(static_cast<double>(ns_now() - a));
  }
  return median(pairs);
}

}  // namespace

Result run_sweep_workload(std::uint64_t seed, double seconds, bool trace) {
  rejuv::exec::ThreadPool::configure_shared(kPoolWorkers);
  const harness::SimulationProtocol protocol = protocol_for(seed);
  Result result;

  // Set-up: a pool plus the experiment's configuration. Timed a few times
  // before and after every sweep, so the median samples the whole run.
  std::vector<double> setup;
  const auto time_setups = [&setup] {
    for (int k = 0; k < kSetupReps; ++k) {
      const double t0 = now_s();
      auto pool = std::make_unique<rejuv::exec::ThreadPool>(kPoolWorkers);
      [[maybe_unused]] const auto configs = harness::fig09_configs();
      [[maybe_unused]] const auto loads = harness::default_load_grid();
      [[maybe_unused]] const auto system = harness::paper_system();
      rejuv::exec::parallel_for_each(*pool, kPoolWorkers, [](std::size_t) {});
      setup.push_back(now_s() - t0);
    }
  };
  time_setups();

  const auto configs = harness::fig09_configs();
  const auto loads = harness::default_load_grid();
  const auto system = harness::paper_system();
  const double ops_per_sweep = static_cast<double>(configs.size() * loads.size() *
                                                   protocol.replications *
                                                   protocol.transactions_per_replication);
  harness::run_sweeps(configs, system, loads, protocol);  // warm-up: shared pool, caches

  // Untraced sweeps through the real entry point.
  const double sweep_budget = (trace ? 0.3 : 0.7) * seconds;
  std::vector<std::vector<harness::SweepResult>> sweeps;
  std::vector<double> rates, cpu;
  for (const double start = now_s(); now_s() - start < sweep_budget || sweeps.size() < 3;) {
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    sweeps.push_back(harness::run_sweeps(configs, system, loads, protocol));
    const double wall = now_s() - t0;
    rates.push_back(ops_per_sweep / wall);
    cpu.push_back((process_cpu_s() - cpu0) / ops_per_sweep * 1e6);
    time_setups();
  }
  const double untraced_rate = median(rates);

  harness::SimulationProtocol sequential = protocol;
  sequential.parallel_points = false;

  if (!trace) {
    // Time to one figure point's verdict: run_point fans its replications
    // over the same pool.
    std::vector<double> point_us;
    std::vector<harness::PointResult> points;
    for (const double start = now_s(); now_s() - start < 0.2 * seconds || points.size() < 5;) {
      const double t0 = now_s();
      points.push_back(harness::run_point(configs[kLatencyConfig], system, kLatencyLoad, protocol));
      point_us.push_back((now_s() - t0) * 1e6);
    }
    const double rss = peak_rss_mb();
    result.add("throughput_ops_per_s", untraced_rate, "1/s");
    result.add("decision_latency_p50_us", median(point_us), "us");
    result.add("cpu_us_per_op", median(cpu), "us");
    result.add("peak_rss_mb", rss, "MB");
    result.add("setup_s", median(setup), "s");
    std::printf("sweeps=%zu points_timed=%zu txns_per_sweep=%s\n", sweeps.size(), points.size(),
                num(ops_per_sweep).c_str());

    const auto reference = harness::run_sweeps(configs, system, loads, sequential);
    const std::size_t load_index = static_cast<std::size_t>(
        std::find(loads.begin(), loads.end(), kLatencyLoad) - loads.begin());
    for (const auto& sweep : sweeps) {
      result.attempted += configs.size() * loads.size();
      result.failed += mismatches(sweep, reference);
    }
    for (const auto& point : points) {
      ++result.attempted;
      if (!same_point(point, reference[kLatencyConfig].points[load_index])) ++result.failed;
    }
    result.correct = result.failed == 0;
    return result;
  }

  // Traced: the same sweeps through run_custom_sweep (what run_sweeps
  // calls per configuration) with a timing decorator on the factory.
  SpanRecorder main_spans("caller");
  const std::uint16_t sweep_name = name_id("harness.sweep");
  std::vector<double> traced_rates, tails;
  std::vector<std::vector<harness::SweepResult>> traced_sweeps;
  double traced_wall = 0.0;
  for (const double start = now_s(); now_s() - start < 0.3 * seconds || traced_sweeps.size() < 3;) {
    std::vector<harness::SweepResult> results;
    const double t0 = now_s();
    for (const core::DetectorConfig& config : configs) {
      const std::int32_t span = main_spans.begin(sweep_name);
      const std::int64_t begin_ns = ns_now();
      const harness::DetectorFactory factory = [&config] {
        return std::make_unique<TimedDetector>(core::make_detector(config));
      };
      results.push_back(
          harness::run_custom_sweep(core::describe(config), factory, system, loads, protocol));
      results.back().detector = config;
      main_spans.end(span);
      const std::int64_t end_ns = ns_now();
      // Tail: from the first thread running out of replications to the end.
      std::int64_t first_idle = end_ns;
      const std::lock_guard<std::mutex> lock(traces_mutex);
      for (const auto& t : traces) {
        std::int64_t last = 0;
        for (const Span& s : t->spans.spans()) {
          if (s.start_ns >= begin_ns && s.end_ns <= end_ns) last = std::max(last, s.end_ns);
        }
        if (last > 0) first_idle = std::min(first_idle, last);
      }
      tails.push_back(static_cast<double>(end_ns - first_idle) * 1e-9);
    }
    const double wall = now_s() - t0;
    traced_wall += wall;
    traced_rates.push_back(ops_per_sweep / wall);
    traced_sweeps.push_back(std::move(results));
  }
  const double traced_rate = median(traced_rates);
  std::printf("throughput run_sweeps=%s traced=%s txns/s\n", num(untraced_rate).c_str(),
              num(traced_rate).c_str());

  const auto reference = harness::run_sweeps(configs, system, loads, sequential);
  for (const auto& sweep : sweeps) {
    result.attempted += configs.size() * loads.size();
    result.failed += mismatches(sweep, reference);
  }
  for (const auto& sweep : traced_sweeps) {
    result.attempted += configs.size() * loads.size();
    result.failed += mismatches(sweep, reference);
  }

  std::vector<const SpanRecorder*> recorders{&main_spans};
  std::vector<double> replication_ms;
  double busy_s = 0.0;
  std::uint64_t observe_calls = 0, sampled = 0;
  std::int64_t sampled_ns = 0;
  {
    const std::lock_guard<std::mutex> lock(traces_mutex);
    for (const auto& t : traces) {
      recorders.push_back(&t->spans);
      for (const Span& s : t->spans.spans()) {
        const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        replication_ms.push_back(d * 1e3);
        busy_s += d;
      }
      observe_calls += t->observe_calls;
      sampled += t->sampled;
      sampled_ns += t->sampled_ns;
    }
  }
  write_spans(out_dir() + "/spans-paper-sweep.jsonl", recorders);
  const double observe_ns =
      sampled > 0 ? std::max(0.0, static_cast<double>(sampled_ns) / static_cast<double>(sampled) -
                                      clock_pair_ns())
                  : 0.0;
  result.add("model.replication_ms_p50", median(replication_ms), "ms");
  result.add("model.replications", static_cast<double>(replication_ms.size()), "count");
  result.add("core.detector.observe_ns", observe_ns, "ns");
  result.add("core.detector.observations", static_cast<double>(observe_calls), "count");
  result.add("exec.busy_frac", busy_s / (traced_wall * static_cast<double>(kPoolWorkers + 1)),
             "fraction");
  result.add("exec.tail_s", median(tails), "s");
  result.add("obs.trace_overhead_frac", 1.0 - traced_rate / untraced_rate, "fraction");
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
