// rejuv_sim — command-line driver for ad-hoc rejuvenation experiments.
//
// Runs the §3 e-commerce model under a chosen detection algorithm and
// workload, sweeping offered load, and prints the assessment table. Every
// knob of the paper's evaluation is exposed, so single experiments from §5
// can be re-run (and varied) without writing code.
//
// Usage examples:
//   rejuv_sim --detector='SARAA(n=2,K=5,D=3)'
//   rejuv_sim --detector='CLTA(n=30,z=1.96)' --loads=0.5,9 --txns=100000 --reps=5
//   rejuv_sim --detector='SRAA(n=15,K=1,D=1)' --arrival=mmpp --burst-rate=3.6
//   rejuv_sim --detector='BobbioRisk(c=20,w=40,seed=17)'
//   rejuv_sim --detector=None --no-gc            # pure M/M/16 baseline
//
// Flags (defaults in brackets):
//   --detector=SPEC        detector spec string, e.g. 'SRAA(n=2,K=5,D=3)',
//                          'CLTA(n=30,z=1.96)', 'EDiv(b=10,w=30,q=10,g=5)' or
//                          'QuantileThreshold(x=15,r=1)'; optional mu=/sigma=
//                          keys set the baseline. Same grammar as
//                          rejuv-monitor; any family in the detector registry
//                          is accepted (rejuv-monitor --list-detectors)
//                          [SARAA(n=2,K=5,D=3)]
//   --calibrate=N          estimate the baseline from the first N healthy
//                          observations instead (adaptive mode) [off]
//   --loads=...            offered loads in CPUs [paper grid]
//   --txns, --reps, --seed simulation protocol [20000, 2, 20060625]
//   --threads=N            size of the shared work-stealing pool that runs
//                          the (load x replication) fan-out [REJUV_THREADS
//                          if set, else hardware concurrency]. Results are
//                          bit-identical at any thread count; set
//                          REJUV_SEQUENTIAL=1 to bypass the pool entirely.
//   --csv=FILE             also write the assessment table as CSV to FILE
//                          (exact bytes; used by the CI parallel-vs-
//                          sequential smoke diff)
//   --downtime=SECONDS     rejuvenation restore time [0]
//   --no-gc, --no-overhead disable aging mechanisms
//   --arrival=poisson|mmpp|periodic [poisson]
//   --burst-rate, --burst-duration, --normal-duration   MMPP parameters
//   --amplitude, --period                               periodic parameters
//   --trace=FILE           write a structured event trace (JSONL; a .csv
//                          extension selects CSV). Forces sequential points.
//                          Analyze with rejuv_trace.
//   --metrics              dump the metrics registry to stderr at the end
//
// Unknown flags are rejected (exit 1), like bad values.
#include <fstream>
#include <iostream>
#include <memory>

#include "common/expect.h"
#include "common/flags.h"
#include "common/table.h"
#include "core/controller.h"
#include "core/factory.h"
#include "core/spec.h"
#include "exec/pool.h"
#include "harness/experiment.h"
#include "harness/paper.h"
#include "harness/report.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/tracer.h"

namespace {

using namespace rejuv;

harness::DetectorFactory parse_detector(const common::Flags& flags, std::string& label) {
  // Spec strings round-trip through core::parse_spec/describe, so the label
  // is always the canonical form regardless of how the user spelled it.
  const core::DetectorConfig config =
      core::parse_spec(flags.get("detector").value_or("SARAA(n=2,K=5,D=3)"));
  const auto calibrate = flags.get_int("calibrate", 0);
  if (calibrate > 0 && !config.is_null()) {
    label = "Calibrating[" + core::describe(config) + "]";
    return [config, calibrate] {
      return std::make_unique<core::CalibratingDetector>(config,
                                                         static_cast<std::uint64_t>(calibrate));
    };
  }
  label = core::describe(config);
  return [config] { return core::make_detector(config); };
}

model::EcommerceConfig parse_system(const common::Flags& flags) {
  model::EcommerceConfig config = harness::paper_system();
  config.rejuvenation_downtime_seconds = flags.get_double("downtime", 0.0);
  if (flags.has("no-gc")) config.gc_enabled = false;
  if (flags.has("no-overhead")) config.overhead_enabled = false;
  return config;
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = common::Flags::parse(argc, argv);
    flags.expect_only({"detector", "calibrate", "loads", "txns", "reps", "seed", "threads", "csv",
                       "downtime", "no-gc", "no-overhead", "arrival", "burst-rate",
                       "burst-duration", "normal-duration", "amplitude", "period", "trace",
                       "metrics"});

    harness::SimulationProtocol protocol = harness::SimulationProtocol::from_environment();
    protocol.transactions_per_replication = static_cast<std::uint64_t>(flags.get_int(
        "txns", static_cast<std::int64_t>(protocol.transactions_per_replication)));
    protocol.replications = static_cast<std::uint64_t>(
        flags.get_int("reps", static_cast<std::int64_t>(protocol.replications)));
    protocol.base_seed = static_cast<std::uint64_t>(
        flags.get_int("seed", static_cast<std::int64_t>(protocol.base_seed)));
    if (const auto threads = flags.get_int("threads", 0); threads > 0) {
      exec::ThreadPool::configure_shared(static_cast<std::size_t>(threads));
    }

    std::string label;
    const auto make_detector = parse_detector(flags, label);
    const auto system = parse_system(flags);
    const auto loads = flags.get_double_list("loads", harness::default_load_grid());

    // The harness drives Poisson arrivals; alternative processes route
    // through a custom run since they need per-replication instances.
    const std::string arrival = flags.get("arrival").value_or("poisson");
    REJUV_EXPECT(arrival == "poisson" || arrival == "mmpp" || arrival == "periodic",
                 "unknown --arrival: " + arrival);

    // Observability: --trace=FILE streams every event to a JSONL (or CSV)
    // file; --metrics dumps the registry at the end. Tracing pins the run to
    // one thread (the tracer is single-writer), which the per-load loop
    // below already is.
    std::ofstream trace_file;
    std::unique_ptr<obs::TraceSink> trace_sink;
    obs::Tracer tracer;
    if (const auto trace_path = flags.get("trace")) {
      trace_file.open(*trace_path);
      REJUV_EXPECT(trace_file.is_open(), "cannot open --trace file: " + *trace_path);
      if (ends_with(*trace_path, ".csv")) {
        trace_sink = std::make_unique<obs::CsvSink>(trace_file);
      } else {
        trace_sink = std::make_unique<obs::JsonlSink>(trace_file);
      }
      tracer.set_sink(trace_sink.get());
    }
    obs::MetricsRegistry registry;
    const bool want_metrics = flags.has("metrics");
    harness::Instrumentation instruments;
    instruments.tracer = tracer.enabled() ? &tracer : nullptr;
    instruments.metrics = want_metrics ? &registry : nullptr;

    common::Table table({"load_cpus", "avg_rt", "max_rt", "loss", "rejuvenations", "gcs"});
    for (const double load : loads) {
      harness::PointResult point;
      if (arrival == "poisson") {
        point = harness::run_custom_point(make_detector, system, load, protocol, instruments);
      } else {
        // One replication with the requested process (common random numbers
        // across loads via the fixed seed).
        model::EcommerceConfig config = system;
        config.arrival_rate = load * config.service_rate;
        common::RngStream arrival_rng(protocol.base_seed, 0);
        common::RngStream service_rng(protocol.base_seed, 1);
        sim::Simulator simulator;
        model::EcommerceSystem ecommerce(simulator, config, arrival_rng, service_rng);
        if (arrival == "mmpp") {
          ecommerce.set_arrival_process(std::make_unique<workload::MmppProcess>(
              config.arrival_rate, flags.get_double("burst-rate", 2.0 * config.arrival_rate),
              flags.get_double("normal-duration", 300.0),
              flags.get_double("burst-duration", 30.0)));
        } else {
          ecommerce.set_arrival_process(std::make_unique<workload::PeriodicProcess>(
              config.arrival_rate, flags.get_double("amplitude", 0.5),
              flags.get_double("period", 3600.0)));
        }
        core::RejuvenationController controller(make_detector());
        ecommerce.set_decision([&controller](double rt) { return controller.observe(rt); });
        if (instruments.tracer != nullptr) {
          tracer.set_time(0.0);
          tracer.run_start(controller.detector_snapshot().algorithm + " on " + arrival, load, 0,
                           protocol.base_seed);
          ecommerce.set_tracer(&tracer);
          controller.set_tracer(&tracer);
        }
        if (instruments.metrics != nullptr) {
          simulator.set_metrics(&registry);
          ecommerce.set_metrics(&registry);
          controller.set_metrics(&registry);
        }
        ecommerce.run_transactions(protocol.transactions_per_replication);
        const auto& m = ecommerce.metrics();
        if (instruments.tracer != nullptr) {
          tracer.set_time(simulator.now());
          tracer.run_end(m.completed);
          tracer.flush();
        }
        point.offered_load_cpus = load;
        point.avg_response_time = m.response_time.mean();
        point.max_response_time = m.response_time.count() > 0 ? m.response_time.max() : 0.0;
        point.loss_fraction = m.loss_fraction();
        point.completed = m.completed;
        point.lost = m.lost();
        point.rejuvenations = m.rejuvenation_count;
        point.gc_count = m.gc_count;
      }
      table.add_row({common::format_double(point.offered_load_cpus, 2),
                     common::format_double(point.avg_response_time, 3),
                     common::format_double(point.max_response_time, 1),
                     common::format_double(point.loss_fraction, 6),
                     std::to_string(point.rejuvenations), std::to_string(point.gc_count)});
    }

    common::print_table(std::cout, label + " on " + arrival + " arrivals", table);
    if (const auto csv_path = flags.get("csv")) {
      std::ofstream csv_file(*csv_path);
      REJUV_EXPECT(csv_file.is_open(), "cannot open --csv file: " + *csv_path);
      csv_file << table.to_csv();
    }
    if (tracer.enabled()) {
      tracer.flush();
      std::cerr << "trace: " << tracer.events_emitted() << " events -> " << *flags.get("trace")
                << "\n";
    }
    if (want_metrics) registry.write(std::cerr);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "rejuv_sim: " << error.what() << "\n"
              << "see the header of tools/rejuv_sim.cpp for usage\n";
    return 1;
  }
}
