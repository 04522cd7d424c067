// perfbench: one run of one named workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints informational lines (host fingerprint, latency tails, generator
// lateness, replica checks) and ends with one JSON line: correct, attempted,
// failed and the metrics — the end-to-end set with --trace 0, the per-layer
// set with --trace 1. perfbench/run.py builds this binary and drives it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "fleet.h"
#include "sweep.h"

namespace {

struct Named {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr Named kEndToEnd[] = {
    {"throughput_ops_per_s", "1/s"}, {"decision_latency_p50_us", "us"}, {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},           {"setup_s", "s"},
};

constexpr Named kPerLayer[] = {
    {"monitor.event_loop.read_calls", "count"},
    {"monitor.event_loop.bytes_per_read", "B"},
    {"monitor.event_loop.idle_s", "s"},
    {"monitor.wire.binary_ns_per_op", "ns"},
    {"monitor.wire.text_ns_per_op", "ns"},
    {"monitor.wire.records_per_feed", "count"},
    {"monitor.stream_table.acquire_ns", "ns"},
    {"monitor.stream_table.streams", "count"},
    {"monitor.fleet.route_ns_per_op", "ns"},
    {"monitor.fleet.batch_self_us_per_call", "us"},
    {"monitor.spsc_queue.push_ns", "ns"},
    {"monitor.spsc_queue.full_wait_s", "s"},
    {"monitor.spsc_queue.empty_polls", "count"},
    {"monitor.spsc_queue.items_per_pop", "count"},
    {"core.bank.observe_lanes_us_per_call", "us"},
    {"core.bank.observe_lanes_ns_per_op", "ns"},
    {"core.bank.items_per_call", "count"},
    {"core.bank.lanes", "count"},
    {"core.bank.busy_frac", "fraction"},
    {"core.bank.row_kernel_share", "fraction"},
    {"monitor.checkpoint.append_us", "us"},
    {"monitor.checkpoint.records", "count"},
    {"monitor.checkpoint.bytes_per_record", "B"},
    {"monitor.checkpoint.compactions", "count"},
    {"monitor.checkpoint.compact_s", "s"},
    {"monitor.checkpoint.busy_frac", "fraction"},
    {"monitor.checkpoint.restore_s", "s"},
    {"model.replication_ms_p50", "ms"},
    {"model.replications", "count"},
    {"core.detector.observe_ns", "ns"},
    {"core.detector.observations", "count"},
    {"exec.busy_frac", "fraction"},
    {"exec.tail_s", "s"},
    {"obs.trace_overhead_frac", "fraction"},
};

int usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fleet-wide|fleet-durable|paper-stream|"
               "paper-sweep --seed N --seconds S --trace 0|1\n",
               problem.c_str());
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

/// Orders the result's metrics as the named set, adding the layers a
/// workload does not touch as 0 (a per-layer metric that stays 0 there).
void conform(perfbench::Result& result, bool trace) {
  std::vector<perfbench::Metric> ordered;
  const auto place = [&](const Named& named) {
    for (const perfbench::Metric& m : result.metrics) {
      if (m.name == named.name) {
        ordered.push_back(m);
        return;
      }
    }
    ordered.push_back({named.name, 0.0, named.unit});
  };
  if (trace) {
    for (const Named& named : kPerLayer) place(named);
  } else {
    for (const Named& named : kEndToEnd) place(named);
  }
  result.metrics = std::move(ordered);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, seed)) return usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0) return usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) return usage("bad --trace " + value);
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (workload.empty() || !have_seed || seconds == 0 || trace > 1) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  const perfbench::FleetSpec* fleet = perfbench::find_fleet_spec(workload);
  if (fleet == nullptr && workload != "paper-sweep") return usage("unknown workload " + workload);

  try {
    const bool durable = fleet != nullptr && fleet->prebuild_rounds > 0;
    // The bounds were set with the journal on tmpfs; on a disk its figures
    // swing far more, so a run without tmpfs reports nothing.
    if (durable && !perfbench::mount_private_journal_tmpfs()) {
      std::fprintf(stderr,
                   "perfbench: %s needs its journal on tmpfs, but could not mount one (no "
                   "CAP_SYS_ADMIN) and the checkout is not on tmpfs\n",
                   workload.c_str());
      return 1;
    }
    perfbench::print_fingerprint(durable ? "tmpfs" : "none");
    perfbench::Result result =
        fleet != nullptr
            ? perfbench::run_fleet_workload(*fleet, seed, static_cast<double>(seconds), trace == 1)
            : perfbench::run_sweep_workload(seed, static_cast<double>(seconds), trace == 1);
    conform(result, trace == 1);
    perfbench::print_result(result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
