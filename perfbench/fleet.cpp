#include "fleet.h"

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/controller.h"
#include "core/factory.h"
#include "core/spec.h"
#include "harness/experiment.h"
#include "harness/paper.h"
#include "model/ecommerce.h"
#include "monitor/checkpoint.h"
#include "monitor/fleet.h"
#include "monitor/wire.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace perfbench {

namespace mon = rejuv::monitor;
namespace core = rejuv::core;

namespace {

// Why each workload exists, and why these rates, is in perfbench/README.md.
const FleetSpec kSpecs[] = {
    {"fleet-wide", "SRAA(n=2,K=5,D=3)", false, 50000, 2.5e5, 0, 0, 8, 1, 1.0e7, 0.05},
    {"fleet-durable", "SRAA(n=2,K=5,D=3)", false, 10000, 5.0e4, 4, 8, 4, 3, 3.5e5, 0.1},
    {"paper-stream", "SARAA(n=2,K=5,D=3)", true, 1, 2.0e5, 0, 0, 8, 3, 5.0e6, 0.0},
};

constexpr std::uint32_t kFleetBlocks = 16;      ///< pre-encoded rounds per fleet
constexpr std::size_t kFrameSize = 2 + mon::wire::kObservationPayloadSize;
constexpr std::uint32_t kTextBlock = 4096;      ///< recorded values per text block
constexpr std::uint32_t kTextBlocks = 16;       ///< 65536 recorded values
constexpr double kPaperLoad = 9.5;              ///< offered load in CPUs (GC aging)
constexpr std::uint64_t kChunkBytes = 16384;    ///< unthrottled write size
constexpr double kWakeGap_s = 25e-6;            ///< paced generator: minimum sleep
constexpr double kSegment_s = 0.1;              ///< throughput segment length
constexpr std::uint32_t kIdMultiplier = 0x9E3779B1u;  // odd, so a bijection mod 2^32

std::uint32_t inverse_multiplier() {
  std::uint32_t x = kIdMultiplier;  // Newton: doubles the correct low bits each step
  for (int i = 0; i < 5; ++i) x *= 2u - kIdMultiplier * x;
  return x;
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes global observations [g, g + count) (count must not cross the
/// period end) in one write.
bool write_range(int fd, const FleetInput& input, std::uint64_t g, std::uint64_t count) {
  const std::size_t s = input.slot(g);
  const std::uint64_t begin = s == 0 ? 0 : input.end_offset(s - 1);
  const std::uint64_t end = input.end_offset(s + count - 1);
  return write_all(fd, input.bytes.data() + begin, end - begin);
}

std::vector<double> record_paper_series(std::uint64_t seed, std::size_t count) {
  rejuv::model::EcommerceConfig config = rejuv::harness::paper_system();
  config.arrival_rate = kPaperLoad * config.service_rate;
  std::vector<double> series;
  series.reserve(count);
  for (std::uint64_t txns = count * 2; series.size() < count; txns *= 2) {
    series.clear();
    rejuv::common::RngStream arrivals(seed, 0);
    rejuv::common::RngStream service(seed, 1);
    rejuv::sim::Simulator simulator;
    rejuv::model::EcommerceSystem system(simulator, config, arrivals, service);
    // The recorded system rejuvenates as the paper's does, so the series
    // carries aging ramps and post-restart recoveries, not one collapse.
    core::RejuvenationController controller(
        core::make_detector(core::parse_spec("SARAA(n=2,K=5,D=3)")));
    system.set_decision([&controller](double rt) { return controller.observe(rt); });
    system.set_observer([&series, count](double rt) {
      if (series.size() < count) series.push_back(rt);
    });
    system.run_transactions(txns);
  }
  return series;
}

std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

/// Offline check of one session: counts and the trigger set against
/// harness::replay_trigger_indices over the same values.
std::uint64_t verify_session(const FleetSpec& spec, const FleetInput& input,
                             const SessionPlan& plan, const SessionOutcome& out) {
  std::uint64_t failed = absdiff(out.log.sent, out.processed) + out.errors;
  if (!out.log.ok) failed += 1;
  const std::uint64_t g_end = plan.g0 + out.log.sent;
  const std::uint64_t restored = spec.text ? plan.g0 : plan.g0 / input.block;
  std::vector<std::vector<std::uint64_t>> got(input.streams);
  for (const TriggerEvent& t : out.triggers) {
    const std::uint32_t i = spec.text ? (t.stream_id == kTextStreamId ? 0u : input.streams)
                                      : stream_index(t.stream_id);
    if (i >= input.streams) {
      ++failed;
      continue;
    }
    got[i].push_back(t.observation);
  }
  const core::DetectorConfig config = core::parse_spec(spec.detector);
  const rejuv::harness::DetectorFactory factory = [&config] { return core::make_detector(config); };
  for (std::uint32_t i = 0; i < input.streams; ++i) {
    const std::vector<double> series = input.series(i, g_end);
    std::vector<std::uint64_t> expected = rejuv::harness::replay_trigger_indices(factory, series);
    expected.erase(std::remove_if(expected.begin(), expected.end(),
                                  [restored](std::uint64_t obs) { return obs <= restored; }),
                   expected.end());
    std::vector<std::uint64_t>& mine = got[i];
    std::sort(mine.begin(), mine.end());
    std::vector<std::uint64_t> diff;
    std::set_symmetric_difference(expected.begin(), expected.end(), mine.begin(), mine.end(),
                                  std::back_inserter(diff));
    failed += diff.size();
  }
  return failed;
}

/// Trigger-set and end-state equality of two sessions over the same bytes.
std::uint64_t compare_sessions(const SessionOutcome& a, const SessionOutcome& b) {
  auto keys = [](const SessionOutcome& s) {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> k;
    k.reserve(s.triggers.size());
    for (const TriggerEvent& t : s.triggers) k.emplace_back(t.stream_id, t.observation);
    std::sort(k.begin(), k.end());
    return k;
  };
  const auto ka = keys(a);
  const auto kb = keys(b);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> diff;
  std::set_symmetric_difference(ka.begin(), ka.end(), kb.begin(), kb.end(),
                                std::back_inserter(diff));
  std::uint64_t failed = diff.size() + absdiff(a.end_states.size(), b.end_states.size());
  for (std::size_t i = 0; i < std::min(a.end_states.size(), b.end_states.size()); ++i) {
    if (a.end_states[i] != b.end_states[i]) ++failed;
  }
  return failed;
}

/// Decision latencies (s) of the triggers completed in the paced phase.
void paced_latencies(const FleetSpec& spec, const FleetInput& input, const SessionOutcome& out,
                     std::vector<double>& latencies) {
  const SessionLog& log = out.log;
  if (log.gp1 <= log.gp0) return;
  for (const TriggerEvent& t : out.triggers) {
    const std::uint32_t i = spec.text ? 0u : stream_index(t.stream_id);
    if (i >= input.streams) continue;
    const std::uint64_t g = input.global_index(i, t.observation);
    if (g < log.gp0 || g >= log.gp1) continue;
    const double due = log.t_paced0 + static_cast<double>(g - log.gp0) / spec.paced_rate;
    latencies.push_back(t.t - due);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Builds the journal every durable session restores: the fleet after
/// `prebuild_rounds` rounds, one shutdown record per stream.
std::string prebuild_journal(const FleetSpec& spec, const FleetInput& input) {
  reset_journal(spec, "");
  FleetSpec build = spec;
  build.checkpoint_every = 0;
  SessionPlan plan;
  plan.unthrottled_obs = (spec.prebuild_rounds - 1) * input.block;
  plan.setup_needed = input.block;
  const SessionOutcome out = run_engine(build, input, plan, false);
  if (out.processed != spec.prebuild_rounds * input.block || out.errors != 0) {
    throw std::runtime_error("journal pre-build did not consume its input");
  }
  return read_file(journal_path(spec));
}

void print_quantiles(const std::string& label, std::vector<double> values, double scale,
                     const std::string& unit) {
  std::printf("%s p50=%s%s p99=%s%s max=%s%s n=%zu\n", label.c_str(),
              num(quantile(values, 0.5) * scale).c_str(), unit.c_str(),
              num(quantile(values, 0.99) * scale).c_str(), unit.c_str(),
              num(quantile(values, 1.0) * scale).c_str(), unit.c_str(), values.size());
}

double median_rate(std::span<const SessionOutcome> sessions) {
  std::vector<double> rates;
  for (const SessionOutcome& s : sessions) {
    const std::vector<double> r = s.log.segment_rates(kSegment_s);
    rates.insert(rates.end(), r.begin(), r.end());
  }
  return median(rates);
}

}  // namespace

const FleetSpec* find_fleet_spec(const std::string& name) {
  for (const FleetSpec& spec : kSpecs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::uint32_t external_id(std::uint32_t index) { return (index + 1u) * kIdMultiplier; }

std::uint32_t stream_index(std::uint32_t id) { return id * inverse_multiplier() - 1u; }

std::uint64_t FleetInput::global_index(std::uint32_t i, std::uint64_t observation) const {
  if (streams == 1) return observation - 1;
  const std::uint64_t round = observation - 1;
  return round * block + position[static_cast<std::size_t>(round % blocks) * block + i];
}

std::uint64_t FleetInput::end_offset(std::size_t s) const {
  return ends.empty() ? (s + 1) * kFrameSize : ends[s];
}

double FleetInput::value(std::size_t s) const {
  if (!values.empty()) return values[s];
  double v = 0.0;  // frame: u16 length, u8 type, u32 stream id, f64 value
  std::memcpy(&v, bytes.data() + s * kFrameSize + 7, sizeof(v));
  return v;
}

std::vector<double> FleetInput::series(std::uint32_t i, std::uint64_t g_end) const {
  std::vector<double> out;
  if (streams == 1) {
    out.reserve(g_end);
    for (std::uint64_t g = 0; g < g_end; ++g) out.push_back(value(slot(g)));
    return out;
  }
  const std::uint64_t rounds = g_end / block;
  out.reserve(rounds);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::size_t base = static_cast<std::size_t>(r % blocks) * block;
    out.push_back(value(base + position[base + i]));
  }
  return out;
}

FleetInput make_input(const FleetSpec& spec, std::uint64_t seed) {
  FleetInput input;
  input.streams = spec.streams;
  if (spec.text) {
    input.block = kTextBlock;
    input.blocks = kTextBlocks;
    input.values = record_paper_series(seed, input.period());
    char buffer[64];
    for (const double v : input.values) {
      const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
      input.bytes.append(buffer, ptr);
      input.bytes.push_back('\n');
      input.ends.push_back(input.bytes.size());
    }
    return input;
  }
  input.block = spec.streams;
  input.blocks = kFleetBlocks;
  mon::wire::append_preamble(input.preamble);
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  // Aging streams' response times have mean 40 against the (5, 5)
  // baseline; the rest are healthy exponential(5).
  std::vector<double> mean(spec.streams);
  for (double& m : mean) m = uniform() < spec.aging_share ? 40.0 : 5.0;
  std::vector<std::uint32_t> order(spec.streams);
  input.position.resize(input.period());
  input.bytes.reserve(input.period() * kFrameSize);
  for (std::uint32_t b = 0; b < input.blocks; ++b) {
    for (std::uint32_t i = 0; i < spec.streams; ++i) order[i] = i;
    for (std::uint32_t i = spec.streams - 1; i > 0; --i) {
      std::swap(order[i], order[rng() % (i + 1)]);
    }
    for (std::uint32_t k = 0; k < spec.streams; ++k) {
      const std::uint32_t i = order[k];
      const double v = -mean[i] * std::log1p(-uniform());
      mon::wire::append_observation(input.bytes, external_id(i), v);
      input.position[static_cast<std::size_t>(b) * spec.streams + i] = k;
    }
  }
  return input;
}

std::vector<double> SessionLog::segment_rates(double window_s) const {
  std::vector<double> rates;
  if (samples.empty()) return rates;
  const auto rate = [](const Sample& a, const Sample& b) {
    return static_cast<double>(b.processed - a.processed) / (b.t - a.t);
  };
  std::vector<std::size_t> cycle_ends;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].compactions != samples[i - 1].compactions) cycle_ends.push_back(i);
  }
  if (cycle_ends.size() >= 3) {
    for (std::size_t k = 1; k < cycle_ends.size(); ++k) {
      rates.push_back(rate(samples[cycle_ends[k - 1]], samples[cycle_ends[k]]));
    }
    return rates;
  }
  Sample start = samples.front();
  for (const Sample& sample : samples) {
    if (sample.t - start.t >= window_s) {
      rates.push_back(rate(start, sample));
      start = sample;
    }
  }
  if (!rates.empty()) rates.erase(rates.begin());
  return rates;
}

void drive(int fd, const FleetInput& input, const SessionPlan& plan,
           const std::function<Progress()>& progress, SessionLog& log) {
  std::uint64_t g = plan.g0;
  const std::uint64_t chunk = std::max<std::uint64_t>(
      1, kChunkBytes * input.period() / std::max<std::size_t>(1, input.bytes.size()));
  const auto sample = [&] {
    const Progress now = progress();
    log.samples.push_back({now_s(), now.processed, now.compactions});
  };
  const auto processed = [&] { return progress().processed; };
  const auto write_to = [&](std::uint64_t target, std::uint64_t max_write) {
    while (log.ok && g < target) {
      const std::uint64_t to_period = input.period() - input.slot(g);
      const std::uint64_t n = std::min({max_write, target - g, to_period});
      if (!write_range(fd, input, g, n)) log.ok = false;
      g += n;
    }
  };
  // Waits (sleeping) until the system consumed `target` observations;
  // gives up after 30 s without progress.
  const auto wait_for = [&](std::uint64_t target, bool sampled) {
    std::uint64_t last = processed();
    double last_change = now_s();
    while (last < target) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      const std::uint64_t p = processed();
      const double t = now_s();
      if (sampled) sample();
      if (p != last) {
        last = p;
        last_change = t;
      } else if (t - last_change > 30.0) {
        log.ok = false;
        return;
      }
    }
  };

  if (!input.preamble.empty() && !write_all(fd, input.preamble.data(), input.preamble.size())) {
    log.ok = false;
  }
  // Set-up: every stream once.
  write_to(plan.g0 + input.block, chunk);
  wait_for(plan.setup_needed, false);
  log.t_setup = now_s();
  wait_for(input.block, false);

  // Unthrottled replay.
  const std::uint64_t gu0 = g;
  const double cpu0 = process_cpu_s();
  log.samples.reserve(plan.unthrottled_obs / chunk + 4096);
  sample();
  while (log.ok && g - gu0 < plan.unthrottled_obs) {
    write_to(std::min(g + chunk, gu0 + plan.unthrottled_obs), chunk);
    sample();
  }
  wait_for(g - plan.g0, true);
  log.cpu_u = process_cpu_s() - cpu0;
  log.unthrottled_obs = g - gu0;

  // Open loop at a fixed absolute rate: every observation has a due time;
  // the generator sleeps, then writes everything that has come due.
  log.gp0 = g;
  log.gp1 = g + plan.paced_obs;
  if (plan.paced_obs > 0) {
    // Sleeps this short need the timer slack (50 us by default) cut.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    log.t_paced0 = now_s() + 0.002;
    double wake = log.t_paced0;
    while (log.ok && g < log.gp1) {
      sleep_until_s(wake);
      const double t = now_s();
      const auto due_count =
          static_cast<std::uint64_t>(std::floor((t - log.t_paced0) * plan.paced_rate)) + 1;
      const std::uint64_t due = std::min(log.gp1, log.gp0 + due_count);
      if (due > g) {
        log.lateness.add(t - (log.t_paced0 + static_cast<double>(g - log.gp0) / plan.paced_rate));
        write_to(due, due - g);
      }
      wake = std::max(t + kWakeGap_s,
                      log.t_paced0 + static_cast<double>(g - log.gp0) / plan.paced_rate);
    }
  }
  log.sent = g - plan.g0;
  ::close(fd);
}

std::pair<int, int> open_pipe() {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe() failed");
  ::fcntl(fds[1], F_SETPIPE_SZ, 1 << 20);
  return {fds[0], fds[1]};
}

std::string journal_path(const FleetSpec& spec) {
  return journal_dir() + "/journal-" + spec.name + ".jsonl";
}

void remove_journal(const FleetSpec& spec) {
  const std::string path = journal_path(spec);
  std::remove(path.c_str());
  for (int j = 1; j < 8; ++j) std::remove((path + "." + std::to_string(j)).c_str());
  std::remove((path + ".compact.tmp").c_str());
}

void reset_journal(const FleetSpec& spec, const std::string& bytes) {
  remove_journal(spec);
  std::ofstream out(journal_path(spec), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string end_state(const std::string& spec, std::uint32_t dense, std::uint32_t stream_id,
                      const core::ControllerState& state) {
  mon::ShardCheckpoint record;
  record.spec = spec;
  record.shard = dense;
  record.stream_id = stream_id;
  record.controller = state;
  return mon::to_json(record);
}

SessionOutcome run_engine(const FleetSpec& spec, const FleetInput& input, const SessionPlan& plan,
                          bool keep_states) {
  const auto [read_fd, write_fd] = open_pipe();
  mon::FleetConfig config;
  config.detector = core::parse_spec(spec.detector);
  config.listen = false;
  config.input_fds = {read_fd};
  if (spec.prebuild_rounds > 0) {
    config.checkpoint_path = journal_path(spec);
    config.checkpoint_every = spec.checkpoint_every;
  }
  SessionOutcome out;
  out.triggers.reserve(1 << 14);
  rejuv::obs::MetricsRegistry registry;
  out.log.t_start = now_s();
  mon::FleetMonitor fleet(config);
  fleet.set_metrics(&registry);
  const rejuv::obs::Counter& processed = registry.counter("monitor.fleet.processed");
  const rejuv::obs::Counter& compactions = registry.counter("monitor.fleet.compactions");
  fleet.set_action_callback([&out](const mon::FleetAction& action) {
    out.triggers.push_back({action.stream_id, action.observation, now_s()});
  });
  std::thread generator([&, fd = write_fd] {
    drive(fd, input, plan, [&] { return Progress{processed.value(), compactions.value()}; },
          out.log);
  });
  const mon::FleetStats stats = fleet.run();
  generator.join();
  out.processed = stats.processed;
  out.errors = stats.dropped + stats.streams_rejected + stats.malformed_lines +
               stats.protocol_errors + absdiff(stats.observations, stats.processed);
  if (keep_states) {
    const std::string name = core::describe(config.detector);
    const mon::StreamTable& table = fleet.streams();
    for (std::uint32_t dense = 0; dense < table.size(); ++dense) {
      out.end_states.push_back(end_state(
          name, dense, table.external_id(dense),
          table.controller(table.shard_of(dense)).save_state(table.lane_of(dense))));
    }
  }
  return out;
}

Result run_fleet_workload(const FleetSpec& spec, std::uint64_t seed, double seconds, bool trace) {
  const FleetInput input = make_input(spec, seed);
  const std::string journal = spec.prebuild_rounds > 0 ? prebuild_journal(spec, input) : "";
  SessionPlan base;
  base.g0 = spec.prebuild_rounds * input.block;
  base.setup_needed = spec.text ? 1 : input.block;
  base.paced_rate = spec.paced_rate;
  const auto blocks_for = [&](double duration_s, double rate) {
    const auto blocks = static_cast<std::uint64_t>(
        std::ceil(duration_s * rate / static_cast<double>(input.block)));
    return std::max<std::uint64_t>(1, blocks) * input.block;
  };
  Result result;

  if (!trace) {
    // Set-up-only sessions are interleaved with the measured ones, so the
    // set-up median samples the whole run.
    SessionPlan measured = base;
    measured.unthrottled_obs = blocks_for(0.4 * seconds / spec.sessions, spec.nominal_rate);
    measured.paced_obs = blocks_for(0.45 * seconds / spec.sessions, spec.paced_rate);
    std::vector<SessionPlan> plans(spec.setup_sessions, base);
    for (std::uint32_t k = 0; k < spec.sessions; ++k) {
      plans.push_back(measured);
      plans.insert(plans.end(), spec.setup_sessions, base);
    }
    std::vector<SessionOutcome> sessions;
    for (const SessionPlan& plan : plans) {
      if (!journal.empty()) reset_journal(spec, journal);
      sessions.push_back(run_engine(spec, input, plan, false));
    }
    const double rss = peak_rss_mb();

    std::vector<double> setup, cpu, latency, session_p50;
    LogHistogram lateness;
    for (std::size_t k = 0; k < sessions.size(); ++k) {
      const SessionOutcome& s = sessions[k];
      setup.push_back(s.log.setup_s());
      if (plans[k].unthrottled_obs == 0) continue;
      cpu.push_back(s.log.cpu_u / static_cast<double>(s.log.unthrottled_obs) * 1e6);
      std::vector<double> mine;
      paced_latencies(spec, input, s, mine);
      latency.insert(latency.end(), mine.begin(), mine.end());
      if (!mine.empty()) session_p50.push_back(median(mine));
      const std::vector<double> rates = s.log.segment_rates(kSegment_s);
      std::printf("session %zu: sent=%llu rate=%s segments=%zu cpu_us_per_op=%s triggers=%zu "
                  "paced_obs=%llu paced_triggers=%zu latency_p50_us=%s\n",
                  k, static_cast<unsigned long long>(s.log.sent), num(median(rates)).c_str(),
                  rates.size(), num(cpu.back()).c_str(), s.triggers.size(),
                  static_cast<unsigned long long>(s.log.gp1 - s.log.gp0), mine.size(),
                  num(median(mine) * 1e6).c_str());
      lateness.merge(s.log.lateness);
    }
    result.add("throughput_ops_per_s", median_rate(sessions), "1/s");
    // The median of the sessions' p50s: one session that the host stalls
    // does not move it.
    result.add("decision_latency_p50_us", median(session_p50) * 1e6, "us");
    result.add("cpu_us_per_op", median(cpu), "us");
    result.add("peak_rss_mb", rss, "MB");
    result.add("setup_s", median(setup), "s");
    print_quantiles("decision_latency", latency, 1e6, "us");
    std::printf("generator_lateness p50=%sus p99=%sus max=%sus n=%llu\n",
                num(lateness.quantile(0.5) * 1e6).c_str(),
                num(lateness.quantile(0.99) * 1e6).c_str(), num(lateness.max() * 1e6).c_str(),
                static_cast<unsigned long long>(lateness.count()));

    for (std::size_t k = 0; k < sessions.size(); ++k) {
      result.attempted += sessions[k].log.sent;
      result.failed += verify_session(spec, input, plans[k], sessions[k]);
    }
    result.correct = result.failed == 0;
    if (!journal.empty()) remove_journal(spec);
    return result;
  }

  // Traced run: the real engine once, then the replica on the very same
  // bytes untraced and traced.
  SessionPlan plan = base;
  plan.unthrottled_obs = blocks_for(0.2 * seconds, spec.nominal_rate);
  plan.paced_obs = blocks_for(0.1 * seconds, spec.paced_rate);
  if (!journal.empty()) reset_journal(spec, journal);
  const SessionOutcome engine = run_engine(spec, input, plan, true);
  ReplicaCounters plain_counters, counters;
  if (!journal.empty()) reset_journal(spec, journal);
  const SessionOutcome plain = run_replica(spec, input, plan, true, nullptr, plain_counters);
  ReplicaRecorders spans;
  if (!journal.empty()) reset_journal(spec, journal);
  const SessionOutcome traced = run_replica(spec, input, plan, true, &spans, counters);

  const double engine_rate = median_rate(std::span(&engine, 1));
  const double plain_rate = median_rate(std::span(&plain, 1));
  const double traced_rate = median_rate(std::span(&traced, 1));
  std::printf("throughput engine=%s replica=%s replica_traced=%s ops/s\n",
              num(engine_rate).c_str(), num(plain_rate).c_str(), num(traced_rate).c_str());

  result.attempted = engine.log.sent + plain.log.sent + traced.log.sent;
  result.failed = verify_session(spec, input, plan, engine) + plain.errors + traced.errors +
                  absdiff(plain.log.sent, plain.processed) +
                  absdiff(traced.log.sent, traced.processed);
  const std::uint64_t mismatches =
      compare_sessions(engine, plain) + compare_sessions(engine, traced);
  std::printf("replica_equivalence mismatches=%llu streams=%zu triggers=%zu\n",
              static_cast<unsigned long long>(mismatches), engine.end_states.size(),
              engine.triggers.size());
  result.failed += mismatches;

  // The layer spans must account for each traced thread's busy time: the
  // self time of the spans that only group layer calls, plus time outside
  // any span, may be at most kUnattributedTolerance of it.
  constexpr double kUnattributedTolerance = 0.05;
  const auto ids = [](std::initializer_list<const char*> names) {
    std::vector<std::uint16_t> out;
    for (const char* name : names) out.push_back(name_id(name));
    return out;
  };
  const std::vector<std::uint16_t> containers =
      ids({"fleet.on_readable", "fleet.route", "fleet.batch", "checkpoint.shutdown"});
  const std::vector<std::uint16_t> idle =
      ids({"event_loop.poll", "worker.idle", "fleet.drain_wait"});
  for (const SpanRecorder* r : {&spans.ingest, &spans.worker}) {
    const Attribution a = attribution(*r, containers, idle);
    std::printf("span_coverage thread=%s busy_s=%s unattributed_s=%s share=%s\n",
                r->thread_name().c_str(), num(a.busy_s).c_str(), num(a.unattributed_s).c_str(),
                num(a.share()).c_str());
    if (a.share() > kUnattributedTolerance) ++result.failed;
  }
  write_spans(out_dir() + "/spans-" + spec.name + ".jsonl", {&spans.ingest, &spans.worker});

  const SpanTotals t = totals({&spans.ingest, &spans.worker});
  const SpanTotals on_worker = totals({&spans.worker});
  const auto total = [&t](const char* name) { return t.total(name_id(name)); };
  const auto self = [&t](const char* name) { return t.self(name_id(name)); };
  const auto per = [](double amount, double count) { return count > 0 ? amount / count : 0.0; };
  const auto n = [](std::uint64_t count) { return static_cast<double>(count); };
  const ReplicaCounters& c = counters;
  const double records = n(c.records);
  const double popped = n(c.popped);
  const double worker_wall = n(static_cast<std::uint64_t>(spans.worker.last_ns() -
                                                          spans.worker.first_ns())) * 1e-9;
  const double feed_ns = per(total("wire.feed") * 1e9, records);
  const double lanes_s = total("bank.observe_lanes");
  std::uint64_t journal_end = 0;
  if (!journal.empty()) {
    struct stat st {};
    if (::stat(journal_path(spec).c_str(), &st) == 0) {
      journal_end = static_cast<std::uint64_t>(st.st_size);
    }
    remove_journal(spec);
  }
  const std::uint64_t appended =
      c.journal_bytes + journal_end - std::min<std::uint64_t>(journal_end, journal.size());

  result.add("monitor.event_loop.read_calls", n(c.read_calls), "count");
  result.add("monitor.event_loop.bytes_per_read", per(n(c.read_bytes), n(c.read_calls)), "B");
  result.add("monitor.event_loop.idle_s", self("event_loop.poll"), "s");
  result.add("monitor.wire.binary_ns_per_op", spec.text ? 0.0 : feed_ns, "ns");
  result.add("monitor.wire.text_ns_per_op", spec.text ? feed_ns : 0.0, "ns");
  result.add("monitor.wire.records_per_feed", per(records, n(c.feeds)), "count");
  result.add("monitor.stream_table.acquire_ns", per(total("stream_table.acquire") * 1e9, records),
             "ns");
  result.add("monitor.stream_table.streams", n(c.streams), "count");
  result.add("monitor.fleet.route_ns_per_op", per(total("fleet.route") * 1e9, records), "ns");
  // The fleet layer's own share of a worker batch: everything but the bank,
  // the journal appends and the tracing-only lane-fill count.
  const double batch_own_s =
      on_worker.total(name_id("fleet.batch")) - lanes_s -
      on_worker.total(name_id("checkpoint.append")) - on_worker.total(name_id("trace.row_fill"));
  result.add("monitor.fleet.batch_self_us_per_call", per(batch_own_s * 1e6, n(c.batches)), "us");
  result.add("monitor.spsc_queue.push_ns", per(total("spsc_queue.push") * 1e9, n(c.pushes)), "ns");
  result.add("monitor.spsc_queue.full_wait_s", total("spsc_queue.full_wait"), "s");
  result.add("monitor.spsc_queue.empty_polls", n(c.empty_polls), "count");
  result.add("monitor.spsc_queue.items_per_pop", per(popped, n(c.pops - c.empty_polls)), "count");
  result.add("core.bank.observe_lanes_us_per_call", per(lanes_s * 1e6, n(c.batches)), "us");
  result.add("core.bank.observe_lanes_ns_per_op", per(lanes_s * 1e9, popped), "ns");
  result.add("core.bank.items_per_call", per(popped, n(c.batches)), "count");
  result.add("core.bank.lanes", n(c.lanes), "count");
  result.add("core.bank.busy_frac", per(lanes_s, worker_wall), "fraction");
  result.add("core.bank.row_kernel_share", per(n(c.row_ops), popped), "fraction");
  result.add("monitor.checkpoint.append_us",
             per(total("checkpoint.append") * 1e6, n(c.checkpoint_records)), "us");
  result.add("monitor.checkpoint.records", n(c.checkpoint_records), "count");
  result.add("monitor.checkpoint.bytes_per_record", per(n(appended), n(c.checkpoint_records)), "B");
  result.add("monitor.checkpoint.compactions", n(c.compactions), "count");
  result.add("monitor.checkpoint.compact_s", c.compact_s, "s");
  // Shutdown records are written on the ingest thread after the worker ends.
  result.add("monitor.checkpoint.busy_frac",
             per(on_worker.total(name_id("checkpoint.append")), worker_wall), "fraction");
  result.add("monitor.checkpoint.restore_s", total("checkpoint.restore"), "s");
  result.add("obs.trace_overhead_frac", plain_rate > 0 ? 1.0 - traced_rate / plain_rate : 0.0,
             "fraction");
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
