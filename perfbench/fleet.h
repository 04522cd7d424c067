// Fleet workloads: seeded pre-encoded inputs, the paced/unthrottled
// generator, the real-engine session and the traced replica of its loop.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/checkpoint.h"

namespace perfbench {

/// A named fleet workload.
struct FleetSpec {
  std::string name;
  std::string detector;            ///< spec string every stream runs
  bool text = false;               ///< text protocol (one stream) instead of binary frames
  std::uint32_t streams = 1;
  double paced_rate = 0.0;         ///< observations/s in the open-loop phase
  std::uint64_t checkpoint_every = 0;  ///< 0 = no journal
  std::uint64_t prebuild_rounds = 0;   ///< rounds already in the restored journal
  std::uint32_t sessions = 3;      ///< measured engine sessions per run
  std::uint32_t setup_sessions = 3;  ///< set-up-only sessions before and after each one
  /// Sizes the unthrottled phase: observations = nominal_rate x its share
  /// of --seconds. Fixed counts keep inputs, checks and memory identical
  /// from run to run; a faster build just finishes sooner.
  double nominal_rate = 0.0;
  double aging_share = 0.0;        ///< fleets: share of streams whose response times age
};

const FleetSpec* find_fleet_spec(const std::string& name);

/// Pre-encoded cyclic input: `blocks` blocks of `block` observations each.
/// Global observation g lives in block (g / block) % blocks. For a fleet a
/// block is one round (every stream once, in a seeded order); for the
/// single text stream it is a slice of the recorded response-time series.
struct FleetInput {
  std::uint32_t block = 0;
  std::uint32_t blocks = 0;
  std::uint32_t streams = 1;
  std::string preamble;                ///< binary connection preamble ("" for text)
  std::string bytes;                   ///< every block's encoded observations
  /// Text only (binary frames have a fixed size and carry their values):
  /// end offset in `bytes` and value of each observation.
  std::vector<std::uint64_t> ends;
  std::vector<double> values;
  /// Fleets: position[b * block + i] = slot of stream i inside block b.
  std::vector<std::uint32_t> position;

  std::uint64_t period() const noexcept { return std::uint64_t{block} * blocks; }
  std::size_t slot(std::uint64_t g) const noexcept {
    return static_cast<std::size_t>(g % period());
  }
  std::uint64_t end_offset(std::size_t slot) const;
  double value(std::size_t slot) const;
  /// Global index of stream i's observation number `observation` (1-based).
  std::uint64_t global_index(std::uint32_t i, std::uint64_t observation) const;
  /// The series stream i sees over global observations [0, g_end).
  std::vector<double> series(std::uint32_t i, std::uint64_t g_end) const;
};

/// External (wire) id of stream index i: a bijection onto sparse u32 ids.
std::uint32_t external_id(std::uint32_t index);
/// Inverse of external_id.
std::uint32_t stream_index(std::uint32_t id);
/// Text connections carry no id; the engine names the first one 2^31.
inline constexpr std::uint32_t kTextStreamId = 0x80000000u;

FleetInput make_input(const FleetSpec& spec, std::uint64_t seed);

/// What the generator does in one session, in global observation indices.
struct SessionPlan {
  std::uint64_t g0 = 0;                 ///< first observation written
  std::uint64_t unthrottled_obs = 0;    ///< unthrottled observations (block multiple)
  std::uint64_t paced_obs = 0;          ///< open-loop observations (block multiple)
  double paced_rate = 0.0;
  std::uint64_t setup_needed = 1;       ///< processed count that ends set-up
};

/// What the generator saw.
struct SessionLog {
  bool ok = true;
  double t_start = 0.0;   ///< set by the caller before engine construction
  double t_setup = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t unthrottled_obs = 0;
  double cpu_u = 0.0;                   ///< process CPU s over the unthrottled phase
  struct Sample {
    double t = 0.0;
    std::uint64_t processed = 0;
    std::uint64_t compactions = 0;
  };
  std::vector<Sample> samples;          ///< unthrottled phase, after every write
  double t_paced0 = 0.0;
  std::uint64_t gp0 = 0, gp1 = 0;
  LogHistogram lateness;                ///< paced writes: seconds behind schedule

  double setup_s() const { return t_setup - t_start; }
  /// In-run throughput segments of the unthrottled phase. A journal that
  /// compacts stalls its worker for a whole rewrite, so with compactions
  /// the segments are whole compaction cycles; otherwise consecutive
  /// ~`window_s` windows, the first dropped as warm-up.
  std::vector<double> segment_rates(double window_s) const;
};

/// How far the system under test has got: observations consumed and
/// journal compactions finished.
struct Progress {
  std::uint64_t processed = 0;
  std::uint64_t compactions = 0;
};

/// Writes the plan's observations to `fd` (then closes it), polling
/// `progress` between writes.
void drive(int fd, const FleetInput& input, const SessionPlan& plan,
           const std::function<Progress()>& progress, SessionLog& log);

/// One emitted decision as the action callback saw it.
struct TriggerEvent {
  std::uint32_t stream_id = 0;
  std::uint64_t observation = 0;
  double t = 0.0;
};

/// Outcome of one engine or replica session.
struct SessionOutcome {
  SessionLog log;
  std::vector<TriggerEvent> triggers;
  std::uint64_t processed = 0;
  std::uint64_t errors = 0;        ///< dropped + rejected + malformed + protocol errors
  std::vector<std::string> end_states;  ///< per dense id (only when requested)
};

/// Opens a pipe with a 1 MiB buffer; {read, write}.
std::pair<int, int> open_pipe();
/// Journal path used by durable sessions, and the pre-built journal bytes.
std::string journal_path(const FleetSpec& spec);
void reset_journal(const FleetSpec& spec, const std::string& bytes);
void remove_journal(const FleetSpec& spec);
/// One stream's controller end state as a journal line (for equality checks).
std::string end_state(const std::string& spec, std::uint32_t dense, std::uint32_t stream_id,
                      const rejuv::core::ControllerState& state);

/// Layer counters the traced replica collects beside its spans.
struct ReplicaCounters {
  std::uint64_t read_calls = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t feeds = 0;
  std::uint64_t records = 0;
  std::uint64_t pushes = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t pops = 0;
  std::uint64_t popped = 0;
  std::uint64_t batches = 0;
  std::uint64_t row_ops = 0;           ///< ops advanced through the row kernel
  std::uint64_t lanes = 0;
  std::uint64_t streams = 0;
  std::uint64_t checkpoint_records = 0;
  std::uint64_t journal_bytes = 0;     ///< bytes appended (compaction-adjusted)
  std::uint64_t compactions = 0;
  double compact_s = 0.0;
};

struct ReplicaRecorders {
  SpanRecorder ingest{"ingest"};
  SpanRecorder worker{"worker"};
};

/// The fleet engine's loop rebuilt from the public monitor APIs, with spans
/// around every layer call when `spans` is non-null.
SessionOutcome run_replica(const FleetSpec& spec, const FleetInput& input,
                           const SessionPlan& plan, bool keep_states, ReplicaRecorders* spans,
                           ReplicaCounters& counters);

/// The real FleetMonitor over the same generator.
SessionOutcome run_engine(const FleetSpec& spec, const FleetInput& input, const SessionPlan& plan,
                          bool keep_states);

/// Runs one fleet workload (untraced end-to-end metrics, or the traced
/// per-layer breakdown).
Result run_fleet_workload(const FleetSpec& spec, std::uint64_t seed, double seconds, bool trace);

}  // namespace perfbench
