// Fleet-scale ingestion engine: one process, 100k+ concurrent streams.
//
// FleetMonitor is the fleet-mode counterpart of Monitor: instead of one
// Source feeding a handful of shards, a single epoll ingest thread
// (event_loop.h) multiplexes a loopback TCP listener plus any number of
// pre-opened pipe/file descriptors, decodes the binary wire protocol
// (wire.h, with per-connection text auto-detection so PR 2 clients keep
// working), interns stream ids through the StreamTable and scatters
// observations onto per-shard SPSC queues. One bank worker per shard drains
// its queue and advances tens of thousands of detector lanes per sweep
// through core::BankController::observe_lanes — the SoA scatter/gather path
// PR 8 built:
//
//   clients ──> epoll ingest ──> [spsc] ──> bank worker 0 (lanes 0,S,2S,…)
//   pipes  ──/        │     \──> [spsc] ──> bank worker 1 (lanes 1,S+1,…)
//                 StreamTable (external id -> dense id -> shard, lane)
//
// Checkpointing covers the full stream table: each record is one stream's
// ControllerState in the PR 3 JSONL format (shard = dense id, plus the
// "sid" external id key), journal files are sharded by dense-id range so a
// 100k-stream fleet spreads its records, and size-triggered compaction
// (checkpoint.h) keeps every journal bounded. A restored FleetMonitor
// re-interns streams in dense order and resumes bit-exactly.
//
// Determinism: inline_processing runs the whole engine on the calling
// thread (decode, route, advance, in poll order) — combined with
// logical_time, a fleet run over the same input bytes produces
// byte-identical traces, which the kill-and-resume acceptance test pins.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "monitor/checkpoint.h"
#include "monitor/stream_table.h"
#include "monitor/wire.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/tracer.h"

namespace rejuv::monitor {

struct FleetConfig {
  core::DetectorConfig detector;  ///< every stream runs this spec (bankable family)
  std::size_t shards = 1;
  std::size_t queue_capacity = 65536;  ///< per shard, rounded up to a power of 2
  std::uint64_t cooldown_observations = 0;
  /// false = block ingest on a full shard queue (lossless); true = drop+count.
  bool drop_when_full = false;
  std::size_t max_streams = 1 << 20;
  /// Protocol accepted on every connection. kAuto sniffs the first byte.
  wire::Protocol protocol = wire::Protocol::kAuto;

  /// Listen on 127.0.0.1:`port` (0 = ephemeral, see FleetMonitor::port()).
  bool listen = true;
  std::uint16_t port = 0;
  /// Pre-opened descriptors (pipes, files) read alongside the sockets. The
  /// engine takes ownership and closes them. Descriptors epoll cannot watch
  /// (regular files, /dev/null) are read to EOF with plain reads.
  std::vector<int> input_fds;
  /// Stop once every input fd hit EOF and every accepted connection closed
  /// (after at least one input existed). The mode for bounded runs — tests,
  /// benches, piped invocations; a long-lived server sets it false.
  bool stop_when_sources_done = true;
  /// Stop after this many routed observations (0 = unbounded).
  std::uint64_t max_observations = 0;
  std::chrono::milliseconds idle_poll{50};

  /// Checkpoint journal base path ("" = checkpointing disabled). Journal
  /// file j (dense ids [j*stride, (j+1)*stride)) lives at path for j = 0,
  /// "path.j" beyond — a 100k-stream fleet spreads records over files.
  std::string checkpoint_path;
  std::uint64_t journal_stride = 16384;  ///< streams per journal file
  /// Rewrite a journal to its live records once it exceeds this many bytes
  /// (0 = unbounded, the PR 3 behavior).
  std::uint64_t journal_compact_bytes = 16u << 20;
  /// Checkpoint a stream every N observations it consumed (0 = shutdown only).
  std::uint64_t checkpoint_every = 0;
  bool checkpoint_on_shutdown = true;

  /// Stamp trace events with logical positions instead of wall-clock.
  bool logical_time = false;
  /// Run decode + route + detector advance on the calling thread, no worker
  /// threads or queues. Deterministic event order; required for byte-stable
  /// traces.
  bool inline_processing = false;
};

/// One emitted per-stream rejuvenation decision.
struct FleetAction {
  std::uint32_t stream_id = 0;          ///< external (wire) stream id
  std::uint32_t dense_id = 0;
  std::uint64_t observation = 0;        ///< 1-based within the stream
};

struct FleetStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t accept_backoffs = 0;    ///< EMFILE/ENFILE pauses on accept
  std::uint64_t frames = 0;             ///< binary observation frames decoded
  std::uint64_t text_lines = 0;         ///< text observations decoded
  std::uint64_t malformed_lines = 0;    ///< rejected text lines
  std::uint64_t protocol_errors = 0;    ///< connections dropped for framing errors
  std::uint64_t streams = 0;            ///< distinct streams interned
  std::uint64_t streams_rejected = 0;   ///< observations refused: table full
  std::uint64_t observations = 0;       ///< routed to a shard queue
  std::uint64_t dropped = 0;            ///< backpressure losses (drop_when_full)
  std::uint64_t processed = 0;          ///< fed to detector lanes
  std::uint64_t triggers = 0;           ///< per-stream rejuvenation decisions
  std::uint64_t checkpoints = 0;        ///< journal records written
  std::uint64_t compactions = 0;        ///< journal rewrites
  std::uint64_t restored_streams = 0;   ///< streams resumed from the journal
};

class FleetMonitor {
 public:
  /// Validates the config and, in listen mode, binds the listener (so the
  /// port is known before run()). Throws std::runtime_error when the socket
  /// cannot be set up.
  explicit FleetMonitor(FleetConfig config);
  ~FleetMonitor();

  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  /// The bound listener port (resolves port 0); 0 when listen = false.
  std::uint16_t port() const noexcept { return port_; }

  /// Called on the owning shard's thread for every per-stream trigger.
  void set_action_callback(std::function<void(const FleetAction&)> callback) {
    action_callback_ = std::move(callback);
  }
  /// Streams ingest + worker events into `sink` (serialized internally).
  /// Attaching a sink routes detector advances through the traced scalar
  /// path — meant for tests and post-mortems, not the 100k-stream hot path.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }
  /// Publishes monitor.fleet.* counters (nullptr detaches).
  void set_metrics(obs::MetricsRegistry* registry) { metrics_ = registry; }

  /// Runs ingestion on the calling thread until the sources end, the
  /// observation budget is reached, or a stop is requested. Restores the
  /// stream table from the checkpoint journal first when one exists.
  FleetStats run();

  void request_stop() noexcept { stop_.store(true, std::memory_order_release); }

  /// Post-run inspection of the stream table (detector end states).
  const StreamTable& streams() const noexcept { return table_; }
  StreamTable& streams() noexcept { return table_; }

  const FleetConfig& config() const noexcept { return config_; }

 private:
  struct Connection;
  struct WorkerShard;

  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }
  void route_records(const std::vector<wire::Record>& records);
  void process_batch(WorkerShard& shard, const std::uint32_t* lanes, const double* values,
                     std::size_t count);
  void worker_loop(WorkerShard& shard);
  void drain_inline();
  void attach_lane_tracers(WorkerShard& shard, std::size_t lane_count);
  CheckpointWriter* writer_for(std::uint32_t dense);
  void write_stream_checkpoint(WorkerShard& shard, std::uint32_t lane);
  std::size_t restore_from_journal();

  FleetConfig config_;
  std::string spec_;
  StreamTable table_;
  std::function<void(const FleetAction&)> action_callback_;
  obs::TraceSink* trace_sink_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::atomic<bool> stop_{false};

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool inputs_claimed_ = false;  ///< config_.input_fds ownership passed to run()

  std::unique_ptr<obs::TraceSink> locked_sink_;
  obs::Tracer ingest_tracer_;
  std::chrono::steady_clock::time_point start_time_{};
  /// Default stream ids handed to text-protocol connections (one legacy
  /// text connection = one stream; ids count up from 2^31 so they stay out
  /// of the way of binary clients using small ids).
  std::uint32_t next_text_id_ = 0x80000000u;

  struct {
    obs::Counter* connections = nullptr;
    obs::Counter* frames = nullptr;
    obs::Counter* lines = nullptr;
    obs::Counter* malformed = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* streams = nullptr;
    obs::Counter* observations = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* processed = nullptr;
    obs::Counter* triggers = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Counter* accept_backoffs = nullptr;
  } counters_;

  std::vector<std::unique_ptr<WorkerShard>> workers_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;

  std::mutex writers_mutex_;
  std::vector<std::unique_ptr<CheckpointWriter>> writers_;
  std::mutex compact_mutex_;
  obs::Tracer compaction_tracer_;
  std::atomic<std::uint64_t> compactions_{0};

  FleetStats stats_;
};

}  // namespace rejuv::monitor
