// The fleet engine's ingest and worker loops rebuilt from the monitor's
// public pieces (EventLoop, wire::StreamDecoder, StreamTable, SpscQueue,
// core::BankController, CheckpointWriter), so spans can sit at every layer
// boundary. FleetMonitor::run() exposes none. The loops follow
// src/monitor/fleet.cpp step for step; run_fleet_workload checks that the
// replica's triggers and end states equal the engine's on the same bytes.
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/factory.h"
#include "core/spec.h"
#include "fleet.h"
#include "monitor/checkpoint.h"
#include "monitor/event_loop.h"
#include "monitor/fleet.h"
#include "monitor/spsc_queue.h"
#include "monitor/stream_table.h"
#include "monitor/wire.h"

namespace perfbench {

namespace mon = rejuv::monitor;
namespace core = rejuv::core;

namespace {

// The engine's private constants (src/monitor/fleet.cpp); its tunables come
// from a default-constructed FleetConfig below.
constexpr std::size_t kDrainBatch = 4096;
constexpr int kReadsPerEvent = 8;
constexpr std::size_t kRecvBuffer = 64 * 1024;

struct Item {
  std::uint32_t lane = 0;
  double value = 0.0;
};

struct Names {
  std::uint16_t poll = name_id("event_loop.poll");
  std::uint16_t readable = name_id("fleet.on_readable");
  std::uint16_t read = name_id("event_loop.read");
  std::uint16_t feed = name_id("wire.feed");
  std::uint16_t route = name_id("fleet.route");
  std::uint16_t acquire = name_id("stream_table.acquire");
  std::uint16_t push = name_id("spsc_queue.push");
  std::uint16_t full_wait = name_id("spsc_queue.full_wait");
  std::uint16_t pop = name_id("spsc_queue.pop");
  std::uint16_t idle = name_id("worker.idle");
  std::uint16_t drain_wait = name_id("fleet.drain_wait");
  std::uint16_t batch = name_id("fleet.batch");
  std::uint16_t gather = name_id("fleet.gather");
  std::uint16_t row_fill = name_id("trace.row_fill");
  std::uint16_t lanes = name_id("bank.observe_lanes");
  std::uint16_t emit = name_id("fleet.emit");
  std::uint16_t checkpoint_scan = name_id("fleet.checkpoint_scan");
  std::uint16_t append = name_id("checkpoint.append");
  std::uint16_t restore = name_id("checkpoint.restore");
  std::uint16_t shutdown = name_id("checkpoint.shutdown");
};

}  // namespace

SessionOutcome run_replica(const FleetSpec& spec, const FleetInput& input,
                           const SessionPlan& plan, bool keep_states, ReplicaRecorders* spans,
                           ReplicaCounters& counters) {
  static const Names names;
  SpanRecorder* in_spans = spans != nullptr ? &spans->ingest : nullptr;
  SpanRecorder* wk_spans = spans != nullptr ? &spans->worker : nullptr;
  const core::DetectorConfig config = core::parse_spec(spec.detector);
  const std::string spec_name = core::describe(config);
  const bool durable = spec.prebuild_rounds > 0;
  const auto [read_fd, write_fd] = open_pipe();

  SessionOutcome out;
  out.triggers.reserve(1 << 14);
  std::atomic<std::uint64_t> processed{0};
  std::atomic<std::uint64_t> compactions{0};
  out.log.t_start = now_s();

  // --- Construction (the engine's constructor + the start of run()) ---
  const mon::FleetConfig defaults;
  mon::StreamTable table(config, 1, defaults.max_streams, defaults.cooldown_observations);
  mon::SpscQueue<Item> queue(defaults.queue_capacity);
  std::vector<std::uint64_t> seen_triggers, last_checkpoint;
  std::unique_ptr<mon::CheckpointWriter> writer;
  if (durable) {
    writer = std::make_unique<mon::CheckpointWriter>(journal_path(spec),
                                                     defaults.journal_compact_bytes);
    writer->set_compaction_hook([&](std::uint64_t, std::uint64_t before, std::uint64_t after) {
      compactions.fetch_add(1, std::memory_order_release);
      counters.journal_bytes += before - after;
    });
  }
  std::uint64_t checkpoint_records = 0;
  const auto write_checkpoint = [&](std::uint32_t lane, SpanRecorder* recorder) {
    ScopedSpan span(recorder, names.append);
    const std::uint64_t compactions_before = compactions.load();
    const std::int64_t start = ns_now();
    mon::ShardCheckpoint record;
    record.spec = spec_name;
    record.shard = lane;  // one shard: dense id == lane
    record.shard_count = 1;
    record.stream_id = table.external_id(lane);
    record.controller = table.controller(0).save_state(lane);
    writer->append(record);
    last_checkpoint[lane] = record.controller.observations;
    ++checkpoint_records;
    if (compactions.load() != compactions_before) {
      counters.compact_s += static_cast<double>(ns_now() - start) * 1e-9;
    }
  };

  // Restore (the engine's restore_from_journal()).
  if (durable) {
    ScopedSpan span(in_spans, names.restore);
    std::vector<mon::ShardCheckpoint> records = mon::read_latest_checkpoints(journal_path(spec));
    std::sort(records.begin(), records.end(),
              [](const auto& a, const auto& b) { return a.shard < b.shard; });
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].shard != i || !records[i].stream_id || records[i].spec != spec_name) {
        throw std::runtime_error("replica: the journal is not a contiguous fleet journal");
      }
    }
    for (const mon::ShardCheckpoint& record : records) {
      bool created = false;
      const std::uint32_t dense = table.acquire(*record.stream_id, created);
      table.ensure_lanes(0, dense + 1);
      table.controller(0).restore_state(dense, record.controller);
      seen_triggers.resize(dense + 1, 0);
      last_checkpoint.resize(dense + 1, 0);
      seen_triggers[dense] = record.controller.trigger_indices.size();
      last_checkpoint[dense] = record.controller.observations;
    }
  }

  // --- Worker (the engine's worker_loop + process_batch) ---
  std::thread worker([&] {
    std::vector<Item> buffer(kDrainBatch);
    std::vector<std::uint32_t> lanes(kDrainBatch);
    std::vector<double> values(kDrainBatch);
    std::vector<std::uint32_t> fill;
    core::BankController& ctrl = table.controller(0);
    for (;;) {
      std::size_t n = 0;
      {
        ScopedSpan span(wk_spans, names.pop);
        n = queue.pop_batch(buffer.data(), kDrainBatch);
        ++counters.pops;
      }
      if (n == 0) {
        ++counters.empty_polls;
        if (queue.closed()) {
          ScopedSpan span(wk_spans, names.pop);
          n = queue.pop_batch(buffer.data(), kDrainBatch);
          if (n == 0) break;
        } else {
          ScopedSpan span(wk_spans, names.idle);
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          continue;
        }
      }
      ScopedSpan batch(wk_spans, names.batch);
      counters.popped += n;
      ++counters.batches;
      {
        ScopedSpan span(wk_spans, names.gather);
        std::uint32_t max_lane = 0;
        for (std::size_t i = 0; i < n; ++i) {
          lanes[i] = buffer[i].lane;
          values[i] = buffer[i].value;
          max_lane = std::max(max_lane, lanes[i]);
        }
        if (max_lane >= ctrl.lanes()) table.ensure_lanes(0, max_lane + 1);
        if (seen_triggers.size() < ctrl.lanes()) {
          seen_triggers.resize(ctrl.lanes(), 0);
          last_checkpoint.resize(ctrl.lanes(), 0);
        }
      }
      if (wk_spans != nullptr && n >= ctrl.lanes()) {
        // observe_lanes advances the prefix every lane shares through the
        // row kernel: min(per-lane count) rows of lanes() values. Tracing
        // work, so it has a span of its own that no layer metric counts.
        ScopedSpan span(wk_spans, names.row_fill);
        fill.assign(ctrl.lanes(), 0);
        for (std::size_t i = 0; i < n; ++i) ++fill[lanes[i]];
        const std::uint64_t rows = *std::min_element(fill.begin(), fill.end());
        counters.row_ops += rows * ctrl.lanes();
      }
      std::size_t new_triggers = 0;
      {
        ScopedSpan span(wk_spans, names.lanes);
        new_triggers = ctrl.observe_lanes(std::span<const std::uint32_t>(lanes.data(), n),
                                          std::span<const double>(values.data(), n));
      }
      if (new_triggers > 0) {
        ScopedSpan span(wk_spans, names.emit);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t lane = lanes[i];
          const std::vector<std::uint64_t>& indices = ctrl.trigger_indices(lane);
          while (seen_triggers[lane] < indices.size()) {
            out.triggers.push_back(
                {table.external_id(lane), indices[seen_triggers[lane]++], now_s()});
          }
        }
      }
      if (spec.checkpoint_every > 0) {
        ScopedSpan span(wk_spans, names.checkpoint_scan);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t lane = lanes[i];
          if (ctrl.observations(lane) - last_checkpoint[lane] >= spec.checkpoint_every) {
            write_checkpoint(lane, wk_spans);
          }
        }
      }
      processed.fetch_add(n, std::memory_order_release);
    }
  });

  std::thread generator([&, fd = write_fd] {
    drive(fd, input, plan,
          [&] {
            return Progress{processed.load(std::memory_order_acquire),
                            compactions.load(std::memory_order_acquire)};
          },
          out.log);
  });

  // --- Ingest (the engine's run() loop, one input connection) ---
  mon::EventLoop loop;
  mon::set_nonblocking(read_fd);
  mon::wire::StreamDecoder decoder(mon::wire::Protocol::kAuto, kTextStreamId);
  std::vector<char> recv_buffer(kRecvBuffer);
  std::vector<mon::wire::Record> decoded;
  decoded.reserve(8192);
  std::vector<std::uint32_t> routed;
  routed.reserve(8192);
  bool open = true;

  const auto route = [&] {
    ScopedSpan span(in_spans, names.route);
    routed.clear();
    {
      ScopedSpan acquire(in_spans, names.acquire);
      for (const mon::wire::Record& record : decoded) {
        bool created = false;
        const std::uint32_t dense = table.acquire(record.stream_id, created);
        if (dense == mon::StreamTable::kInvalidStream) {
          ++out.errors;
          routed.push_back(dense);
          continue;
        }
        table.count_received(dense);
        routed.push_back(table.lane_of(dense));
      }
    }
    ScopedSpan push(in_spans, names.push);
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      if (routed[i] == mon::StreamTable::kInvalidStream) continue;
      const Item item{routed[i], decoded[i].value};
      ++counters.pushes;
      if (!queue.try_push(item)) {
        ScopedSpan wait(in_spans, names.full_wait);
        do {
          std::this_thread::yield();
        } while (!queue.try_push(item));
      }
    }
    counters.records += decoded.size();
  };

  const auto close_input = [&] {
    decoded.clear();
    {
      ScopedSpan span(in_spans, names.feed);
      decoder.finish(decoded);
    }
    route();
    out.errors += decoder.malformed_lines();
    loop.remove(read_fd);
    ::close(read_fd);
    open = false;
  };

  loop.add(read_fd, EPOLLIN, [&](int fd, std::uint32_t) {
    ScopedSpan readable(in_spans, names.readable);
    for (int round = 0; round < kReadsPerEvent; ++round) {
      ssize_t n = 0;
      {
        ScopedSpan span(in_spans, names.read);
        n = ::read(fd, recv_buffer.data(), recv_buffer.size());
      }
      if (n > 0) {
        ++counters.read_calls;
        counters.read_bytes += static_cast<std::uint64_t>(n);
        decoded.clear();
        bool ok = true;
        {
          ScopedSpan span(in_spans, names.feed);
          ok = decoder.feed(recv_buffer.data(), static_cast<std::size_t>(n), decoded);
          ++counters.feeds;
        }
        route();
        if (!ok) {
          ++out.errors;
          close_input();
          return;
        }
        continue;
      }
      if (n == 0) {
        close_input();
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      ++out.errors;
      close_input();
      return;
    }
  });

  while (open) {
    ScopedSpan span(in_spans, names.poll);
    loop.poll(std::chrono::milliseconds(50));
  }
  {
    // Waiting for the worker to drain the queue, as the engine's shutdown
    // does.
    ScopedSpan span(in_spans, names.drain_wait);
    queue.close();
    worker.join();
    generator.join();
  }

  if (durable) {
    ScopedSpan span(in_spans, names.shutdown);
    for (std::uint32_t dense = 0; dense < table.size(); ++dense) write_checkpoint(dense, in_spans);
  }

  out.processed = processed.load();
  counters.streams = table.size();
  counters.lanes = table.controller(0).lanes();
  counters.checkpoint_records = checkpoint_records;
  counters.compactions = compactions.load();
  if (keep_states) {
    for (std::uint32_t dense = 0; dense < table.size(); ++dense) {
      out.end_states.push_back(end_state(spec_name, dense, table.external_id(dense),
                                         table.controller(0).save_state(dense)));
    }
  }
  return out;
}

}  // namespace perfbench
