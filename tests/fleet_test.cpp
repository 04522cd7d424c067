// Fleet ingestion engine suite: event-loop dispatch, stream-table interning
// and routing, end-to-end binary ingestion pinned against a sequentially-fed
// bank twin, legacy text-client compatibility, bit-exact kill-and-resume
// through the sharded checkpoint journal, size-triggered journal compaction,
// input from descriptors epoll cannot watch (regular files, /dev/null), and
// the TcpSource descriptor-exhaustion regression.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bank.h"
#include "core/factory.h"
#include "core/registry.h"
#include "monitor/checkpoint.h"
#include "monitor/event_loop.h"
#include "monitor/fleet.h"
#include "monitor/source.h"
#include "monitor/stream_table.h"
#include "monitor/wire.h"
#include "obs/sink.h"

namespace rejuv::monitor {
namespace {

using std::chrono::milliseconds;

core::DetectorConfig fast_sraa() {
  core::DetectorConfig config("SRAA");
  config.set("n", 2).set("K", 2).set("D", 1);
  return config;
}

/// Deterministic per-stream value against the default muX = sigmaX = 5
/// baseline: every fifth stream is persistently slow (each window average
/// exceeds every bucket target, so the cascade climbs to a trigger in 8
/// observations), the rest idle below target with isolated bursts that
/// exercise the de-escalation path.
double stream_value(std::uint32_t stream, std::uint64_t index) {
  const double base = 1.0 + 0.01 * static_cast<double>((stream * 7 + index * 13) % 23);
  if (stream % 5 == 0) return base + 40.0;
  if ((stream + index) % 11 == 0) return base + 40.0;
  return base;
}

std::string encode_records(const std::vector<wire::Record>& records) {
  std::string bytes;
  wire::append_preamble(bytes);
  for (const wire::Record& record : records) {
    wire::append_observation(bytes, record.stream_id, record.value);
  }
  return bytes;
}

/// Read end of a pipe being fed `bytes` by a writer thread (pipes hold only
/// ~64 KiB, so multi-megabyte fleet inputs must stream in).
int pipe_feeding(std::string bytes, std::thread& writer) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  writer = std::thread([fd = fds[1], bytes = std::move(bytes)] {
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + offset, bytes.size() - offset);
      if (n <= 0) break;
      offset += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  return fds[0];
}

/// Canonical end state: one checkpoint JSON line per stream, in dense order.
/// Two runs that end in the same detector state produce byte-identical
/// vectors (doubles serialize shortest-round-trip).
std::vector<std::string> end_states(const FleetMonitor& fleet) {
  const StreamTable& table = fleet.streams();
  std::vector<std::string> out;
  out.reserve(table.size());
  for (std::uint32_t dense = 0; dense < table.size(); ++dense) {
    ShardCheckpoint record;
    record.spec = core::describe(table.config());
    record.shard = dense;
    record.shard_count = static_cast<std::uint32_t>(table.shards());
    record.stream_id = table.external_id(dense);
    record.controller =
        table.controller(table.shard_of(dense)).save_state(table.lane_of(dense));
    out.push_back(to_json(record));
  }
  return out;
}

/// Serializes a controller state through the checkpoint codec so two states
/// can be compared byte-for-byte (shortest-round-trip doubles included).
std::string state_json(const core::ControllerState& state) {
  ShardCheckpoint record;
  record.spec = "state";
  record.controller = state;
  return to_json(record);
}

std::string temp_journal(const std::string& tag) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("rejuv_fleet_test_" + tag + "_" + std::to_string(::getpid()) + ".jsonl");
  return path.string();
}

void remove_journals(const std::string& base) {
  std::error_code ec;
  std::filesystem::remove(base, ec);
  for (std::size_t i = 1; i < 64; ++i) {
    if (!std::filesystem::remove(base + "." + std::to_string(i), ec)) break;
  }
}

TEST(EventLoopTest, DispatchesReadableFds) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok()) << loop.error();

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(set_nonblocking(fds[0]));

  int fired = 0;
  ASSERT_TRUE(loop.add(fds[0], EPOLLIN, [&](int fd, std::uint32_t events) {
    EXPECT_EQ(fd, fds[0]);
    EXPECT_NE(events & EPOLLIN, 0u);
    ++fired;
  }));
  EXPECT_EQ(loop.size(), 1u);

  EXPECT_EQ(loop.poll(milliseconds(0)), 0);  // nothing readable yet

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(loop.poll(milliseconds(100)), 1);
  EXPECT_EQ(fired, 1);
  // Level-triggered: the unread byte keeps the fd hot.
  EXPECT_EQ(loop.poll(milliseconds(100)), 1);
  EXPECT_EQ(fired, 2);

  loop.remove(fds[0]);
  EXPECT_EQ(loop.size(), 0u);
  EXPECT_EQ(loop.poll(milliseconds(0)), 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, CallbackMayRemovePeersMidDispatch) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());

  int a[2];
  int b[2];
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);

  int fired = 0;
  // Whichever callback dispatches first removes the other fd; the removed
  // fd's callback must not run even though it was ready in the same batch.
  const auto make = [&](int other) {
    return [&fired, &loop, other](int, std::uint32_t) {
      ++fired;
      loop.remove(other);
    };
  };
  ASSERT_TRUE(loop.add(a[0], EPOLLIN, make(b[0])));
  ASSERT_TRUE(loop.add(b[0], EPOLLIN, make(a[0])));
  ASSERT_EQ(::write(a[1], "x", 1), 1);
  ASSERT_EQ(::write(b[1], "x", 1), 1);

  loop.poll(milliseconds(100));
  EXPECT_EQ(fired, 1);
  ::close(a[0]);
  ::close(a[1]);
  ::close(b[0]);
  ::close(b[1]);
}

TEST(StreamTableTest, InternsRoundRobinAndBoundsTheFleet) {
  StreamTable table(fast_sraa(), /*shards=*/4, /*max_streams=*/8, 0);
  EXPECT_EQ(table.shards(), 4u);
  EXPECT_EQ(table.max_streams(), 8u);

  for (std::uint32_t i = 0; i < 8; ++i) {
    bool created = false;
    const std::uint32_t dense = table.acquire(1000 + i * 17, created);
    EXPECT_TRUE(created);
    EXPECT_EQ(dense, i) << "dense ids are assigned in arrival order";
    EXPECT_EQ(table.shard_of(dense), i % 4);
    EXPECT_EQ(table.lane_of(dense), i / 4);
    EXPECT_EQ(table.dense_of(table.shard_of(dense), table.lane_of(dense)), dense);
    EXPECT_EQ(table.external_id(dense), 1000 + i * 17);
  }
  EXPECT_EQ(table.size(), 8u);

  bool created = true;
  EXPECT_EQ(table.acquire(1000, created), 0u) << "re-acquire returns the interned id";
  EXPECT_FALSE(created);
  EXPECT_EQ(table.find(1017), 1u);
  EXPECT_EQ(table.find(99999), StreamTable::kInvalidStream);

  EXPECT_EQ(table.acquire(42, created), StreamTable::kInvalidStream) << "table is full";

  table.count_received(3);
  table.count_received(3);
  EXPECT_EQ(table.received(3), 2u);
  EXPECT_EQ(table.received(4), 0u);
}

TEST(StreamTableTest, ScalesAcrossSlabsAndMapGrowth) {
  constexpr std::uint32_t kStreams = 10000;  // several 4096-slot slabs
  StreamTable table(fast_sraa(), 8, kStreams, 0);
  for (std::uint32_t i = 0; i < kStreams; ++i) {
    bool created = false;
    // Scattered external ids exercise the open-addressing probe chains.
    ASSERT_EQ(table.acquire(i * 2654435761u + 3, created), i);
    ASSERT_TRUE(created);
  }
  EXPECT_EQ(table.size(), kStreams);
  for (std::uint32_t i = 0; i < kStreams; i += 997) {
    EXPECT_EQ(table.find(i * 2654435761u + 3), i);
    EXPECT_EQ(table.external_id(i), i * 2654435761u + 3);
  }
}

TEST(FleetTest, RejectsNonBankableFamilies) {
  FleetConfig config;
  config.detector = core::DetectorConfig("EDiv");
  config.listen = false;
  EXPECT_THROW(FleetMonitor{config}, std::invalid_argument);
}

TEST(FleetTest, BinaryPipeMatchesSequentialBankTwin) {
  constexpr std::uint32_t kStreams = 50;
  constexpr std::uint64_t kPerStream = 40;

  // Interleave the streams round-robin, the worst case for routing.
  std::vector<wire::Record> records;
  records.reserve(kStreams * kPerStream);
  for (std::uint64_t round = 0; round < kPerStream; ++round) {
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      records.push_back({s * 3 + 7, stream_value(s, round)});
    }
  }

  FleetConfig config;
  config.detector = fast_sraa();
  config.shards = 3;
  config.listen = false;
  config.inline_processing = true;
  config.logical_time = true;
  std::thread writer;
  config.input_fds = {pipe_feeding(encode_records(records), writer)};

  FleetMonitor fleet(config);
  std::vector<FleetAction> actions;
  fleet.set_action_callback([&](const FleetAction& action) { actions.push_back(action); });
  const FleetStats stats = fleet.run();
  writer.join();

  EXPECT_EQ(stats.frames, records.size());
  EXPECT_EQ(stats.streams, kStreams);
  EXPECT_EQ(stats.observations, records.size());
  EXPECT_EQ(stats.processed, records.size());
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);

  // Twin: one bank lane per stream, fed each stream's sequence in order.
  core::BankController twin(config.detector.family(), 0);
  for (std::uint32_t s = 0; s < kStreams; ++s) twin.add_lane(config.detector);
  std::uint64_t twin_triggers = 0;
  for (std::uint64_t round = 0; round < kPerStream; ++round) {
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      twin_triggers += twin.observe(s, stream_value(s, round)) ? 1 : 0;
    }
  }
  EXPECT_GT(twin_triggers, 0u) << "the workload should exercise the trigger path";
  EXPECT_EQ(stats.triggers, twin_triggers);
  EXPECT_EQ(actions.size(), twin_triggers);

  const StreamTable& table = fleet.streams();
  ASSERT_EQ(table.size(), kStreams);
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    const std::uint32_t dense = table.find(s * 3 + 7);
    ASSERT_NE(dense, StreamTable::kInvalidStream);
    const auto& controller = table.controller(table.shard_of(dense));
    const std::uint32_t lane = table.lane_of(dense);
    EXPECT_EQ(controller.observations(lane), kPerStream);
    EXPECT_EQ(controller.trigger_indices(lane), twin.trigger_indices(s)) << "stream " << s;
    EXPECT_EQ(state_json(controller.save_state(lane)), state_json(twin.save_state(s)))
        << "stream " << s;
  }
}

TEST(FleetTest, TextClientsKeepTheLegacyProtocol) {
  FleetConfig config;
  config.detector = fast_sraa();
  config.shards = 2;
  config.listen = true;
  config.port = 0;
  config.inline_processing = true;
  FleetMonitor fleet(config);
  ASSERT_NE(fleet.port(), 0);

  std::thread client([port = fleet.port()] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string payload = "1.5\n2.5\nnot-a-number\n3.5\n";
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
              static_cast<ssize_t>(payload.size()));
    ::close(fd);
  });

  const FleetStats stats = fleet.run();
  client.join();

  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.text_lines, 3u);
  EXPECT_EQ(stats.malformed_lines, 1u);
  EXPECT_EQ(stats.frames, 0u);
  EXPECT_EQ(stats.streams, 1u);
  EXPECT_EQ(stats.processed, 3u);
  // Legacy text connections are auto-assigned ids from 2^31 up, out of the
  // way of binary clients' small ids.
  EXPECT_EQ(fleet.streams().external_id(0), 0x80000000u);
}

TEST(FleetTest, LogicalTimeRunsAreByteStableTwice) {
  std::vector<wire::Record> records;
  for (std::uint64_t round = 0; round < 12; ++round) {
    for (std::uint32_t s = 0; s < 20; ++s) {
      records.push_back({s, stream_value(s, round)});
    }
  }
  const std::string bytes = encode_records(records);

  const auto run_traced = [&](std::string& trace) {
    FleetConfig config;
    config.detector = fast_sraa();
    config.shards = 2;
    config.listen = false;
    config.inline_processing = true;
    config.logical_time = true;
    std::thread writer;
    config.input_fds = {pipe_feeding(bytes, writer)};
    std::ostringstream out;
    obs::JsonlSink sink(out);
    FleetMonitor fleet(config);
    fleet.set_trace_sink(&sink);
    fleet.run();
    writer.join();
    trace = out.str();
  };

  std::string first;
  std::string second;
  run_traced(first);
  run_traced(second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FleetTest, KillAndResumeIsBitExactAtTenThousandStreams) {
  constexpr std::uint32_t kStreams = 10000;
  constexpr std::uint64_t kRounds = 12;
  const std::string journal_a = temp_journal("full");
  const std::string journal_b = temp_journal("resume");
  remove_journals(journal_a);
  remove_journals(journal_b);

  std::vector<wire::Record> records;
  records.reserve(kStreams * kRounds);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      records.push_back({s, stream_value(s, round)});
    }
  }

  const auto base_config = [&](const std::string& journal) {
    FleetConfig config;
    config.detector = fast_sraa();
    config.shards = 4;
    config.listen = false;
    config.inline_processing = true;
    config.logical_time = true;
    config.max_streams = kStreams;
    config.checkpoint_path = journal;
    config.journal_stride = 4096;  // spread 10k streams over three files
    return config;
  };

  const auto run_over = [&](FleetConfig config, const std::vector<wire::Record>& slice,
                            FleetStats& stats) {
    std::thread writer;
    config.input_fds = {pipe_feeding(encode_records(slice), writer)};
    FleetMonitor fleet(config);
    stats = fleet.run();
    writer.join();
    return end_states(fleet);
  };

  // Reference: the whole input in one uninterrupted run.
  FleetStats full_stats;
  const std::vector<std::string> want = run_over(base_config(journal_a), records, full_stats);
  ASSERT_EQ(want.size(), kStreams);
  EXPECT_EQ(full_stats.processed, records.size());
  EXPECT_GT(full_stats.triggers, 0u);
  EXPECT_EQ(full_stats.checkpoints, kStreams) << "shutdown checkpoints every stream";

  // "Kill": the first half of the input, checkpointed on shutdown.
  const std::size_t half = records.size() / 2;
  const std::vector<wire::Record> first_half(records.begin(), records.begin() + half);
  const std::vector<wire::Record> second_half(records.begin() + half, records.end());
  FleetStats kill_stats;
  run_over(base_config(journal_b), first_half, kill_stats);
  EXPECT_EQ(kill_stats.processed, half);

  // "Resume": a fresh engine restores the journal, then eats the rest.
  FleetStats resume_stats;
  const std::vector<std::string> got =
      run_over(base_config(journal_b), second_half, resume_stats);
  EXPECT_EQ(resume_stats.restored_streams, kStreams);
  EXPECT_EQ(resume_stats.processed, records.size() - half);

  ASSERT_EQ(got.size(), want.size());
  for (std::uint32_t dense = 0; dense < kStreams; ++dense) {
    ASSERT_EQ(got[dense], want[dense]) << "stream dense id " << dense;
  }

  remove_journals(journal_a);
  remove_journals(journal_b);
}

TEST(FleetTest, JournalCompactionBoundsGrowthAndRestoresExactly) {
  constexpr std::uint32_t kStreams = 100;
  constexpr std::uint64_t kRounds = 200;
  const std::string journal = temp_journal("compact");
  remove_journals(journal);

  std::vector<wire::Record> records;
  records.reserve(kStreams * kRounds);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      records.push_back({s, stream_value(s, round)});
    }
  }

  FleetConfig config;
  config.detector = fast_sraa();
  config.shards = 2;
  config.listen = false;
  config.inline_processing = true;
  config.logical_time = true;
  config.checkpoint_path = journal;
  config.checkpoint_every = 10;
  config.journal_compact_bytes = 16 * 1024;  // force many rewrites

  std::vector<std::string> want;
  std::uint64_t journal_records = 0;
  {
    std::thread writer;
    config.input_fds = {pipe_feeding(encode_records(records), writer)};
    FleetMonitor fleet(config);
    const FleetStats stats = fleet.run();
    writer.join();
    EXPECT_GT(stats.compactions, 0u);
    EXPECT_GT(stats.checkpoints, static_cast<std::uint64_t>(kStreams));
    want = end_states(fleet);
    journal_records = stats.checkpoints;
  }

  // The compacted journal holds one live record per stream (plus at most the
  // appends since the last rewrite) — nowhere near the records ever written.
  const std::vector<ShardCheckpoint> live = read_latest_checkpoints(journal);
  ASSERT_EQ(live.size(), kStreams);
  for (std::uint32_t dense = 0; dense < kStreams; ++dense) {
    EXPECT_EQ(live[dense].shard, dense);
    ASSERT_TRUE(live[dense].stream_id.has_value());
    EXPECT_EQ(*live[dense].stream_id, dense);
  }
  EXPECT_LT(std::filesystem::file_size(journal), std::uint64_t{64} * 1024)
      << "journal grew unbounded despite " << journal_records << " records written";

  // A fresh engine restoring the compacted journal lands in the same state.
  {
    config.input_fds.clear();
    std::thread writer;
    config.input_fds = {pipe_feeding(std::string(), writer)};
    FleetMonitor fleet(config);
    const FleetStats stats = fleet.run();
    writer.join();
    EXPECT_EQ(stats.restored_streams, kStreams);
    EXPECT_EQ(end_states(fleet), want);
  }

  remove_journals(journal);
}

/// Runs `fleet` under a watchdog: if the run has not ended after 10 s it is
/// stopped and `hung` is set, so a regression to the unreadable-input hang
/// fails the test instead of blocking the suite.
FleetStats run_with_deadline(FleetMonitor& fleet, bool& hung) {
  std::mutex mutex;
  std::condition_variable finished_cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!finished_cv.wait_for(lock, std::chrono::seconds(10), [&] { return finished; })) {
      hung = true;
      fleet.request_stop();
    }
  });
  const FleetStats stats = fleet.run();
  {
    const std::lock_guard<std::mutex> lock(mutex);
    finished = true;
  }
  finished_cv.notify_one();
  watchdog.join();
  return stats;
}

/// Opens `path` read-only for the engine, which takes ownership of the fd.
int open_input(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  EXPECT_GE(fd, 0) << path;
  return fd;
}

TEST(FleetTest, RegularFileInputMatchesPipeInput) {
  // Regular files cannot be registered with epoll; the engine must read
  // them to EOF anyway and end in the state a pipe feeding the same bytes
  // produces. ~1.3 MB spans several read rounds of the ingest loop.
  constexpr std::uint32_t kStreams = 100;
  constexpr std::uint64_t kRounds = 1000;
  std::vector<wire::Record> records;
  records.reserve(kStreams * kRounds);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (std::uint32_t s = 0; s < kStreams; ++s) records.push_back({s, stream_value(s, round)});
  }
  const std::string bytes = encode_records(records);
  const std::string path = temp_journal("file_input");
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }

  FleetConfig config;
  config.detector = fast_sraa();
  config.shards = 2;
  config.listen = false;

  std::vector<std::string> want;
  {
    std::thread writer;
    config.input_fds = {pipe_feeding(bytes, writer)};
    FleetMonitor fleet(config);
    fleet.run();
    writer.join();
    want = end_states(fleet);
  }

  config.input_fds = {open_input(path)};
  FleetMonitor fleet(config);
  bool hung = false;
  const FleetStats stats = run_with_deadline(fleet, hung);
  EXPECT_FALSE(hung) << "file input never reached EOF";
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.frames, records.size());
  EXPECT_EQ(stats.processed, records.size());
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(end_states(fleet), want);
  std::filesystem::remove(path);
}

TEST(FleetTest, EmptyFileAndDevNullInputsEndCleanly) {
  const std::string empty = temp_journal("empty_input");
  std::ofstream(empty).close();
  for (const std::string& path : {empty, std::string("/dev/null")}) {
    FleetConfig config;
    config.detector = fast_sraa();
    config.listen = false;
    config.inline_processing = path == empty;  // cover both drain modes
    config.input_fds = {open_input(path)};
    FleetMonitor fleet(config);
    bool hung = false;
    const FleetStats stats = run_with_deadline(fleet, hung);
    EXPECT_FALSE(hung) << path;
    EXPECT_EQ(stats.connections_accepted, 1u) << path;
    EXPECT_EQ(stats.connections_closed, 1u) << path;
    EXPECT_EQ(stats.observations, 0u) << path;
    EXPECT_EQ(stats.protocol_errors, 0u) << path;
  }
  std::filesystem::remove(empty);
}

TEST(TcpHardening, AcceptSurvivesDescriptorExhaustion) {
  TcpSource source(0);
  ASSERT_NE(source.port(), 0);

  // Connect before starving the process of fds: the TCP handshake completes
  // via the listen backlog without an accept, and the payload sits in the
  // socket buffer until the monitor can finally accept.
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(source.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::send(client, "1.5\n", 4, 0), 4);

  // Lower the fd soft limit to exactly the next free descriptor, so accept
  // fails with EMFILE without disturbing anything already open.
  const int next_free = ::dup(0);
  ASSERT_GE(next_free, 0);
  ::close(next_free);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit starved = saved;
  starved.rlim_cur = static_cast<rlim_t>(next_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &starved), 0);

  std::string line;
  const auto exhausted = source.next_line(line, milliseconds(50));
  const SourceStats during = source.stats();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  // Under exhaustion: no crash, no spin — a timeout, a counted error, and a
  // diagnostic; the listener itself stays up.
  EXPECT_EQ(exhausted, Source::Status::kTimeout);
  EXPECT_GE(during.errors, 1u);
  EXPECT_NE(source.last_error().find("accept"), std::string::npos) << source.last_error();

  // Once descriptors free up, the same listener serves the queued client.
  Source::Status status = Source::Status::kTimeout;
  for (int i = 0; i < 50 && status == Source::Status::kTimeout; ++i) {
    status = source.next_line(line, milliseconds(100));
  }
  ASSERT_EQ(status, Source::Status::kLine);
  EXPECT_EQ(line, "1.5");
  ::close(client);
}

}  // namespace
}  // namespace rejuv::monitor
