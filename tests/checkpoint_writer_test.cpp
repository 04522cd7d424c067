// CheckpointWriter: torn-tail recovery, the uncompacted byte contract, and
// an oracle for indexed compaction.
//
// The oracle is the straightforward compaction, a full re-parse: a
// compacted journal must equal `to_json(r) + "\n"` over
// read_latest_checkpoints of a shadow journal that received every line and
// was never compacted. Seeded random appends over many shards, a
// pre-existing head with duplicate shards, torn lines and a
// non-canonically spaced line, and writers that close and reopen the
// journal between rounds all have to agree with it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "counting_allocator.h"
#include "monitor/checkpoint.h"

namespace rejuv::monitor {
namespace {

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "/rejuv_ckpt_writer_" + tag + "_" + std::to_string(::getpid()) +
         ".jsonl";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

void append_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

void remove_files(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".compact.tmp").c_str());
}

ShardCheckpoint base_record(std::uint32_t shard, std::uint64_t observations) {
  ShardCheckpoint record;
  record.spec = "SRAA(n=2,K=5,D=3)";
  record.shard = shard;
  record.shard_count = 1;
  record.controller.observations = observations;
  record.controller.detector.algorithm = record.spec;
  record.controller.detector.has_cascade = true;
  record.controller.detector.has_window = true;
  record.controller.detector.window_length = 2;
  record.controller.detector.window_next = 2;
  return record;
}

/// A record whose every variable-width field is drawn from `rng`, so line
/// lengths (and therefore offsets) vary from append to append.
ShardCheckpoint random_record(std::mt19937_64& rng, std::uint32_t shard) {
  std::uniform_int_distribution<std::uint64_t> small(0, 9);
  std::uniform_real_distribution<double> real(-1e3, 1e3);
  ShardCheckpoint record = base_record(shard, rng() % 5'000'000);
  if (rng() % 2 == 0) record.stream_id = static_cast<std::uint32_t>(rng());
  record.triggers_since_action = small(rng);
  record.controller.cooldown_remaining = small(rng);
  for (std::uint64_t i = small(rng); i > 0; --i) {
    record.controller.trigger_indices.push_back(rng() % 1'000'000);
  }
  core::DetectorState& detector = record.controller.detector;
  detector.bucket = small(rng);
  detector.fill = static_cast<std::int64_t>(small(rng)) - 4;
  detector.window_count = small(rng);
  detector.window_sum = real(rng);
  detector.last_average = real(rng) / 3.0;
  if (rng() % 4 == 0) {
    detector.extra_tag = "mk";
    detector.extra_u64 = {small(rng), rng() % 100};
    detector.extra_f64 = {real(rng), 0.1 + 0.2};
  }
  return record;
}

std::string line_of(const ShardCheckpoint& record) { return to_json(record) + "\n"; }

/// What the full re-parse compaction writes for `journal`.
std::string reparse_oracle(const std::string& journal) {
  std::string bytes;
  for (const ShardCheckpoint& record : read_latest_checkpoints(journal)) bytes += line_of(record);
  return bytes;
}

/// A journal head as an older writer or a crash may leave it: duplicate
/// shards, a garbage line, a torn line in the middle, a line whose spacing
/// to_json would not reproduce, and (optionally) a torn final line.
std::string messy_head(std::mt19937_64& rng, bool torn_tail) {
  std::string head;
  head += line_of(base_record(1000, 10));
  head += line_of(random_record(rng, 3));
  head += line_of(base_record(1000, 20));  // duplicate: this one is live
  head += "garbage line\n";
  head += to_json(random_record(rng, 1001)).substr(0, 50) + "\n";  // torn mid-file
  std::string spaced = to_json(base_record(1002, 30));
  for (std::size_t at = 0; (at = spaced.find(",\"", at)) != std::string::npos; at += 4) {
    spaced.replace(at, 2, " , \"");
  }
  head += spaced + "\n";
  head += line_of(random_record(rng, 7));
  if (torn_tail) head += to_json(random_record(rng, 1003)).substr(0, 40);
  return head;
}

TEST(CheckpointWriter, TornTailIsTerminatedSoTheNextRecordSurvives) {
  const std::string path = temp_path("torn");
  const std::string first = line_of(base_record(0, 10));
  const std::string fragment = to_json(base_record(1, 20)).substr(0, 40);
  write_file(path, first + fragment);
  ShardCheckpoint next = base_record(1, 30);
  {
    CheckpointWriter writer(path);
    writer.append(next);
  }
  const auto records = read_latest_checkpoints(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].shard, 0u);
  EXPECT_EQ(records[1].shard, 1u);
  EXPECT_EQ(records[1].controller.observations, 30u);
  EXPECT_EQ(read_file(path), first + fragment + "\n" + line_of(next));
  remove_files(path);
}

TEST(CheckpointWriter, UncompactedJournalIsExactlyTheAppendedLines) {
  for (const bool torn_tail : {false, true}) {
    for (const bool fresh : {false, true}) {
      const std::string path = temp_path("plain");
      remove_files(path);
      std::mt19937_64 rng(42);
      std::string expected;
      if (!fresh) {
        expected = messy_head(rng, torn_tail);
        write_file(path, expected);
        if (torn_tail) expected += "\n";
      }
      {
        CheckpointWriter writer(path);
        for (int i = 0; i < 300; ++i) {
          const ShardCheckpoint record = random_record(rng, static_cast<std::uint32_t>(i % 17));
          writer.append(record);
          expected += line_of(record);
        }
        EXPECT_EQ(writer.compactions(), 0u);
      }
      EXPECT_EQ(read_file(path), expected) << "torn_tail=" << torn_tail << " fresh=" << fresh;
      remove_files(path);
    }
  }
}

TEST(CheckpointWriter, SpacedLineParsesButIsNotCanonical) {
  // Guards the oracle test's premise: its head holds a line that the
  // compaction must re-serialize rather than copy.
  std::mt19937_64 rng(1);
  const std::string head = messy_head(rng, false);
  std::istringstream lines(head);
  bool found = false;
  for (std::string line; std::getline(lines, line);) {
    if (line.find(" , ") == std::string::npos) continue;
    const auto parsed = parse_checkpoint_line(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_NE(to_json(*parsed), line);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CheckpointWriter, CompactionMatchesTheFullReparseOracle) {
  constexpr std::uint32_t kShards = 48;
  constexpr std::uint64_t kThreshold = 6 * 1024;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string path = temp_path("oracle");
    const std::string shadow_path = temp_path("oracle_shadow");
    remove_files(path);
    remove_files(shadow_path);
    std::mt19937_64 rng(seed);
    // Seeds 1..3 start from a messy head, the rest from an empty journal.
    if (seed <= 3) {
      const std::string head = messy_head(rng, seed % 2 == 1);
      write_file(path, head);
      write_file(shadow_path, head);
    }
    std::uint64_t checked = 0;
    // Writers close and reopen between rounds; the reopened journal's head
    // is then a compacted one plus later appends, and round 1 starts it
    // with a torn tail.
    for (int round = 0; round < 3; ++round) {
      if (round == 1) {
        const std::string fragment = to_json(random_record(rng, 5)).substr(0, 33);
        append_file(path, fragment);
        append_file(shadow_path, fragment);
      }
      CheckpointWriter writer(path, kThreshold);
      CheckpointWriter shadow(shadow_path);
      for (int i = 0; i < 400; ++i) {
        // Skewed shard choice: some shards churn, some go untouched for a
        // while, so compactions mix fresh and old offsets.
        const std::uint32_t shard =
            static_cast<std::uint32_t>(rng() % 4 == 0 ? rng() % kShards : rng() % 8);
        const ShardCheckpoint record = random_record(rng, shard);
        const std::uint64_t before = writer.compactions();
        writer.append(record);
        shadow.append(record);
        if (writer.compactions() != before) {
          ASSERT_EQ(read_file(path), reparse_oracle(shadow_path))
              << "seed " << seed << " round " << round << " append " << i;
          ++checked;
        }
      }
    }
    EXPECT_GE(checked, 10u) << "seed " << seed << ": too few compactions to mean anything";
    remove_files(path);
    remove_files(shadow_path);
  }
}

TEST(CheckpointWriter, SteadyStateAppendAllocatesNothing) {
  for (const std::uint64_t threshold : {std::uint64_t{0}, std::uint64_t{1} << 30}) {
    const std::string path = temp_path("alloc");
    remove_files(path);
    std::vector<ShardCheckpoint> records;
    for (std::uint32_t shard = 0; shard < 8; ++shard) {
      ShardCheckpoint record = base_record(shard, 100'000);
      record.stream_id = shard + 1'000'000;
      record.controller.trigger_indices = {1000, 2000, 3000};
      records.push_back(record);
    }
    CheckpointWriter writer(path, threshold);
    for (const ShardCheckpoint& record : records) writer.append(record);  // warm-up
    const std::uint64_t before = test::allocations();
    for (int i = 0; i < 1000; ++i) {
      ShardCheckpoint& record = records[static_cast<std::size_t>(i) % records.size()];
      ++record.controller.observations;
      record.controller.detector.window_sum += 0.25;
      writer.append(record);
    }
    EXPECT_EQ(test::allocations() - before, 0u) << "threshold " << threshold;
    EXPECT_EQ(writer.compactions(), 0u);
    remove_files(path);
  }
}

TEST(CheckpointWriterConcurrency, FourThreadsOnDisjointShardsKeepTheLiveSet) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kShardsPerThread = 16;
  constexpr std::uint64_t kAppendsPerShard = 25;
  const std::string path = temp_path("threads");
  remove_files(path);
  {
    CheckpointWriter writer(path, 8 * 1024);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&writer, t] {
        std::mt19937_64 rng(t + 1);
        for (std::uint64_t n = 1; n <= kAppendsPerShard; ++n) {
          for (std::uint32_t k = 0; k < kShardsPerThread; ++k) {
            ShardCheckpoint record = random_record(rng, t + kThreads * k);
            record.controller.observations = n;
            writer.append(record);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_GT(writer.compactions(), 0u);
  }
  const auto live = read_latest_checkpoints(path);
  ASSERT_EQ(live.size(), std::size_t{kThreads * kShardsPerThread});
  for (std::uint32_t shard = 0; shard < live.size(); ++shard) {
    EXPECT_EQ(live[shard].shard, shard);
    EXPECT_EQ(live[shard].controller.observations, kAppendsPerShard) << "shard " << shard;
  }
  remove_files(path);
}

}  // namespace
}  // namespace rejuv::monitor
