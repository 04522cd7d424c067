// rejuv_trace — post-mortem analyzer for rejuv_sim / rejuv_monitor traces.
//
// Reads a JSONL trace produced with `rejuv_sim --trace=FILE` or
// `rejuv-monitor --trace=FILE` and reconstructs, for every rejuvenation
// trigger, the story the raw decision stream hides: when the bucket cascade
// first escalated, how it climbed, which sample finally exceeded the target,
// how long detection took, and how many threads the rejuvenation flushed.
// Excursions that climbed the cascade but de-escalated back to bucket 0
// without triggering are listed as false-alarm candidates — the paper's
// sensitivity/false-positive trade-off made visible per run.
//
// Simulator traces are sequential (one run at a time); monitor traces
// interleave events from several shards, each stamped with its shard id in
// the `rep` field. The analyzer therefore routes every event to a per-run
// lane keyed by (load, rep), so shard streams are reconstructed
// independently, and tallies the monitor's ingest-level events (sources,
// drops, watchdog timeouts, malformed lines) in a global summary.
//
// Usage:
//   rejuv_trace FILE [--quiet] [--max-timeline=N]
//
//   --quiet           per-run summary table only, no per-trigger post-mortems
//   --max-timeline=N  cap printed escalation-timeline lines per trigger [12]
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/expect.h"
#include "common/flags.h"
#include "common/table.h"
#include "obs/event.h"
#include "obs/trace_reader.h"

namespace {

using namespace rejuv;
using obs::EventType;
using obs::TraceEvent;

std::string fmt(double value, int digits = 2) { return common::format_double(value, digits); }

/// One cascade excursion: escalations since the episode last sat at bucket 0.
struct Excursion {
  double start_time = -1.0;  ///< first escalation away from bucket 0
  std::int32_t peak_bucket = 0;
};

/// Detection episode: everything between two triggers (or run start/end).
struct Episode {
  double start_time = 0.0;
  double first_escalation_time = -1.0;
  double first_exceeded_time = -1.0;
  std::uint64_t samples = 0;
  std::vector<std::string> timeline;  ///< formatted escalation transitions
  Excursion open_excursion;
};

struct RunStats {
  double load = 0.0;
  std::uint32_t rep = 0;
  std::string label;
  std::uint64_t events = 0;
  std::uint64_t transactions = 0;
  std::uint64_t gc_pauses = 0;
  std::uint64_t triggers = 0;
  std::uint64_t suppressions = 0;
  std::uint64_t false_alarms = 0;
  std::vector<double> detect_times;  ///< per trigger, from first escalation

  double mean_detect_time() const {
    if (detect_times.empty()) return 0.0;
    double sum = 0.0;
    for (double t : detect_times) sum += t;
    return sum / static_cast<double>(detect_times.size());
  }
};

/// Per-run reconstruction state. Every event is stamped with its run context
/// (load, rep) — a monitor shard or a simulator replication — so interleaved
/// streams demultiplex cleanly into one lane each.
struct Lane {
  bool in_run = false;
  RunStats run;
  Episode episode;
  TraceEvent last_evidence;
  bool has_evidence = false;
};

class Analyzer {
 public:
  Analyzer(bool quiet, std::size_t max_timeline) : quiet_(quiet), max_timeline_(max_timeline) {}

  void consume(const TraceEvent& event) {
    // Ingest-level monitor events describe the whole process, not one run;
    // tally them globally and keep them out of every lane's event count.
    switch (event.type) {
      case EventType::kSourceOpened:
        ++sources_opened_;
        return;
      case EventType::kSourceClosed:
        ++sources_closed_;
        observations_ingested_ += static_cast<std::uint64_t>(event.value);
        return;
      case EventType::kObservationDropped:
        // value carries the shard's running drop total; keep the latest.
        drops_by_shard_[event.rep] = static_cast<std::uint64_t>(event.value);
        return;
      case EventType::kWatchdogTimeout:
        ++watchdog_timeouts_;
        return;
      case EventType::kMalformedInput:
        ++malformed_;
        return;
      case EventType::kSourceError:
        // value carries the running error total; keep the latest.
        source_errors_ = std::max(source_errors_, static_cast<std::uint64_t>(event.value));
        return;
      case EventType::kSourceReconnected:
        source_reconnects_ = std::max(source_reconnects_, static_cast<std::uint64_t>(event.value));
        return;
      case EventType::kSourceRestarted:
        source_restarts_ = std::max(source_restarts_, static_cast<std::uint64_t>(event.value));
        return;
      case EventType::kFaultInjected:
        faults_injected_ = std::max(faults_injected_, static_cast<std::uint64_t>(event.value));
        return;
      case EventType::kCheckpointSaved:
        ++checkpoints_saved_;
        return;
      case EventType::kCheckpointRestored:
        ++checkpoints_restored_;
        return;
      // Cluster coordinator events describe the whole cluster (the host index
      // rides in the rep field); tally globally, keep them out of host lanes.
      case EventType::kNodeRestoreStart:
        ++node_restores_;
        return;
      case EventType::kNodeRestoreEnd:
        return;
      case EventType::kNodeCrash:
        ++node_crashes_;
        return;
      case EventType::kNodeHang:
        ++node_hangs_;
        return;
      case EventType::kNodeRetry:
        ++node_retries_;
        return;
      case EventType::kNodeRepair:
        ++node_repairs_;
        return;
      case EventType::kRejuvenationDeferred:
        ++rejuvenations_deferred_;
        return;
      default:
        break;
    }

    Lane& lane = lanes_[{event.load, event.rep}];
    switch (event.type) {
      case EventType::kRunStart:
        finish_run(lane);
        lane.run = RunStats{};
        lane.run.load = event.load;
        lane.run.rep = event.rep;
        lane.run.label = event.note;
        lane.in_run = true;
        lane.episode = Episode{};
        lane.episode.start_time = event.time;
        if (!quiet_) {
          std::cout << "\n== run: " << lane.run.label << " load=" << fmt(lane.run.load)
                    << " rep=" << lane.run.rep << " ==\n";
        }
        break;
      case EventType::kRunEnd:
        note_open_excursion_as_false_alarm(lane, event.time);
        finish_run(lane);
        break;
      case EventType::kTransactionCompleted:
        ++lane.run.transactions;
        break;
      case EventType::kGcStart:
        ++lane.run.gc_pauses;
        break;
      case EventType::kSample:
        ++lane.episode.samples;
        if (event.exceeded && lane.episode.first_exceeded_time < 0.0) {
          lane.episode.first_exceeded_time = event.time;
        }
        break;
      case EventType::kEscalated:
        if (lane.episode.first_escalation_time < 0.0) {
          lane.episode.first_escalation_time = event.time;
        }
        if (lane.episode.open_excursion.start_time < 0.0) {
          lane.episode.open_excursion.start_time = event.time;
        }
        lane.episode.open_excursion.peak_bucket =
            std::max(lane.episode.open_excursion.peak_bucket, event.bucket);
        add_timeline_line(lane, event.time,
                          "escalate   -> bucket " + std::to_string(event.bucket), event);
        break;
      case EventType::kDeescalated:
        add_timeline_line(lane, event.time,
                          "deescalate -> bucket " + std::to_string(event.bucket), event);
        if (event.bucket == 0) note_open_excursion_as_false_alarm(lane, event.time);
        break;
      case EventType::kDetectorTriggered:
        // Pre-reset evidence; the controller's kRejuvenationTriggered (with
        // the post-reset snapshot) follows immediately.
        lane.last_evidence = event;
        lane.has_evidence = true;
        break;
      case EventType::kRejuvenationTriggered:
        ++lane.run.triggers;
        report_trigger(lane, event);
        lane.episode = Episode{};
        lane.episode.start_time = event.time;
        lane.has_evidence = false;
        break;
      case EventType::kCooldownSuppressed:
        ++lane.run.suppressions;
        break;
      case EventType::kRejuvenationExecuted:
        if (!quiet_ && lane.run.triggers > 0) {
          std::cout << "    threads flushed: " << static_cast<std::uint64_t>(event.value) << "\n";
        }
        break;
      case EventType::kExternalReset:
        lane.episode = Episode{};
        lane.episode.start_time = event.time;
        break;
      default:
        break;
    }
    if (lane.in_run) ++lane.run.events;
  }

  void finish() {
    // Lanes still open (a monitor killed before run_end) are flushed in key
    // order so every shard appears in the summary.
    for (auto& entry : lanes_) finish_run(entry.second);

    common::Table table({"label", "load", "rep", "events", "txns", "gcs", "triggers",
                         "suppressed", "false_alarms", "mean_ttd_s"});
    for (const RunStats& run : finished_) {
      table.add_row({run.label, fmt(run.load), std::to_string(run.rep),
                     std::to_string(run.events), std::to_string(run.transactions),
                     std::to_string(run.gc_pauses), std::to_string(run.triggers),
                     std::to_string(run.suppressions), std::to_string(run.false_alarms),
                     fmt(run.mean_detect_time())});
    }
    common::print_table(std::cout, "per-run summary", table);

    std::uint64_t triggers = 0;
    std::uint64_t false_alarms = 0;
    for (const RunStats& run : finished_) {
      triggers += run.triggers;
      false_alarms += run.false_alarms;
    }
    std::cout << finished_.size() << " run(s), " << triggers << " trigger(s), " << false_alarms
              << " false-alarm candidate(s)\n";

    if (sources_opened_ > 0 || watchdog_timeouts_ > 0 || malformed_ > 0 ||
        !drops_by_shard_.empty()) {
      std::uint64_t dropped = 0;
      for (const auto& entry : drops_by_shard_) dropped += entry.second;
      std::cout << "monitor: sources opened=" << sources_opened_ << " closed=" << sources_closed_
                << " observations=" << observations_ingested_ << " dropped=" << dropped
                << " watchdog_timeouts=" << watchdog_timeouts_ << " malformed=" << malformed_
                << "\n";
    }
    if (source_errors_ > 0 || source_reconnects_ > 0 || source_restarts_ > 0 ||
        faults_injected_ > 0 || checkpoints_saved_ > 0 || checkpoints_restored_ > 0) {
      std::cout << "resilience: source_errors=" << source_errors_
                << " reconnects=" << source_reconnects_ << " restarts=" << source_restarts_
                << " faults_injected=" << faults_injected_
                << " checkpoints_saved=" << checkpoints_saved_
                << " checkpoints_restored=" << checkpoints_restored_ << "\n";
    }
    if (node_restores_ > 0 || rejuvenations_deferred_ > 0 || node_crashes_ > 0 ||
        node_hangs_ > 0 || node_repairs_ > 0) {
      std::cout << "cluster: restores=" << node_restores_
                << " deferred=" << rejuvenations_deferred_ << " crashes=" << node_crashes_
                << " hangs=" << node_hangs_ << " retries=" << node_retries_
                << " repairs=" << node_repairs_ << "\n";
    }
  }

 private:
  void add_timeline_line(Lane& lane, double time, const std::string& what,
                         const TraceEvent& event) {
    lane.episode.timeline.push_back("t=" + fmt(time, 1) + "s  " + what + " (fill " +
                                    std::to_string(event.fill) + ", n=" +
                                    std::to_string(event.sample_size) + ")");
  }

  void note_open_excursion_as_false_alarm(Lane& lane, double time) {
    if (lane.episode.open_excursion.start_time < 0.0) return;
    ++lane.run.false_alarms;
    if (!quiet_) {
      std::cout << "  false-alarm candidate: t="
                << fmt(lane.episode.open_excursion.start_time, 1) << "s.." << fmt(time, 1)
                << "s climbed to bucket " << lane.episode.open_excursion.peak_bucket
                << ", returned to 0 without trigger\n";
    }
    lane.episode.open_excursion = Excursion{};
    lane.episode.first_escalation_time = -1.0;
  }

  void report_trigger(Lane& lane, const TraceEvent& trigger) {
    const double detect_from_escalation = lane.episode.first_escalation_time >= 0.0
                                              ? trigger.time - lane.episode.first_escalation_time
                                              : 0.0;
    lane.run.detect_times.push_back(detect_from_escalation);
    if (quiet_) return;

    std::cout << "\n  trigger #" << lane.run.triggers << " at t=" << fmt(trigger.time, 1)
              << "s (observation " << static_cast<std::uint64_t>(trigger.value) << ", run load="
              << fmt(lane.run.load) << " rep=" << lane.run.rep << ")\n";
    if (lane.has_evidence) {
      std::cout << "    evidence: average " << fmt(lane.last_evidence.average, 3) << " > target "
                << fmt(lane.last_evidence.target, 3);
      if (lane.last_evidence.bucket >= 0) {
        std::cout << " in bucket " << lane.last_evidence.bucket << "/"
                  << lane.last_evidence.bucket_count;
      }
      std::cout << "\n";
    }
    if (!lane.episode.timeline.empty()) {
      std::cout << "    escalation timeline (" << lane.episode.timeline.size()
                << " transitions):\n";
      const std::size_t shown = std::min(lane.episode.timeline.size(), max_timeline_);
      const std::size_t skipped = lane.episode.timeline.size() - shown;
      if (skipped > 0) std::cout << "      ... " << skipped << " earlier transitions ...\n";
      for (std::size_t i = lane.episode.timeline.size() - shown;
           i < lane.episode.timeline.size(); ++i) {
        std::cout << "      " << lane.episode.timeline[i] << "\n";
      }
    }
    std::cout << "    time-to-detect: " << fmt(detect_from_escalation, 1)
              << "s from first escalation";
    if (lane.episode.first_exceeded_time >= 0.0) {
      std::cout << ", " << fmt(trigger.time - lane.episode.first_exceeded_time, 1)
                << "s from first exceeded sample";
    }
    std::cout << "\n    samples this episode: " << lane.episode.samples << "\n";
  }

  void finish_run(Lane& lane) {
    if (!lane.in_run) return;
    finished_.push_back(lane.run);
    lane.in_run = false;
  }

  bool quiet_;
  std::size_t max_timeline_;
  std::map<std::pair<double, std::uint32_t>, Lane> lanes_;
  std::vector<RunStats> finished_;
  // Monitor ingest-level tallies (absent in pure simulator traces).
  std::uint64_t sources_opened_ = 0;
  std::uint64_t sources_closed_ = 0;
  std::uint64_t observations_ingested_ = 0;
  std::uint64_t watchdog_timeouts_ = 0;
  std::uint64_t malformed_ = 0;
  std::map<std::uint32_t, std::uint64_t> drops_by_shard_;
  // Fault-tolerance tallies (running totals in the events; keep the latest).
  std::uint64_t source_errors_ = 0;
  std::uint64_t source_reconnects_ = 0;
  std::uint64_t source_restarts_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t checkpoints_saved_ = 0;
  std::uint64_t checkpoints_restored_ = 0;
  // Cluster coordinator tallies (absent outside rejuv-cluster traces).
  std::uint64_t node_restores_ = 0;
  std::uint64_t node_crashes_ = 0;
  std::uint64_t node_hangs_ = 0;
  std::uint64_t node_retries_ = 0;
  std::uint64_t node_repairs_ = 0;
  std::uint64_t rejuvenations_deferred_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    // The first non-flag argument is the trace path; remaining arguments are
    // ordinary --key=value flags.
    std::string path;
    std::vector<const char*> flag_argv = {argv[0]};
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0 && path.empty()) {
        path = arg;
      } else {
        flag_argv.push_back(argv[i]);
      }
    }
    const auto flags =
        rejuv::common::Flags::parse(static_cast<int>(flag_argv.size()), flag_argv.data());
    flags.expect_only({"quiet", "max-timeline"});
    REJUV_EXPECT(!path.empty(), "usage: rejuv_trace FILE [--quiet] [--max-timeline=N]");
    REJUV_EXPECT(path.size() < 4 || path.substr(path.size() - 4) != ".csv",
                 "rejuv_trace reads JSONL traces; re-run rejuv_sim with a non-.csv --trace file");

    const bool quiet = flags.has("quiet");
    const auto max_timeline = static_cast<std::size_t>(flags.get_int("max-timeline", 12));

    const std::vector<rejuv::obs::TraceEvent> events = rejuv::obs::read_trace_file(path);
    REJUV_EXPECT(!events.empty(), "trace is empty: " + path);

    Analyzer analyzer(quiet, max_timeline);
    for (const rejuv::obs::TraceEvent& event : events) analyzer.consume(event);
    analyzer.finish();
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "rejuv_trace: " << error.what() << "\n"
              << "see the header of tools/rejuv_trace.cpp for usage\n";
    return 1;
  }
}
