// Tests for the observability library: metrics registry, trace sinks,
// JSONL round-trips, and detector snapshot() introspection.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

#include "core/clta.h"
#include "core/factory.h"
#include "core/saraa.h"
#include "core/spec.h"
#include "core/sraa.h"
#include "core/static_rejuvenation.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace_reader.h"
#include "obs/tracer.h"

namespace {

using namespace rejuv;

// --- Metrics registry ---

TEST(MetricsTest, CounterIncrementsAndHandleIsStable) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("events");
  counter.increment();
  counter.increment(41);
  EXPECT_EQ(counter.value(), 42u);
  // Find-or-create returns the same handle; the count persists.
  EXPECT_EQ(&registry.counter("events"), &counter);
  EXPECT_EQ(registry.counter("events").value(), 42u);
}

TEST(MetricsTest, GaugeIsLastWriteWins) {
  obs::MetricsRegistry registry;
  obs::Gauge& gauge = registry.gauge("clock");
  gauge.set(1.5);
  gauge.set(-3.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -3.25);
}

TEST(MetricsTest, HistogramBucketsCountAndSummarize) {
  obs::Histogram histogram({1.0, 2.0, 4.0});
  for (double value : {0.5, 1.5, 1.6, 3.0, 100.0}) histogram.observe(value);

  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 + 1.5 + 1.6 + 3.0 + 100.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 100.0);
  const std::vector<std::uint64_t> cells = histogram.bucket_counts();
  ASSERT_EQ(cells.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(cells[0], 1u);
  EXPECT_EQ(cells[1], 2u);
  EXPECT_EQ(cells[2], 1u);
  EXPECT_EQ(cells[3], 1u);  // 100.0 overflows
}

TEST(MetricsTest, HistogramQuantileInterpolatesAndClampsOverflow) {
  obs::Histogram histogram({1.0, 2.0});
  for (int i = 0; i < 10; ++i) histogram.observe(0.5);   // all in [0, 1]
  // p=0.5 falls mid-bucket: linear interpolation inside [0, 1].
  EXPECT_GT(histogram.quantile(0.5), 0.0);
  EXPECT_LE(histogram.quantile(0.5), 1.0);
  histogram.observe(50.0);  // overflow cell
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 50.0);  // overflow reports max
  EXPECT_DOUBLE_EQ(obs::Histogram({1.0}).quantile(0.5), 0.0);  // empty
}

TEST(MetricsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), std::exception);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::exception);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::exception);
}

TEST(MetricsTest, RegistryWriteMentionsEveryMetric) {
  obs::MetricsRegistry registry;
  registry.counter("model.completed").increment(7);
  registry.gauge("sim.clock").set(12.5);
  registry.histogram("rt", {1.0, 10.0}).observe(3.0);
  std::ostringstream out;
  registry.write(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("model.completed"), std::string::npos);
  EXPECT_NE(text.find("sim.clock"), std::string::npos);
  EXPECT_NE(text.find("rt"), std::string::npos);
  EXPECT_EQ(registry.size(), 3u);
}

// --- Ring buffer sink ---

TEST(RingBufferSinkTest, KeepsNewestEventsOnWraparound) {
  obs::RingBufferSink sink(4);
  obs::Tracer tracer(&sink);
  for (int i = 0; i < 10; ++i) tracer.transaction_completed(static_cast<double>(i));

  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total_recorded(), 10u);
  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: response times 6, 7, 8, 9 survive.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].value, 6.0 + static_cast<double>(i));
    EXPECT_EQ(events[i].seq, 6u + i);
  }
}

TEST(RingBufferSinkTest, BelowCapacityKeepsEverythingInOrder) {
  obs::RingBufferSink sink(8);
  obs::Tracer tracer(&sink);
  tracer.gc_start(250.0);
  tracer.gc_end(900.0);
  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, obs::EventType::kGcStart);
  EXPECT_EQ(events[1].type, obs::EventType::kGcEnd);
}

// --- Tracer stamping / disabled behaviour ---

TEST(TracerTest, StampsSequenceTimeAndRunContext) {
  obs::RingBufferSink sink(8);
  obs::Tracer tracer(&sink);
  tracer.set_run(9.0, 3);
  tracer.set_time(123.5);
  tracer.transaction_completed(2.5);
  tracer.set_time(124.0);
  tracer.downtime_lost();

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_DOUBLE_EQ(events[0].time, 123.5);
  EXPECT_DOUBLE_EQ(events[1].time, 124.0);
  EXPECT_DOUBLE_EQ(events[0].load, 9.0);
  EXPECT_EQ(events[0].rep, 3u);
  EXPECT_EQ(tracer.events_emitted(), 2u);
}

TEST(TracerTest, DisabledTracerEmitsNothing) {
  obs::Tracer tracer;  // no sink
  EXPECT_FALSE(tracer.enabled());
  tracer.transaction_completed(1.0);
  tracer.escalated(1, 0, 2);
  tracer.rejuvenation_triggered(17, obs::DetectorSnapshot{});
  EXPECT_EQ(tracer.events_emitted(), 0u);
}

// --- JSON round-trips ---

obs::TraceEvent parse_one(const std::string& line) {
  const auto event = obs::parse_trace_line(line);
  EXPECT_TRUE(event.has_value()) << line;
  return event.value_or(obs::TraceEvent{});
}

TEST(JsonRoundTripTest, EscapesQuotesBackslashesAndControlCharacters) {
  obs::TraceEvent event;
  event.type = obs::EventType::kRunStart;
  event.note = "label \"quoted\" back\\slash\nnewline\ttab\x01" "ctl";
  const std::string json = obs::to_json(event);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_EQ(parse_one(json), event);
}

TEST(JsonRoundTripTest, DoublesSurviveExactly) {
  obs::TraceEvent event;
  event.type = obs::EventType::kSample;
  event.time = 1680.4563592728964;
  event.value = 0.1;  // not representable exactly; shortest form must round-trip
  event.average = 17.13373002689741;
  event.target = -0.0;
  event.exceeded = true;
  event.bucket = 3;
  event.sample_size = 8;
  const obs::TraceEvent parsed = parse_one(obs::to_json(event));
  EXPECT_EQ(parsed, event);
  EXPECT_DOUBLE_EQ(parsed.time, 1680.4563592728964);
}

TEST(JsonRoundTripTest, EveryEventTypeNameRoundTrips) {
  for (int i = 0; i <= static_cast<int>(obs::EventType::kExternalReset); ++i) {
    const auto type = static_cast<obs::EventType>(i);
    const auto parsed = obs::parse_event_type(obs::event_type_name(type));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(obs::parse_event_type("no_such_event").has_value());
}

TEST(JsonRoundTripTest, ParserRejectsGarbage) {
  EXPECT_FALSE(obs::parse_trace_line("").has_value());
  EXPECT_FALSE(obs::parse_trace_line("not json").has_value());
  EXPECT_FALSE(obs::parse_trace_line("{\"seq\":1}").has_value());  // no type
  EXPECT_FALSE(obs::parse_trace_line("{\"type\":\"no_such_event\"}").has_value());
}

TEST(JsonRoundTripTest, ReadTraceParsesStreamAndSkipsBlankLines) {
  obs::TraceEvent a;
  a.type = obs::EventType::kGcStart;
  a.value = 99.0;
  obs::TraceEvent b;
  b.type = obs::EventType::kGcEnd;
  b.value = 1000.0;
  std::istringstream in(obs::to_json(a) + "\n\n" + obs::to_json(b) + "\n");
  const auto events = obs::read_trace(in);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], a);
  EXPECT_EQ(events[1], b);
}

TEST(CsvSinkTest, WritesHeaderAndOneRowPerEvent) {
  std::ostringstream out;
  obs::CsvSink sink(out);
  obs::Tracer tracer(&sink);
  tracer.transaction_completed(1.25);
  const std::string text = out.str();
  EXPECT_EQ(text.find(obs::CsvSink::header()), 0u);
  EXPECT_NE(text.find("txn"), std::string::npos);
}

// --- Detector snapshot() round-trips ---

// Serializing a snapshot into a kRejuvenationTriggered event, writing it as
// JSONL, and parsing it back must preserve every snapshot field.
void expect_snapshot_round_trips(const obs::DetectorSnapshot& snapshot) {
  const obs::TraceEvent event = to_event(obs::EventType::kRejuvenationTriggered, snapshot);
  const obs::TraceEvent parsed = parse_one(obs::to_json(event));
  EXPECT_EQ(parsed.note, snapshot.algorithm);
  EXPECT_DOUBLE_EQ(parsed.average, snapshot.last_average);
  EXPECT_DOUBLE_EQ(parsed.target, snapshot.current_target);
  EXPECT_EQ(parsed.bucket, snapshot.has_cascade ? snapshot.bucket : -1);
  EXPECT_EQ(parsed.bucket_count, snapshot.bucket_count);
  EXPECT_EQ(parsed.fill, snapshot.fill);
  EXPECT_EQ(parsed.depth, snapshot.depth);
  EXPECT_EQ(parsed.sample_size, snapshot.sample_size);
  EXPECT_EQ(parsed.pending, snapshot.pending);
}

TEST(DetectorSnapshotTest, SraaReportsCascadeState) {
  core::Sraa detector({/*sample_size=*/2, /*buckets=*/5, /*depth=*/3}, {5.0, 5.0});
  // D+1 = 4 windows above the bucket-0 target escalate to bucket 1 (Fig. 6:
  // the fill must *exceed* the depth), at n=2 observations per window.
  for (int i = 0; i < 8; ++i) detector.observe(100.0);
  const obs::DetectorSnapshot snapshot = detector.snapshot();
  EXPECT_EQ(snapshot.algorithm, detector.name());
  EXPECT_TRUE(snapshot.has_cascade);
  EXPECT_EQ(snapshot.bucket_count, 5);
  EXPECT_EQ(snapshot.depth, 3);
  EXPECT_EQ(snapshot.sample_size, 2u);
  EXPECT_GE(snapshot.bucket, 1);
  EXPECT_DOUBLE_EQ(snapshot.baseline_mean, 5.0);
  EXPECT_DOUBLE_EQ(snapshot.last_average, 100.0);
  // Target matches the paper's muX + N * sigmaX for the current bucket.
  EXPECT_DOUBLE_EQ(snapshot.current_target, 5.0 + 5.0 * snapshot.bucket);
  expect_snapshot_round_trips(snapshot);
}

TEST(DetectorSnapshotTest, SaraaReportsAcceleratedSampleSize) {
  core::Saraa detector({/*initial_sample_size=*/4, /*buckets=*/5, /*depth=*/3, true},
                       {5.0, 5.0});
  const obs::DetectorSnapshot before = detector.snapshot();
  EXPECT_EQ(before.sample_size, 4u);
  EXPECT_EQ(before.bucket, 0);
  // D+1 = 4 exceeding windows of norig=4 observations escalate; the
  // acceleration schedule then halves the window (norig / 2^N).
  for (int i = 0; i < 16; ++i) detector.observe(100.0);
  const obs::DetectorSnapshot after = detector.snapshot();
  EXPECT_GE(after.bucket, 1);
  EXPECT_LT(after.sample_size, before.sample_size);
  expect_snapshot_round_trips(after);
}

TEST(DetectorSnapshotTest, CltaHasNoCascade) {
  core::Clta detector({/*sample_size=*/30, /*quantile_z=*/1.96}, {5.0, 5.0});
  detector.observe(6.0);
  const obs::DetectorSnapshot snapshot = detector.snapshot();
  EXPECT_FALSE(snapshot.has_cascade);
  EXPECT_EQ(snapshot.sample_size, 30u);
  EXPECT_EQ(snapshot.pending, 1u);
  // CLTA target: muX + z * sigmaX / sqrt(n).
  EXPECT_NEAR(snapshot.current_target, 5.0 + 1.96 * 5.0 / std::sqrt(30.0), 1e-12);
  expect_snapshot_round_trips(snapshot);
}

TEST(DetectorSnapshotTest, StaticDetectorTracksPerObservationCascade) {
  core::StaticRejuvenation detector(/*buckets=*/3, /*depth=*/2, {5.0, 5.0});
  detector.observe(100.0);
  detector.observe(100.0);
  detector.observe(100.0);  // fill exceeds depth D=2, escalates
  const obs::DetectorSnapshot snapshot = detector.snapshot();
  EXPECT_TRUE(snapshot.has_cascade);
  EXPECT_EQ(snapshot.sample_size, 1u);
  EXPECT_GE(snapshot.bucket, 1);
  EXPECT_DOUBLE_EQ(snapshot.last_average, 100.0);
  expect_snapshot_round_trips(snapshot);
}

TEST(DetectorSnapshotTest, ExtensionDetectorsReportTheirEvidence) {
  const auto trend = core::make_detector(core::parse_spec("Trend(w=8,z=1.96,s=0)"));
  trend->observe(1.0);
  trend->observe(2.0);
  const obs::DetectorSnapshot trend_snapshot = trend->snapshot();
  EXPECT_EQ(trend_snapshot.sample_size, 8u);
  EXPECT_EQ(trend_snapshot.pending, 2u);
  expect_snapshot_round_trips(trend_snapshot);

  const auto quantile = core::make_detector(core::parse_spec("QuantileThreshold(x=15,r=3)"));
  quantile->observe(20.0);
  quantile->observe(20.0);
  const obs::DetectorSnapshot quantile_snapshot = quantile->snapshot();
  EXPECT_FALSE(quantile_snapshot.has_cascade);
  EXPECT_EQ(quantile_snapshot.fill, 2);   // exceedance run length
  EXPECT_EQ(quantile_snapshot.depth, 3);  // required run length
  expect_snapshot_round_trips(quantile_snapshot);
}

TEST(DetectorSnapshotTest, CalibratingDetectorWrapsInnerSnapshot) {
  core::DetectorConfig config{"SRAA"};
  config.set("n", 2).set("K", 5).set("D", 3);
  core::CalibratingDetector detector(config, /*calibration_size=*/4);

  // Still calibrating: base snapshot with calibration progress in `pending`.
  detector.observe(5.0);
  obs::DetectorSnapshot snapshot = detector.snapshot();
  EXPECT_EQ(snapshot.pending, 1u);
  EXPECT_FALSE(snapshot.has_cascade);

  for (int i = 0; i < 4; ++i) detector.observe(5.0);
  snapshot = detector.snapshot();
  EXPECT_TRUE(snapshot.has_cascade);  // inner SRAA active now
  EXPECT_NE(snapshot.algorithm.find("SRAA"), std::string::npos);
  expect_snapshot_round_trips(snapshot);
}

}  // namespace
