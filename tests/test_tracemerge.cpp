// Tests for the distributed-trace toolchain: the small JSON parser
// (obs/json.hpp) and the multi-process trace merge (obs/tracemerge.hpp) —
// clock-offset alignment, the negative-timestamp global shift, default
// handling for inputs without metadata, and byte-identical determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "obs/tracemerge.hpp"
#include "util/error.hpp"

namespace ddnn::obs {
namespace {

// ------------------------------------------------------------ JSON parser

TEST(Json, ParsesScalars) {
  EXPECT_EQ(parse_json("42").i, 42);
  EXPECT_EQ(parse_json("-7").i, -7);
  EXPECT_TRUE(parse_json("true").b);
  EXPECT_FALSE(parse_json("false").b);
  EXPECT_EQ(parse_json("null").kind, JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(parse_json("2.5e3").d, 2500.0);
  EXPECT_EQ(parse_json("\"hi\\n\\\"there\\\"\"").s, "hi\n\"there\"");
}

TEST(Json, IntVersusDoubleDetection) {
  // Integer-looking literals stay exact int64; anything with '.', 'e' or
  // 'E' becomes a double. Merged spans depend on this to re-emit int args
  // (sample_index, trace_id) without a stray ".0".
  EXPECT_EQ(parse_json("1099511627776").kind, JsonValue::Kind::kInt);
  EXPECT_EQ(parse_json("1099511627776").i, 1099511627776LL);
  EXPECT_EQ(parse_json("1.0").kind, JsonValue::Kind::kDouble);
  EXPECT_EQ(parse_json("1e2").kind, JsonValue::Kind::kDouble);
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue doc = parse_json(
      "{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": true}, \"d\": null}");
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc.members.size(), 3u);  // file order preserved
  EXPECT_EQ(doc.members[0].first, "a");
  ASSERT_EQ(doc.at("a").items.size(), 3u);
  EXPECT_EQ(doc.at("a").items[0].i, 1);
  EXPECT_DOUBLE_EQ(doc.at("a").items[1].d, 2.5);
  EXPECT_EQ(doc.at("a").items[2].s, "x");
  EXPECT_TRUE(doc.at("b").at("c").b);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(parse_json("\"\\u00e9\"").s, "\xC3\xA9");        // é
  EXPECT_EQ(parse_json("\"\\u2192\"").s, "\xE2\x86\x92");    // →
}

TEST(Json, MalformedInputThrowsNamedError) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\": }", "tru", "\"unterminated", "1 2",
        "{\"a\" 1}", "nan"}) {
    EXPECT_THROW((void)parse_json(bad), Error) << "'" << bad << "'";
  }
}

TEST(Json, RoundTripsSpanTracerOutput) {
  SpanTracer tracer;
  tracer.set_process(2, "cloud");
  tracer.set_meta("epoch_s", 1234.5);
  tracer.set_track_name(0, "cloud");
  tracer.add("cloud_classify", "compute", 0, 0.25, 0.5)
      .with("sample_index", std::int64_t{7})
      .with("entropy", 0.125)
      .with("mode", std::string("raw_offload"));
  const JsonValue doc = parse_json(tracer.to_json());
  EXPECT_EQ(doc.at("ddnn").at("process").s, "cloud");
  EXPECT_EQ(doc.at("ddnn").at("pid").i, 2);
  EXPECT_DOUBLE_EQ(doc.at("ddnn").at("meta").at("epoch_s").number(), 1234.5);
  const auto& events = doc.at("traceEvents").items;
  ASSERT_EQ(events.size(), 3u);  // process_name, thread_name, the span
  const JsonValue& span = events[2];
  EXPECT_EQ(span.at("name").s, "cloud_classify");
  EXPECT_DOUBLE_EQ(span.at("ts").number(), 250000.0);
  EXPECT_EQ(span.at("args").at("sample_index").i, 7);
  EXPECT_EQ(span.at("args").at("mode").s, "raw_offload");
}

// ------------------------------------------------------------ trace merge

/// A temp-dir path private to the running test. ctest runs every test as
/// its own process, in parallel under -j, so a shared file name would let
/// one test overwrite another's input between its two merges.
std::string test_path(const std::string& name) {
  return ::testing::TempDir() + "/" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

std::string write_trace(const std::string& name, const SpanTracer& tracer) {
  const std::string path = test_path(name);
  tracer.write_json(path);
  return path;
}

/// Driver + cloud pair: the driver's clock is the reference; the cloud's
/// spans are recorded against its own epoch and must land on the driver
/// timeline via epoch difference + handshake offset.
struct TwoProcessRun {
  std::string driver_path;
  std::string cloud_path;
};

TwoProcessRun make_run(double driver_epoch, double cloud_epoch,
                       double offset_cloud_s) {
  SpanTracer driver;
  driver.set_process(0, "driver");
  driver.set_meta("epoch_s", driver_epoch);
  driver.set_meta("offset_cloud_s", offset_cloud_s);
  driver.set_track_name(0, "samples");
  driver.add("sample", "sample", 0, 0.010, 0.100)
      .with("sample_index", std::int64_t{0});

  SpanTracer cloud;
  cloud.set_process(2, "cloud");
  cloud.set_meta("epoch_s", cloud_epoch);
  cloud.set_track_name(0, "cloud");
  cloud.add("cloud_classify", "compute", 0, 0.020, 0.050)
      .with("sample_index", std::int64_t{0});

  return {write_trace("merge_driver.json", driver),
          write_trace("merge_cloud.json", cloud)};
}

double span_ts_us(const JsonValue& merged, const std::string& span_name) {
  for (const JsonValue& ev : merged.at("traceEvents").items) {
    if (ev.at("ph").s == "X" && ev.at("name").s == span_name) {
      return ev.at("ts").number();
    }
  }
  ADD_FAILURE() << "span '" << span_name << "' not in merged trace";
  return NAN;
}

TEST(TraceMerge, AlignsRemoteSpansViaEpochAndOffset) {
  // Cloud epoch sits 1 s after the driver's, and the handshake measured the
  // cloud clock running 2 ms behind (offset +0.002): a span at cloud-local
  // 20 ms lands at 1.022 s on the driver timeline.
  const auto run = make_run(100.0, 101.0, 0.002);
  TraceMergeResult stats;
  const JsonValue merged = parse_json(
      merge_traces_json({run.driver_path, run.cloud_path}, &stats));
  EXPECT_EQ(stats.processes, 2);
  EXPECT_EQ(stats.spans, 2u);
  EXPECT_DOUBLE_EQ(stats.max_abs_offset_s, 0.002);
  EXPECT_DOUBLE_EQ(stats.shift_s, 0.0);  // nothing went negative
  EXPECT_NEAR(span_ts_us(merged, "sample"), 10000.0, 0.5);
  EXPECT_NEAR(span_ts_us(merged, "cloud_classify"), 1022000.0, 0.5);
}

TEST(TraceMerge, NegativeOffsetTriggersGlobalShift) {
  // The cloud epoch *precedes* the driver's: its span would land at a
  // negative timestamp, so the whole timeline shifts right to keep ts >= 0
  // and relative distances intact.
  const auto run = make_run(100.0, 99.5, 0.0);
  TraceMergeResult stats;
  const JsonValue merged = parse_json(
      merge_traces_json({run.driver_path, run.cloud_path}, &stats));
  // cloud_classify raw position: (99.5 - 100.0) + 0.020 = -0.480 s.
  EXPECT_NEAR(stats.shift_s, 0.480, 1e-9);
  EXPECT_NEAR(span_ts_us(merged, "cloud_classify"), 0.0, 0.5);
  EXPECT_NEAR(span_ts_us(merged, "sample"), 490000.0, 0.5);
}

TEST(TraceMerge, ReassignsPidsByInputOrder) {
  const auto run = make_run(0.0, 0.0, 0.0);
  const JsonValue merged =
      parse_json(merge_traces_json({run.driver_path, run.cloud_path}, nullptr));
  // Input index, not the per-process pid recorded in the file (the cloud
  // writes pid 2 but merges as process 1 of this two-file merge).
  for (const JsonValue& ev : merged.at("traceEvents").items) {
    if (ev.at("ph").s == "X") {
      EXPECT_EQ(ev.at("pid").i, ev.at("name").s == "sample" ? 0 : 1);
    }
  }
  // Per-process metadata survives: names + per-track threads.
  int process_names = 0;
  for (const JsonValue& ev : merged.at("traceEvents").items) {
    if (ev.at("ph").s == "M" && ev.at("name").s == "process_name") {
      ++process_names;
    }
  }
  EXPECT_EQ(process_names, 2);
}

TEST(TraceMerge, DeterministicByteIdenticalOutput) {
  const auto run = make_run(50.0, 51.25, -0.003);
  const std::string once =
      merge_traces_json({run.driver_path, run.cloud_path}, nullptr);
  const std::string twice =
      merge_traces_json({run.driver_path, run.cloud_path}, nullptr);
  EXPECT_EQ(once, twice);
  // Args survive the re-emit with their original order and int-ness.
  EXPECT_NE(once.find("\"sample_index\": 0"), std::string::npos);
}

TEST(TraceMerge, InputWithoutMetadataMergesAsOffsetZero) {
  // A legacy single-process trace (no "ddnn" block) merges under a
  // synthesized name with epoch 0 and offset 0.
  SpanTracer legacy;
  legacy.add("sample", "sample", 0, 0.5, 0.1);
  SpanTracer driver;
  driver.set_process(0, "driver");
  driver.set_meta("epoch_s", 0.0);
  driver.add("sample", "sample", 0, 0.0, 0.2);
  const std::string ref = write_trace("merge_ref.json", driver);
  const std::string old = write_trace("merge_legacy.json", legacy);
  TraceMergeResult stats;
  const std::string merged = merge_traces_json({ref, old}, &stats);
  EXPECT_EQ(stats.processes, 2);
  EXPECT_DOUBLE_EQ(stats.max_abs_offset_s, 0.0);
  EXPECT_NE(merged.find("\"name\": \"p1\""), std::string::npos);
}

TEST(TraceMerge, EmptyTraceContributesNothing) {
  SpanTracer driver;
  driver.set_process(0, "driver");
  driver.set_meta("epoch_s", 1.0);
  driver.add("sample", "sample", 0, 0.0, 0.1);
  SpanTracer idle;
  idle.set_process(2, "cloud");
  idle.set_meta("epoch_s", 1.0);
  const std::string a = write_trace("merge_busy.json", driver);
  const std::string b = write_trace("merge_idle.json", idle);
  TraceMergeResult stats;
  (void)merge_traces_json({a, b}, &stats);
  EXPECT_EQ(stats.processes, 2);
  EXPECT_EQ(stats.spans, 1u);
}

TEST(TraceMerge, RejectsGarbageInputs) {
  const std::string path = test_path("merge_garbage.json");
  {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\"}";  // no traceEvents
  }
  EXPECT_THROW((void)merge_traces_json({path}, nullptr), Error);
  EXPECT_THROW((void)merge_traces_json({"/nonexistent/trace.json"}, nullptr),
               Error);
  EXPECT_THROW((void)merge_traces_json({}, nullptr), Error);
}

}  // namespace
}  // namespace ddnn::obs
