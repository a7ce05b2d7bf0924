// Tests for the observability layer (src/obs): metrics registry merge
// determinism, HDR histogram percentile bounds, runtime span tracing (tree
// shape + exact agreement with InferenceTrace/RuntimeMetrics), trace JSON
// schema and the profiling hooks.
//
// This suite runs under the determinism_obs_sweep CTest: every asserted
// value must be independent of DDNN_THREADS (the registry's merge contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/mvmc.hpp"
#include "dist/queueing.hpp"
#include "dist/runtime.hpp"
#include "obs/hdr.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace ddnn::obs {
namespace {

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterMergesExactlyAcrossPoolWorkers) {
  MetricsRegistry reg;
  Counter& c = reg.counter("work.items");
  // Record from whatever pool DDNN_THREADS configured: the merged value
  // must be the exact item count no matter how the chunks were split.
  parallel_for(0, 10000, 64, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) c.add(1);
  });
  EXPECT_EQ(c.value(), 10000);
}

TEST(MetricsRegistry, JsonIsByteStableAndOrderedByRegistration) {
  MetricsRegistry reg;
  reg.counter("b.second");
  reg.gauge("a.first").set(0.1);
  reg.counter("b.second").add(7);
  const std::string json = reg.to_json();
  EXPECT_EQ(json, reg.to_json());  // byte-identical re-export
  // Registration order, not name order.
  EXPECT_LT(json.find("b.second"), json.find("a.first"));
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  // %.17g round-trips the gauge exactly.
  EXPECT_NE(json.find("0.10000000000000001"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentFirstRequestsShareOneMetric) {
  // Eight threads request each name for the first time at once, behind a
  // start barrier: every kind must hand all of them the same object.
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  struct Got {
    obs::Counter* counter = nullptr;
    obs::Gauge* gauge = nullptr;
    obs::HdrHistogram* hdr = nullptr;
  };
  std::vector<Got> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      got[t].counter = &reg.counter("race.counter");
      got[t].gauge = &reg.gauge("race.gauge");
      got[t].hdr = &reg.hdr_histogram("race.hdr", 1e-3, 1e3);
    });
  }
  for (auto& th : threads) th.join();
  for (const Got& g : got) {
    EXPECT_EQ(g.counter, got[0].counter);
    EXPECT_EQ(g.gauge, got[0].gauge);
    EXPECT_EQ(g.hdr, got[0].hdr);
  }
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, NameReuseWithDifferentTypeThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), Error);
  EXPECT_THROW(reg.hdr_histogram("x", 1.0, 2.0), Error);
}

TEST(MetricsRegistry, HdrHistogramReuseWithDifferentLayoutThrows) {
  MetricsRegistry reg;
  HdrHistogram& h = reg.hdr_histogram("hdr", 1e-3, 3.6e6);
  EXPECT_EQ(&reg.hdr_histogram("hdr", 1e-3, 3.6e6), &h);
  EXPECT_THROW(reg.hdr_histogram("hdr", 1e-2, 3.6e6), Error);
  EXPECT_THROW(reg.hdr_histogram("hdr", 1e-3, 1e3), Error);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("n").add(5);
  reg.hdr_histogram("h", 1.0, 10.0).record(3.0);
  reg.reset();
  EXPECT_EQ(reg.counter("n").value(), 0);
  EXPECT_EQ(reg.hdr_histogram("h", 1.0, 10.0).count(), 0);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"n", "h"}));
}

// -------------------------------------------------------------- trace JSON

TEST(SpanTracer, GoldenJsonSchema) {
  SpanTracer tracer;
  tracer.set_track_name(0, "samples");
  tracer.set_track_name(1, "device0");
  tracer.add("sample", "sample", 0, 0.0, 0.0025)
      .with("bytes", std::int64_t{72})
      .with("entropy", 0.5)
      .with("note", "a\"b");
  tracer.add("send:scores", "net", 1, 0.002, 0.0005);
  const std::string expected =
      "{\n"
      "  \"displayTimeUnit\": \"ms\",\n"
      "  \"traceEvents\": [\n"
      "    {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": "
      "\"thread_name\", \"args\": {\"name\": \"samples\"}},\n"
      "    {\"ph\": \"M\", \"pid\": 0, \"tid\": 1, \"name\": "
      "\"thread_name\", \"args\": {\"name\": \"device0\"}},\n"
      "    {\"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"name\": \"sample\", "
      "\"cat\": \"sample\", \"ts\": 0.000, \"dur\": 2500.000, \"args\": "
      "{\"bytes\": 72, \"entropy\": 0.5, \"note\": \"a\\\"b\"}},\n"
      "    {\"ph\": \"X\", \"pid\": 0, \"tid\": 1, \"name\": "
      "\"send:scores\", \"cat\": \"net\", \"ts\": 2000.000, \"dur\": "
      "500.000}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(tracer.to_json(), expected);
}

// ----------------------------------------------------------- runtime spans

struct ObsRuntimeFixture : public ::testing::Test {
  ObsRuntimeFixture() {
    data::MvmcConfig data_cfg;
    data_cfg.train_samples = 48;
    data_cfg.test_samples = 24;
    data_cfg.seed = 77;
    dataset = std::make_unique<data::MvmcDataset>(
        data::MvmcDataset::generate(data_cfg));
    model = std::make_unique<core::DdnnModel>(
        core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
    model->set_training(false);
  }

  std::vector<const obs::Span*> sample_children(const SpanTracer& tracer,
                                                const Span& sample) const {
    std::vector<const obs::Span*> out;
    const double end = sample.start_s + sample.dur_s;
    for (const auto& s : tracer.spans()) {
      if (&s == &sample || s.name == "sample") continue;
      if (s.start_s >= sample.start_s && s.start_s + s.dur_s <= end + 1e-12) {
        out.push_back(&s);
      }
    }
    return out;
  }

  std::unique_ptr<data::MvmcDataset> dataset;
  std::unique_ptr<core::DdnnModel> model;
  std::vector<int> devices{0, 1, 2, 3, 4, 5};
};

TEST_F(ObsRuntimeFixture, LocalExitSpanTreeShape) {
  // Threshold 1.0: normalized entropy is always <= 1, so every sample
  // classifies at the gateway — device sections, score sends, a gateway
  // fuse, and nothing above.
  dist::HierarchyRuntime runtime(*model, {1.0}, devices);
  SpanTracer tracer;
  runtime.set_tracer(&tracer);
  const auto trace = runtime.classify(dataset->test()[0]);
  EXPECT_EQ(trace.exit_taken, 0);

  const auto& spans = tracer.spans();
  const auto count = [&](const char* name) {
    return std::count_if(spans.begin(), spans.end(),
                         [&](const Span& s) { return s.name == name; });
  };
  EXPECT_EQ(count("sample"), 1);
  EXPECT_EQ(count("device_section"), 6);
  EXPECT_EQ(count("send:scores"), 6);
  EXPECT_EQ(count("gateway_fuse"), 1);
  EXPECT_EQ(count("send:features"), 0);
  EXPECT_EQ(count("cloud_classify"), 0);

  // Root span: exact InferenceTrace agreement, children nested inside.
  const Span& root = spans.back();
  ASSERT_EQ(root.name, "sample");
  EXPECT_EQ(root.dur_s, trace.latency_s);
  EXPECT_EQ(root.arg("latency_s")->d, trace.latency_s);
  EXPECT_EQ(root.arg("bytes")->i, trace.bytes_sent);
  EXPECT_EQ(root.arg("exit")->i, 0);
  EXPECT_EQ(sample_children(tracer, root).size(), spans.size() - 1);
}

TEST_F(ObsRuntimeFixture, CloudOffloadSpanTreeShape) {
  // Threshold -1: the local exit never fires, every sample escalates its
  // features and the cloud classifies.
  dist::HierarchyRuntime runtime(*model, {-1.0}, devices);
  SpanTracer tracer;
  runtime.set_tracer(&tracer);
  const auto trace = runtime.classify(dataset->test()[0]);
  EXPECT_EQ(trace.exit_taken, 1);

  const auto& spans = tracer.spans();
  const auto count = [&](const char* name) {
    return std::count_if(spans.begin(), spans.end(),
                         [&](const Span& s) { return s.name == name; });
  };
  EXPECT_EQ(count("send:scores"), 6);
  EXPECT_EQ(count("send:features"), 6);
  EXPECT_EQ(count("cloud_classify"), 1);

  // Span-summed delivered bytes equal the trace's byte count exactly.
  std::int64_t send_bytes = 0;
  for (const auto& s : spans) {
    if (s.name.rfind("send:", 0) == 0) send_bytes += s.arg("bytes")->i;
  }
  EXPECT_EQ(send_bytes, trace.bytes_sent);
  EXPECT_EQ(spans.back().arg("latency_s")->d, trace.latency_s);
}

TEST_F(ObsRuntimeFixture, DegradedAndDeadSpanShapes) {
  // Drop probability 1: nothing is ever delivered, so after the gateway
  // hears nothing and no feature or raw image arrives, the sample dies.
  dist::HierarchyRuntime runtime(*model, {1.0}, devices);
  dist::FaultPlan plan;
  plan.seed = 5;
  plan.link_drop_prob = 1.0;
  runtime.set_fault_plan(plan);
  SpanTracer tracer;
  runtime.set_tracer(&tracer);
  const auto trace = runtime.classify(dataset->test()[0]);
  EXPECT_TRUE(trace.dead);
  EXPECT_EQ(trace.exit_taken, -1);

  const auto& spans = tracer.spans();
  const Span& root = spans.back();
  ASSERT_EQ(root.name, "sample");
  EXPECT_EQ(root.arg("dead")->i, 1);
  EXPECT_EQ(root.arg("degraded")->i, 1);
  EXPECT_EQ(root.arg("bytes")->i, 0);
  // Sends happened (and failed): attempts recorded, zero delivered bytes.
  bool saw_failed_send = false;
  for (const auto& s : spans) {
    if (s.name.rfind("send:", 0) != 0) continue;
    saw_failed_send = true;
    EXPECT_EQ(s.arg("delivered")->i, 0);
    EXPECT_EQ(s.arg("bytes")->i, 0);
    EXPECT_GT(s.arg("attempts")->i, 1);
  }
  EXPECT_TRUE(saw_failed_send);

  // All devices down: the dead sample's tree is just the flagged root.
  dist::HierarchyRuntime downed(*model, {1.0}, devices);
  for (int b = 0; b < 6; ++b) downed.set_device_failed(b, true);
  SpanTracer tracer2;
  downed.set_tracer(&tracer2);
  const auto dead = downed.classify(dataset->test()[0]);
  EXPECT_TRUE(dead.dead);
  ASSERT_EQ(tracer2.spans().size(), 1u);
  EXPECT_EQ(tracer2.spans()[0].name, "sample");
  EXPECT_EQ(tracer2.spans()[0].dur_s, 0.0);
}

TEST_F(ObsRuntimeFixture, TraceJsonAndBoundMetricsAreRerunIdentical) {
  // The determinism contract end to end: same model + data + plan => byte-
  // identical trace JSON and metrics JSON, and the bound registry agrees
  // exactly with RuntimeMetrics.
  dist::FaultPlan plan;
  plan.seed = 13;
  plan.link_drop_prob = 0.1;
  auto run = [&] {
    dist::HierarchyRuntime runtime(*model, {0.5}, devices);
    runtime.set_fault_plan(plan);
    SpanTracer tracer;
    MetricsRegistry reg;
    runtime.set_tracer(&tracer);
    runtime.bind_metrics(&reg);
    for (const auto& s : dataset->test()) runtime.classify(s);
    return std::tuple{tracer.to_json(), reg.to_json(), runtime.metrics()};
  };
  const auto [trace1, metrics1, rm] = run();
  const auto [trace2, metrics2, rm2] = run();
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(metrics1, metrics2);

  // Registry vs RuntimeMetrics: exact.
  dist::HierarchyRuntime runtime(*model, {0.5}, devices);
  runtime.set_fault_plan(plan);
  MetricsRegistry reg;
  runtime.bind_metrics(&reg);
  for (const auto& s : dataset->test()) runtime.classify(s);
  const auto& m = runtime.metrics();
  EXPECT_EQ(reg.counter("runtime.samples").value(), m.samples);
  EXPECT_EQ(reg.counter("runtime.bytes_total").value(), m.total_bytes);
  EXPECT_EQ(reg.counter("runtime.correct").value(), m.correct);
  EXPECT_EQ(reg.counter("runtime.retries").value(), m.reliability.retries);
  EXPECT_EQ(reg.counter("runtime.drops").value(), m.reliability.drops);
  EXPECT_EQ(reg.counter("runtime.timeouts").value(), m.reliability.timeouts);
  EXPECT_EQ(reg.counter("runtime.exit.local").value(), m.exit_counts[0]);
  EXPECT_EQ(reg.counter("runtime.exit.cloud").value(), m.exit_counts[1]);
  EXPECT_EQ(reg.gauge("runtime.total_latency_s").value(), m.total_latency_s);
  EXPECT_EQ(reg.hdr_histogram("runtime.hdr_latency_ms", 1e-3, 3.6e6).count(),
            m.samples);
}

// ---------------------------------------------------------------- profiling

bool registered(const std::string& name) {
  const auto names = global_metrics().names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Calls booked under prof.<op>.us in the global registry (0 while the op
/// has never fired armed, so nothing is registered).
std::int64_t prof_calls(const std::string& op) {
  const std::string name = "prof." + op + ".us";
  if (!registered(name)) return 0;
  return global_metrics()
      .hdr_histogram(name, kProfileUnitUs, kProfileMaxUs)
      .count();
}

TEST(Profile, DisabledHooksRecordNothing) {
  // An unarmed site registers nothing, so an unarmed run's export is the
  // same as if the site were absent.
  set_profiling_enabled(false);
  {
    DDNN_PROF_SCOPE("obs_test_unarmed_op");
  }
  EXPECT_FALSE(registered("prof.obs_test_unarmed_op.us"));
  EXPECT_FALSE(registered("prof.obs_test_unarmed_op.total_ns"));
}

TEST(Profile, EnabledHooksCountCallsAndRenderTable) {
  const std::int64_t before = prof_calls("obs_test_op");
  set_profiling_enabled(true);
  for (int i = 0; i < 3; ++i) {
    DDNN_PROF_SCOPE("obs_test_op");
  }
  set_profiling_enabled(false);
  EXPECT_EQ(prof_calls("obs_test_op") - before, 3);
  // The exact-sum counter covers at least the longest call.
  const HdrHistogram& h = global_metrics().hdr_histogram(
      "prof.obs_test_op.us", kProfileUnitUs, kProfileMaxUs);
  EXPECT_GE(static_cast<double>(
                global_metrics().counter("prof.obs_test_op.total_ns").value()),
            std::floor(h.max() * 1e3));
  const std::string table = global_metrics().to_table().to_string();
  EXPECT_NE(table.find("prof.obs_test_op.us"), std::string::npos);
}

TEST(Profile, KernelHooksCoverHotOpsWhenEnabled) {
  const std::int64_t before = prof_calls("matmul");
  set_profiling_enabled(true);
  Rng rng(3);
  const Tensor a = Tensor::randn(Shape{8, 16}, rng);
  const Tensor b = Tensor::randn(Shape{16, 8}, rng);
  ops::matmul(a, b);
  set_profiling_enabled(false);
  EXPECT_EQ(prof_calls("matmul") - before, 1);
}

TEST(Profile, TrainerPhasesAndMetricsSink) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 16;
  data_cfg.test_samples = 4;
  data_cfg.seed = 9;
  const auto dataset = data::MvmcDataset::generate(data_cfg);
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));

  const std::int64_t forward = prof_calls("train_forward");
  const std::int64_t backward = prof_calls("train_backward");
  const std::int64_t step = prof_calls("train_step");
  set_profiling_enabled(true);
  MetricsRegistry reg;
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 8;
  cfg.metrics = &reg;
  core::train_ddnn(model, dataset.train(), {0, 1, 2, 3, 4, 5}, cfg);
  set_profiling_enabled(false);

  EXPECT_EQ(reg.counter("train.epochs").value(), 1);
  EXPECT_EQ(reg.counter("train.batches").value(), 2);
  EXPECT_EQ(reg.counter("train.samples").value(), 16);
  EXPECT_EQ(prof_calls("train_forward") - forward, 2);
  EXPECT_EQ(prof_calls("train_backward") - backward, 2);
  EXPECT_EQ(prof_calls("train_step") - step, 2);
}

// -------------------------------------------------------------- HDR buckets

TEST(HdrHistogram, BucketLayoutRoundTripsAndBoundsRelativeError) {
  // Every unit value must land in a bucket whose upper edge is >= the value
  // and within the documented relative error bound (1/128) above it.
  for (const std::int64_t u :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{127}, std::int64_t{128},
        std::int64_t{129}, std::int64_t{255}, std::int64_t{256},
        std::int64_t{1000}, std::int64_t{65535}, std::int64_t{1 << 20},
        std::int64_t{(1ll << 40) + 12345}}) {
    const int b = HdrHistogram::bucket_for_unit(u);
    const std::int64_t upper = HdrHistogram::bucket_upper_unit(b);
    EXPECT_GE(upper, u) << u;
    EXPECT_LE(static_cast<double>(upper - u),
              std::max(1.0, static_cast<double>(u) *
                                HdrHistogram::relative_error_bound()))
        << u;
    if (b > 0) {
      // The bucket below must end strictly under u (buckets partition).
      EXPECT_LT(HdrHistogram::bucket_upper_unit(b - 1), u) << u;
    }
  }
  // Bucket indices are monotone in the value.
  int prev = -1;
  for (std::int64_t u = 0; u < 100000; u += 7) {
    const int b = HdrHistogram::bucket_for_unit(u);
    EXPECT_GE(b, prev) << u;
    prev = b;
  }
}

TEST(HdrHistogram, PercentilesWithinRelativeErrorBoundAndMaxIsExact) {
  HdrHistogram h(1e-3, 3.6e6);  // microsecond resolution up to an hour, in ms
  Rng rng(99);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    // Heavy-ish tail: mostly fast, a sprinkle of 100x outliers.
    const double v = rng.uniform() < 0.99 ? rng.uniform(0.5, 20.0)
                                          : rng.uniform(100.0, 2000.0);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(h.count(), 20000);
  EXPECT_EQ(h.max(), values.back());  // exact, not a bucket edge
  EXPECT_EQ(h.min(), values.front());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = ddnn::percentile_nearest_rank(values, q);
    const double est = h.percentile(q);
    EXPECT_GE(est, exact) << q;  // bucket upper edge never understates
    EXPECT_LE(est,
              exact * (1.0 + HdrHistogram::relative_error_bound()) + 2e-3)
        << q;
  }
  EXPECT_EQ(h.percentile(1.0), values.back());
}

TEST(HdrHistogram, OverflowCountsAndKeepsExactMax) {
  HdrHistogram h(1.0, 1000.0);
  h.record(5.0);
  h.record(5000.0);  // beyond max_value: clamped into the top bucket
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.max(), 5000.0);  // extrema keep the raw value
}

TEST(HdrHistogram, PercentileSingleSampleIsThatSample) {
  // The bucket's upper edge is clamped to the exact max, so a lone sample
  // reads back as itself at every rank, not as a bucket edge.
  HdrHistogram h(1e-3, 3.6e6);
  h.record(37.5);
  for (const double q : {0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(q), 37.5) << q;
  }
}

TEST(HdrHistogram, PercentileAllEqualIsThatValue) {
  HdrHistogram h(1e-3, 3.6e6);
  for (int i = 0; i < 1000; ++i) h.record(42.0);
  const HdrHistogram::View v = h.view();
  for (const double q : {0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(v.percentile(q), 42.0) << q;
  }
}

TEST(HdrHistogram, PercentileInExactRangeIsTheNearestRankValue) {
  // Under 2 * kSubBuckets units every bucket holds one unit, so an
  // integer-valued sample reads back exactly: the nearest-rank value, not
  // one unit above it. 256 units is the first two-unit bucket.
  HdrHistogram h(1.0, 1000.0);
  std::vector<double> sorted;
  for (int v = 1; v <= 255; v += 2) {
    h.record(static_cast<double>(v));
    sorted.push_back(static_cast<double>(v));
  }
  h.record(256.0);
  sorted.push_back(256.0);
  h.record(300.0);
  sorted.push_back(300.0);
  const HdrHistogram::View view = h.view();
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95}) {
    const double exact = ddnn::percentile_nearest_rank(sorted, q);
    EXPECT_EQ(view.percentile(q), exact) << q;
  }
  // Rank ceil(0.99 * 130) = 129 is 256, read at its two-unit bucket's
  // exclusive upper edge.
  EXPECT_EQ(view.percentile(0.99), 258.0);
  EXPECT_EQ(view.percentile(1.0), 300.0);

  // The top rank reads the exact max, so a lone fractional sample reads
  // back as itself; a lower rank reads its bucket's integer-unit value.
  HdrHistogram lone(1.0, 1000.0);
  lone.record(72.5);
  EXPECT_EQ(lone.percentile(0.5), 72.5);
  lone.record(72.75);
  EXPECT_EQ(lone.percentile(0.5), 72.0);
  EXPECT_EQ(lone.percentile(1.0), 72.75);
}

TEST(HdrHistogram, NegativeValuesLandInBucketZeroAndKeepRawMin) {
  HdrHistogram h(1.0, 10.0);
  h.record(-100.0);
  h.record(1e9);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.overflow(), 1);  // only the value past max_value
  EXPECT_EQ(h.min(), -100.0);  // extrema keep the raw values
  EXPECT_EQ(h.max(), 1e9);
  // The low sample reads bucket 0's exact value; the overflowed one reads
  // the exact max, not the edge of the top bucket it was clamped into.
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(1.0), 1e9);
}

TEST(HdrHistogram, OverflowedTailReadsTheExactMax) {
  // 997 in-range samples and 3 past max_value: ranks up to 997 read their
  // buckets, the top three ranks read the exact max.
  HdrHistogram h(1.0, 1000.0);
  for (int i = 1; i <= 997; ++i) h.record(static_cast<double>(i % 500));
  h.record(2000.0);
  h.record(5e4);
  h.record(3e6);
  ASSERT_EQ(h.overflow(), 3);
  const HdrHistogram::View v = h.view();
  // Rank 500 of the in-range values is 250 (one-unit bucket, exact).
  EXPECT_EQ(v.percentile(0.5), 250.0);
  // Rank 997, the last in-range one: the largest in-range value, 499, read
  // at its bucket's upper edge.
  EXPECT_EQ(v.percentile(0.997),
            static_cast<double>(HdrHistogram::bucket_upper_unit(
                                    HdrHistogram::bucket_for_unit(499)) +
                                1));
  EXPECT_EQ(v.percentile(0.998), 3e6);
  EXPECT_EQ(v.percentile(0.999), 3e6);
  EXPECT_EQ(v.percentile(1.0), 3e6);
}

TEST(HdrHistogram, PercentileRejectsBadRank) {
  HdrHistogram h(1.0, 10.0);
  // Checked before the emptiness test, so an empty histogram rejects too.
  EXPECT_THROW(h.percentile(0.0), Error);
  h.record(3.0);
  EXPECT_THROW(h.percentile(0.0), Error);
  EXPECT_THROW(h.percentile(-0.5), Error);
  EXPECT_THROW(h.percentile(1.5), Error);
  EXPECT_THROW(h.exemplar_at(1.5), Error);
  EXPECT_NO_THROW(h.percentile(1.0));
}

TEST(HdrHistogram, ConstructorRejectsBadLayout) {
  EXPECT_THROW(HdrHistogram(0.0, 10.0), Error);
  EXPECT_THROW(HdrHistogram(-1.0, 10.0), Error);
  EXPECT_THROW(HdrHistogram(1.0, 1.0), Error);  // range must exceed a unit
  EXPECT_THROW(HdrHistogram(1.0, 0.5), Error);
  EXPECT_NO_THROW(HdrHistogram(1.0, 2.0));
}

TEST(MetricsRegistry, HdrOverflowIsExportedNotSilentlyClamped) {
  MetricsRegistry reg;
  HdrHistogram& h = reg.hdr_histogram("work.value", 1.0, 10.0);
  h.record(5.0);
  h.record(1e9);  // clamps into the top bucket, but the export says so
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"type\": \"hdr\", \"count\": 2, \"overflow\": 1"),
            std::string::npos)
      << json;
  const Table table = reg.to_table();
  ASSERT_EQ(table.rows().size(), 1u);
  EXPECT_EQ(table.rows()[0][0], "work.value");
  EXPECT_EQ(table.rows()[0][1], "hdr");
  EXPECT_EQ(table.rows()[0][2].rfind("n=2 ", 0), 0u) << table.rows()[0][2];
}

TEST(HdrHistogram, ExemplarSmallestSampleIndexWins) {
  HdrHistogram h(1.0, 1000.0);
  // Three samples in the same bucket, recorded out of index order: the
  // exemplar must deterministically resolve to the smallest sample index
  // regardless of arrival order (the thread-race tiebreak rule).
  h.record(500.0, /*trace_id=*/70005, /*sample_index=*/5);
  h.record(500.0, /*trace_id=*/70002, /*sample_index=*/2);
  h.record(500.0, /*trace_id=*/70009, /*sample_index=*/9);
  const HdrExemplar ex = h.exemplar_at(0.99);
  ASSERT_TRUE(ex.valid());
  EXPECT_EQ(ex.sample, 2);
  EXPECT_EQ(ex.trace_id, 70002u);
  const HdrExemplar mx = h.max_exemplar();
  ASSERT_TRUE(mx.valid());
  EXPECT_EQ(mx.sample, 2);
}

TEST(HdrHistogram, MergesExactlyAcrossPoolWorkers) {
  // Same multiset recorded concurrently and serially must agree on every
  // export: counts merge exactly and the exemplar tiebreak is by index.
  HdrHistogram par(1e-3, 3.6e6);
  parallel_for(0, 20000, 64, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const double v = 0.5 + static_cast<double>(i % 997);
      par.record(v, static_cast<std::uint64_t>(i + 1), i);
    }
  });
  HdrHistogram ser(1e-3, 3.6e6);
  for (std::int64_t i = 0; i < 20000; ++i) {
    const double v = 0.5 + static_cast<double>(i % 997);
    ser.record(v, static_cast<std::uint64_t>(i + 1), i);
  }
  EXPECT_EQ(par.count(), ser.count());
  EXPECT_EQ(par.max(), ser.max());
  EXPECT_EQ(par.min(), ser.min());
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(par.percentile(q), ser.percentile(q)) << q;
    EXPECT_EQ(par.exemplar_at(q).sample, ser.exemplar_at(q).sample) << q;
    EXPECT_EQ(par.exemplar_at(q).trace_id, ser.exemplar_at(q).trace_id) << q;
  }
}

TEST(HdrHistogram, ReadsFromSeveralLiveShardsMatchBruteForce) {
  // Four recording threads, so four shard slots are live; each records a
  // strided share of the samples in descending index order, so the
  // smallest-sample-index rule decides every exemplar across shards. Some
  // values exceed max_value and clamp into the top bucket.
  constexpr double kUnit = 1e-3, kMax = 1e3;
  constexpr int kSamples = 12000, kThreads = 4;
  Rng rng(31);
  std::vector<double> values(kSamples);
  for (auto& v : values) {
    const double r = rng.uniform();
    v = r < 0.9 ? rng.uniform(0.0, 5.0)
                : (r < 0.995 ? rng.uniform(5.0, 900.0)
                             : rng.uniform(kMax, 4.0 * kMax));
  }
  const auto trace_of = [](std::int64_t i) {
    return static_cast<std::uint64_t>(1000003 * i + 7);
  };
  HdrHistogram h(kUnit, kMax);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::int64_t i = kSamples - 1 - t; i >= 0; i -= kThreads) {
        h.record(values[static_cast<std::size_t>(i)], trace_of(i), i);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Brute force: the bucket of the rank-q sorted sample, its upper edge
  // clamped to the exact max (the exact max itself when the sample is past
  // max_value), and the smallest sample index in the bucket.
  const auto max_unit = static_cast<std::int64_t>(kMax / kUnit);
  const auto bucket_of = [&](double v) {
    return HdrHistogram::bucket_for_unit(
        std::min(static_cast<std::int64_t>(std::max(v, 0.0) / kUnit),
                 max_unit));
  };
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double max_value = sorted.back();
  const auto exemplar_of_bucket = [&](int b) {
    for (std::int64_t i = 0; i < kSamples; ++i) {
      if (bucket_of(values[static_cast<std::size_t>(i)]) == b) {
        return HdrExemplar{i, trace_of(i)};
      }
    }
    return HdrExemplar{};
  };
  const HdrHistogram::View view = h.view();
  for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double v = sorted[static_cast<std::size_t>(
        nearest_rank(q, kSamples) - 1)];
    const int b = bucket_of(v);
    const bool overflowed = static_cast<std::int64_t>(v / kUnit) > max_unit;
    const double want =
        overflowed ? max_value
                   : std::min(static_cast<double>(
                                  HdrHistogram::bucket_upper_unit(b) + 1) *
                                  kUnit,
                              max_value);
    const HdrExemplar ex = exemplar_of_bucket(b);
    EXPECT_EQ(h.percentile(q), want) << q;
    EXPECT_EQ(view.percentile(q), want) << q;
    EXPECT_EQ(h.exemplar_at(q).sample, ex.sample) << q;
    EXPECT_EQ(h.exemplar_at(q).trace_id, ex.trace_id) << q;
    EXPECT_EQ(view.exemplar_at(q).sample, ex.sample) << q;
    EXPECT_EQ(view.exemplar_at(q).trace_id, ex.trace_id) << q;
  }
  const HdrExemplar top = exemplar_of_bucket(bucket_of(max_value));
  EXPECT_EQ(h.max_exemplar().sample, top.sample);
  EXPECT_EQ(h.max_exemplar().trace_id, top.trace_id);
  EXPECT_EQ(view.max_exemplar().sample, top.sample);
  EXPECT_EQ(h.count(), kSamples);
  EXPECT_EQ(h.max(), max_value);

  h.reset();
  const HdrHistogram::View empty = h.view();
  for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.percentile(q), 0.0) << q;
    EXPECT_EQ(empty.percentile(q), 0.0) << q;
    EXPECT_FALSE(h.exemplar_at(q).valid()) << q;
    EXPECT_FALSE(empty.exemplar_at(q).valid()) << q;
  }
  EXPECT_FALSE(h.max_exemplar().valid());
  EXPECT_FALSE(empty.max_exemplar().valid());
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(HdrHistogram, LocalAccumulatorMergesLikeDirectRecording) {
  // The same samples two ways: recorded straight into a sharded histogram,
  // and through single-writer accumulators folded in with merge(). The mix
  // covers negative values (bucket 0, raw min), values past max_value
  // (overflow, exact max), the one-unit buckets under 256 units and
  // repeated sample indices (the first recording of an index keeps its
  // trace id).
  constexpr double kUnit = 1.0, kMax = 5000.0;
  struct Sample {
    double v;
    std::int64_t index;
    std::uint64_t trace;
  };
  Rng rng(77);
  std::array<std::vector<Sample>, 2> halves;
  for (std::int64_t i = 0; i < 6000; ++i) {
    const double r = rng.uniform();
    const double v = r < 0.05   ? -rng.uniform(0.0, 50.0)
                     : r < 0.45 ? std::floor(rng.uniform(0.0, 256.0))
                     : r < 0.97 ? rng.uniform(0.0, kMax)
                                : rng.uniform(kMax, 3.0 * kMax);
    // Every fifth sample repeats the index of the sample two before it,
    // which sits in the same half; every seventh takes no exemplar.
    const std::int64_t index = i % 5 == 4 ? i - 2 : (i % 7 == 6 ? -1 : i);
    halves[static_cast<std::size_t>(i % 2)].push_back(
        {v, index, static_cast<std::uint64_t>(900000 + i)});
  }

  HdrHistogram direct(kUnit, kMax);
  for (const auto& half : halves) {
    for (const Sample& x : half) direct.record(x.v, x.trace, x.index);
  }
  // Two accumulators, each filled and merged from its own thread.
  HdrHistogram merged(kUnit, kMax);
  std::vector<std::thread> writers;
  for (const auto& half : halves) {
    writers.emplace_back([&merged, &half] {
      HdrHistogram::Local local(kUnit, kMax);
      for (const Sample& x : half) local.record(x.v, x.trace, x.index);
      merged.merge(local);
    });
  }
  for (auto& w : writers) w.join();
  // One accumulator read in place, and merged from this thread.
  HdrHistogram::Local local(kUnit, kMax);
  for (const auto& half : halves) {
    for (const Sample& x : half) local.record(x.v, x.trace, x.index);
  }
  HdrHistogram single(kUnit, kMax);
  single.merge(local);
  single.merge(HdrHistogram::Local(kUnit, kMax));  // empty: a no-op

  ASSERT_GT(direct.overflow(), 0);
  ASSERT_LT(direct.min(), 0.0);
  const HdrHistogram::View want = direct.view();
  const auto expect_same = [&](const HdrHistogram::View& got,
                               std::int64_t count, std::int64_t overflow,
                               double mn, double mx, const char* path) {
    EXPECT_EQ(count, direct.count()) << path;
    EXPECT_EQ(overflow, direct.overflow()) << path;
    EXPECT_EQ(mn, direct.min()) << path;
    EXPECT_EQ(mx, direct.max()) << path;
    for (int r = 1; r <= 1000; ++r) {
      const double q = r / 1000.0;
      EXPECT_EQ(got.percentile(q), want.percentile(q)) << path << " q=" << q;
      const HdrExemplar a = got.exemplar_at(q), b = want.exemplar_at(q);
      EXPECT_EQ(a.sample, b.sample) << path << " q=" << q;
      EXPECT_EQ(a.trace_id, b.trace_id) << path << " q=" << q;
    }
    EXPECT_EQ(got.max_exemplar().sample, want.max_exemplar().sample) << path;
    EXPECT_EQ(got.max_exemplar().trace_id, want.max_exemplar().trace_id)
        << path;
  };
  expect_same(merged.view(), merged.count(), merged.overflow(), merged.min(),
              merged.max(), "two threads");
  expect_same(single.view(), single.count(), single.overflow(), single.min(),
              single.max(), "one merge");
  expect_same(local.view(), local.count(), local.overflow(), local.min(),
              local.max(), "in place");
  // A tied index keeps the first recording's trace id on either path.
  HdrHistogram tie_direct(kUnit, kMax);
  HdrHistogram::Local tie_local(kUnit, kMax);
  for (const std::uint64_t trace : {111u, 222u}) {
    tie_direct.record(42.0, trace, 3);
    tie_local.record(42.0, trace, 3);
  }
  HdrHistogram tie_merged(kUnit, kMax);
  tie_merged.merge(tie_local);
  EXPECT_EQ(tie_direct.exemplar_at(1.0).trace_id, 111u);
  EXPECT_EQ(tie_local.view().exemplar_at(1.0).trace_id, 111u);
  EXPECT_EQ(tie_merged.exemplar_at(1.0).trace_id, 111u);

  local.reset();
  EXPECT_EQ(local.count(), 0);
  EXPECT_EQ(local.max(), 0.0);
  EXPECT_EQ(local.view().percentile(0.5), 0.0);
  EXPECT_FALSE(local.view().max_exemplar().valid());
  EXPECT_THROW(merged.merge(HdrHistogram::Local(1e-3, kMax)), Error);
}

TEST(MetricsRegistry, HdrJsonCarriesExemplarsAndIsByteStable) {
  MetricsRegistry reg;
  HdrHistogram& h = reg.hdr_histogram("runtime.hdr_latency_ms", 1e-3, 3.6e6);
  for (int i = 0; i < 100; ++i) {
    h.record(1.0 + i, static_cast<std::uint64_t>(1000 + i), i);
  }
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"type\": \"hdr\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_trace_id\""), std::string::npos);
  EXPECT_NE(json.find("\"max_sample\""), std::string::npos);
  EXPECT_NE(json.find("\"rel_err\""), std::string::npos);
  EXPECT_EQ(json, reg.to_json());  // frozen registry: byte-identical polls
}

// ------------------------------------------------ open-window clock range

// WindowedSeries and SloEngine record inline while a clock stays in the
// open window's cached range. These pin that range to the division the
// slow path keys on, at every rounding edge the probes reach.

/// The window (or SLO bucket) clock `t` names at width `width`.
std::int64_t window_of(double t, double width) {
  return static_cast<std::int64_t>(t / width);
}

/// k * width and one ulp either side, ascending, for k up to 1e6.
std::vector<double> boundary_clocks(double width) {
  std::vector<double> out;
  for (const std::int64_t k : {0, 1, 2, 3, 7, 10, 12, 100, 333, 1000, 4096,
                               99999, 1000000}) {
    const double at = static_cast<double>(k) * width;
    if (at > 0.0) out.push_back(std::nextafter(at, 0.0));
    out.push_back(at);
    out.push_back(
        std::nextafter(at, std::numeric_limits<double>::infinity()));
  }
  return out;
}

constexpr std::array<double, 5> kBoundaryWidths{1e-3, 0.1, 1.0 / 3.0, 0.5,
                                                5.0};

TEST(WindowedSeries, EveryRecordLandsInTheWindowItsClockNames) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double width : kBoundaryWidths) {
    WindowedSeries s(width);
    const int c = s.add_counter("c");
    for (const double t : boundary_clocks(width)) {
      const std::int64_t w = window_of(t, width);
      ASSERT_LE(window_start(width, w), t) << width << " t=" << t;
      ASSERT_LT(t, window_start(width, w + 1)) << width << " t=" << t;
      s.record(c, t, 1.0);
      // Records land in the open window, so it must be the one t names.
      EXPECT_EQ(s.window_count(), static_cast<std::size_t>(w + 1))
          << width << " t=" << t;
      // The last clock of the window before is out of range: backwards.
      if (w > 0) {
        const double before = std::nextafter(window_start(width, w), 0.0);
        ASSERT_EQ(window_of(before, width), w - 1) << width << " t=" << t;
        EXPECT_THROW(s.record(c, before, 1.0), Error) << width << " t=" << t;
      }
      EXPECT_THROW(s.record(c, nan, 1.0), Error);
      EXPECT_THROW(s.record(c, t, -1.0), Error);  // negative counter delta
      EXPECT_EQ(s.window_count(), static_cast<std::size_t>(w + 1));
    }
  }
}

TEST(SloEngine, EveryRecordLandsInTheBucketItsClockNames) {
  for (const double width : kBoundaryWidths) {
    const double fast = 12.0 * width;
    const double bucket = fast / 12.0;  // the engine's bucket width
    // Buckets the fast window spans, as the engine counts them.
    const auto span = static_cast<std::int64_t>(std::ceil(fast / bucket));
    const std::vector<double> clocks = boundary_clocks(bucket);
    for (std::size_t i = 0; i < clocks.size(); ++i) {
      const double t = clocks[i];
      const std::int64_t b = window_of(t, bucket);
      SloEngine slo;
      const int id = slo.add_objective({.name = "x",
                                        .tier = "x",
                                        .target = 0.5,
                                        .fast_window = fast,
                                        .slow_window = fast});
      // Open the previous probe's bucket, then record one bad event at t.
      if (i > 0) slo.record(id, clocks[i - 1], true);
      slo.record(id, t, false);
      // The fast window ending in bucket b + span - 1 still holds bucket b
      // (so the event is not below it) ...
      slo.record(id, (static_cast<double>(b + span) - 0.5) * bucket, true);
      EXPECT_GT(slo.evaluate()[0].fast_burn, 0.0) << width << " t=" << t;
      // ... and the one ending in bucket b + span no longer does (so it is
      // not above it).
      slo.record(id, (static_cast<double>(b + span) + 0.5) * bucket, true);
      EXPECT_EQ(slo.evaluate()[0].fast_burn, 0.0) << width << " t=" << t;
    }
  }
  SloEngine slo;
  const int id = slo.add_objective({.name = "x", .tier = "x"});
  slo.record(id, 10.5, true);
  EXPECT_THROW(slo.record(id, 10.2, true), Error);  // same bucket, earlier
  EXPECT_THROW(slo.record(id, std::numeric_limits<double>::quiet_NaN(), true),
               Error);
  EXPECT_THROW(slo.record(id, -1.0, true), Error);
  EXPECT_THROW(slo.record(id + 1, 10.5, true), Error);  // unknown objective
  EXPECT_EQ(slo.evaluate()[0].good, 1);
}

// -------------------------------------------------------------- SLO engine

TEST(SloEngine, BurnRateIsBudgetSpendMultiple) {
  SloEngine slo;
  const int id = slo.add_objective(
      {.name = "t.latency", .tier = "t", .target = 0.5});
  // Alternate good/bad for 10 simulated minutes: bad fraction 0.5 spends a
  // 0.5 error budget at exactly 1x in both windows -> warn, not critical.
  for (int t = 0; t < 600; ++t) slo.record(id, t, t % 2 == 0);
  const auto statuses = slo.evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_NEAR(statuses[0].fast_burn, 1.0, 1e-9);
  EXPECT_NEAR(statuses[0].slow_burn, 1.0, 1e-9);
  EXPECT_EQ(statuses[0].state, HealthState::kWarn);
  EXPECT_EQ(slo.overall(), HealthState::kWarn);
}

TEST(SloEngine, AlertNeedsBothWindowsBurning) {
  SloEngine slo;
  const int id = slo.add_objective(
      {.name = "t.latency", .tier = "t", .target = 0.5});
  // 9 good minutes then 1 all-bad minute: the fast window burns at 2x but
  // the slow window sits at 0.2x -> the multi-window rule keeps it ok.
  for (int t = 0; t < 540; ++t) slo.record(id, t, true);
  for (int t = 540; t < 600; ++t) slo.record(id, t, false);
  auto statuses = slo.evaluate();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_NEAR(statuses[0].fast_burn, 2.0, 1e-9);
  EXPECT_NEAR(statuses[0].slow_burn, 0.2, 1e-9);
  EXPECT_EQ(statuses[0].state, HealthState::kOk);

  // Sustained all-bad burns both windows at 2x -> critical.
  SloEngine bad;
  const int id2 = bad.add_objective(
      {.name = "t.latency", .tier = "t", .target = 0.5});
  for (int t = 0; t < 600; ++t) bad.record(id2, t, false);
  statuses = bad.evaluate();
  EXPECT_NEAR(statuses[0].fast_burn, 2.0, 1e-9);
  EXPECT_NEAR(statuses[0].slow_burn, 2.0, 1e-9);
  EXPECT_EQ(statuses[0].state, HealthState::kCritical);
}

TEST(SloEngine, TierHealthIsWorstObjectiveAndJsonIsByteStable) {
  SloEngine slo;
  const int ok_id = slo.add_objective(
      {.name = "edge.latency", .tier = "edge", .target = 0.5});
  const int bad_id = slo.add_objective(
      {.name = "edge.availability", .tier = "edge", .target = 0.5});
  const int cloud_id = slo.add_objective(
      {.name = "cloud.latency", .tier = "cloud", .target = 0.5});
  for (int t = 0; t < 600; ++t) {
    slo.record(ok_id, t, true);
    slo.record(bad_id, t, false);
    slo.record(cloud_id, t, true);
  }
  const auto tiers = slo.tier_health();
  ASSERT_EQ(tiers.size(), 2u);
  EXPECT_EQ(tiers[0].tier, "edge");  // first-seen order
  EXPECT_EQ(tiers[0].state, HealthState::kCritical);
  EXPECT_EQ(tiers[1].tier, "cloud");
  EXPECT_EQ(tiers[1].state, HealthState::kOk);
  EXPECT_EQ(slo.overall(), HealthState::kCritical);
  EXPECT_EQ(slo.objective_id("edge.latency"), ok_id);
  EXPECT_EQ(slo.objective_id("nope"), -1);
  EXPECT_EQ(slo.to_json(), slo.to_json());
}

TEST(SloEngine, SnapshotHealthFlagsSlowTailAndDeadSamples) {
  MetricsRegistry reg;
  reg.counter("runtime.samples").add(100);
  reg.counter("runtime.dead").add(10);  // 90% availability vs 99% target
  HdrHistogram& h = reg.hdr_histogram("runtime.hdr_latency_ms", 1e-3, 3.6e6);
  for (int i = 0; i < 100; ++i) h.record(1000.0, 1, i);  // p99 >> 250 ms SLO
  const std::string health = health_from_metrics(reg.to_json());
  EXPECT_NE(health.find("\"overall\": \"critical\""), std::string::npos);
  EXPECT_NE(health.find("runtime.hdr_latency_ms"), std::string::npos);
  // Deterministic given identical metrics JSON.
  EXPECT_EQ(health, health_from_metrics(reg.to_json()));

  MetricsRegistry healthy;
  healthy.counter("runtime.samples").add(100);
  HdrHistogram& h2 =
      healthy.hdr_histogram("runtime.hdr_latency_ms", 1e-3, 3.6e6);
  for (int i = 0; i < 100; ++i) h2.record(5.0, 1, i);
  EXPECT_NE(health_from_metrics(healthy.to_json())
                .find("\"overall\": \"ok\""),
            std::string::npos);
}

TEST(SloEngine, SnapshotHealthReadsOneSignalPerLatencyHdr) {
  // Only hdr metrics named *latency_ms become latency signals: a counter or
  // gauge with that suffix is not a distribution and is skipped.
  MetricsRegistry reg;
  reg.counter("runtime.samples").add(10);
  reg.counter("edge.latency_ms").add(7);
  reg.gauge("cloud.latency_ms").set(3.0);
  HdrHistogram& h = reg.hdr_histogram("runtime.hdr_latency_ms", 1e-3, 3.6e6);
  for (int i = 0; i < 10; ++i) h.record(5.0, 1, i);
  reg.hdr_histogram("runtime.sample_bytes", 1.0, 1048576.0).record(64.0);
  const std::string health = health_from_metrics(reg.to_json());
  std::size_t signals = 0;
  for (auto at = health.find("\"kind\": \"latency\""); at != std::string::npos;
       at = health.find("\"kind\": \"latency\"", at + 1)) {
    ++signals;
  }
  EXPECT_EQ(signals, 1u) << health;
  EXPECT_NE(health.find("\"name\": \"runtime.hdr_latency_ms\""),
            std::string::npos);
  EXPECT_EQ(health.find("edge.latency_ms"), std::string::npos);
  EXPECT_EQ(health.find("cloud.latency_ms"), std::string::npos);
}

// --------------------------------------------------------------- satellites

TEST(ConfusionMatrixBounds, ErrorMessagesNameTheOffendingValue) {
  core::ConfusionMatrix cm(3);
  try {
    cm.add(7, 1);
    FAIL() << "expected ddnn::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("[0, 3)"), std::string::npos);
  }
  try {
    cm.add(1, -2);
    FAIL() << "expected ddnn::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("-2"), std::string::npos);
  }
}

}  // namespace
}  // namespace ddnn::obs
