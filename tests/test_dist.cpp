#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "autograd/grad_mode.hpp"
#include "core/inference.hpp"
#include "dist/link.hpp"
#include "dist/message.hpp"
#include "dist/queueing.hpp"
#include "dist/runtime.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace ddnn::dist {
namespace {

// ----------------------------------------------------------------- messages

TEST(Message, ClassScoresRoundTripIsExact) {
  const Tensor scores =
      Tensor::from_vector(Shape{1, 3}, {-1.25f, 3.5f, 0.0078125f});
  const Message msg = encode_class_scores(scores);
  EXPECT_EQ(msg.payload_bytes(), 12);  // 4 bytes * |C|, Eq. 1 first term
  const Tensor back = decode_class_scores(msg, 3);
  EXPECT_TRUE(back.allclose(scores, 0.0f));
}

TEST(Message, BinaryFeatureMapRoundTripIsExact) {
  Rng rng(3);
  const Tensor feats =
      ops::sign(Tensor::randn(Shape{1, 4, 16, 16}, rng));
  const Message msg = encode_binary_feature_map(feats);
  EXPECT_EQ(msg.payload_bytes(), 128);  // f*o/8 = 4*256/8, Eq. 1 second term
  const Tensor back = decode_binary_feature_map(msg, feats.shape());
  EXPECT_TRUE(back.allclose(feats, 0.0f));
}

TEST(Message, BinaryEncoderRejectsNonBinaryInput) {
  const Tensor not_binary = Tensor::from_vector(Shape{2}, {1.0f, 0.5f});
  EXPECT_THROW(encode_binary_feature_map(not_binary), Error);
}

TEST(Message, RawImageQuantizesTo1BytePerValue) {
  Rng rng(5);
  const Tensor img = Tensor::rand_uniform(Shape{3, 32, 32}, rng, 0.0f, 1.0f);
  const Message msg = encode_raw_image(img);
  EXPECT_EQ(msg.payload_bytes(), 3072);  // the paper's raw-offload cost
  const Tensor back = decode_raw_image(msg, img.shape());
  EXPECT_TRUE(back.allclose(img, 1.0f / 255.0f + 1e-6f));
}

TEST(Message, DecodersValidateKindAndSize) {
  const Message scores = encode_class_scores(Tensor::zeros(Shape{1, 3}));
  EXPECT_THROW(decode_binary_feature_map(scores, Shape{96}), Error);
  EXPECT_THROW(decode_class_scores(scores, 4), Error);
}

TEST(Message, RandomPayloadsNeverCrashDecoders) {
  // Fuzz: arbitrary byte payloads must either decode into a well-formed
  // tensor or throw ddnn::Error — never crash or produce the wrong size.
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    Message msg;
    msg.kind = static_cast<MessageKind>(rng.uniform_index(3));
    msg.payload.resize(rng.uniform_index(64));
    for (auto& b : msg.payload) {
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    try {
      const Tensor t = decode_binary_feature_map(msg, Shape{32});
      EXPECT_EQ(t.numel(), 32);
      for (std::int64_t i = 0; i < 32; ++i) {
        EXPECT_TRUE(t[i] == 1.0f || t[i] == -1.0f);
      }
    } catch (const Error&) {
      // rejected: fine
    }
    try {
      const Tensor t = decode_class_scores(msg, 3);
      EXPECT_EQ(t.numel(), 3);
    } catch (const Error&) {
    }
    try {
      const Tensor t = decode_raw_image(msg, Shape{3, 2, 2});
      EXPECT_EQ(t.numel(), 12);
      for (std::int64_t i = 0; i < 12; ++i) {
        EXPECT_GE(t[i], 0.0f);
        EXPECT_LE(t[i], 1.0f);
      }
    } catch (const Error&) {
    }
  }
}

// -------------------------------------------------------------------- links

TEST(Link, AccountsBytesAndMessages) {
  Link link("test");
  link.transmit(encode_class_scores(Tensor::zeros(Shape{1, 3})));
  link.transmit(encode_class_scores(Tensor::zeros(Shape{1, 3})));
  EXPECT_EQ(link.stats().messages, 2);
  EXPECT_EQ(link.stats().bytes, 24);
  link.reset_stats();
  EXPECT_EQ(link.stats().bytes, 0);
}

TEST(Link, LatencyIsAffineInBytes) {
  Link link("test", {.bandwidth_bytes_per_s = 1000.0, .base_latency_s = 0.01});
  EXPECT_DOUBLE_EQ(link.latency_for(0), 0.01);
  EXPECT_DOUBLE_EQ(link.latency_for(500), 0.01 + 0.5);
  EXPECT_THROW(Link("bad", {.bandwidth_bytes_per_s = 0.0}), Error);
}

// ----------------------------------------------------------------- run book

/// Column sums of a windowed series' CSV export, by column name.
std::map<std::string, double> series_sums(const obs::WindowedSeries& series) {
  std::istringstream csv(series.to_csv());
  std::string line;
  std::getline(csv, line);
  std::vector<std::string> header;
  std::istringstream head(line);
  for (std::string cell; std::getline(head, cell, ',');) header.push_back(cell);
  std::map<std::string, double> sums;
  while (std::getline(csv, line)) {
    std::istringstream row(line);
    std::size_t c = 0;
    for (std::string cell; std::getline(row, cell, ','); ++c) {
      sums[header.at(c)] += std::stod(cell);
    }
  }
  return sums;
}

TEST(RunBook, BooksMetricsRegistryAndSeriesInLockstep) {
  const Link gateway("device0->gateway");
  const Link uplink("device0->edge");
  const Link stray("device1->cloud");  // not one of the book's links
  const std::vector<std::string> exits{"local", "edge", "cloud"};
  obs::MetricsRegistry registry;
  obs::WindowedSeries series(0.5);
  RunBook book(exits, 2, {&gateway, &uplink});
  RunBook bare(exits, 2, {&gateway, &uplink});
  book.bind_metrics(&registry);
  book.bind_series(&series);

  // Three scripted samples, played into the bound and the unbound book.
  std::vector<InferenceTrace> traces;
  const auto play = [&](RunBook& b) {
    traces.assign(3, InferenceTrace{});
    for (std::size_t i = 0; i < traces.size(); ++i) {
      traces[i].trace_id = 100 + i;
    }
    // Sample 0 at t = 0: a clean send and one delivered after two drops;
    // a correct local exit.
    b.send(gateway, {true, 1, 0, 0.01}, 12, 0, 0.0, traces[0]);
    b.send(gateway, {true, 3, 2, 0.05}, 12, 1, 0.0, traces[0]);
    traces[0].exit_taken = 0;
    traces[0].prediction = 2;
    traces[0].latency_s = 0.3;
    b.sample(traces[0], 2, 0, 0.0);
    // Sample 1 at t = 0.3: an undelivered send, then a delivered retry on
    // the unbound link; a degraded, wrong cloud exit.
    b.send(uplink, {false, 3, 3, 0.2}, 128, 0, 0.3, traces[1]);
    b.send(stray, {true, 2, 1, 0.1}, 128, 1, 0.3, traces[1]);
    traces[1].exit_taken = 2;
    traces[1].prediction = 1;
    traces[1].latency_s = 0.4;
    traces[1].degraded = true;
    b.sample(traces[1], 0, 1, 0.3);
    // Sample 2 at t = 0.7: nothing delivered, a dead sample.
    b.send(gateway, {false, 1, 1, 0.02}, 12, 0, 0.7, traces[2]);
    traces[2].exit_taken = -1;
    traces[2].prediction = -1;
    traces[2].latency_s = 0.9;
    traces[2].degraded = traces[2].dead = true;
    b.sample(traces[2], 4, 2, 0.7);
  };
  play(bare);
  play(book);

  const RuntimeMetrics& m = book.metrics();
  EXPECT_EQ(m.samples, 3);
  EXPECT_EQ(m.total_bytes, 152);
  EXPECT_EQ(m.device_bytes, (std::vector<std::int64_t>{12, 140}));
  EXPECT_EQ(m.exit_counts, (std::vector<std::int64_t>{1, 0, 1}));
  EXPECT_EQ(m.correct, 1);
  EXPECT_EQ(m.total_latency_s, 0.3 + 0.4 + 0.9);
  EXPECT_EQ(m.reliability.drops, 7);
  EXPECT_EQ(m.reliability.retries, 5);
  EXPECT_EQ(m.reliability.timeouts, 2);
  EXPECT_EQ(m.reliability.degraded_exits, 2);
  EXPECT_EQ(m.reliability.dead_samples, 1);
  EXPECT_EQ(traces[1].retries, 3);
  EXPECT_EQ(traces[1].bytes_sent, 128);

  // An unbound book keeps the identical RuntimeMetrics.
  const RuntimeMetrics& u = bare.metrics();
  EXPECT_EQ(u.samples, m.samples);
  EXPECT_EQ(u.total_bytes, m.total_bytes);
  EXPECT_EQ(u.device_bytes, m.device_bytes);
  EXPECT_EQ(u.exit_counts, m.exit_counts);
  EXPECT_EQ(u.correct, m.correct);
  EXPECT_EQ(u.total_latency_s, m.total_latency_s);
  EXPECT_EQ(u.reliability.drops, m.reliability.drops);
  EXPECT_EQ(u.reliability.retries, m.reliability.retries);
  EXPECT_EQ(u.reliability.timeouts, m.reliability.timeouts);
  EXPECT_EQ(u.reliability.degraded_exits, m.reliability.degraded_exits);
  EXPECT_EQ(u.reliability.dead_samples, m.reliability.dead_samples);

  // The registry agrees exactly.
  const auto counter = [&](const std::string& name) {
    return registry.counter(name).value();
  };
  EXPECT_EQ(counter("runtime.samples"), m.samples);
  EXPECT_EQ(counter("runtime.bytes_total"), m.total_bytes);
  EXPECT_EQ(counter("runtime.correct"), m.correct);
  EXPECT_EQ(counter("runtime.drops"), m.reliability.drops);
  EXPECT_EQ(counter("runtime.retries"), m.reliability.retries);
  EXPECT_EQ(counter("runtime.timeouts"), m.reliability.timeouts);
  EXPECT_EQ(counter("runtime.degraded"), m.reliability.degraded_exits);
  EXPECT_EQ(counter("runtime.dead"), m.reliability.dead_samples);
  for (std::size_t e = 0; e < exits.size(); ++e) {
    EXPECT_EQ(counter("runtime.exit." + exits[e]), m.exit_counts[e]);
  }
  EXPECT_EQ(registry.gauge("runtime.total_latency_s").value(),
            m.total_latency_s);
  EXPECT_EQ(registry.hdr_histogram("runtime.sample_bytes", 1.0, 1048576.0)
                .count(),
            3);
  const obs::HdrHistogram& hdr =
      registry.hdr_histogram("runtime.hdr_latency_ms", 1e-3, 3.6e6);
  EXPECT_EQ(hdr.count(), 3);
  EXPECT_EQ(hdr.max_exemplar().sample, 2);
  EXPECT_EQ(hdr.max_exemplar().trace_id, traces[2].trace_id);
  EXPECT_EQ(counter("link.device0->gateway.attempts"), 5);
  EXPECT_EQ(counter("link.device0->gateway.retries"), 2);
  EXPECT_EQ(counter("link.device0->gateway.timeouts"), 1);
  EXPECT_EQ(counter("link.device0->gateway.bytes"), 24);
  EXPECT_EQ(counter("link.device0->edge.attempts"), 3);
  EXPECT_EQ(counter("link.device0->edge.timeouts"), 1);
  EXPECT_EQ(counter("link.device0->edge.bytes"), 0);
  for (const auto& name : registry.names()) {
    EXPECT_EQ(name.find("device1->cloud"), std::string::npos) << name;
  }

  // Every series counter column sums to its registry twin.
  const auto sums = series_sums(series);
  EXPECT_EQ(series.window_count(), 2u);
  int reconciled = 0;
  for (const auto& [name, sum] : sums) {
    if (name.rfind("runtime.exit_frac.", 0) == 0 ||
        name == "runtime.accuracy" || name.find("latency_ms.") != name.npos ||
        name == "window" || name.rfind("t_", 0) == 0) {
      continue;
    }
    EXPECT_EQ(sum, static_cast<double>(counter(name))) << name;
    ++reconciled;
  }
  EXPECT_EQ(reconciled, 8 + 3 + 2);  // runtime.*, exits, link bytes
  EXPECT_EQ(sums.count("link.device1->cloud.bytes"), 0u);
  EXPECT_EQ(sums.at("runtime.hdr_latency_ms.n"), 3.0);

  // reset() opens a new RuntimeMetrics window; bound sinks keep counting.
  book.reset();
  EXPECT_EQ(book.metrics().samples, 0);
  EXPECT_EQ(book.metrics().exit_counts.size(), exits.size());
  EXPECT_EQ(book.metrics().device_bytes.size(), 2u);
  EXPECT_EQ(counter("runtime.samples"), 3);
}

// ------------------------------------------------------------------ runtime

struct RuntimeFixture : public ::testing::Test {
  RuntimeFixture() {
    data::MvmcConfig data_cfg;
    data_cfg.train_samples = 48;
    data_cfg.test_samples = 24;
    data_cfg.seed = 77;
    dataset = std::make_unique<data::MvmcDataset>(
        data::MvmcDataset::generate(data_cfg));
  }

  std::unique_ptr<data::MvmcDataset> dataset;
  std::vector<int> devices{0, 1, 2, 3, 4, 5};
};

TEST_F(RuntimeFixture, DistributedMatchesCentralizedPredictions) {
  // The key systems invariant: running the partitioned model over the
  // simulated hierarchy (with bit-packed feature transport) must reproduce
  // the centralized forward pass exactly, for every sample and threshold.
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  const double threshold = 0.5;

  const auto eval =
      core::evaluate_exits(model, dataset->test(), devices);
  const auto central = core::apply_policy(eval, {threshold});

  HierarchyRuntime runtime(model, {threshold}, devices);
  for (std::size_t i = 0; i < dataset->test().size(); ++i) {
    const auto trace = runtime.classify(dataset->test()[i]);
    EXPECT_EQ(trace.prediction, central.decisions[i].prediction) << i;
    EXPECT_EQ(trace.exit_taken, central.decisions[i].exit_taken) << i;
    EXPECT_NEAR(trace.entropy, central.decisions[i].entropy, 1e-9) << i;
  }
}

TEST_F(RuntimeFixture, MeasuredBytesMatchEq1Exactly) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {0.6}, devices);
  const auto metrics = runtime.run(dataset->test());

  const double local_fraction =
      static_cast<double>(metrics.exit_counts[0]) /
      static_cast<double>(metrics.samples);
  const double analytic =
      core::ddnn_comm_bytes(local_fraction, model.config().comm_params());
  for (int d = 0; d < 6; ++d) {
    EXPECT_NEAR(metrics.device_bytes_per_sample(d), analytic, 1e-9) << d;
  }
}

TEST_F(RuntimeFixture, ThresholdOneNeverTouchesTheUplink) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {1.0}, devices);
  runtime.run(dataset->test());
  for (const auto& link : runtime.device_uplink_links()) {
    EXPECT_EQ(link.stats().bytes, 0);
  }
  EXPECT_EQ(runtime.metrics().exit_counts[0],
            static_cast<std::int64_t>(dataset->test().size()));
}

TEST_F(RuntimeFixture, ThresholdZeroAlwaysOffloads) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {0.0}, devices);
  runtime.run(dataset->test());
  // Every sample pays both the score vector and the feature map.
  const auto n = static_cast<std::int64_t>(dataset->test().size());
  for (const auto& link : runtime.device_uplink_links()) {
    EXPECT_EQ(link.stats().bytes, n * 128);
  }
  for (const auto& link : runtime.device_gateway_links()) {
    EXPECT_EQ(link.stats().bytes, n * 12);
  }
}

TEST_F(RuntimeFixture, FailedDeviceSendsNothingAndSystemStillWorks) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {0.5}, devices);
  runtime.set_device_failed(2, true);
  const auto metrics = runtime.run(dataset->test());
  EXPECT_EQ(metrics.device_bytes[2], 0);
  EXPECT_EQ(metrics.samples,
            static_cast<std::int64_t>(dataset->test().size()));
  // Failure path must match the centralized masked forward.
  std::vector<bool> active(6, true);
  active[2] = false;
  const auto eval =
      core::evaluate_exits(model, dataset->test(), devices, active);
  const auto central = core::apply_policy(eval, {0.5});
  EXPECT_DOUBLE_EQ(metrics.accuracy(), central.overall_accuracy);
}

TEST_F(RuntimeFixture, AllDevicesFailedDegradesToDeadTraces) {
  // Regression: this used to hard-abort via DDNN_CHECK mid-run. A sample no
  // tier can classify must be counted as a flagged dead trace instead.
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {0.5}, devices);
  for (int d = 0; d < 6; ++d) runtime.set_device_failed(d, true);
  const auto trace = runtime.classify(dataset->test()[0]);
  EXPECT_TRUE(trace.dead);
  EXPECT_TRUE(trace.degraded);
  EXPECT_EQ(trace.exit_taken, -1);
  EXPECT_EQ(trace.prediction, -1);
  EXPECT_DOUBLE_EQ(trace.entropy, 1.0);
  EXPECT_EQ(runtime.metrics().samples, 1);
  EXPECT_EQ(runtime.metrics().reliability.dead_samples, 1);
  EXPECT_EQ(runtime.metrics().correct, 0);

  // A revived device must sense afresh (its cache was cleared on failure)
  // and the system classifies normally again.
  runtime.set_device_failed(0, false);
  const auto healthy = runtime.classify(dataset->test()[0]);
  EXPECT_FALSE(healthy.dead);
  EXPECT_GE(healthy.exit_taken, 0);
  EXPECT_GE(healthy.prediction, 0);
}

TEST_F(RuntimeFixture, SampleBytesPercentilesResolveMixedExits) {
  // Regression: runtime.sample_bytes used 16-KiB bins, so every sample fell
  // in bin 0 and its p50 read back as the max whatever the exit mix.
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  // A threshold at the local exit's 75th-percentile entropy keeps about
  // three quarters of the samples local and escalates the rest.
  const auto eval = core::evaluate_exits(model, dataset->test(), devices);
  std::vector<double> entropies;
  for (const auto& d : core::apply_policy(eval, {1.0}).decisions) {
    entropies.push_back(d.entropy);
  }
  std::sort(entropies.begin(), entropies.end());
  HierarchyRuntime runtime(
      model, {ddnn::percentile_nearest_rank(entropies, 0.75)}, devices);
  obs::MetricsRegistry registry;
  runtime.bind_metrics(&registry);
  std::vector<double> bytes;
  for (const auto& s : dataset->test()) {
    bytes.push_back(static_cast<double>(runtime.classify(s).bytes_sent));
  }
  std::sort(bytes.begin(), bytes.end());
  ASSERT_LT(bytes.front(), bytes.back());  // both routes were taken

  const obs::HdrHistogram& h =
      registry.hdr_histogram("runtime.sample_bytes", 1.0, 1048576.0);
  const double exact = ddnn::percentile_nearest_rank(bytes, 0.50);
  const double p50 = h.percentile(0.50);
  // The local samples' byte counts sit in one-byte buckets, which read
  // their exact value.
  EXPECT_EQ(p50, exact);
  EXPECT_LT(p50, h.max());
  EXPECT_EQ(h.max(), bytes.back());
}

TEST_F(RuntimeFixture, MetricsExportHoldsOnlyCountersGaugesAndHdr) {
  // Every distribution the runtime books is an HDR histogram: the export
  // carries no fixed-bin "histogram" entry, and the two per-sample
  // distributions are typed "hdr".
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {0.5}, devices);
  obs::MetricsRegistry registry;
  runtime.bind_metrics(&registry);
  for (std::size_t i = 0; i < 4; ++i) runtime.classify(dataset->test()[i]);

  const std::string json = registry.to_json();
  EXPECT_EQ(json.find("\"type\": \"histogram\""), std::string::npos);
  std::istringstream lines(json);
  int hdr = 0;
  for (std::string line; std::getline(lines, line);) {
    const auto type = line.find("\"type\": \"");
    if (type == std::string::npos) continue;
    const bool known = line.find("\"type\": \"counter\"") != line.npos ||
                       line.find("\"type\": \"gauge\"") != line.npos ||
                       line.find("\"type\": \"hdr\"") != line.npos;
    EXPECT_TRUE(known) << line;
    if (line.find("\"runtime.sample_bytes\"") != line.npos ||
        line.find("\"runtime.hdr_latency_ms\"") != line.npos) {
      EXPECT_NE(line.find("\"type\": \"hdr\", \"count\": 4"), line.npos)
          << line;
      ++hdr;
    }
  }
  EXPECT_EQ(hdr, 2);
}

TEST_F(RuntimeFixture, LedgerEncodingAgreesWithTheRegistry) {
  // The run ledger and a bound registry read one RunBook: after a faulted
  // run every runtime.* count the ledger encoding writes equals the
  // registry counter of the same name, and the two derived values equal
  // the RuntimeMetrics they come from.
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud));
  model.set_training(false);
  // Threshold 0 escalates every sample, so the outage window degrades.
  HierarchyRuntime runtime(model, {0.0, 0.0}, devices);
  FaultPlan plan;
  plan.seed = 5;
  plan.link_drop_prob = 0.3;
  plan.devices.push_back({.permanent_fail_at = 0});
  plan.edge_outages.push_back({.group = -1, .start_sample = 4,
                               .end_sample = 12});
  runtime.set_fault_plan(plan);
  obs::MetricsRegistry registry;
  runtime.bind_metrics(&registry);
  for (const auto& s : dataset->test()) runtime.classify(s);

  const RuntimeMetrics& m = runtime.metrics();
  ASSERT_GT(m.reliability.drops, 0);
  ASSERT_GT(m.reliability.retries, 0);
  ASSERT_GT(m.reliability.degraded_exits, 0);
  obs::LedgerRecord rec;
  add_ledger_metrics(rec, m, model.exit_names());
  const auto names = registry.names();
  std::size_t counters = 0;
  for (const auto& [key, value] : rec.metrics) {
    if (key == "runtime.accuracy") {
      EXPECT_EQ(value, m.accuracy());
    } else if (key == "runtime.mean_latency_ms") {
      EXPECT_EQ(value, 1e3 * m.mean_latency_s());
    } else {
      ASSERT_NE(std::find(names.begin(), names.end(), key), names.end())
          << key << " is not in the registry";
      EXPECT_EQ(value, static_cast<double>(registry.counter(key).value()))
          << key;
      ++counters;
    }
  }
  // samples, bytes_total, one per exit, drops, retries, timeouts,
  // degraded, dead.
  EXPECT_EQ(counters, 7 + model.exit_names().size());
  EXPECT_EQ(rec.metrics.size(), counters + 2);
}

TEST_F(RuntimeFixture, LatencyGrowsWhenSamplesEscalate) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime always_local(model, {1.0}, devices);
  HierarchyRuntime always_cloud(model, {0.0}, devices);
  always_local.run(dataset->test());
  always_cloud.run(dataset->test());
  EXPECT_LT(always_local.metrics().mean_latency_s(),
            always_cloud.metrics().mean_latency_s());
}

TEST_F(RuntimeFixture, EdgeConfigRunsThreeTiers) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud));
  model.set_training(false);
  // Local never confident, edge always confident: everything exits at edge.
  HierarchyRuntime runtime(model, {0.0, 1.0}, devices);
  const auto metrics = runtime.run(dataset->test());
  EXPECT_EQ(metrics.exit_counts[0], 0);
  EXPECT_EQ(metrics.exit_counts[1],
            static_cast<std::int64_t>(dataset->test().size()));
  for (const auto& link : runtime.edge_cloud_links()) {
    EXPECT_EQ(link.stats().bytes, 0);  // cloud never reached
  }
}

TEST_F(RuntimeFixture, EdgeConfigMatchesCentralized) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud));
  model.set_training(false);
  const std::vector<double> thresholds{0.4, 0.6};
  const auto eval = core::evaluate_exits(model, dataset->test(), devices);
  const auto central = core::apply_policy(eval, thresholds);
  HierarchyRuntime runtime(model, thresholds, devices);
  for (std::size_t i = 0; i < dataset->test().size(); ++i) {
    const auto trace = runtime.classify(dataset->test()[i]);
    EXPECT_EQ(trace.prediction, central.decisions[i].prediction) << i;
    EXPECT_EQ(trace.exit_taken, central.decisions[i].exit_taken) << i;
  }
}

TEST_F(RuntimeFixture, TwoEdgeGroupsMatchCentralized) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgesCloud));
  model.set_training(false);
  const std::vector<double> thresholds{0.4, 0.6};
  const auto eval = core::evaluate_exits(model, dataset->test(), devices);
  const auto central = core::apply_policy(eval, thresholds);
  HierarchyRuntime runtime(model, thresholds, devices);
  for (std::size_t i = 0; i < dataset->test().size(); ++i) {
    const auto trace = runtime.classify(dataset->test()[i]);
    EXPECT_EQ(trace.prediction, central.decisions[i].prediction) << i;
    EXPECT_EQ(trace.exit_taken, central.decisions[i].exit_taken) << i;
  }
}

// ----------------------------------------------------------------- queueing

std::vector<InferenceTrace> synthetic_traces(double escalate_fraction) {
  std::vector<InferenceTrace> traces;
  for (int i = 0; i < 100; ++i) {
    InferenceTrace t;
    const bool escalate =
        static_cast<double>(i) < 100.0 * escalate_fraction;
    t.exit_taken = escalate ? 1 : 0;
    t.latency_s = escalate ? 10e-3 : 2e-3;
    traces.push_back(t);
  }
  return traces;
}

/// simulate_fleet on the single-queue topology: Poisson arrivals at
/// `rate_hz`, one cloud server with `service_s` per escalated sample.
FleetStats single_queue(const std::vector<InferenceTrace>& traces,
                        double rate_hz, std::int64_t stream_length,
                        double service_s = 10e-3, std::uint64_t seed = 1) {
  return simulate_fleet(
      traces, single_queue_config(rate_hz, service_s, seed, stream_length),
      stream_length);
}

TEST(Queueing, AllLocalTrafficIsLoadInsensitive) {
  const auto traces = synthetic_traces(0.0);
  const auto a = single_queue(traces, 1.0, 1000);
  const auto b = single_queue(traces, 500.0, 1000);
  // A latency is a difference of absolute event clocks, so allow float
  // slack.
  EXPECT_NEAR(a.mean_latency_s, b.mean_latency_s, 1e-9);
  EXPECT_EQ(a.escalated, 0);
  EXPECT_DOUBLE_EQ(a.cloud.utilization, 0.0);
}

TEST(Queueing, LightLoadAddsNoWaiting) {
  // At arrival rates far below 1/service, an escalated sample's latency is
  // just network + service.
  const auto traces = synthetic_traces(1.0);
  const auto stats = single_queue(traces, 0.5, 500);
  EXPECT_NEAR(stats.mean_latency_s, 10e-3 + 10e-3, 1e-3);
  EXPECT_EQ(stats.escalated, 500);
}

TEST(Queueing, SaturationInflatesTailLatency) {
  const auto traces = synthetic_traces(1.0);
  const auto a = single_queue(traces, 20.0, 2000);
  const auto b = single_queue(traces, 99.0, 2000);
  EXPECT_GT(b.p95_latency_s, 2.0 * a.p95_latency_s);
  EXPECT_GT(b.cloud.utilization, a.cloud.utilization);
  EXPECT_LT(a.cloud.utilization, 0.5);
  EXPECT_GT(b.cloud.utilization, 0.8);
}

TEST(Queueing, LocalExitsShieldTheQueue) {
  // Same load: the mostly-local policy keeps p95 far below all-offload.
  const auto offload = single_queue(synthetic_traces(1.0), 95.0, 2000);
  const auto mostly_local = single_queue(synthetic_traces(0.2), 95.0, 2000);
  EXPECT_LT(mostly_local.p95_latency_s, offload.p95_latency_s / 2.0);
}

TEST(Queueing, DeterministicForSeed) {
  const auto traces = synthetic_traces(0.5);
  const auto a = single_queue(traces, 50.0, 500, 10e-3, 9);
  const auto b = single_queue(traces, 50.0, 500, 10e-3, 9);
  EXPECT_DOUBLE_EQ(a.p95_latency_s, b.p95_latency_s);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
}

TEST(Queueing, NearestRankPercentilePinsExactIndices) {
  // Regression: p95 used to read latencies[(n * 95) / 100], one past the
  // nearest-rank index ceil(0.95 n) - 1 — for n=100 that is the 96th value
  // instead of the 95th.
  std::vector<double> v100(100);
  for (std::size_t i = 0; i < v100.size(); ++i) {
    v100[i] = static_cast<double>(i + 1);  // 1..100
  }
  EXPECT_DOUBLE_EQ(ddnn::percentile_nearest_rank(v100, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(ddnn::percentile_nearest_rank(v100, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(ddnn::percentile_nearest_rank(v100, 1.00), 100.0);

  std::vector<double> v20(20);
  for (std::size_t i = 0; i < v20.size(); ++i) {
    v20[i] = static_cast<double>(i + 1);  // 1..20
  }
  // Ranks ceil(19) and ceil(10), at indices 18 and 9.
  EXPECT_DOUBLE_EQ(ddnn::percentile_nearest_rank(v20, 0.95), 19.0);
  EXPECT_DOUBLE_EQ(ddnn::percentile_nearest_rank(v20, 0.50), 10.0);

  const std::vector<double> tiny{42.0};
  EXPECT_DOUBLE_EQ(ddnn::percentile_nearest_rank(tiny, 0.50), 42.0);
  EXPECT_DOUBLE_EQ(ddnn::percentile_nearest_rank(tiny, 0.95), 42.0);

  const std::vector<double> pair{1.0, 2.0};
  EXPECT_DOUBLE_EQ(ddnn::percentile_nearest_rank(pair, 0.50), 1.0);
  EXPECT_DOUBLE_EQ(ddnn::percentile_nearest_rank(pair, 0.95), 2.0);

  EXPECT_THROW(ddnn::percentile_nearest_rank({}, 0.5), Error);
  EXPECT_THROW(ddnn::percentile_nearest_rank(pair, 0.0), Error);
  EXPECT_THROW(ddnn::percentile_nearest_rank(pair, 1.5), Error);
}

TEST(Queueing, ValidatesInputs) {
  EXPECT_THROW(single_queue({}, 20.0, 10), Error);
  const auto traces = synthetic_traces(0.5);
  EXPECT_THROW(single_queue(traces, 0.0, 10), Error);
  EXPECT_THROW(single_queue(traces, 20.0, 0), Error);
  EXPECT_THROW(single_queue(traces, 20.0, 10, -1e-3), Error);
  // Every classified trace needs a finite, non-negative latency: a NaN
  // breaks the event order, a negative one schedules into the past.
  for (const double bad : {std::nan(""), HUGE_VAL, -1e-3}) {
    for (const int exit_taken : {0, 1}) {
      auto bad_traces = traces;
      bad_traces[7].exit_taken = exit_taken;
      bad_traces[7].latency_s = bad;
      EXPECT_THROW(single_queue(bad_traces, 20.0, 10), Error)
          << bad << " at exit " << exit_taken;
    }
  }
}

InferenceTrace trace_of(int exit_taken, double latency_s) {
  InferenceTrace t;
  t.exit_taken = exit_taken;
  t.latency_s = latency_s;
  t.dead = exit_taken < 0;
  return t;
}

TEST(Queueing, DeadTracesAreExcludedFromTheCloudServer) {
  // Regression: dead traces (exit_taken = -1, fault layer) used to be
  // treated as escalations — they occupied the server, advanced
  // cloud_free_at and polluted the percentiles. Half the stream is dead
  // here; if dead samples were serviced the 10 ms server would saturate at
  // this arrival rate.
  std::vector<InferenceTrace> traces{trace_of(-1, 0.0),
                                     trace_of(1, 10e-3)};
  const auto stats = single_queue(traces, 150.0, 2000);
  EXPECT_EQ(stats.dead, 1000);
  EXPECT_EQ(stats.escalated, 1000);
  EXPECT_EQ(stats.arrivals, 2000);
  // Effective served load is 75 Hz * 10 ms = 0.75; with dead samples
  // serviced it would be ~1 and the tail would explode.
  EXPECT_LT(stats.cloud.utilization, 0.85);
  EXPECT_GT(stats.cloud.utilization, 0.6);
}

TEST(Queueing, AllDeadTracesYieldZeroedStats) {
  // Regression: with every latency sample excluded, the summary used to
  // divide by latencies.size() and call latencies.back() on an empty
  // vector — UB. An all-dead stream must produce zeroed stats instead.
  const std::vector<InferenceTrace> traces{trace_of(-1, 0.0)};
  const auto stats = single_queue(traces, 50.0, 100);
  EXPECT_EQ(stats.arrivals, 100);
  EXPECT_EQ(stats.dead, 100);
  EXPECT_EQ(stats.escalated, 0);
  EXPECT_DOUBLE_EQ(stats.mean_latency_s, 0.0);
  EXPECT_DOUBLE_EQ(stats.p50_latency_s, 0.0);
  EXPECT_DOUBLE_EQ(stats.p95_latency_s, 0.0);
  EXPECT_DOUBLE_EQ(stats.max_latency_s, 0.0);
  EXPECT_DOUBLE_EQ(stats.cloud.utilization, 0.0);
}

TEST(Queueing, ExponentialDrawStaysFiniteAtTheUniformBoundary) {
  // Regression: -log(1 - u) is +inf at u == 1, which would freeze the
  // arrival clock. The draw clamps u below 1, so every gap is finite.
  const double at_one = exponential_from_uniform(1.0, 50.0);
  EXPECT_TRUE(std::isfinite(at_one));
  EXPECT_GT(at_one, 0.0);
  EXPECT_DOUBLE_EQ(exponential_from_uniform(0.0, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(exponential_from_uniform(0.5, 1.0), -std::log(0.5));
  // Out-of-range draws clamp into [0, 1) instead of going NaN/negative.
  EXPECT_TRUE(std::isfinite(exponential_from_uniform(2.0, 50.0)));
  EXPECT_DOUBLE_EQ(exponential_from_uniform(-1.0, 50.0), 0.0);
  EXPECT_THROW(exponential_from_uniform(0.5, 0.0), Error);
}

TEST(Queueing, SingleTraceCyclesThroughTheStream) {
  const std::vector<InferenceTrace> traces{trace_of(1, 5e-3)};
  const auto stats = single_queue(traces, 10.0, 250, 1e-3);
  EXPECT_EQ(stats.arrivals, 250);
  EXPECT_EQ(stats.escalated, 250);
  EXPECT_GE(stats.mean_latency_s, 6e-3);
}

TEST(Queueing, ZeroServiceTimeAddsNothingToNetworkLatency) {
  const std::vector<InferenceTrace> traces{trace_of(1, 7e-3)};
  const auto stats = single_queue(traces, 100.0, 500, 0.0);
  // Latency is a difference of absolute event clocks, so allow float slack.
  EXPECT_NEAR(stats.mean_latency_s, 7e-3, 1e-9);
  EXPECT_NEAR(stats.max_latency_s, 7e-3, 1e-9);
  EXPECT_DOUBLE_EQ(stats.cloud.utilization, 0.0);
}

TEST(Queueing, OverloadUtilizationApproachesOne) {
  const auto traces = synthetic_traces(1.0);
  const auto stats = single_queue(traces, 10000.0, 2000);
  EXPECT_GT(stats.cloud.utilization, 0.95);
  EXPECT_LE(stats.cloud.utilization, 1.0 + 1e-12);
}

// ------------------------------------------------------------ fleet network

TEST(FleetQueueing, SingleQueueMeanMatchesMD1) {
  // Every sample escalates after a constant 10 ms network latency and takes
  // a deterministic 10 ms at the one cloud server: Poisson arrivals make it
  // an M/D/1 queue, whose mean response time is L + S + rho S / (2 (1 -
  // rho)) (Pollaczek-Khinchine). At rho = 0.8 a 20 000-arrival run strays
  // about 4% from the formula on some seeds, so the check stops at 0.5.
  constexpr double kLatency = 10e-3, kService = 10e-3;
  const std::vector<InferenceTrace> traces{trace_of(1, kLatency)};
  for (const double rho : {0.2, 0.5}) {
    const double expected =
        kLatency + kService + rho * kService / (2.0 * (1.0 - rho));
    for (const std::uint64_t seed : {1, 2, 3}) {
      const auto stats =
          single_queue(traces, rho / kService, 20000, kService, seed);
      EXPECT_EQ(stats.shed, 0);
      EXPECT_NEAR(stats.mean_latency_s, expected, 0.02 * expected)
          << "rho " << rho << " seed " << seed;
    }
  }
}

TEST(FleetQueueing, ArrivalsConserveAcrossOutcomes) {
  // Every arrival ends exactly one way: completed, shed or dead.
  std::vector<InferenceTrace> traces{trace_of(0, 2e-3), trace_of(1, 8e-3),
                                     trace_of(2, 12e-3), trace_of(-1, 0.0)};
  FleetConfig cfg;
  cfg.num_devices = 50;
  cfg.num_edges = 4;
  cfg.queue_capacity = 4;
  cfg.arrival_rate_hz = 2000.0;  // deliberately heavy
  const auto stats = simulate_fleet(traces, cfg, 10000);
  EXPECT_EQ(stats.arrivals, 10000);
  EXPECT_EQ(stats.completed + stats.shed + stats.dead, stats.arrivals);
  EXPECT_EQ(stats.local + stats.escalated, stats.completed);
}

TEST(FleetQueueing, DeterministicAcrossRerunsIncludingSeries) {
  std::vector<InferenceTrace> traces{trace_of(0, 2e-3), trace_of(1, 8e-3),
                                     trace_of(2, 12e-3), trace_of(-1, 0.0)};
  FleetConfig cfg;
  cfg.num_devices = 30;
  cfg.num_edges = 3;
  cfg.policy = EdgePolicy::kLeastLoaded;
  cfg.seed = 11;
  obs::WindowedSeries a_series(0.5), b_series(0.5);
  const auto a = simulate_fleet(traces, cfg, 5000, &a_series);
  const auto b = simulate_fleet(traces, cfg, 5000, &b_series);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.dead, b.dead);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p95_latency_s, b.p95_latency_s);
  EXPECT_DOUBLE_EQ(a.horizon_s, b.horizon_s);
  EXPECT_DOUBLE_EQ(a.throughput_hz, b.throughput_hz);
  for (std::size_t g = 0; g < a.edges.size(); ++g) {
    EXPECT_EQ(a.edges[g].served, b.edges[g].served) << g;
    EXPECT_DOUBLE_EQ(a.edges[g].utilization, b.edges[g].utilization) << g;
  }
  EXPECT_EQ(a.cloud.served, b.cloud.served);
  EXPECT_EQ(a_series.to_csv(), b_series.to_csv());
}

/// FNV-1a over `s`, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Every FleetStats field as text, doubles in exact hex (%a).
std::string fleet_stats_text(const FleetStats& s) {
  std::string out;
  const auto d = [&out](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a,", v);
    out += buf;
  };
  const auto i = [&out](std::int64_t v) { out += std::to_string(v) + ","; };
  const auto ex = [&out, &i](const obs::HdrExemplar& e) {
    i(e.sample);
    out += std::to_string(e.trace_id) + ",";
  };
  const auto station = [&](const StationStats& st) {
    i(st.served);
    i(st.batches);
    i(st.shed);
    i(st.peak_queue);
    d(st.busy_s);
    d(st.utilization);
  };
  i(s.arrivals);
  i(s.completed);
  i(s.local);
  i(s.escalated);
  i(s.dead);
  i(s.shed);
  d(s.horizon_s);
  d(s.throughput_hz);
  d(s.mean_latency_s);
  d(s.p50_latency_s);
  d(s.p95_latency_s);
  d(s.max_latency_s);
  d(s.p99_latency_s);
  d(s.p999_latency_s);
  ex(s.p99_exemplar);
  ex(s.p999_exemplar);
  ex(s.max_exemplar);
  for (const auto& e : s.edges) station(e);
  station(s.cloud);
  return out;
}

TEST(FleetQueueing, GoldenDigestsPinTheEventOrder) {
  // Reruns of one build cannot catch a priority queue that pops tied events
  // in another order. These configs tie on t on purpose — zero inter-arrival
  // gaps, equal trace latencies, a server-free and its batch's completions
  // at one instant — and every output is hashed against digests recorded
  // on the (t, seq)-ordered reference implementation.
  std::vector<InferenceTrace> traces{trace_of(0, 2e-3), trace_of(1, 2e-3),
                                     trace_of(2, 2e-3), trace_of(1, 2e-3),
                                     trace_of(-1, 0.0), trace_of(2, 2e-3)};
  for (std::size_t k = 0; k < traces.size(); ++k) {
    traces[k].trace_id = 1000 + k;
  }
  FleetConfig tied;
  tied.num_devices = 7;
  tied.num_edges = 3;
  tied.edge_servers = 2;
  tied.cloud_servers = 2;
  tied.interarrival_s = {0.0, 1e-3};
  // Power-of-two service times make base * (1 + (k - 1) * growth) exact,
  // so the digests do not depend on whether the compiler fuses the service
  // product and the clock add into an FMA (-march=native builds do).
  tied.edge_service_s = 0x1p-7;
  tied.cloud_service_s = 0x1p-8;
  tied.edge_cloud_latency_s = 2e-3;
  tied.max_batch = 8;
  tied.batch_growth = 0.25;
  tied.queue_capacity = 3;
  tied.slo_latency_ms = 20.0;
  tied.slo_fast_window_s = 0.1;
  tied.slo_slow_window_s = 1.0;
  tied.seed = 5;
  struct Case {
    EdgePolicy policy;
    bool poisson;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {EdgePolicy::kNearest, false, 0xfe4c6f15862c7963ULL},
      {EdgePolicy::kLeastLoaded, false, 0xe30c6d50e5c1b574ULL},
      {EdgePolicy::kRoundRobin, false, 0x140dae0947e59f04ULL},
      {EdgePolicy::kLeastLoaded, true, 0x21fb3216b9fc7161ULL},
  };
  for (const Case& c : cases) {
    FleetConfig cfg = tied;
    cfg.policy = c.policy;
    if (c.poisson) {
      cfg.interarrival_s.clear();
      cfg.arrival_rate_hz = 1500.0;
    }
    obs::WindowedSeries series(0.05);
    obs::MetricsRegistry registry;
    obs::SloEngine slo;
    const FleetStats stats =
        simulate_fleet(traces, cfg, 3000, &series, &registry, &slo);
    EXPECT_GT(stats.shed, 0) << to_string(c.policy);
    EXPECT_GT(stats.cloud.served, 0) << to_string(c.policy);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv1a(h, fleet_stats_text(stats));
    h = fnv1a(h, series.to_csv());
    h = fnv1a(h, registry.to_json());
    h = fnv1a(h, slo.to_json());
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(h));
    EXPECT_EQ(h, c.digest) << to_string(c.policy)
                           << (c.poisson ? " poisson" : " tied") << ": "
                           << hex;
  }
}

TEST(FleetQueueing, DeadTracesNeverOccupyAnyServer) {
  const std::vector<InferenceTrace> traces{trace_of(-1, 0.0)};
  FleetConfig cfg;
  const auto stats = simulate_fleet(traces, cfg, 1000);
  EXPECT_EQ(stats.dead, 1000);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.shed, 0);
  for (const auto& e : stats.edges) {
    EXPECT_EQ(e.served, 0);
    EXPECT_DOUBLE_EQ(e.utilization, 0.0);
  }
  EXPECT_EQ(stats.cloud.served, 0);
  EXPECT_DOUBLE_EQ(stats.cloud.utilization, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_latency_s, 0.0);
  EXPECT_DOUBLE_EQ(stats.max_latency_s, 0.0);
}

TEST(FleetQueueing, LocalTrafficNeverTouchesTheStations) {
  const std::vector<InferenceTrace> traces{trace_of(0, 2e-3)};
  FleetConfig cfg;
  cfg.arrival_rate_hz = 5000.0;
  const auto stats = simulate_fleet(traces, cfg, 2000);
  EXPECT_EQ(stats.completed, 2000);
  EXPECT_EQ(stats.local, 2000);
  EXPECT_EQ(stats.escalated, 0);
  EXPECT_NEAR(stats.mean_latency_s, 2e-3, 1e-9);
  for (const auto& e : stats.edges) EXPECT_EQ(e.served, 0);
  EXPECT_EQ(stats.cloud.served, 0);
}

TEST(FleetQueueing, CloudTierOnlyServesFinalExits) {
  FleetConfig cfg;  // first_cloud_exit = 2
  cfg.arrival_rate_hz = 100.0;
  const auto edge_only =
      simulate_fleet({trace_of(1, 5e-3)}, cfg, 500);
  EXPECT_EQ(edge_only.cloud.served, 0);
  std::int64_t edge_served = 0;
  for (const auto& e : edge_only.edges) edge_served += e.served;
  EXPECT_EQ(edge_served, 500);
  EXPECT_EQ(edge_only.escalated, 500);

  const auto to_cloud = simulate_fleet({trace_of(2, 5e-3)}, cfg, 500);
  EXPECT_EQ(to_cloud.cloud.served, 500);
  // The cloud leg adds the hop plus its service time on top.
  EXPECT_GT(to_cloud.mean_latency_s,
            edge_only.mean_latency_s + cfg.edge_cloud_latency_s);
}

TEST(FleetQueueing, SaturationShedsInsteadOfCrashing) {
  const std::vector<InferenceTrace> traces{trace_of(1, 1e-3)};
  FleetConfig cfg;
  cfg.num_edges = 2;
  cfg.edge_servers = 1;
  cfg.edge_service_s = 10e-3;
  cfg.max_batch = 1;  // no amortization: capacity 2 * 100 Hz
  cfg.queue_capacity = 8;
  cfg.arrival_rate_hz = 2000.0;
  const auto stats = simulate_fleet(traces, cfg, 5000);
  EXPECT_GT(stats.shed, 0);
  EXPECT_EQ(stats.completed + stats.shed, stats.arrivals);
  for (const auto& e : stats.edges) {
    EXPECT_GT(e.utilization, 0.9);
    EXPECT_LE(e.utilization, 1.0 + 1e-12);
    EXPECT_LE(e.peak_queue, cfg.queue_capacity);
  }
}

TEST(FleetQueueing, BatchingAmortizesEdgeServiceUnderLoad) {
  const std::vector<InferenceTrace> traces{trace_of(1, 1e-3)};
  FleetConfig cfg;
  cfg.num_edges = 1;
  cfg.edge_servers = 1;
  cfg.edge_service_s = 5e-3;     // unbatched capacity: 200 Hz
  cfg.arrival_rate_hz = 400.0;   // 2x overload without batching
  cfg.queue_capacity = 100000;
  cfg.batch_growth = 0.25;
  FleetConfig unbatched = cfg;
  unbatched.max_batch = 1;
  FleetConfig batched = cfg;
  batched.max_batch = 8;  // amortized capacity: 8 / (5ms * 2.75) = 582 Hz
  const auto a = simulate_fleet(traces, unbatched, 4000);
  const auto b = simulate_fleet(traces, batched, 4000);
  EXPECT_LT(b.p95_latency_s, a.p95_latency_s / 2.0);
  EXPECT_LT(b.edges[0].utilization, a.edges[0].utilization);
  EXPECT_GT(b.edges[0].served, b.edges[0].batches);  // real batches formed
}

TEST(FleetQueueing, PoliciesRouteEveryEscalationDeterministically) {
  const std::vector<InferenceTrace> traces{trace_of(1, 2e-3)};
  for (const auto policy : {EdgePolicy::kNearest, EdgePolicy::kLeastLoaded,
                            EdgePolicy::kRoundRobin}) {
    FleetConfig cfg;
    cfg.policy = policy;
    cfg.num_edges = 4;
    cfg.arrival_rate_hz = 500.0;
    const auto stats = simulate_fleet(traces, cfg, 4000);
    std::int64_t served = 0;
    for (const auto& e : stats.edges) served += e.served;
    EXPECT_EQ(served, 4000) << to_string(policy);
    // Uniform devices: nearest hashes devices evenly across edges, and
    // round-robin is exactly fair. Least-loaded intentionally piles onto
    // the lowest-index edge while queues are empty (ties break to index
    // 0), so it only has to route everything, not balance.
    if (policy != EdgePolicy::kLeastLoaded) {
      for (const auto& e : stats.edges) {
        EXPECT_GT(e.served, 700) << to_string(policy);
        EXPECT_LT(e.served, 1300) << to_string(policy);
      }
    }
    if (policy == EdgePolicy::kRoundRobin) {
      for (const auto& e : stats.edges) EXPECT_EQ(e.served, 1000);
    }
  }
}

TEST(FleetQueueing, TraceDrivenArrivalsReplayFixedGaps) {
  const std::vector<InferenceTrace> traces{trace_of(0, 2e-3)};
  FleetConfig cfg;
  cfg.interarrival_s = {10e-3};  // one arrival every 10 ms, exactly
  const auto stats = simulate_fleet(traces, cfg, 100);
  EXPECT_EQ(stats.arrivals, 100);
  // Last arrival at 1.0 s, completing 2 ms later.
  EXPECT_NEAR(stats.horizon_s, 1.002, 1e-9);
  EXPECT_DOUBLE_EQ(stats.mean_latency_s, 2e-3);
}

TEST(FleetQueueing, LedgerEncodingWritesTheGatedKeys) {
  // At the 4-edge topology of examples/fleet_sim, the fleet encoding with
  // an SLO engine writes exactly the keys bench/baselines/fleet_sim.json
  // gates; without one it writes the same keys but fleet.slo.*.
  const std::vector<InferenceTrace> traces{trace_of(0, 2e-3),
                                           trace_of(1, 8e-3),
                                           trace_of(2, 12e-3),
                                           trace_of(-1, 0.0)};
  FleetConfig cfg;
  cfg.num_devices = 120;
  cfg.num_edges = 4;
  cfg.cloud_servers = 10;
  cfg.arrival_rate_hz = 2000.0;
  cfg.first_cloud_exit = 2;
  obs::SloEngine slo;
  const auto stats = simulate_fleet(traces, cfg, 2000, nullptr, nullptr, &slo);

  const auto keys = [&](const obs::SloEngine* engine) {
    obs::LedgerRecord rec;
    add_ledger_metrics(rec, stats, engine);
    std::vector<std::string> out;
    for (const auto& [key, value] : rec.metrics) out.push_back(key);
    std::sort(out.begin(), out.end());
    EXPECT_EQ(std::adjacent_find(out.begin(), out.end()), out.end());
    return out;
  };
  std::ifstream in(DDNN_SOURCE_DIR "/bench/baselines/fleet_sim.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const obs::JsonValue baseline = obs::parse_json(text.str());
  std::vector<std::string> gated;
  for (const auto& [key, bound] : baseline.at("metrics").members) {
    gated.push_back(key);
  }
  std::sort(gated.begin(), gated.end());
  EXPECT_EQ(keys(&slo), gated);

  std::vector<std::string> without_slo;
  for (const auto& key : gated) {
    if (key.rfind("fleet.slo.", 0) != 0) without_slo.push_back(key);
  }
  EXPECT_LT(without_slo.size(), gated.size());
  EXPECT_EQ(keys(nullptr), without_slo);
}

TEST(FleetQueueing, ParsesAndPrintsPolicies) {
  EXPECT_EQ(parse_edge_policy("nearest"), EdgePolicy::kNearest);
  EXPECT_EQ(parse_edge_policy("least-loaded"), EdgePolicy::kLeastLoaded);
  EXPECT_EQ(parse_edge_policy("round-robin"), EdgePolicy::kRoundRobin);
  EXPECT_THROW(parse_edge_policy("random"), Error);
  EXPECT_EQ(to_string(EdgePolicy::kNearest), "nearest");
  EXPECT_EQ(to_string(EdgePolicy::kLeastLoaded), "least-loaded");
  EXPECT_EQ(to_string(EdgePolicy::kRoundRobin), "round-robin");
}

TEST(FleetQueueing, ValidatesConfiguration) {
  const std::vector<InferenceTrace> traces{trace_of(1, 2e-3)};
  EXPECT_THROW(simulate_fleet({}, FleetConfig{}, 10), Error);
  EXPECT_THROW(simulate_fleet(traces, FleetConfig{}, 0), Error);
  FleetConfig bad;
  bad.num_edges = 0;
  EXPECT_THROW(simulate_fleet(traces, bad, 10), Error);
  bad = FleetConfig{};
  bad.num_devices = 0;
  EXPECT_THROW(simulate_fleet(traces, bad, 10), Error);
  bad = FleetConfig{};
  bad.queue_capacity = 0;
  EXPECT_THROW(simulate_fleet(traces, bad, 10), Error);
  bad = FleetConfig{};
  bad.batch_growth = -0.5;
  EXPECT_THROW(simulate_fleet(traces, bad, 10), Error);
  bad = FleetConfig{};
  bad.interarrival_s = {1e-3, -1.0};
  EXPECT_THROW(simulate_fleet(traces, bad, 10), Error);
  bad = FleetConfig{};
  bad.arrival_rate_hz = 0.0;
  EXPECT_THROW(simulate_fleet(traces, bad, 10), Error);
  // Malformed trace latencies are rejected up front, even with a series
  // bound (where a negative one would otherwise surface as a backwards
  // series clock); a dead trace's latency is never used, so it is not
  // checked.
  for (const double latency : {std::nan(""), HUGE_VAL, -1e-3}) {
    for (const int exit_taken : {0, 1, 2}) {
      const std::vector<InferenceTrace> malformed{
          trace_of(1, 2e-3), trace_of(exit_taken, latency)};
      obs::WindowedSeries fresh(1.0);
      EXPECT_THROW(simulate_fleet(malformed, FleetConfig{}, 10, &fresh),
                   Error)
          << latency << " at exit " << exit_taken;
    }
  }
  const std::vector<InferenceTrace> dead_nan{trace_of(1, 2e-3),
                                             trace_of(-1, std::nan(""))};
  EXPECT_EQ(simulate_fleet(dead_nan, FleetConfig{}, 10).dead, 5);
  // The series must be freshly constructed: the simulator registers its
  // own fleet.* columns.
  obs::WindowedSeries dirty(1.0);
  dirty.add_counter("other");
  EXPECT_THROW(simulate_fleet(traces, FleetConfig{}, 10, &dirty), Error);
}

TEST_F(RuntimeFixture, RuntimeValidatesConstruction) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  EXPECT_THROW(HierarchyRuntime(model, {0.5, 0.5}, devices), Error);
  EXPECT_THROW(HierarchyRuntime(model, {0.5}, {0, 1}), Error);
}

TEST_F(RuntimeFixture, LinkReportAccountsEveryByte) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {0.5}, devices);
  runtime.run(dataset->test());
  const Table report = runtime.link_report();
  EXPECT_EQ(report.row_count(), 12u);  // 6 gateway + 6 uplink links
  // Sum of per-link bytes in the report equals the metrics total.
  std::int64_t sum = 0;
  for (const auto& link : runtime.device_gateway_links()) {
    sum += link.stats().bytes;
  }
  for (const auto& link : runtime.device_uplink_links()) {
    sum += link.stats().bytes;
  }
  EXPECT_EQ(sum, runtime.metrics().total_bytes);
  EXPECT_NE(report.to_string().find("device0->gateway"), std::string::npos);
}

TEST_F(RuntimeFixture, RejectsFloatDeviceModels) {
  auto cfg = core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud);
  cfg.float_devices = true;
  core::DdnnModel model(cfg);
  // Float device features have no 1-bit wire representation.
  EXPECT_THROW(HierarchyRuntime(model, {0.5}, devices), Error);
}

}  // namespace
}  // namespace ddnn::dist
