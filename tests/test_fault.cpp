// Tests for the fault-injection + reliability layer (dist/fault.hpp) and
// the runtime's graceful-degradation routing, plus round-trip coverage for
// the wire codecs at their clamp edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "dist/fault.hpp"
#include "dist/message.hpp"
#include "dist/node.hpp"
#include "dist/runtime.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"

namespace ddnn::dist {
namespace {

// ------------------------------------------------------------------ codecs

TEST(Codec, ClassScoresRoundTripExtremes) {
  const Tensor scores = Tensor::from_vector(
      Shape{1, 4}, {0.0f, -0.0f, 3.4e38f, 1.1754944e-38f});
  const Tensor back = decode_class_scores(encode_class_scores(scores), 4);
  EXPECT_TRUE(back.allclose(scores, 0.0f));  // exact float32 round trip
}

TEST(Codec, ClassScoresRejectBadShapes) {
  EXPECT_THROW(encode_class_scores(Tensor::zeros(Shape{2, 3})), Error);
  EXPECT_THROW(encode_class_scores(Tensor::zeros(Shape{1, 3, 1})), Error);
  EXPECT_NO_THROW(encode_class_scores(Tensor::zeros(Shape{3})));
  EXPECT_NO_THROW(encode_class_scores(Tensor::zeros(Shape{1, 3})));
}

TEST(Codec, BinaryFeatureMapRoundTripAtOddSizes) {
  // Sizes that do not fill whole bytes must still round-trip exactly.
  for (const std::int64_t n : {1, 7, 8, 9, 63}) {
    Tensor t(Shape{n});
    for (std::int64_t i = 0; i < n; ++i) t[i] = (i % 3 == 0) ? 1.0f : -1.0f;
    const Message msg = encode_binary_feature_map(t);
    EXPECT_EQ(msg.payload_bytes(), (n + 7) / 8);
    const Tensor back = decode_binary_feature_map(msg, Shape{n});
    EXPECT_TRUE(back.allclose(t, 0.0f)) << n;
  }
}

TEST(Codec, BinaryFeatureMapRejectsNearlyBinaryValues) {
  // The +-1 edge: values epsilon off the binarized grid must be rejected,
  // never silently rounded into the packing.
  EXPECT_THROW(encode_binary_feature_map(
                   Tensor::from_vector(Shape{2}, {1.0f, -1.0000001f})),
               Error);
  EXPECT_THROW(encode_binary_feature_map(
                   Tensor::from_vector(Shape{2}, {0.9999999f, -1.0f})),
               Error);
}

TEST(Codec, BinaryFeatureMapGoldenWireBytes) {
  // 105 values: three whole 32-bit words plus a 9-bit tail. Bit i of byte
  // i/8 is 1 for +1, LSB first; the tail's unused bits are zero.
  Tensor t(Shape{1, 3, 5, 7});
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = (i * 7 + i / 3) % 5 < 2 ? 1.0f : -1.0f;
  }
  const std::vector<std::uint8_t> golden{0xa1, 0xaa, 0x50, 0x55, 0xa8,
                                         0x2a, 0x54, 0x15, 0xaa, 0x0a,
                                         0x55, 0x85, 0xaa, 0x00};
  const Message msg = encode_binary_feature_map(t);
  EXPECT_EQ(msg.payload, golden);
  const Tensor back = decode_binary_feature_map(msg, t.shape());
  EXPECT_TRUE(back.allclose(t, 0.0f));
}

TEST(Codec, BinaryFeatureMapRejectionNamesFirstBadIndex) {
  // Bad values past the first element, both inside a whole scan block and
  // in the tail; the message must name the offending index.
  for (const float bad : {0.0f, std::numeric_limits<float>::quiet_NaN(),
                          2.0f}) {
    for (const std::int64_t index : {70, 300, 511}) {
      Tensor t(Shape{512});
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        t.data()[i] = i % 2 == 0 ? 1.0f : -1.0f;
      }
      t.data()[index] = bad;
      try {
        encode_binary_feature_map(t);
        ADD_FAILURE() << "accepted " << bad << " at index " << index;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "not binarized at index " + std::to_string(index) + ":"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Codec, BinaryDecoderRejectsWrongPayloadSize) {
  Message msg = encode_binary_feature_map(
      Tensor::from_vector(Shape{8}, {1, -1, 1, -1, 1, -1, 1, -1}));
  msg.payload.push_back(0);
  EXPECT_THROW(decode_binary_feature_map(msg, Shape{8}), Error);
}

TEST(Codec, RawImageClampsOutOfRangeValues) {
  const Tensor img = Tensor::from_vector(
      Shape{6}, {-0.5f, 0.0f, 0.25f, 1.0f, 1.5f, 100.0f});
  const Message msg = encode_raw_image(img);
  EXPECT_EQ(msg.payload[0], 0);    // clamped up to 0
  EXPECT_EQ(msg.payload[1], 0);
  EXPECT_EQ(msg.payload[3], 255);
  EXPECT_EQ(msg.payload[4], 255);  // clamped down to 1
  EXPECT_EQ(msg.payload[5], 255);
  const Tensor back = decode_raw_image(msg, Shape{6});
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_GE(back[i], 0.0f);
    EXPECT_LE(back[i], 1.0f);
  }
  EXPECT_NEAR(back[2], 0.25f, 1.0f / 255.0f + 1e-6f);
}

TEST(Codec, DecodeFeaturesDispatchesOnKind) {
  Rng rng(11);
  const Tensor feats = ops::sign(Tensor::randn(Shape{1, 2, 4, 4}, rng));
  const Tensor via_binary =
      decode_features(encode_binary_feature_map(feats), feats.shape());
  EXPECT_TRUE(via_binary.allclose(feats, 0.0f));
  const Tensor img = Tensor::rand_uniform(Shape{1, 3, 4, 4}, rng, 0.0f, 1.0f);
  const Tensor via_raw = decode_features(encode_raw_image(img), img.shape());
  EXPECT_TRUE(via_raw.allclose(img, 1.0f / 255.0f + 1e-6f));
}

// ---------------------------------------------------------------- injector

TEST(FaultInjector, SeededDropsAreDeterministicAndOrderIndependent) {
  FaultPlan plan;
  plan.seed = 99;
  plan.link_drop_prob = 0.3;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  std::vector<bool> forward, backward;
  for (int s = 0; s < 200; ++s) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      forward.push_back(a.drop("device0->gateway", s, attempt));
    }
  }
  for (int s = 199; s >= 0; --s) {
    for (int attempt = 2; attempt >= 0; --attempt) {
      backward.push_back(b.drop("device0->gateway", s, attempt));
    }
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);  // pure function of coordinates

  plan.seed = 100;
  const FaultInjector c(plan);
  std::vector<bool> other;
  for (int s = 0; s < 200; ++s) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      other.push_back(c.drop("device0->gateway", s, attempt));
    }
  }
  EXPECT_NE(forward, other);  // the seed matters
}

TEST(FaultInjector, DropRateTracksProbability) {
  FaultPlan plan;
  plan.seed = 5;
  plan.link_drop_prob = 0.25;
  plan.link_drop_overrides["lossless"] = 0.0;
  plan.link_drop_overrides["dead"] = 1.0;
  const FaultInjector inj(plan);
  int dropped = 0;
  const int n = 4000;
  for (int s = 0; s < n; ++s) {
    dropped += inj.drop("some-link", s, 0) ? 1 : 0;
    EXPECT_FALSE(inj.drop("lossless", s, 0));
    EXPECT_TRUE(inj.drop("dead", s, 0));
  }
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.25, 0.03);
}

TEST(FaultInjector, DeviceSchedules) {
  FaultPlan plan;
  plan.seed = 3;
  plan.devices.resize(3);
  plan.devices[0].permanent_fail_at = 10;
  plan.devices[1].intermittent_down_prob = 0.5;
  const FaultInjector inj(plan);
  EXPECT_FALSE(inj.device_down(0, 9));
  EXPECT_TRUE(inj.device_down(0, 10));
  EXPECT_TRUE(inj.device_down(0, 100000));
  int down = 0;
  for (int s = 0; s < 2000; ++s) down += inj.device_down(1, s) ? 1 : 0;
  EXPECT_NEAR(down / 2000.0, 0.5, 0.05);
  for (int s = 0; s < 100; ++s) {
    EXPECT_FALSE(inj.device_down(2, s));  // empty schedule
    EXPECT_FALSE(inj.device_down(7, s));  // beyond the plan: healthy
  }
}

TEST(FaultInjector, EdgeOutageWindows) {
  FaultPlan plan;
  plan.edge_outages.push_back(
      {.group = 1, .start_sample = 5, .end_sample = 8});
  plan.edge_outages.push_back(
      {.group = -1, .start_sample = 20, .end_sample = 21});
  const FaultInjector inj(plan);
  EXPECT_FALSE(inj.edge_down(1, 4));
  EXPECT_TRUE(inj.edge_down(1, 5));
  EXPECT_TRUE(inj.edge_down(1, 7));
  EXPECT_FALSE(inj.edge_down(1, 8));   // half-open window
  EXPECT_FALSE(inj.edge_down(0, 6));   // other group unaffected
  EXPECT_TRUE(inj.edge_down(0, 20));   // -1 hits every group
  EXPECT_TRUE(inj.edge_down(3, 20));
}

TEST(FaultInjector, PlanValidation) {
  FaultPlan plan;
  plan.link_drop_prob = 1.5;
  EXPECT_THROW(FaultInjector{plan}, Error);
  plan.link_drop_prob = 0.0;
  plan.devices.push_back({.intermittent_down_prob = -0.1});
  EXPECT_THROW(FaultInjector{plan}, Error);
  plan.devices.clear();
  plan.edge_outages.push_back({.group = 0, .start_sample = 9,
                               .end_sample = 3});
  EXPECT_THROW(FaultInjector{plan}, Error);
}

// ----------------------------------------------------------------- channel

TEST(ReliableChannel, NoInjectorDeliversFirstTryAtLinkLatency) {
  Link link("test", {.bandwidth_bytes_per_s = 1000.0, .base_latency_s = 0.01});
  ReliableChannel channel(link, nullptr, ReliabilityConfig{});
  const Message msg = encode_class_scores(Tensor::zeros(Shape{1, 3}));
  const SendResult res = channel.send(msg, 0);
  EXPECT_TRUE(res.delivered);
  EXPECT_EQ(res.attempts, 1);
  EXPECT_EQ(res.dropped_attempts, 0);
  EXPECT_DOUBLE_EQ(res.latency_s, link.latency_for(msg.payload_bytes()));
  EXPECT_EQ(link.stats().messages, 1);
  EXPECT_EQ(link.stats().attempts, 1);
  EXPECT_EQ(link.stats().dropped, 0);
}

TEST(ReliableChannel, DeadLinkExhaustsRetriesAndTimesOut) {
  FaultPlan plan;
  plan.link_drop_overrides["dead"] = 1.0;
  const FaultInjector inj(plan);
  Link link("dead");
  ReliabilityConfig cfg;
  cfg.max_retries = 3;
  cfg.timeout_s = 0.05;
  ReliableChannel channel(link, &inj, cfg);
  const Message msg = encode_class_scores(Tensor::zeros(Shape{1, 3}));
  const SendResult res = channel.send(msg, 0);
  EXPECT_FALSE(res.delivered);
  EXPECT_EQ(res.attempts, 4);          // 1 + max_retries
  EXPECT_EQ(res.dropped_attempts, 4);
  // 4 timeouts + backoffs 10, 20, 40 ms, each scaled by its seeded jitter
  // draw u to (1 + 0.2 (2u - 1)) of nominal.
  double expected = 4 * 0.05;
  const double nominal[] = {0.01, 0.02, 0.04};
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const double u = inj.backoff_jitter("dead", 0, attempt);
    expected += nominal[attempt - 1] * (1.0 + 0.2 * (2.0 * u - 1.0));
  }
  EXPECT_NEAR(res.latency_s, expected, 1e-12);
  EXPECT_EQ(link.stats().messages, 0);
  EXPECT_EQ(link.stats().bytes, 0);    // nothing delivered
  EXPECT_EQ(link.stats().attempts, 4);
  EXPECT_EQ(link.stats().dropped, 4);
  EXPECT_EQ(link.stats().bytes_dropped, 4 * msg.payload_bytes());
}

TEST(ReliableChannel, RetryBackoffDoublesAndJitterSpansTwentyPercent) {
  // u = 0.5, the jitter-free wait a socket retry sleeps, is the nominal
  // 10 ms doubled per retry, exactly.
  EXPECT_EQ(retry_backoff_s(0), 0.01);
  EXPECT_EQ(retry_backoff_s(1), 0.02);
  EXPECT_EQ(retry_backoff_s(2), 0.04);
  EXPECT_DOUBLE_EQ(retry_backoff_s(1, 0.0), 0.8 * 0.02);
  EXPECT_LT(retry_backoff_s(1, 0.999999), 1.2 * 0.02);
  EXPECT_GT(retry_backoff_s(1, 0.999999), 1.19 * 0.02);
}

TEST(ReliableChannel, RetryAccountingIsDeterministic) {
  FaultPlan plan;
  plan.seed = 21;
  plan.link_drop_prob = 0.5;
  const FaultInjector inj(plan);
  const Message msg = encode_class_scores(Tensor::zeros(Shape{1, 3}));
  auto run = [&] {
    Link link("flaky");
    ReliableChannel channel(link, &inj, ReliabilityConfig{});
    std::int64_t retries = 0, delivered = 0;
    double latency = 0.0;
    for (int s = 0; s < 500; ++s) {
      const SendResult res = channel.send(msg, s);
      retries += res.attempts - 1;
      delivered += res.delivered ? 1 : 0;
      latency += res.latency_s;
      // Attempts on the link always reconcile with delivered + dropped.
      EXPECT_EQ(link.stats().attempts,
                link.stats().messages + link.stats().dropped);
    }
    return std::tuple{retries, delivered, latency};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<0>(a), 0);
  EXPECT_GT(std::get<1>(a), 400);  // p(all 3 attempts drop) = 0.125
  EXPECT_LT(std::get<1>(a), 500);
}

// -------------------------------------------------------------- hierarchy

struct FaultRuntimeFixture : public ::testing::Test {
  FaultRuntimeFixture() {
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

TEST_F(FaultRuntimeFixture, DeviceFailureClearsCachedState) {
  // Regression: set_failed(true) used to leave view_/features_ populated,
  // so a device revived without a fresh sense() silently served
  // pre-failure features.
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  DeviceNode dev(0, model, 0);
  dev.sense(dataset->test()[0].views[0]);
  EXPECT_NO_THROW(dev.feature_message());
  EXPECT_NO_THROW(dev.raw_image_message());
  dev.set_failed(true);
  EXPECT_THROW(dev.feature_message(), Error);
  EXPECT_THROW(dev.scores_message(), Error);
  EXPECT_THROW(dev.raw_image_message(), Error);
  dev.set_failed(false);
  // Revived but never re-sensed: the cache must be gone, not stale.
  EXPECT_THROW(dev.feature_message(), Error);
  EXPECT_THROW(dev.raw_image_message(), Error);
  dev.sense(dataset->test()[0].views[0]);
  EXPECT_NO_THROW(dev.feature_message());
}

TEST_F(FaultRuntimeFixture, FaultyRunCompletesAndIsDeterministic) {
  // The acceptance scenario: lossy links, one permanently failed device,
  // one flapping device. The full split completes with no aborts, faults
  // actually fire, and repeated runs are bit-identical.
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  FaultPlan plan;
  plan.seed = 13;
  plan.link_drop_prob = 0.1;
  plan.devices.resize(5);
  plan.devices[2].permanent_fail_at = 0;
  plan.devices[4].intermittent_down_prob = 0.3;

  auto run = [&] {
    HierarchyRuntime runtime(model, {0.5}, devices);
    runtime.set_fault_plan(plan);
    std::vector<InferenceTrace> traces;
    for (const auto& s : dataset->test()) traces.push_back(runtime.classify(s));
    return std::pair{runtime.metrics(), traces};
  };
  const auto [metrics, traces] = run();
  const auto [metrics2, traces2] = run();

  const auto n = static_cast<std::int64_t>(dataset->test().size());
  EXPECT_EQ(metrics.samples, n);
  EXPECT_EQ(metrics.device_bytes[2], 0);  // permanently failed
  EXPECT_GT(metrics.reliability.drops, 0);
  EXPECT_GT(metrics.reliability.retries, 0);
  EXPECT_GT(metrics.accuracy(), 0.0);

  EXPECT_EQ(metrics.correct, metrics2.correct);
  EXPECT_EQ(metrics.total_bytes, metrics2.total_bytes);
  EXPECT_DOUBLE_EQ(metrics.total_latency_s, metrics2.total_latency_s);
  EXPECT_EQ(metrics.reliability.drops, metrics2.reliability.drops);
  EXPECT_EQ(metrics.reliability.retries, metrics2.reliability.retries);
  EXPECT_EQ(metrics.reliability.timeouts, metrics2.reliability.timeouts);
  ASSERT_EQ(traces.size(), traces2.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].prediction, traces2[i].prediction) << i;
    EXPECT_EQ(traces[i].exit_taken, traces2[i].exit_taken) << i;
    EXPECT_EQ(traces[i].retries, traces2[i].retries) << i;
    EXPECT_DOUBLE_EQ(traces[i].latency_s, traces2[i].latency_s) << i;
  }
}

TEST_F(FaultRuntimeFixture, ResetMetricsRewindsTheFaultTimeline) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {0.5}, devices);
  FaultPlan plan;
  plan.seed = 13;
  plan.link_drop_prob = 0.2;
  runtime.set_fault_plan(plan);
  const auto first = runtime.run(dataset->test());
  const auto drops = first.reliability.drops;
  runtime.reset_metrics();
  const auto second = runtime.run(dataset->test());
  EXPECT_EQ(second.reliability.drops, drops);
  EXPECT_EQ(second.correct, first.correct);
}

TEST_F(FaultRuntimeFixture, GatewayHearingNothingEscalatesInsteadOfAborting) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {0.8}, devices);
  FaultPlan plan;
  for (int d = 0; d < 6; ++d) {
    plan.link_drop_overrides["device" + std::to_string(d) + "->gateway"] = 1.0;
  }
  runtime.set_fault_plan(plan);
  const auto metrics = runtime.run(dataset->test());
  const auto n = static_cast<std::int64_t>(dataset->test().size());
  EXPECT_EQ(metrics.samples, n);
  EXPECT_EQ(metrics.exit_counts[0], 0);  // no local decision possible
  EXPECT_EQ(metrics.exit_counts[1], n);  // everything classified in the cloud
  EXPECT_EQ(metrics.reliability.degraded_exits, n);
  EXPECT_EQ(metrics.reliability.dead_samples, 0);
  // Every sample: 6 senders x (1 + 2 retries) dropped score attempts.
  EXPECT_EQ(metrics.reliability.timeouts, 6 * n);
  EXPECT_EQ(metrics.reliability.drops, 6 * 3 * n);
  EXPECT_GT(metrics.accuracy(), 0.0);
}

TEST_F(FaultRuntimeFixture, EdgeOutageEscalatesStraightToCloud) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud));
  model.set_training(false);
  // Local never confident, edge always confident: normally everything
  // exits at the edge (see test_dist EdgeConfigRunsThreeTiers).
  HierarchyRuntime runtime(model, {0.0, 1.0}, devices);
  FaultPlan plan;
  plan.edge_outages.push_back(
      {.group = -1, .start_sample = 0, .end_sample = 1 << 20});
  runtime.set_fault_plan(plan);
  const auto metrics = runtime.run(dataset->test());
  const auto n = static_cast<std::int64_t>(dataset->test().size());
  EXPECT_EQ(metrics.samples, n);
  EXPECT_EQ(metrics.exit_counts[1], 0);  // the edge exit is unreachable
  EXPECT_EQ(metrics.exit_counts[2], n);  // everything lands in the cloud
  EXPECT_EQ(metrics.reliability.degraded_exits, n);
  EXPECT_EQ(metrics.reliability.dead_samples, 0);
  for (const auto& link : runtime.edge_cloud_links()) {
    EXPECT_EQ(link.stats().bytes, 0);  // the edge never transmitted
  }
  std::int64_t fallback_bytes = 0;
  for (const auto& link : runtime.device_cloud_fallback_links()) {
    fallback_bytes += link.stats().bytes;
  }
  EXPECT_GT(fallback_bytes, 0);  // features re-routed device -> cloud
  EXPECT_GT(metrics.accuracy(), 0.0);
}

TEST_F(FaultRuntimeFixture, RawOffloadWhenNoFeatureReachesTheCloud) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud));
  model.set_training(false);
  // Local never exits; every device->edge feature send is lost. The only
  // remaining route is raw-image offload over the fallback links.
  HierarchyRuntime runtime(model, {0.0, 0.5}, devices);
  FaultPlan plan;
  for (int d = 0; d < 6; ++d) {
    plan.link_drop_overrides["device" + std::to_string(d) + "->edge"] = 1.0;
  }
  runtime.set_fault_plan(plan);
  const auto metrics = runtime.run(dataset->test());
  const auto n = static_cast<std::int64_t>(dataset->test().size());
  EXPECT_EQ(metrics.samples, n);
  EXPECT_EQ(metrics.reliability.dead_samples, 0);
  EXPECT_EQ(metrics.exit_counts[2], n);
  EXPECT_EQ(metrics.reliability.degraded_exits, n);
  // Raw offload pays the paper's traditional-offloading price per device.
  for (const auto& link : runtime.device_cloud_fallback_links()) {
    EXPECT_EQ(link.stats().bytes, n * 3 * 32 * 32);
  }
  for (const auto& link : runtime.device_uplink_links()) {
    EXPECT_EQ(link.stats().bytes, 0);
    EXPECT_GT(link.stats().dropped, 0);
  }
  EXPECT_GT(metrics.accuracy(), 0.0);
}

TEST_F(FaultRuntimeFixture, EmptyRunLinkReportShowsNoRate) {
  // Regression: with zero samples the report used to print total bytes as
  // "Bytes/sample" (dividing by max(1, samples)).
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {0.5}, devices);
  const std::string report = runtime.link_report().to_string();
  EXPECT_NE(report.find("-"), std::string::npos);
  runtime.run(dataset->test());
  const std::string full = runtime.link_report().to_string();
  EXPECT_NE(full.find("device0->gateway"), std::string::npos);
}

TEST_F(FaultRuntimeFixture, FaultPlanValidatedAgainstHierarchy) {
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime runtime(model, {0.5}, devices);
  FaultPlan plan;
  plan.edge_outages.push_back({.group = 0, .start_sample = 0,
                               .end_sample = 10});
  // No edge tier in preset (c): an outage plan must fail loudly.
  EXPECT_THROW(runtime.set_fault_plan(plan), Error);
  plan.edge_outages.clear();
  plan.devices.resize(9);  // more scheduled devices than the runtime has
  EXPECT_THROW(runtime.set_fault_plan(plan), Error);
}

TEST_F(FaultRuntimeFixture, FaultFreePlanMatchesSeedBehaviorExactly) {
  // A plan with zero probabilities must not perturb results, bytes or
  // latency relative to no plan at all.
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  HierarchyRuntime plain(model, {0.5}, devices);
  HierarchyRuntime injected(model, {0.5}, devices);
  FaultPlan plan;
  plan.seed = 4242;
  injected.set_fault_plan(plan);
  const auto a = plain.run(dataset->test());
  const auto b = injected.run(dataset->test());
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_DOUBLE_EQ(a.total_latency_s, b.total_latency_s);
  EXPECT_FALSE(b.reliability.any());
}

}  // namespace
}  // namespace ddnn::dist
