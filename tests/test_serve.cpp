// Served hierarchy parity: `ddnn serve`'s roles, run in-process on threads
// over loopback sockets, must decide every sample exactly as the simulator
// does — and a remote tier that stops answering must degrade exactly like a
// simulated outage from that sample on. Every reply on the wire carries its
// request's seq.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/entropy.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "data/mvmc.hpp"
#include "dist/message.hpp"
#include "dist/node.hpp"
#include "dist/runtime.hpp"
#include "dist/serve.hpp"
#include "dist/transport.hpp"
#include "nn/serialize.hpp"

namespace ddnn::dist {
namespace {

struct ServeParity : public ::testing::Test {
  ServeParity() {
    data::MvmcConfig data_cfg;
    data_cfg.train_samples = 8;
    data_cfg.test_samples = 48;
    data_cfg.seed = 91;
    dataset = std::make_unique<data::MvmcDataset>(
        data::MvmcDataset::generate(data_cfg));
    core::DdnnModel model(config());
    model.set_training(false);
    state = scratch("model.ddnn");
    nn::save_state(model, state);
    thresholds = median_entropies(model);
  }
  ~ServeParity() override { std::remove(state.c_str()); }

  static core::DdnnConfig config() {
    return core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud,
                                    6, 2);
  }

  /// A fresh model from the one saved state: every role owns its own.
  std::unique_ptr<core::DdnnModel> load() const {
    auto model = std::make_unique<core::DdnnModel>(config());
    nn::load_state(*model, state);
    model->set_training(false);
    return model;
  }

  std::string scratch(const std::string& name) const {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "/ddnn_serve_" + info->name() + "_" +
           std::to_string(::getpid()) + "_" + name;
  }

  /// Each non-final exit's threshold at its median normalized entropy over
  /// the test set, so that every exit takes some samples.
  std::vector<double> median_entropies(core::DdnnModel& model) const {
    const auto eval = core::evaluate_exits(model, dataset->test(), devices);
    std::vector<double> out;
    for (std::size_t e = 0; e + 1 < eval.num_exits(); ++e) {
      std::vector<double> h;
      for (std::int64_t i = 0; i < eval.sample_count(); ++i) {
        h.push_back(core::normalized_entropy_row(eval.exit_probs[e], i));
      }
      std::nth_element(h.begin(), h.begin() + h.size() / 2, h.end());
      out.push_back(h[h.size() / 2]);
    }
    return out;
  }

  /// The simulator's traces over the test set, under `plan` if it has one.
  std::vector<InferenceTrace> simulate(const FaultPlan& plan = {}) const {
    const auto model = load();
    HierarchyRuntime runtime(*model, thresholds, devices);
    if (!plan.edge_outages.empty()) runtime.set_fault_plan(plan);
    std::vector<InferenceTrace> traces;
    for (const auto& s : dataset->test()) traces.push_back(runtime.classify(s));
    return traces;
  }

  /// Serve the test set through a cloud and an edge on their own threads.
  std::vector<InferenceTrace> serve(bool blackhole_edge) const {
    ServeOptions opts;
    opts.thresholds = thresholds;
    opts.reliability.timeout_s = 0.2;
    opts.decision_timeout_s = blackhole_edge ? 0.3 : 10.0;
    opts.idle_timeout_s = 30.0;

    const auto cloud_model = load();
    ServeOptions cloud_opts = opts;
    cloud_opts.port_file = scratch("cloud.port");
    std::thread cloud([&] { serve_cloud(*cloud_model, cloud_opts); });
    opts.cloud_addr = "127.0.0.1:" + await_port(cloud_opts.port_file);

    const auto edge_model = load();
    ServeOptions edge_opts = opts;
    edge_opts.port_file = scratch("edge.port");
    edge_opts.blackhole = blackhole_edge;
    std::thread edge([&] { serve_edge(*edge_model, edge_opts); });
    opts.edge_addr = "127.0.0.1:" + await_port(edge_opts.port_file);

    const auto driver_model = load();
    const DriveResult result =
        drive_hierarchy(*driver_model, dataset->test(), devices, opts);
    edge.join();
    cloud.join();
    std::remove(cloud_opts.port_file.c_str());
    std::remove(edge_opts.port_file.c_str());
    return result.traces;
  }

  static std::string await_port(const std::string& path) {
    for (int i = 0; i < 500; ++i) {
      std::ifstream in(path);
      std::string port;
      if (in >> port) return port;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "no port file " << path;
    return "0";
  }

  std::unique_ptr<data::MvmcDataset> dataset;
  std::vector<int> devices{0, 1, 2, 3, 4, 5};
  std::vector<double> thresholds;
  std::string state;
};

/// Equal decisions — everything the decisions CSV carries, plus retries.
/// Latency is measured on a served run, and its trace ids fold in a run
/// nonce.
void expect_same_decision(const InferenceTrace& got,
                          const InferenceTrace& want, std::size_t i) {
  EXPECT_EQ(got.exit_taken, want.exit_taken) << "sample " << i;
  EXPECT_EQ(got.prediction, want.prediction) << "sample " << i;
  EXPECT_EQ(got.entropy, want.entropy) << "sample " << i;
  EXPECT_EQ(got.bytes_sent, want.bytes_sent) << "sample " << i;
  EXPECT_EQ(got.degraded, want.degraded) << "sample " << i;
  EXPECT_EQ(got.dead, want.dead) << "sample " << i;
  EXPECT_EQ(got.retries, want.retries) << "sample " << i;
}

TEST_F(ServeParity, HealthyServedRunMatchesTheSimulator) {
  const auto want = simulate();
  const auto got = serve(/*blackhole_edge=*/false);
  ASSERT_EQ(got.size(), want.size());
  std::vector<int> exits(3, 0);
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_decision(got[i], want[i], i);
    EXPECT_NE(got[i].trace_id, 0u);
    if (got[i].exit_taken >= 0) {
      ++exits[static_cast<std::size_t>(got[i].exit_taken)];
    }
  }
  for (std::size_t e = 0; e < exits.size(); ++e) {
    EXPECT_GT(exits[e], 0) << "no sample took exit " << e;
  }
}

TEST_F(ServeParity, BlackholedEdgeMatchesAWholeRunOutage) {
  FaultPlan plan;
  plan.edge_outages.push_back(
      {.group = -1, .start_sample = 0, .end_sample = 1 << 20});
  const auto want = simulate(plan);
  const auto got = serve(/*blackhole_edge=*/true);
  ASSERT_EQ(got.size(), want.size());
  int degraded = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_decision(got[i], want[i], i);
    degraded += got[i].degraded ? 1 : 0;
  }
  EXPECT_GT(degraded, 0);
}

TEST_F(ServeParity, DecisionEchoesTheClassifySeq) {
  // The reply rule on the served wire: a raw connection sends a cloud role
  // a Hello, a data frame and a Classify, and every reply, the Decision
  // included, carries its request's seq.
  const auto model = load();
  const std::string signature = model_signature(*model);
  Tensor ones(edge_feature_shape(config()));
  ones.fill(1.0f);
  const Message features = encode_binary_feature_map(ones);
  ServeOptions opts;
  opts.thresholds = thresholds;
  opts.idle_timeout_s = 30.0;
  opts.port_file = scratch("cloud.port");
  std::thread cloud([&] { serve_cloud(*model, opts); });
  const auto conn =
      connect_to("127.0.0.1:" + await_port(opts.port_file), 5.0);
  std::vector<Frame> replies;
  if (conn != nullptr) {
    PayloadWriter hello;
    hello.str("driver");
    hello.str(signature);
    hello.f64(0.0);
    Frame data = make_message_frame(features, /*sample=*/0, /*branch=*/0);
    data.seq = 12;
    PayloadWriter classify;
    classify.i64(0);  // sample
    classify.u8(static_cast<std::uint8_t>(ClassifyMode::kNormal));
    classify.u64(0);  // trace id
    classify.u64(0);  // parent span
    conn->queue({FrameKind::kHello, 11, hello.take()});
    conn->queue(data);
    conn->queue({FrameKind::kClassify, 13, classify.take()});
    EXPECT_TRUE(conn->flush(5.0));
    while (replies.size() < 3) {
      auto frame = conn->read_frame(5.0);
      if (!frame.has_value()) break;
      replies.push_back(std::move(*frame));
    }
    conn->write_frame({FrameKind::kBye, 14, {}}, 5.0);
  }
  cloud.join();  // the cloud exits once its one peer has said Bye
  std::remove(opts.port_file.c_str());

  ASSERT_NE(conn, nullptr);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].kind, FrameKind::kHello);
  EXPECT_EQ(replies[0].seq, 11u);
  EXPECT_EQ(replies[1].kind, FrameKind::kAck);
  EXPECT_EQ(replies[1].seq, 12u);
  EXPECT_EQ(replies[2].kind, FrameKind::kDecision);
  EXPECT_EQ(replies[2].seq, 13u);
}

/// An edge in "another process" that answers through the in-process edge
/// step of its own runtime until sample `stop_at`, then never again.
class StoppingEdge final : public RemoteTier {
 public:
  StoppingEdge(HierarchyRuntime& edge, std::int64_t stop_at)
      : edge_(edge), stop_at_(stop_at) {}
  bool up() const override { return !stopped_; }
  std::optional<TierDecision> classify(std::int64_t sample, ClassifyMode,
                                       const Messages& delivered,
                                       const TraceContext& ctx) override {
    if (sample >= stop_at_) {
      stopped_ = true;
      return std::nullopt;
    }
    return edge_.edge_step(sample, delivered, ctx);
  }

 private:
  HierarchyRuntime& edge_;
  std::int64_t stop_at_;
  bool stopped_ = false;
};

TEST_F(ServeParity, EdgeThatStopsAnsweringDegradesLikeAnOutage) {
  // Stop at a sample that escalates past the local exit, so the edge is
  // asked — and fails — exactly there.
  const auto healthy = simulate();
  std::size_t k = healthy.size() / 3;
  while (k < healthy.size() && healthy[k].exit_taken == 0) ++k;
  ASSERT_LT(k, healthy.size());

  FaultPlan plan;
  plan.edge_outages.push_back({.group = -1,
                               .start_sample = static_cast<std::int64_t>(k),
                               .end_sample = 1 << 20});
  const auto want = simulate(plan);

  const auto edge_model = load();
  HierarchyRuntime edge_runtime(*edge_model, thresholds, devices);
  StoppingEdge edge(edge_runtime, static_cast<std::int64_t>(k));
  const auto model = load();
  HierarchyRuntime runtime(*model, thresholds, devices, {}, {.edge = &edge});
  const auto to_edge = [&] {
    std::int64_t bytes = 0;
    for (const Link& l : runtime.device_uplink_links()) {
      bytes += l.stats().bytes;
    }
    return bytes;
  };

  std::int64_t lost_bytes = 0;
  for (std::size_t i = 0; i < dataset->test().size(); ++i) {
    const std::int64_t before = to_edge();
    const InferenceTrace got = runtime.classify(dataset->test()[i]);
    if (i != k) {
      expect_same_decision(got, want[i], i);
      continue;
    }
    // The dead edge still received this sample's features: the outage
    // route re-sends them to the cloud on top.
    lost_bytes = to_edge() - before;
    EXPECT_EQ(got.exit_taken, want[i].exit_taken);
    EXPECT_EQ(got.prediction, want[i].prediction);
    EXPECT_EQ(got.entropy, want[i].entropy);
    EXPECT_EQ(got.degraded, want[i].degraded);
    EXPECT_EQ(got.bytes_sent, want[i].bytes_sent + lost_bytes);
  }
  EXPECT_GT(lost_bytes, 0);
  EXPECT_FALSE(edge.up());
}

}  // namespace
}  // namespace ddnn::dist
