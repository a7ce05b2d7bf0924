// End-to-end integration tests: joint training on the synthetic dataset,
// exit evaluation, threshold policies, serialization, caching, and the
// distributed runtime on a *trained* model. Kept small (reduced dataset and
// epoch counts) so the whole suite stays fast.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/cache.hpp"
#include "core/inference.hpp"
#include "core/trainer.hpp"
#include "dist/runtime.hpp"
#include "nn/serialize.hpp"

namespace ddnn {
namespace {

/// One 16-epoch model shared by every TrainedFixture test. The process
/// that runs JointLossDecreases — the one test that needs the loss history —
/// trains it afresh and saves the weights to the model cache; every other
/// process loads them (core::train_or_load). Under ctest that process is the
/// FIXTURES_SETUP step (tests/CMakeLists.txt), so the model is trained once
/// per run, in the build tree, however many test processes read it.
struct TrainedFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    data::MvmcConfig data_cfg;
    data_cfg.train_samples = 260;
    data_cfg.test_samples = 80;
    data_cfg.seed = 2024;
    dataset = new data::MvmcDataset(data::MvmcDataset::generate(data_cfg));

    model = new core::DdnnModel(
        core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
    core::TrainConfig cfg;
    cfg.epochs = 16;
    history = new core::TrainHistory;
    const std::string key = "test_integration-TrainedFixture";
    const bool trains = runs_here("JointLossDecreases");
    const std::string path =
        core::cache_dir().empty() ? "" : core::cache_path(key);
    // Delete the old entry first: no run reads weights older code trained.
    if (trains && !path.empty()) std::filesystem::remove(path);
    core::train_or_load(*model, key, [&] {
      *history = core::train_ddnn(*model, dataset->train(), devices, cfg);
    });
    model->set_training(false);  // where train_ddnn leaves it
    if (trains && !path.empty()) {
      std::printf("TrainedFixture weights: %s, FNV-1a %016llx\n",
                  path.c_str(),
                  static_cast<unsigned long long>(file_digest(path)));
    }
  }

  /// Whether this process runs test `name` of this suite.
  static bool runs_here(const std::string& name) {
    const auto* suite =
        ::testing::UnitTest::GetInstance()->current_test_suite();
    for (int i = 0; i < suite->total_test_count(); ++i) {
      const auto* test = suite->GetTestInfo(i);
      if (name == test->name()) return test->should_run();
    }
    return false;
  }

  /// 64-bit FNV-1a of a file's bytes.
  static std::uint64_t file_digest(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::uint64_t h = 14695981039346656037ull;
    for (char ch; in.get(ch);) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
    return h;
  }

  static void TearDownTestSuite() {
    delete history;
    delete model;
    delete dataset;
  }

  static inline data::MvmcDataset* dataset = nullptr;
  static inline core::DdnnModel* model = nullptr;
  static inline core::TrainHistory* history = nullptr;
  static inline const std::vector<int> devices{0, 1, 2, 3, 4, 5};
};

TEST_F(TrainedFixture, JointLossDecreases) {
  ASSERT_GE(history->epoch_loss.size(), 2u);
  EXPECT_LT(history->epoch_loss.back(), history->epoch_loss.front());
}

TEST_F(TrainedFixture, BothExitsBeatChanceByAWideMargin) {
  const auto eval = core::evaluate_exits(*model, dataset->test(), devices);
  // 3 classes -> chance is ~0.33; even this abbreviated training should be
  // clearly above it at both exits (full training reaches ~95%, see the
  // bench harness).
  EXPECT_GT(core::exit_accuracy(eval, 0), 0.55);
  EXPECT_GT(core::exit_accuracy(eval, 1), 0.55);
}

TEST_F(TrainedFixture, OverallInterpolatesBetweenExits) {
  const auto eval = core::evaluate_exits(*model, dataset->test(), devices);
  const auto r = core::apply_policy(eval, {0.8});
  const double lo =
      std::min(core::exit_accuracy(eval, 0), core::exit_accuracy(eval, 1));
  EXPECT_GE(r.overall_accuracy, lo - 0.1);
}

TEST_F(TrainedFixture, LocalExitFractionIsMonotoneInThreshold) {
  const auto eval = core::evaluate_exits(*model, dataset->test(), devices);
  double prev = -1.0;
  for (double t = 0.0; t <= 1.0; t += 0.1) {
    const auto r = core::apply_policy(eval, {t});
    EXPECT_GE(r.local_exit_fraction(), prev);
    prev = r.local_exit_fraction();
  }
  EXPECT_DOUBLE_EQ(core::apply_policy(eval, {1.0}).local_exit_fraction(), 1.0);
}

TEST_F(TrainedFixture, SaveLoadPreservesEvaluation) {
  const std::string path = ::testing::TempDir() + "/ddnn_trained.bin";
  nn::save_state(*model, path);

  core::DdnnModel restored(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  nn::load_state(restored, path);

  const auto a = core::evaluate_exits(*model, dataset->test(), devices);
  const auto b = core::evaluate_exits(restored, dataset->test(), devices);
  for (std::size_t e = 0; e < a.exit_probs.size(); ++e) {
    EXPECT_TRUE(a.exit_probs[e].allclose(b.exit_probs[e], 0.0f));
  }
  std::filesystem::remove(path);
}

TEST_F(TrainedFixture, DistributedRuntimeMatchesOnTrainedModel) {
  const auto eval = core::evaluate_exits(*model, dataset->test(), devices);
  const auto central = core::apply_policy(eval, {0.8});
  dist::HierarchyRuntime runtime(*model, {0.8}, devices);
  const auto metrics = runtime.run(dataset->test());
  EXPECT_DOUBLE_EQ(metrics.accuracy(), central.overall_accuracy);
  EXPECT_EQ(metrics.exit_counts[0],
            std::lround(central.exit_fraction[0] *
                        static_cast<double>(metrics.samples)));
}

TEST_F(TrainedFixture, SingleDeviceFailureDegradesGracefully) {
  const auto eval = core::evaluate_exits(*model, dataset->test(), devices);
  const double healthy = core::apply_policy(eval, {0.8}).overall_accuracy;
  std::vector<bool> active(6, true);
  active[1] = false;
  const auto degraded_eval =
      core::evaluate_exits(*model, dataset->test(), devices, active);
  const double degraded =
      core::apply_policy(degraded_eval, {0.8}).overall_accuracy;
  // The paper's fault-tolerance claim: losing one device must not collapse
  // the system to chance (full training loses only a few points; this
  // abbreviated fixture gets more slack).
  EXPECT_GT(degraded, 0.45);
  EXPECT_GT(degraded, healthy - 0.3);
}

TEST_F(TrainedFixture, EvaluationIsBatchSizeIndependent) {
  // Eval mode normalizes with running statistics, so per-sample outputs
  // must not depend on how samples are batched.
  const auto a = core::evaluate_exits(*model, dataset->test(), devices, 64);
  const auto b = core::evaluate_exits(*model, dataset->test(), devices, 7);
  const auto c = core::evaluate_exits(*model, dataset->test(), devices, 1);
  for (std::size_t e = 0; e < a.exit_probs.size(); ++e) {
    EXPECT_TRUE(a.exit_probs[e].allclose(b.exit_probs[e], 1e-5f));
    EXPECT_TRUE(a.exit_probs[e].allclose(c.exit_probs[e], 1e-5f));
  }
}

TEST_F(TrainedFixture, IndividualModelTrainsAboveChanceOnPresentFrames) {
  core::IndividualModel individual(3, 32, 4, 3, 5);
  core::TrainConfig cfg;
  cfg.epochs = 8;
  const auto hist =
      core::train_individual(individual, dataset->train(), 5, cfg);
  EXPECT_LT(hist.epoch_loss.back(), hist.epoch_loss.front());
  // Evaluate only on frames the device can actually see.
  const auto idx = data::present_indices(dataset->test(), 5);
  ASSERT_FALSE(idx.empty());
  std::vector<data::MvmcSample> visible;
  for (const auto i : idx) visible.push_back(dataset->test()[i]);
  EXPECT_GT(core::individual_accuracy(individual, visible, 5), 0.5);
}

TEST(Cache, TrainOrLoadRoundTrip) {
  const std::string dir = ::testing::TempDir() + "/ddnn_cache_test";
  std::filesystem::remove_all(dir);
  setenv("DDNN_CACHE_DIR", dir.c_str(), 1);

  Rng rng(3);
  nn::Linear a(4, 2, rng);
  int train_calls = 0;
  const bool loaded_first = core::train_or_load(a, "unit-key", [&] {
    ++train_calls;
    a.parameters()[0].var.value().fill(7.0f);
  });
  EXPECT_FALSE(loaded_first);
  EXPECT_EQ(train_calls, 1);

  Rng rng2(9);
  nn::Linear b(4, 2, rng2);
  const bool loaded_second =
      core::train_or_load(b, "unit-key", [&] { ++train_calls; });
  EXPECT_TRUE(loaded_second);
  EXPECT_EQ(train_calls, 1);
  EXPECT_FLOAT_EQ(b.parameters()[0].var.value()[0], 7.0f);

  setenv("DDNN_CACHE_DIR", "off", 1);
  nn::Linear c(4, 2, rng2);
  EXPECT_FALSE(core::train_or_load(c, "unit-key", [&] { ++train_calls; }));
  EXPECT_EQ(train_calls, 2);

  unsetenv("DDNN_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST(Cache, SanitizedKeysKeepDistinctFiles) {
  // Regression: "mp/3dev" and "mp:3dev" both sanitize to "mp_3dev"; without
  // the raw-key hash suffix they shared a .ddnn file and loaded each
  // other's weights.
  const std::string dir = ::testing::TempDir() + "/ddnn_cache_collision";
  std::filesystem::remove_all(dir);
  setenv("DDNN_CACHE_DIR", dir.c_str(), 1);

  EXPECT_NE(core::cache_path("mp/3dev"), core::cache_path("mp:3dev"));

  Rng rng(3);
  nn::Linear a(4, 2, rng);
  core::train_or_load(a, "mp/3dev", [&] {
    a.parameters()[0].var.value().fill(1.0f);
  });
  Rng rng2(5);
  nn::Linear b(4, 2, rng2);
  int trained = 0;
  core::train_or_load(b, "mp:3dev", [&] {
    ++trained;
    b.parameters()[0].var.value().fill(2.0f);
  });
  EXPECT_EQ(trained, 1);  // a cache hit here would mean a key collision
  EXPECT_FLOAT_EQ(b.parameters()[0].var.value()[0], 2.0f);

  unsetenv("DDNN_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST(Cache, PathRequiresCachingEnabled) {
  setenv("DDNN_CACHE_DIR", "off", 1);
  EXPECT_THROW(core::cache_path("any-key"), Error);
  unsetenv("DDNN_CACHE_DIR");
}

TEST(Training, AllSkippedBatchesRecordZeroLossNotNaN) {
  // Regression: with batch_size 1 every batch trips the batch-norm size
  // guard, so no batch contributes loss; epoch_loss recorded 0/0 = NaN.
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 4;
  data_cfg.test_samples = 4;
  const auto ds = data::MvmcDataset::generate(data_cfg);
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 1;
  const auto history =
      core::train_ddnn(model, ds.train(), {0, 1, 2, 3, 4, 5}, cfg);
  ASSERT_EQ(history.epoch_loss.size(), 2u);
  for (const float l : history.epoch_loss) {
    EXPECT_FALSE(std::isnan(l));
    EXPECT_EQ(l, 0.0f);
  }

  core::IndividualModel individual(3, 32, 4, 3, 5);
  const auto ihistory = core::train_individual(individual, ds.train(), 5, cfg);
  for (const float l : ihistory.epoch_loss) EXPECT_FALSE(std::isnan(l));
}

TEST(Training, ExitWeightsAreValidated) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 8;
  data_cfg.test_samples = 4;
  const auto ds = data::MvmcDataset::generate(data_cfg);
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.exit_weights = {1.0f, 2.0f, 3.0f};  // model has 2 exits
  EXPECT_THROW(
      core::train_ddnn(model, ds.train(), {0, 1, 2, 3, 4, 5}, cfg),
      Error);
}

TEST(Training, EpochCallbackFiresOncePerEpoch) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 24;
  data_cfg.test_samples = 4;
  const auto ds = data::MvmcDataset::generate(data_cfg);
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  core::TrainConfig cfg;
  cfg.epochs = 3;
  std::vector<int> epochs_seen;
  cfg.epoch_callback = [&](int epoch, float loss) {
    epochs_seen.push_back(epoch);
    EXPECT_GT(loss, 0.0f);
  };
  core::train_ddnn(model, ds.train(), {0, 1, 2, 3, 4, 5}, cfg);
  EXPECT_EQ(epochs_seen, (std::vector<int>{0, 1, 2}));
}

TEST(Training, IsDeterministicForFixedSeeds) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 32;
  data_cfg.test_samples = 8;
  data_cfg.seed = 13;
  const auto ds = data::MvmcDataset::generate(data_cfg);
  const auto cfg = core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud);
  core::TrainConfig train_cfg;
  train_cfg.epochs = 2;

  core::DdnnModel a(cfg), b(cfg);
  core::train_ddnn(a, ds.train(), {0, 1, 2, 3, 4, 5}, train_cfg);
  core::train_ddnn(b, ds.train(), {0, 1, 2, 3, 4, 5}, train_cfg);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].var.value().allclose(pb[i].var.value(), 0.0f))
        << pa[i].name;
  }
}

TEST(Training, EdgeConfigTrainsWithThreeExitLosses) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 48;
  data_cfg.test_samples = 12;
  data_cfg.seed = 5;
  const auto ds = data::MvmcDataset::generate(data_cfg);
  core::DdnnModel model(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud));
  core::TrainConfig cfg;
  cfg.epochs = 3;
  const auto hist =
      core::train_ddnn(model, ds.train(), {0, 1, 2, 3, 4, 5}, cfg);
  EXPECT_LT(hist.epoch_loss.back(), hist.epoch_loss.front());
  const auto eval =
      core::evaluate_exits(model, ds.test(), {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(eval.num_exits(), 3u);
}

}  // namespace
}  // namespace ddnn
