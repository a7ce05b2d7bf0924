#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <set>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/loader.hpp"
#include "data/mvmc.hpp"
#include "data/ppm.hpp"
#include "data/renderer.hpp"
#include "dist/runtime.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ddnn::data {
namespace {

MvmcConfig small_config(std::uint64_t seed = 7) {
  MvmcConfig cfg;
  cfg.train_samples = 40;
  cfg.test_samples = 10;
  cfg.seed = seed;
  return cfg;
}

/// FNV-1a over every byte a model can see: per sample of the train then the
/// test split, the label (int32), one byte per presence flag, and every
/// view's float bits.
std::uint64_t dataset_digest(const MvmcDataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const auto* split : {&ds.train(), &ds.test()}) {
    for (const auto& s : *split) {
      const std::int32_t label = s.label;
      mix(&label, sizeof(label));
      for (const bool p : s.present) {
        const unsigned char c = p ? 1 : 0;
        mix(&c, 1);
      }
      for (const auto& v : s.views) {
        mix(v.data(), sizeof(float) * static_cast<std::size_t>(v.numel()));
      }
    }
  }
  return h;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Rng, NormalFillMatchesSuccessiveNormalCallsBitForBit) {
  // Sizes straddle the fill's 128-pair block; odd sizes end on a cached
  // second normal that the next draw must return.
  for (const bool cached : {false, true}) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 255u, 256u, 257u, 3072u}) {
      for (const double sigma : {0.25, static_cast<double>(0.3f)}) {
        Rng calls(1234), fill(1234);
        if (cached) {  // enter with the polar method's second value pending
          (void)calls.normal();
          (void)fill.normal();
        }
        std::vector<double> want(n);
        for (auto& x : want) x = calls.normal(0.5, sigma);
        std::vector<double> got(n + 1, -7.0);
        fill.normal_fill(got.data(), n, 0.5, sigma);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(want[i]), bits(got[i]))
              << "n=" << n << " cached=" << cached << " i=" << i;
        }
        EXPECT_EQ(got[n], -7.0) << "wrote past n=" << n;
        // Equal end state: the pending normal and the generator both match.
        for (int k = 0; k < 3; ++k) {
          EXPECT_EQ(bits(calls.normal()), bits(fill.normal())) << "n=" << n;
        }
        EXPECT_EQ(calls.next_u64(), fill.next_u64()) << "n=" << n;
      }
    }
  }
}

TEST(Mvmc, GoldenDigestPinsTheGeneratedBytes) {
  // These digests pin the exact bytes every committed figure, CSV and
  // baseline was computed from; a faster generator must reproduce them.
  // The tier-1 Release build (-O3 -march=native) lets GCC contract
  // multiply-adds into FMAs, which rounds differently from builds without
  // FMA (sanitizer legs, Debug), so each pins its own value.
#if defined(__FMA__) && defined(__OPTIMIZE__)
  constexpr std::uint64_t kDefault42 = 0xb228ab74af7547feull;
  constexpr std::uint64_t kSmall7 = 0x8524e3f990627b21ull;
#else
  constexpr std::uint64_t kDefault42 = 0xdfff130256ba3fe1ull;
  constexpr std::uint64_t kSmall7 = 0xc6ce694adf670742ull;
#endif
  MvmcConfig defaults;
  ASSERT_EQ(defaults.seed, 42u);
  EXPECT_EQ(dataset_digest(MvmcDataset::generate(defaults)), kDefault42);
  EXPECT_EQ(dataset_digest(MvmcDataset::generate(small_config())), kSmall7);
}

TEST(Renderer, CanvasClipsToUnitRange) {
  Canvas c(8);
  c.fill({2.0f, -1.0f, 0.5f});
  c.clip();
  const Tensor t = std::move(c).take();
  EXPECT_FLOAT_EQ(t[0], 1.0f);  // R channel clipped high
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], 0.0f);
    EXPECT_LE(t[i], 1.0f);
  }
}

TEST(Renderer, OutOfBoundsDrawsAreIgnored) {
  Canvas c(8);
  c.set(-1, 0, {1, 1, 1});
  c.set(0, 100, {1, 1, 1});
  c.fill_rect(-5, -5, 100, 100, {0.25f, 0.25f, 0.25f});  // clipped, no crash
  const Tensor t = std::move(c).take();
  EXPECT_FLOAT_EQ(t[0], 0.25f);
}

TEST(Renderer, BlankFrameIsUniformGrey) {
  const Tensor blank = blank_frame(32);
  EXPECT_EQ(blank.shape(), Shape({3, 32, 32}));
  for (std::int64_t i = 0; i < blank.numel(); ++i) {
    EXPECT_FLOAT_EQ(blank[i], 0.5f);
  }
}

TEST(Renderer, ClassesProduceDistinctImages) {
  Viewpoint view;
  Rng rng(3);
  std::vector<Tensor> images;
  for (int cls = 0; cls < 3; ++cls) {
    Canvas c(32);
    render_background(c, view, rng);
    Rng obj_rng(42);  // same placement for all classes
    render_object(c, static_cast<ObjectClass>(cls), view, 1.0f,
                  {0.6f, 0.6f, 0.6f}, obj_rng);
    c.clip();
    images.push_back(std::move(c).take());
  }
  // Pairwise L2 distances must be substantial (colour + shape differ).
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      double dist = 0;
      for (std::int64_t i = 0; i < images[0].numel(); ++i) {
        const double d = images[a][i] - images[b][i];
        dist += d * d;
      }
      EXPECT_GT(dist, 10.0) << "classes " << a << " vs " << b;
    }
  }
}

TEST(Renderer, MirroredViewpointFlipsPlacement) {
  Rng rng_a(5), rng_b(5);
  Viewpoint plain;
  Viewpoint mirrored;
  mirrored.mirrored = true;
  Canvas a(32), b(32);
  render_object(a, ObjectClass::kPerson, plain, 1.0f, {0.6f, 0.6f, 0.6f},
                rng_a);
  render_object(b, ObjectClass::kPerson, mirrored, 1.0f, {0.6f, 0.6f, 0.6f},
                rng_b);
  const Tensor ta = std::move(a).take(), tb = std::move(b).take();
  // Same jitter stream, mirrored placement: images differ unless the jitter
  // landed exactly on the axis (it does not for this seed).
  EXPECT_FALSE(ta.allclose(tb, 1e-6f));
}

TEST(Mvmc, GenerateIsDeterministic) {
  const auto a = MvmcDataset::generate(small_config());
  const auto b = MvmcDataset::generate(small_config());
  ASSERT_EQ(a.train().size(), b.train().size());
  for (std::size_t i = 0; i < a.train().size(); ++i) {
    EXPECT_EQ(a.train()[i].label, b.train()[i].label);
    for (int d = 0; d < a.num_devices(); ++d) {
      EXPECT_TRUE(a.train()[i].views[d].allclose(b.train()[i].views[d], 0.0f));
    }
  }
}

TEST(Mvmc, DifferentSeedsProduceDifferentData) {
  const auto a = MvmcDataset::generate(small_config(1));
  const auto b = MvmcDataset::generate(small_config(2));
  bool any_diff = false;
  for (std::size_t i = 0; i < a.train().size() && !any_diff; ++i) {
    any_diff = a.train()[i].label != b.train()[i].label ||
               !a.train()[i].views[5].allclose(b.train()[i].views[5], 1e-6f);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Mvmc, SplitSizesMatchPaper) {
  MvmcConfig cfg;  // defaults
  EXPECT_EQ(cfg.train_samples, 680);
  EXPECT_EQ(cfg.test_samples, 171);
  EXPECT_EQ(cfg.num_devices, 6);
  EXPECT_EQ(cfg.num_classes, 3);
}

TEST(Mvmc, EverySampleVisibleSomewhere) {
  const auto ds = MvmcDataset::generate(small_config());
  for (const auto& s : ds.train()) {
    bool any = false;
    for (const bool p : s.present) any = any || p;
    EXPECT_TRUE(any);
  }
}

TEST(Mvmc, AbsentViewsAreBlankPresentViewsAreNot) {
  const auto ds = MvmcDataset::generate(small_config());
  const Tensor blank = blank_frame(32);
  for (const auto& s : ds.train()) {
    for (int d = 0; d < ds.num_devices(); ++d) {
      if (!s.present[d]) {
        EXPECT_TRUE(s.views[d].allclose(blank, 0.0f));
      } else {
        EXPECT_FALSE(s.views[d].allclose(blank, 1e-3f));
      }
    }
  }
}

TEST(Mvmc, AbsentViewsShareOneBlankFrameThatStaysGrey) {
  const auto ds = MvmcDataset::generate(small_config());
  const float* blank = nullptr;
  int absent = 0;
  for (const auto* split : {&ds.train(), &ds.test()}) {
    for (const auto& s : *split) {
      for (int d = 0; d < ds.num_devices(); ++d) {
        if (s.present[d]) continue;
        if (blank == nullptr) blank = s.views[d].data();
        EXPECT_EQ(s.views[d].data(), blank);
        ++absent;
      }
    }
  }
  ASSERT_GT(absent, 1);
  const auto expect_grey = [blank](const char* after) {
    for (int i = 0; i < 3 * 32 * 32; ++i) {
      ASSERT_EQ(blank[i], 0.5f) << "after " << after << " at " << i;
    }
  };

  // Every consumer of the views only reads them.
  const std::vector<int> devices{0, 1, 2, 3, 4, 5};
  (void)make_batch(ds.train(), all_indices(ds.train().size()), devices);
  expect_grey("make_batch");
  core::DdnnModel model(core::DdnnConfig::preset(
      core::HierarchyPreset::kDevicesEdgeCloud));
  (void)core::evaluate_exits(model, ds.test(), devices);
  expect_grey("evaluate_exits");
  {
    // Thresholds below every entropy: each sample runs every tier.
    dist::HierarchyRuntime runtime(model, {-1.0, -1.0}, devices);
    for (const auto& s : ds.test()) (void)runtime.classify(s);
  }
  expect_grey("HierarchyRuntime::classify");
  core::TrainConfig train;
  train.epochs = 1;
  (void)core::train_ddnn(model, ds.train(), devices, train);
  expect_grey("a training epoch");
}

TEST(Mvmc, LabelsInRange) {
  const auto ds = MvmcDataset::generate(small_config());
  for (const auto& s : ds.train()) {
    EXPECT_GE(s.label, 0);
    EXPECT_LT(s.label, 3);
  }
}

TEST(Mvmc, PresenceRatesFollowProfiles) {
  MvmcConfig cfg;
  cfg.train_samples = 600;
  cfg.test_samples = 10;
  const auto ds = MvmcDataset::generate(cfg);
  for (int d = 0; d < 6; ++d) {
    int present = 0;
    for (const auto& s : ds.train()) present += s.present[d];
    const double rate = static_cast<double>(present) / 600.0;
    // The re-draw-until-visible loop inflates rates slightly; allow slack.
    EXPECT_NEAR(rate, ds.config().profiles[d].presence_prob, 0.08) << d;
  }
  // Monotone quality ordering: last device sees the object far more often
  // than the first.
  int first = 0, last = 0;
  for (const auto& s : ds.train()) {
    first += s.present[0];
    last += s.present[5];
  }
  EXPECT_GT(last, first + 100);
}

TEST(Mvmc, DistributionTableShape) {
  const auto ds = MvmcDataset::generate(small_config());
  const Table t = ds.distribution_table();
  EXPECT_EQ(t.row_count(), 6u);
  EXPECT_NE(t.to_string().find("Not-present"), std::string::npos);
}

TEST(Mvmc, DefaultProfilesCycleForMoreDevices) {
  const auto p = default_profiles(8);
  EXPECT_EQ(p.size(), 8u);
  EXPECT_DOUBLE_EQ(p[6].presence_prob, p[0].presence_prob);
}

TEST(Mvmc, ClassNames) {
  EXPECT_EQ(class_name(0), "car");
  EXPECT_EQ(class_name(1), "bus");
  EXPECT_EQ(class_name(2), "person");
  EXPECT_EQ(class_name(-1), "unknown");
}

TEST(Loader, BatchShapesAndLabels) {
  const auto ds = MvmcDataset::generate(small_config());
  const std::vector<std::size_t> idx{0, 3, 5};
  const Batch b = make_batch(ds.train(), idx, {0, 2, 4});
  ASSERT_EQ(b.views.size(), 3u);
  EXPECT_EQ(b.views[0].shape(), Shape({3, 3, 32, 32}));
  EXPECT_EQ(b.size(), 3);
  EXPECT_EQ(b.labels[1], ds.train()[3].label);
  EXPECT_EQ(b.present[2][1], ds.train()[3].present[4]);
}

TEST(Loader, BatchCopiesCorrectViewData) {
  const auto ds = MvmcDataset::generate(small_config());
  const Batch b = make_batch(ds.train(), {2}, {1});
  const Tensor& src = ds.train()[2].views[1];
  for (std::int64_t i = 0; i < src.numel(); ++i) {
    EXPECT_FLOAT_EQ(b.views[0][i], src[i]);
  }
}

TEST(Loader, PresentIndicesFilter) {
  const auto ds = MvmcDataset::generate(small_config());
  const auto idx = present_indices(ds.train(), 0);
  for (const auto i : idx) EXPECT_TRUE(ds.train()[i].present[0]);
  std::size_t absent = ds.train().size() - idx.size();
  std::size_t check = 0;
  for (const auto& s : ds.train()) check += !s.present[0];
  EXPECT_EQ(absent, check);
}

TEST(Loader, ChunkBatchesCoverAllIndicesInOrder) {
  auto chunks = chunk_batches(all_indices(10), 4);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].size(), 4u);
  EXPECT_EQ(chunks[2].size(), 2u);
  EXPECT_EQ(chunks[2][1], 9u);
}

TEST(Loader, EpochBatchesArePermutations) {
  Rng rng(5);
  auto chunks = epoch_batches(20, 6, rng);
  std::set<std::size_t> seen;
  for (const auto& c : chunks) {
    for (const auto i : c) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(Ppm, RoundTripIsLosslessAtByteResolution) {
  Rng rng(9);
  // Quantize first so the round trip is exact.
  Tensor img(Shape{3, 8, 6});
  for (std::int64_t i = 0; i < img.numel(); ++i) {
    img[i] = static_cast<float>(rng.uniform_index(256)) / 255.0f;
  }
  const std::string path = ::testing::TempDir() + "/ddnn_test.ppm";
  write_ppm(img, path);
  const Tensor back = read_ppm(path);
  EXPECT_EQ(back.shape(), img.shape());
  EXPECT_TRUE(back.allclose(img, 0.5f / 255.0f));
  std::filesystem::remove(path);
}

TEST(Ppm, ClipsOutOfRangeValues) {
  const std::string path = ::testing::TempDir() + "/ddnn_clip.ppm";
  Tensor img = Tensor::full(Shape{3, 2, 2}, 2.0f);
  img[0] = -1.0f;
  write_ppm(img, path);
  const Tensor back = read_ppm(path);
  EXPECT_FLOAT_EQ(back[0], 0.0f);
  EXPECT_FLOAT_EQ(back[1], 1.0f);
  std::filesystem::remove(path);
}

TEST(Ppm, ValidatesShapeAndFormat) {
  EXPECT_THROW(write_ppm(Tensor(Shape{1, 4, 4}), "/tmp/x.ppm"), Error);
  EXPECT_THROW(read_ppm("/nonexistent/ddnn.ppm"), Error);
}

TEST(Ppm, WritesEveryDeviceView) {
  const auto ds = MvmcDataset::generate(small_config());
  const std::string prefix = ::testing::TempDir() + "/ddnn_sample";
  EXPECT_EQ(write_sample_views(ds.test()[0], prefix), 6);
  for (int d = 1; d <= 6; ++d) {
    const std::string path = prefix + "_dev" + std::to_string(d) + ".ppm";
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    std::filesystem::remove(path);
  }
}

TEST(Loader, RejectsEmptyBatch) {
  const auto ds = MvmcDataset::generate(small_config());
  EXPECT_THROW(make_batch(ds.train(), {}, {0}), Error);
  EXPECT_THROW(make_batch(ds.train(), {0}, {}), Error);
  EXPECT_THROW(make_batch(ds.train(), {0}, {17}), Error);
}

}  // namespace
}  // namespace ddnn::data
