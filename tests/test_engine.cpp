// Inference-engine parity: the plan engine (workspace + cached bit-packed
// weights + XNOR-popcount kernels) must be bit-identical to the autograd
// forward pass across the configuration grid — presets, edge tiers,
// precision modes, activity masks and thread counts — and the packed-weight
// cache must track every in-place parameter update.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <tuple>
#include <vector>

#include "autograd/grad_mode.hpp"
#include "autograd/ops.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/mvmc.hpp"
#include "dist/runtime.hpp"
#include "infer/engine.hpp"
#include "infer/workspace.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"
#include "opt/optimizer.hpp"
#include "tensor/bitgemm.hpp"
#include "tensor/bitpack.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ddnn {
namespace {

using autograd::Variable;
using core::DdnnConfig;
using core::DdnnModel;
using core::HierarchyPreset;

/// Pins the engine for a scope, then restores the one it replaced.
struct EngineGuard {
  explicit EngineGuard(infer::EngineKind k) : prev(infer::engine_kind()) {
    infer::set_engine_kind(k);
  }
  ~EngineGuard() { infer::set_engine_kind(prev); }
  infer::EngineKind prev;
};

/// Pins the pool size for a scope, then restores the env/hardware default.
struct PoolSizeGuard {
  explicit PoolSizeGuard(int n) { ThreadPool::set_size(n); }
  ~PoolSizeGuard() { ThreadPool::set_size(0); }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) *
                               sizeof(float)));
}

Tensor signs_of(const Tensor& t) {
  Tensor out(t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    out[i] = t[i] < 0.0f ? -1.0f : 1.0f;
  }
  return out;
}

// -------------------------------------------------------- engine selection

TEST(Engine, OverrideWinsAndClears) {
  EXPECT_EQ(infer::engine_kind(), infer::EngineKind::kPlan);
  {
    EngineGuard guard(infer::EngineKind::kAutograd);
    EXPECT_EQ(infer::engine_kind(), infer::EngineKind::kAutograd);
  }
  {
    EngineGuard guard(infer::EngineKind::kPlan);
    EXPECT_EQ(infer::engine_kind(), infer::EngineKind::kPlan);
  }
  EXPECT_EQ(infer::engine_kind(), infer::EngineKind::kPlan);
}

// ---------------------------------------------------------------- workspace

/// Restores poison to the DDNN_POISON env default when a test scope ends.
struct PoisonGuard {
  explicit PoisonGuard(bool on) { infer::set_poison(on); }
  ~PoisonGuard() { infer::clear_poison_override(); }
};

/// Restores an unlimited memory budget when a test scope ends.
struct BudgetGuard {
  explicit BudgetGuard(std::int64_t bytes) { infer::set_mem_budget(bytes); }
  ~BudgetGuard() { infer::set_mem_budget(0); }
};

/// Doubles the input then adds one, drawing both intermediates from the
/// workspace with the acquire-then-note_use kernel discipline.
std::vector<Tensor> double_plus_one(const std::vector<Tensor>& in,
                                    infer::Workspace& ws) {
  Tensor mid = ws.acquire(in[0].shape());
  ws.note_use(in[0]);
  for (std::int64_t i = 0; i < mid.numel(); ++i) mid[i] = in[0][i] * 2.0f;
  Tensor out = ws.acquire(in[0].shape());
  ws.note_use(mid);
  for (std::int64_t i = 0; i < out.numel(); ++i) out[i] = mid[i] + 1.0f;
  return {out};
}

TEST(Workspace, AlternatingBatchSignaturesReplayWithoutAllocating) {
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "ws_alternate"};
  Rng rng(7);
  const Tensor big = Tensor::randn(Shape{6, 4}, rng);
  const Tensor small = Tensor::randn(Shape{2, 4}, rng);

  // First sight of each batch shape records a plan and allocates its arena.
  const auto big_ref = infer::run_section(ws, desc, {big}, "", double_plus_one);
  const auto small_ref =
      infer::run_section(ws, desc, {small}, "", double_plus_one);
  EXPECT_EQ(ws.plans(), 2u);
  const std::size_t warm = ws.alloc_count();

  // The bug this pins: alternating batch shapes used to reallocate every
  // workspace slot on every pass. Warm passes must replay the per-signature
  // plans bit-identically with zero new allocations.
  for (int pass = 0; pass < 3; ++pass) {
    const auto b = infer::run_section(ws, desc, {big}, "", double_plus_one);
    const auto s = infer::run_section(ws, desc, {small}, "", double_plus_one);
    expect_bitwise_equal(b[0], big_ref[0]);
    expect_bitwise_equal(s[0], small_ref[0]);
  }
  EXPECT_EQ(ws.alloc_count(), warm);
  EXPECT_EQ(ws.plans(), 2u);
}

TEST(Workspace, PoisonCatchesViewLeakedPastSectionEnd) {
  PoisonGuard poison(true);
  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "ws_leak"};
  Tensor leaked;
  auto leaky = [&leaked](const std::vector<Tensor>& in, infer::Workspace& w) {
    auto outs = double_plus_one(in, w);
    leaked = outs[0];  // contract violation: keeps an arena view alive
    return outs;
  };
  Rng rng(8);
  const Tensor x = Tensor::randn(Shape{3, 5}, rng);

  infer::run_section(ws, desc, {x}, "", leaky);         // record pass
  const auto outs = infer::run_section(ws, desc, {x}, "", leaky);  // replay
  // The section's real outputs are deep copies and stay finite...
  for (std::int64_t i = 0; i < outs[0].numel(); ++i) {
    EXPECT_FALSE(std::isnan(outs[0][i])) << i;
  }
  // ...but the escaped arena view reads signaling NaNs, not recycled data.
  ASSERT_EQ(leaked.numel(), x.numel());
  for (std::int64_t i = 0; i < leaked.numel(); ++i) {
    EXPECT_TRUE(std::isnan(leaked[i])) << i;
  }
}

// ---------------------------------------- activation kernels on non-finite

TEST(Kernels, ActivationsMatchAutogradBitwiseOnNonFiniteInput) {
  Tensor x(Shape{2, 4});
  const float vals[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        -0.0f,
                        0.0f,
                        -3.5f,
                        2.25f,
                        1e30f};
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = vals[i];

  autograd::NoGradGuard no_grad;
  const Tensor relu_ref = autograd::relu(Variable(x)).value();
  const Tensor sign_ref = autograd::binarize(Variable(x)).value();

  infer::Workspace ws;
  const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                infer::next_section_id(), "nonfinite_act"};
  auto body = [](const std::vector<Tensor>& in, infer::Workspace& w) {
    return std::vector<Tensor>{nn::relu_tensor(in[0], w),
                               nn::sign_tensor(in[0], w)};
  };
  // Record and replay paths must both match the autograd forward bit for
  // bit — including NaN -> 0 under relu's (a < b) ? b : a semantics.
  for (int pass = 0; pass < 2; ++pass) {
    const auto outs = infer::run_section(ws, desc, {x}, "", body);
    expect_bitwise_equal(outs[0], relu_ref);
    expect_bitwise_equal(outs[1], sign_ref);
  }
}

TEST(Kernels, MaxPoolMatchesAutogradBitwiseOnSpecialValues) {
  // Signed-zero ties, NaN and infinities decide which tap a window selects;
  // every (kernel, stride, pad) must select exactly what autograd selects.
  // Specials stay off the border rows and columns so no window holds only
  // NaN or -inf, which autograd::max_pool2d rejects.
  Rng rng(17);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f,
                            0.0f};
  for (const auto& [kernel, stride, pad] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {3, 2, 1}, {3, 1, 1}, {2, 2, 1}, {5, 2, 2}, {3, 3, 2}, {3, 2, 0},
           {2, 1, 0}}) {
    for (const std::int64_t w : {7, 16}) {
      const std::int64_t h = 9;
      Tensor x = Tensor::randn(Shape{2, 3, h, w}, rng);
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        const std::int64_t iy = i / w % h, ix = i % w;
        const bool border = iy == 0 || iy == h - 1 || ix == 0 || ix == w - 1;
        if (!border && i % 3 == 0) x[i] = specials[(i / 3) % 5];
      }
      nn::MaxPool2d pool(kernel, stride, pad);
      autograd::NoGradGuard no_grad;
      SCOPED_TRACE(::testing::Message() << "kernel=" << kernel << " stride="
                                        << stride << " pad=" << pad
                                        << " w=" << w);
      expect_bitwise_equal(pool.infer(x, infer::tls_workspace()),
                           pool.forward(Variable(x)).value());
    }
  }
}

TEST(Kernels, MaxPoolModelShapesMatchAutogradBitwise) {
  // The pool inputs of a preset-e model, then even and odd heights and
  // widths over the (kernel, stride, pad) grid: even widths at stride 2
  // take the flat row sweep, the rest the per-row one. Inputs are
  // non-positive, so windows tie between -0 and +0 unless a +inf or a
  // positive border value wins. Each case runs through run_section twice,
  // record then replay; under DDNN_POISON=1 the replay reads a poisoned
  // arena and every call poisons the pool's row scratch, so a read of an
  // unwritten entry breaks parity.
  Rng rng(29);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f,
                            0.0f};
  using Geometry = std::tuple<std::int64_t, std::int64_t, std::int64_t>;
  std::vector<std::pair<Shape, Geometry>> cases = {
      {Shape{1, 4, 32, 32}, {3, 2, 1}},
      {Shape{1, 16, 16, 16}, {3, 2, 1}},
      {Shape{1, 48, 8, 8}, {3, 2, 1}}};
  for (const Geometry& g : std::vector<Geometry>{
           {3, 2, 1}, {3, 1, 1}, {2, 2, 1}, {5, 2, 2}, {3, 3, 2}, {3, 2, 0},
           {2, 1, 0}}) {
    for (const std::int64_t h : {8, 9, 16, 17}) {
      for (const std::int64_t w : {8, 9, 16, 17}) {
        cases.push_back({Shape{2, 3, h, w}, g});
      }
    }
  }
  autograd::NoGradGuard no_grad;
  for (const auto& [shape, g] : cases) {
    const auto [kernel, stride, pad] = g;
    const std::int64_t h = shape[2], w = shape[3];
    Tensor x = Tensor::randn(shape, rng);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const std::int64_t iy = i / w % h, ix = i % w;
      const bool border = iy == 0 || iy == h - 1 || ix == 0 || ix == w - 1;
      x[i] = border ? x[i] : -std::fabs(x[i]);
      if (!border && i % 3 == 0) x[i] = specials[(i / 3) % 5];
    }
    nn::MaxPool2d pool(kernel, stride, pad);
    const Tensor want = pool.forward(Variable(x)).value();
    infer::Workspace ws;
    const infer::SectionDesc desc{infer::SectionTier::kDevice,
                                  infer::next_section_id(), "max_pool"};
    SCOPED_TRACE(::testing::Message()
                 << "shape=" << shape.to_string() << " kernel=" << kernel
                 << " stride=" << stride << " pad=" << pad);
    for (int pass = 0; pass < 2; ++pass) {
      const auto outs = infer::run_section(
          ws, desc, {x}, "",
          [&pool](const std::vector<Tensor>& in, infer::Workspace& w) {
            return std::vector<Tensor>{pool.infer(in[0], w)};
          });
      expect_bitwise_equal(outs[0], want);
    }
  }
}

// --------------------------------------------------- bitpack validation

TEST(Bitpack, RejectsEmptyAndMismatchedInputs) {
  EXPECT_THROW(pack_signs(Tensor()), Error);
  EXPECT_THROW(pack_signs(Tensor(Shape{0})), Error);
  EXPECT_THROW(unpack_signs({}, Shape{0}), Error);
  // 9 elements need 2 bytes; 1 byte must be rejected loudly.
  EXPECT_THROW(unpack_signs(std::vector<std::uint8_t>{0xff}, Shape{9}), Error);
  // Round trip still works for well-formed input.
  Rng rng(3);
  const Tensor t = signs_of(Tensor::randn(Shape{3, 7}, rng));
  expect_bitwise_equal(unpack_signs(pack_signs(t), t.shape()), t);
}

// ------------------------------------------------------- bitgemm kernels

TEST(Bitgemm, XnorLinearMatchesMatmulNt) {
  Rng rng(11);
  const Tensor x = signs_of(Tensor::randn(Shape{5, 130}, rng));
  const Tensor wf = Tensor::randn(Shape{9, 130}, rng);
  const Tensor wsg = signs_of(wf);
  const auto packed = bitgemm::pack_signs_matrix(wf.data(), 9, 130);
  ASSERT_TRUE(bitgemm::all_pm1(x));
  Tensor out(Shape{5, 9});
  bitgemm::xnor_linear(x, packed.bits, out);
  expect_bitwise_equal(out, ops::matmul_nt(x, wsg));
}

TEST(Bitgemm, SignLinearMatchesMatmulNtOnFloatInput) {
  Rng rng(12);
  const Tensor x = Tensor::randn(Shape{6, 75}, rng);
  const Tensor wf = Tensor::randn(Shape{10, 75}, rng);
  const auto packed = bitgemm::pack_signs_matrix(wf.data(), 10, 75);
  Tensor out(Shape{6, 10});
  bitgemm::sign_linear(x, packed, out);
  expect_bitwise_equal(out, ops::matmul_nt(x, signs_of(wf)));
}

TEST(Bitgemm, XnorConv2dMatchesAutogradConvOnSignInput) {
  Rng rng(13);
  const Tensor x = signs_of(Tensor::randn(Shape{2, 3, 8, 8}, rng));
  const Tensor wf = Tensor::randn(Shape{4, 3, 3, 3}, rng);
  const Conv2dGeometry g{.in_channels = 3, .in_h = 8, .in_w = 8};
  const auto packed = bitgemm::pack_signs_matrix(wf.data(), 4, g.patch_size());
  Tensor out(Shape{2, 4, g.out_h(), g.out_w()});
  bitgemm::xnor_conv2d(x, g, packed.bits, out);

  autograd::NoGradGuard no_grad;
  const Tensor ref =
      autograd::conv2d(Variable(x), Variable(signs_of(wf)), Variable(), 1, 1)
          .value();
  expect_bitwise_equal(out, ref);
}

TEST(Bitgemm, SignConv2dMatchesAutogradConvOnFloatInput) {
  Rng rng(14);
  const Tensor x = Tensor::rand_uniform(Shape{2, 3, 8, 8}, rng, -1.0f, 1.0f);
  const Tensor wf = Tensor::randn(Shape{5, 3, 3, 3}, rng);
  const Conv2dGeometry g{.in_channels = 3, .in_h = 8, .in_w = 8};
  const auto packed = bitgemm::pack_signs_matrix(wf.data(), 5, g.patch_size());
  Tensor out(Shape{2, 5, g.out_h(), g.out_w()});
  bitgemm::sign_conv2d(x, g, packed, out);

  autograd::NoGradGuard no_grad;
  const Tensor ref =
      autograd::conv2d(Variable(x), Variable(signs_of(wf)), Variable(), 1, 1)
          .value();
  expect_bitwise_equal(out, ref);
}

/// autograd::conv2d over sign(wf), the reference both conv kernels match.
Tensor autograd_sign_conv(const Tensor& x, const Tensor& wf,
                          const Conv2dGeometry& g) {
  autograd::NoGradGuard no_grad;
  return autograd::conv2d(Variable(x), Variable(signs_of(wf)), Variable(),
                          g.stride, g.pad)
      .value();
}

/// One case per shape the conv kernels branch on: channel counts spanning
/// one to three words per pixel, widths that do not divide into a tile,
/// stride 2, kernels 1 and 5, pads 0 and 2, batch 3. The filter count walks
/// 1..8 so every filter-block remainder occurs.
template <typename Fn>
void for_each_conv_case(Fn&& fn) {
  int index = 0;
  for (const std::int64_t c : {1, 24, 64, 65, 130}) {
    for (const std::int64_t in_w : {7, 33}) {
      for (const std::int64_t stride : {1, 2}) {
        for (const std::int64_t kernel : {1, 3, 5}) {
          for (const std::int64_t pad : {0, 2}) {
            const Conv2dGeometry g{.in_channels = c,
                                   .in_h = 6,
                                   .in_w = in_w,
                                   .kernel_h = kernel,
                                   .kernel_w = kernel,
                                   .stride = stride,
                                   .pad = pad};
            const std::int64_t f = 1 + index++ % 8;
            SCOPED_TRACE(::testing::Message()
                         << "C=" << c << " in_w=" << in_w << " stride="
                         << stride << " kernel=" << kernel << " pad=" << pad
                         << " F=" << f);
            fn(g, f);
          }
        }
      }
    }
  }
}

TEST(Bitgemm, XnorConv2dMatchesAutogradConvAcrossShapeGrid) {
  Rng rng(15);
  for_each_conv_case([&](const Conv2dGeometry& g, std::int64_t f) {
    const Tensor x =
        signs_of(Tensor::randn(Shape{3, g.in_channels, g.in_h, g.in_w}, rng));
    const Tensor wf =
        Tensor::randn(Shape{f, g.in_channels, g.kernel_h, g.kernel_w}, rng);
    const auto packed = bitgemm::pack_signs_matrix(wf.data(), f, g.patch_size());
    bitgemm::PackedConvBits conv;
    bitgemm::pack_conv_bits(packed.bits, g.in_channels, g.kernel_h, g.kernel_w,
                            conv);
    Tensor cached(Shape{3, f, g.out_h(), g.out_w()});
    Tensor adapted(Shape{3, f, g.out_h(), g.out_w()});
    bitgemm::xnor_conv2d(x, g, conv, cached);
    bitgemm::xnor_conv2d(x, g, packed.bits, adapted);
    expect_bitwise_equal(cached, autograd_sign_conv(x, wf, g));
    expect_bitwise_equal(adapted, cached);
  });
}

TEST(Bitgemm, SignConv2dMatchesAutogradConvAcrossShapeGridOnSpecialValues) {
  Rng rng(16);
  for_each_conv_case([&](const Conv2dGeometry& g, std::int64_t f) {
    Tensor x = Tensor::rand_uniform(Shape{3, g.in_channels, g.in_h, g.in_w},
                                    rng, -1.0f, 1.0f);
    // Signed zeros and subnormals throughout, a few infinities: every
    // output's sum must still round (and overflow) exactly as autograd's.
    float* px = x.data();
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      if (i % 5 == 0) px[i] = (i % 10 == 0) ? 0.0f : -0.0f;
      if (i % 7 == 0) px[i] = (i % 14 == 0) ? 1e-40f : -3e-39f;
      if (i % 211 == 0) {
        px[i] = (i % 422 == 0) ? std::numeric_limits<float>::infinity()
                               : -std::numeric_limits<float>::infinity();
      }
    }
    const Tensor wf =
        Tensor::randn(Shape{f, g.in_channels, g.kernel_h, g.kernel_w}, rng);
    const auto packed = bitgemm::pack_signs_matrix(wf.data(), f, g.patch_size());
    Tensor out(Shape{3, f, g.out_h(), g.out_w()});
    bitgemm::sign_conv2d(x, g, packed, out);
    expect_bitwise_equal(out, autograd_sign_conv(x, wf, g));
  });
}

// ------------------------------------------- full-model engine parity grid

std::vector<Variable> parity_views(int n, std::uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<Variable> views;
  for (int i = 0; i < n; ++i) {
    views.emplace_back(
        Tensor::rand_uniform(Shape{2, 3, 32, 32}, rng, 0.0f, 1.0f));
  }
  return views;
}

core::DdnnOutputs run_engine(DdnnModel& model,
                             const std::vector<Variable>& views,
                             const std::vector<bool>& active,
                             infer::EngineKind kind) {
  EngineGuard engine(kind);
  autograd::NoGradGuard no_grad;
  return model.forward(views, active);
}

void expect_outputs_bitwise_equal(const core::DdnnOutputs& a,
                                  const core::DdnnOutputs& b) {
  ASSERT_EQ(a.exit_logits.size(), b.exit_logits.size());
  for (std::size_t e = 0; e < a.exit_logits.size(); ++e) {
    expect_bitwise_equal(a.exit_logits[e].value(), b.exit_logits[e].value());
  }
  ASSERT_EQ(a.device_features.size(), b.device_features.size());
  for (std::size_t d = 0; d < a.device_features.size(); ++d) {
    expect_bitwise_equal(a.device_features[d].value(),
                         b.device_features[d].value());
  }
  ASSERT_EQ(a.edge_features.size(), b.edge_features.size());
  for (std::size_t g = 0; g < a.edge_features.size(); ++g) {
    expect_bitwise_equal(a.edge_features[g].value(),
                         b.edge_features[g].value());
  }
}

using ParityParam = std::tuple<HierarchyPreset, bool>;  // preset, float_cloud

class EngineParityGrid : public ::testing::TestWithParam<ParityParam> {};

TEST_P(EngineParityGrid, ExitLogitsBitIdenticalAcrossEnginesAndThreads) {
  const auto [preset, float_cloud] = GetParam();
  auto cfg = DdnnConfig::preset(preset);
  cfg.float_cloud = float_cloud;
  cfg.validate();
  DdnnModel model(cfg);
  model.set_training(false);
  const auto views = parity_views(cfg.num_devices);

  std::vector<std::vector<bool>> masks;
  masks.emplace_back(static_cast<std::size_t>(cfg.num_devices), true);
  if (cfg.num_devices > 1) {
    // Fail the first and the last device (separately): exercises the
    // masked paths of every aggregator under both engines.
    for (const int failed : {0, cfg.num_devices - 1}) {
      std::vector<bool> m(static_cast<std::size_t>(cfg.num_devices), true);
      m[static_cast<std::size_t>(failed)] = false;
      masks.push_back(std::move(m));
    }
  }

  for (const int threads : {1, 4}) {
    PoolSizeGuard pool(threads);
    for (const auto& mask : masks) {
      const auto ref =
          run_engine(model, views, mask, infer::EngineKind::kAutograd);
      const auto got = run_engine(model, views, mask, infer::EngineKind::kPlan);
      expect_outputs_bitwise_equal(ref, got);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, EngineParityGrid,
    ::testing::Combine(::testing::Values(HierarchyPreset::kCloudOnly,
                                         HierarchyPreset::kDeviceCloud,
                                         HierarchyPreset::kDevicesCloud,
                                         HierarchyPreset::kDevicesEdgesCloud),
                       ::testing::Bool()));

TEST(EngineParity, AggregationSchemesBitIdenticalAcrossEngines) {
  for (const auto local : {core::AggKind::kMaxPool, core::AggKind::kAvgPool,
                           core::AggKind::kConcat, core::AggKind::kGatedAvg}) {
    for (const auto cloud :
         {core::AggKind::kMaxPool, core::AggKind::kAvgPool,
          core::AggKind::kConcat, core::AggKind::kGatedAvg}) {
      auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesCloud, 3);
      cfg.local_agg = local;
      cfg.cloud_agg = cloud;
      cfg.validate();
      DdnnModel model(cfg);
      model.set_training(false);
      const auto views = parity_views(cfg.num_devices);
      const std::vector<bool> mask{true, false, true};
      const auto ref =
          run_engine(model, views, mask, infer::EngineKind::kAutograd);
      const auto got =
          run_engine(model, views, mask, infer::EngineKind::kPlan);
      expect_outputs_bitwise_equal(ref, got);
    }
  }
}

TEST(EngineParity, MemBudgetSlicingBitIdenticalToUnbudgetedRun) {
  auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesEdgesCloud);
  cfg.validate();
  DdnnModel model(cfg);
  model.set_training(false);
  const auto views = parity_views(cfg.num_devices);
  const std::vector<bool> all(static_cast<std::size_t>(cfg.num_devices), true);

  // Unbudgeted reference, plus the full-batch peak the budget must undercut.
  const auto ref = run_engine(model, views, all, infer::EngineKind::kAutograd);
  infer::reset_plan_stats();
  const auto full = run_engine(model, views, all, infer::EngineKind::kPlan);
  expect_outputs_bitwise_equal(ref, full);
  const auto full_stats = infer::plan_stats();
  const std::int64_t full_peak =
      std::max({full_stats.device_peak_bytes, full_stats.edge_peak_bytes,
                full_stats.cloud_peak_bytes});
  ASSERT_GT(full_peak, 0);

  // Single-row plans bound what the minimal slice needs, so a budget at the
  // single-row peak is feasible — and (batch 2) strictly below full_peak.
  infer::reset_plan_stats();
  const auto row_views = parity_views(cfg.num_devices, 6);
  std::vector<Variable> one_row;
  for (const auto& v : row_views) {
    one_row.emplace_back(v.value().narrow0(0, 1).clone());
  }
  run_engine(model, one_row, all, infer::EngineKind::kPlan);
  const auto row_stats = infer::plan_stats();
  const std::int64_t budget =
      std::max({row_stats.device_peak_bytes, row_stats.edge_peak_bytes,
                row_stats.cloud_peak_bytes});
  ASSERT_GT(budget, 0);
  ASSERT_LT(budget, full_peak);

  BudgetGuard guard(budget);
  for (const int threads : {1, 4}) {
    PoolSizeGuard pool(threads);
    infer::reset_plan_stats();
    const auto sliced = run_engine(model, views, all, infer::EngineKind::kPlan);
    expect_outputs_bitwise_equal(ref, sliced);
    // Every executed section stayed under the budget.
    const auto stats = infer::plan_stats();
    EXPECT_LE(stats.device_peak_bytes, budget);
    EXPECT_LE(stats.edge_peak_bytes, budget);
    EXPECT_LE(stats.cloud_peak_bytes, budget);
  }
}

TEST(EngineParity, PoisonModeKeepsEverySectionBitIdentical) {
  // Audits all plan-engine sections: with poisoned arenas, any kernel that
  // read recycled or unwritten workspace bytes would surface NaNs and break
  // parity with the autograd forward.
  PoisonGuard poison(true);
  auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesEdgesCloud);
  cfg.validate();
  DdnnModel model(cfg);
  model.set_training(false);
  const auto views = parity_views(cfg.num_devices, 9);
  std::vector<bool> mask(static_cast<std::size_t>(cfg.num_devices), true);
  mask[0] = false;
  const auto ref = run_engine(model, views, mask, infer::EngineKind::kAutograd);
  for (int pass = 0; pass < 2; ++pass) {  // record pass, then poisoned replay
    const auto got = run_engine(model, views, mask, infer::EngineKind::kPlan);
    expect_outputs_bitwise_equal(ref, got);
  }
}

// --------------------------------------- evaluation + runtime trace parity

TEST(EngineParity, EvaluateExitsBitIdenticalAcrossEngines) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 4;
  data_cfg.test_samples = 24;
  data_cfg.seed = 31;
  const auto dataset = data::MvmcDataset::generate(data_cfg);
  DdnnModel model(DdnnConfig::preset(HierarchyPreset::kDevicesCloud));
  const std::vector<int> devices{0, 1, 2, 3, 4, 5};

  auto eval_with = [&](infer::EngineKind kind) {
    EngineGuard engine(kind);
    return core::evaluate_exits(model, dataset.test(), devices, 8);
  };
  const auto ref = eval_with(infer::EngineKind::kAutograd);
  const auto got = eval_with(infer::EngineKind::kPlan);
  ASSERT_EQ(ref.num_exits(), got.num_exits());
  EXPECT_EQ(ref.labels, got.labels);
  for (std::size_t e = 0; e < ref.num_exits(); ++e) {
    expect_bitwise_equal(ref.exit_probs[e], got.exit_probs[e]);
  }
}

TEST(EngineParity, HierarchyRuntimeTracesIdenticalAcrossEngines) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 4;
  data_cfg.test_samples = 16;
  data_cfg.seed = 77;
  const auto dataset = data::MvmcDataset::generate(data_cfg);
  DdnnModel model(DdnnConfig::preset(HierarchyPreset::kDevicesCloud));
  model.set_training(false);
  const std::vector<int> devices{0, 1, 2, 3, 4, 5};

  auto traces_with = [&](infer::EngineKind kind) {
    EngineGuard engine(kind);
    dist::HierarchyRuntime runtime(model, {0.5}, devices);
    std::vector<dist::InferenceTrace> traces;
    for (const auto& sample : dataset.test()) {
      traces.push_back(runtime.classify(sample));
    }
    return traces;
  };
  const auto ref = traces_with(infer::EngineKind::kAutograd);
  const auto got = traces_with(infer::EngineKind::kPlan);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].exit_taken, got[i].exit_taken) << i;
    EXPECT_EQ(ref[i].prediction, got[i].prediction) << i;
    // Identical logits -> identical doubles, not merely close.
    EXPECT_EQ(ref[i].entropy, got[i].entropy) << i;
  }
}

// ----------------------------------------------- packed-cache invalidation

TEST(EngineParity, PackedCacheTracksOptimizerUpdates) {
  data::MvmcConfig data_cfg;
  data_cfg.train_samples = 16;
  data_cfg.test_samples = 4;
  data_cfg.seed = 9;
  const auto dataset = data::MvmcDataset::generate(data_cfg);
  auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesCloud, 3);
  DdnnModel model(cfg);
  const std::vector<int> devices{0, 1, 2};
  const auto views = parity_views(cfg.num_devices, 21);
  const std::vector<bool> all(static_cast<std::size_t>(cfg.num_devices), true);

  // Populate the packed caches from the initial weights...
  model.set_training(false);
  expect_outputs_bitwise_equal(
      run_engine(model, views, all, infer::EngineKind::kAutograd),
      run_engine(model, views, all, infer::EngineKind::kPlan));

  // ...then update every parameter in place through the real optimizer. A
  // stale pack would keep serving the old signs.
  model.set_training(true);
  core::TrainConfig train_cfg;
  train_cfg.epochs = 1;
  train_cfg.batch_size = 8;
  core::train_ddnn(model, dataset.train(), devices, train_cfg);

  model.set_training(false);
  expect_outputs_bitwise_equal(
      run_engine(model, views, all, infer::EngineKind::kAutograd),
      run_engine(model, views, all, infer::EngineKind::kPlan));
}

TEST(EngineParity, PackedCacheTracksLoadState) {
  auto cfg = DdnnConfig::preset(HierarchyPreset::kDevicesCloud, 3);
  DdnnModel donor(cfg);
  DdnnConfig other = cfg;
  other.init_seed = cfg.init_seed + 101;
  DdnnModel receiver(other);
  donor.set_training(false);
  receiver.set_training(false);

  const auto views = parity_views(cfg.num_devices, 22);
  const std::vector<bool> all(static_cast<std::size_t>(cfg.num_devices), true);
  // Build the receiver's packed caches from its own (different) weights.
  run_engine(receiver, views, all, infer::EngineKind::kPlan);

  const std::string path = ::testing::TempDir() + "/ddnn_engine_state.bin";
  nn::save_state(donor, path);
  nn::load_state(receiver, path);

  const auto ref = run_engine(donor, views, all, infer::EngineKind::kAutograd);
  const auto got = run_engine(receiver, views, all, infer::EngineKind::kPlan);
  expect_outputs_bitwise_equal(ref, got);
}

TEST(EngineParity, BinaryConv2dConvFormTracksStepAndLoadState) {
  Rng rng(41);
  nn::BinaryConv2d conv(24, 16, 3, 1, 1, rng);
  // A ±1 input takes the XNOR path, i.e. the cached channel-packed form.
  const Tensor x = signs_of(Tensor::randn(Shape{1, 24, 8, 8}, rng));
  ASSERT_TRUE(bitgemm::all_pm1(x));
  const auto served = [&](nn::BinaryConv2d& layer) {
    return layer.infer(x, infer::tls_workspace());
  };
  const auto reference = [&](nn::BinaryConv2d& layer) {
    autograd::NoGradGuard no_grad;
    return layer.forward(Variable(x)).value();
  };
  const Tensor before = served(conv);  // builds the conv form
  expect_bitwise_equal(before, reference(conv));

  // A unit-rate SGD step on a random gradient flips many weight signs.
  for (auto& p : conv.parameters()) {
    p.var.grad() = Tensor::randn(p.var.shape(), rng);
  }
  opt::Sgd sgd(conv.parameters(), 1.0f);
  sgd.step();
  const Tensor stepped = served(conv);
  expect_bitwise_equal(stepped, reference(conv));
  EXPECT_NE(0, std::memcmp(stepped.data(), before.data(),
                           static_cast<std::size_t>(before.numel()) *
                               sizeof(float)));

  Rng donor_rng(42);
  nn::BinaryConv2d donor(24, 16, 3, 1, 1, donor_rng);
  const std::string path = ::testing::TempDir() + "/ddnn_conv_state.bin";
  nn::save_state(donor, path);
  nn::load_state(conv, path);
  const Tensor loaded = served(conv);
  expect_bitwise_equal(loaded, reference(donor));
  EXPECT_NE(0, std::memcmp(loaded.data(), stepped.data(),
                           static_cast<std::size_t>(stepped.numel()) *
                               sizeof(float)));
}

TEST(EngineParity, PackedCacheServesConcurrentFirstUse) {
  // Four callers race to rebuild the cache after each version bump; the
  // batch is large enough that each kernel call also fans out over the pool
  // (ThreadSanitizer runs this with DDNN_THREADS=4).
  Rng rng(43);
  nn::BinaryConv2d conv(24, 16, 3, 1, 1, rng);
  const Tensor pm1 = signs_of(Tensor::randn(Shape{4, 24, 16, 16}, rng));
  const Tensor real = Tensor::randn(Shape{4, 24, 16, 16}, rng);
  Tensor pm1_ref, real_ref;
  {
    autograd::NoGradGuard no_grad;
    pm1_ref = conv.forward(Variable(pm1)).value();
    real_ref = conv.forward(Variable(real)).value();
  }
  for (int round = 0; round < 6; ++round) {
    conv.parameters()[0].var.bump_version();
    std::vector<Tensor> outs(8);
    std::vector<std::thread> callers;
    std::atomic<int> waiting{4};
    for (std::size_t i = 0; i < outs.size(); i += 2) {
      callers.emplace_back([&, i] {
        // Start together, so the first calls overlap.
        waiting.fetch_sub(1);
        while (waiting.load() > 0) std::this_thread::yield();
        outs[i] = conv.infer(pm1, infer::tls_workspace());
        outs[i + 1] = conv.infer(real, infer::tls_workspace());
      });
    }
    for (auto& t : callers) t.join();
    for (std::size_t i = 0; i < outs.size(); i += 2) {
      expect_bitwise_equal(outs[i], pm1_ref);
      expect_bitwise_equal(outs[i + 1], real_ref);
    }
  }
}

}  // namespace
}  // namespace ddnn
