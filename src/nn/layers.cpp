#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "infer/planner.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"

namespace ddnn::nn {

namespace {

/// Reorder [N*OH*OW, F] -> [N, F, OH, OW] into `out` (same layout move the
/// autograd conv2d performs after its GEMM).
void rows_to_nchw_into(const Tensor& mat, std::int64_t n, std::int64_t f,
                       std::int64_t oh, std::int64_t ow, Tensor& out) {
  const float* pm = mat.data();
  float* po = out.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        const float* row = pm + ((b * oh + y) * ow + x) * f;
        for (std::int64_t c = 0; c < f; ++c) {
          po[((b * f + c) * oh + y) * ow + x] = row[c];
        }
      }
    }
  }
}

/// Max pooling over `planes` [h, w] planes, row first. Pass 1 writes, for
/// every input row, the first max over each window's kx taps into `rows`
/// [planes, h, ow]; pass 2 takes the first max of those over ky into `po`.
/// Both folds keep autograd::max_pool2d's -inf seed and `v > best` select,
/// and folding row maxima in ky order picks the first max in (ky, kx)
/// raster order, so signed-zero ties, NaN and infinities select the same
/// element (docs/ARCHITECTURE.md, "Binarization").
void max_pool_rows(const float* px, std::int64_t planes, std::int64_t h,
                   std::int64_t w, std::int64_t kernel, std::int64_t stride,
                   std::int64_t pad, std::int64_t oh, std::int64_t ow,
                   float* rows, float* po) {
  constexpr float kSeed = -std::numeric_limits<float>::infinity();
  const auto take = [](float best, float v) { return v > best ? v : best; };
  // dst[j] for j in [j0, j1) over taps src[j*step - pad + kx], which the
  // caller keeps in bounds: one vectorizable loop per tap.
  const auto sweep = [&](const float* src, float* dst, std::int64_t step,
                         std::int64_t j0, std::int64_t j1) {
    std::fill(dst + j0, dst + j1, kSeed);
    for (std::int64_t kx = 0; kx < kernel; ++kx) {
      const float* tap = src + kx;
      for (std::int64_t j = j0; j < j1; ++j) {
        dst[j] = take(dst[j], tap[j * step - pad]);
      }
    }
  };
  // Output columns [lo, hi) have every tap inside the row.
  const std::int64_t lo = std::min(ow, (pad + stride - 1) / stride);
  const std::int64_t hi =
      w < kernel - pad
          ? lo
          : std::max(lo, std::min(ow, (w - kernel + pad) / stride + 1));
  const std::int64_t nrows = planes * h;
  if (stride == 2 && w == 2 * ow && lo < hi) {
    // Output j = r*ow + ox of row r reads input r*w + 2*ox - pad + kx =
    // 2*j - pad + kx, so every row sweeps in one flat loop with a constant
    // step. The edge outputs between two rows' interiors read the
    // neighbouring row; the edge pass below rewrites them.
    sweep(px, rows, 2, lo, nrows * ow - (ow - hi));
  } else {
    for (std::int64_t r = 0; r < nrows; ++r) {
      sweep(px + r * w, rows + r * ow, stride, lo, hi);
    }
  }
  const auto edge = [&](std::int64_t ox) {
    const std::int64_t x0 = ox * stride - pad;
    const std::int64_t ix0 = std::max<std::int64_t>(x0, 0);
    const std::int64_t ix1 = std::min(x0 + kernel, w);
    for (std::int64_t r = 0; r < nrows; ++r) {
      const float* row = px + r * w;
      float best = kSeed;
      for (std::int64_t ix = ix0; ix < ix1; ++ix) best = take(best, row[ix]);
      rows[r * ow + ox] = best;
    }
  };
  for (std::int64_t ox = 0; ox < lo; ++ox) edge(ox);
  for (std::int64_t ox = hi; ox < ow; ++ox) edge(ox);
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* plane = rows + p * h * ow;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      float* dst = po + (p * oh + oy) * ow;
      const std::int64_t y0 = oy * stride - pad;
      const std::int64_t iy0 = std::max<std::int64_t>(y0, 0);
      const std::int64_t iy1 = std::min(y0 + kernel, h);
      if (iy0 >= iy1) {
        std::fill_n(dst, ow, kSeed);
        continue;
      }
      // Row maxima are never NaN, so take(kSeed, v) == v: start from the
      // first row instead of the seed.
      std::copy_n(plane + iy0 * ow, ow, dst);
      for (std::int64_t iy = iy0 + 1; iy < iy1; ++iy) {
        const float* src = plane + iy * ow;
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          dst[ox] = take(dst[ox], src[ox]);
        }
      }
    }
  }
}

}  // namespace

float glorot_bound(std::int64_t fan_in, std::int64_t fan_out) {
  return std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
}

Tensor sign_tensor(const Tensor& x, infer::Workspace& ws) {
  Tensor out = ws.acquire(x.shape());
  ws.note_use(x);
  const float* px = x.data();
  float* po = out.data();
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) po[i] = px[i] < 0.0f ? -1.0f : 1.0f;
  return out;
}

Tensor relu_tensor(const Tensor& x, infer::Workspace& ws) {
  Tensor out = ws.acquire(x.shape());
  ws.note_use(x);
  const float* px = x.data();
  float* po = out.data();
  const std::int64_t n = x.numel();
  // Bit-identical to the autograd path's clamp(x, 0, +inf): min(+inf, y) is
  // the identity for every y max() can produce (max(0, NaN) is already 0
  // under (a<b)?b:a, and +inf survives both), so only the max remains.
  for (std::int64_t i = 0; i < n; ++i) {
    po[i] = std::max(0.0f, px[i]);
  }
  return out;
}

namespace detail {

const PackedWeights& PackedWeightCache::get(const autograd::Variable& w) {
  const std::uint64_t want = w.version() + 1;
  if (stamp.load(std::memory_order_acquire) != want) {
    std::lock_guard<std::mutex> lock(mu);
    if (stamp.load(std::memory_order_relaxed) != want) {
      const Tensor& v = w.value();
      const std::int64_t rows = v.dim(0);
      packed.signs =
          bitgemm::pack_signs_matrix(v.data(), rows, v.numel() / rows);
      if (v.ndim() == 4) {
        bitgemm::pack_conv_bits(packed.signs.bits, v.dim(1), v.dim(2), v.dim(3),
                                packed.conv);
      }
      stamp.store(want, std::memory_order_release);
    }
  }
  return packed;
}

}  // namespace detail

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias)
    : in_(in_features), out_(out_features) {
  DDNN_CHECK(in_ > 0 && out_ > 0, "Linear: non-positive feature count");
  const float bound = glorot_bound(in_, out_);
  weight_ = add_parameter(
      "weight", Tensor::rand_uniform(Shape{out_, in_}, rng, -bound, bound));
  if (bias) bias_ = add_parameter("bias", Tensor::zeros(Shape{out_}));
}

Variable Linear::forward(const Variable& x) {
  return autograd::linear(x, weight_, bias_);
}

Tensor Linear::infer(const Tensor& x, infer::Workspace& ws) {
  // Full-precision path: call the exact kernels autograd::linear uses so
  // the rounding (and therefore the bits) cannot diverge.
  DDNN_CHECK(x.ndim() == 2 && x.dim(1) == in_,
             "Linear::infer: bad input shape " << x.shape().to_string());
  Tensor out = ws.acquire(Shape{x.dim(0), out_});
  ws.note_use(x);
  ops::matmul_nt_into(x, weight_.value(), out);
  if (bias_.defined()) ops::add_row_vector_inplace(out, bias_.value());
  return out;
}

BinaryLinear::BinaryLinear(std::int64_t in_features, std::int64_t out_features,
                           Rng& rng)
    : in_(in_features), out_(out_features) {
  DDNN_CHECK(in_ > 0 && out_ > 0, "BinaryLinear: non-positive feature count");
  const float bound = glorot_bound(in_, out_);
  weight_ = add_parameter(
      "weight", Tensor::rand_uniform(Shape{out_, in_}, rng, -bound, bound),
      /*clamp_to_unit=*/true);
}

Variable BinaryLinear::forward(const Variable& x) {
  return autograd::linear(x, autograd::binarize(weight_), Variable());
}

Tensor BinaryLinear::infer(const Tensor& x, infer::Workspace& ws) {
  DDNN_CHECK(x.ndim() == 2 && x.dim(1) == in_,
             "BinaryLinear::infer: bad input shape " << x.shape().to_string());
  const bitgemm::PackedSigns& w = packed_.get(weight_).signs;
  Tensor out = ws.acquire(Shape{x.dim(0), out_});
  ws.note_use(x);
  if (bitgemm::all_pm1(x)) {
    bitgemm::xnor_linear(x, w.bits, out);
  } else {
    bitgemm::sign_linear(x, w, out);
  }
  return out;
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng& rng, bool bias)
    : stride_(stride), pad_(pad) {
  DDNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
             "Conv2d: bad dimensions");
  const std::int64_t fan_in = in_channels * kernel * kernel;
  const std::int64_t fan_out = out_channels * kernel * kernel;
  const float bound = glorot_bound(fan_in, fan_out);
  weight_ = add_parameter(
      "weight",
      Tensor::rand_uniform(Shape{out_channels, in_channels, kernel, kernel},
                           rng, -bound, bound));
  if (bias) bias_ = add_parameter("bias", Tensor::zeros(Shape{out_channels}));
}

Variable Conv2d::forward(const Variable& x) {
  return autograd::conv2d(x, weight_, bias_, stride_, pad_);
}

Tensor Conv2d::infer(const Tensor& x, infer::Workspace& ws) {
  const Tensor& wt = weight_.value();  // [F, C, KH, KW]
  DDNN_CHECK(x.ndim() == 4 && x.dim(1) == wt.dim(1),
             "Conv2d::infer: bad input shape " << x.shape().to_string());
  Conv2dGeometry g{.in_channels = wt.dim(1),
                   .in_h = x.dim(2),
                   .in_w = x.dim(3),
                   .kernel_h = wt.dim(2),
                   .kernel_w = wt.dim(3),
                   .stride = stride_,
                   .pad = pad_};
  const std::int64_t n = x.dim(0), f = wt.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // Same lowering as autograd::conv2d: im2col, float GEMM, bias broadcast —
  // with the two GEMM scratch matrices drawn from the workspace so the
  // planner sees (and bounds) the conv's true working set.
  Tensor cols = ws.acquire(Shape{n * oh * ow, g.patch_size()});
  ws.note_use(x);
  im2col_into(x, g, cols);
  const Tensor wmat = wt.reshape(Shape{f, g.patch_size()});
  Tensor outmat = ws.acquire(Shape{n * oh * ow, f});
  ws.note_use(cols);
  ops::matmul_nt_into(cols, wmat, outmat);
  if (bias_.defined()) ops::add_row_vector_inplace(outmat, bias_.value());
  Tensor out = ws.acquire(Shape{n, f, oh, ow});
  ws.note_use(outmat);
  rows_to_nchw_into(outmat, n, f, oh, ow, out);
  return out;
}

BinaryConv2d::BinaryConv2d(std::int64_t in_channels, std::int64_t out_channels,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t pad, Rng& rng)
    : stride_(stride), pad_(pad) {
  DDNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
             "BinaryConv2d: bad dimensions");
  const std::int64_t fan_in = in_channels * kernel * kernel;
  const std::int64_t fan_out = out_channels * kernel * kernel;
  const float bound = glorot_bound(fan_in, fan_out);
  weight_ = add_parameter(
      "weight",
      Tensor::rand_uniform(Shape{out_channels, in_channels, kernel, kernel},
                           rng, -bound, bound),
      /*clamp_to_unit=*/true);
}

Variable BinaryConv2d::forward(const Variable& x) {
  return autograd::conv2d(x, autograd::binarize(weight_), Variable(), stride_,
                          pad_);
}

Tensor BinaryConv2d::infer(const Tensor& x, infer::Workspace& ws) {
  const Tensor& wt = weight_.value();  // [F, C, KH, KW]
  DDNN_CHECK(x.ndim() == 4 && x.dim(1) == wt.dim(1),
             "BinaryConv2d::infer: bad input shape " << x.shape().to_string());
  Conv2dGeometry g{.in_channels = wt.dim(1),
                   .in_h = x.dim(2),
                   .in_w = x.dim(3),
                   .kernel_h = wt.dim(2),
                   .kernel_w = wt.dim(3),
                   .stride = stride_,
                   .pad = pad_};
  const detail::PackedWeights& w = packed_.get(weight_);
  Tensor out = ws.acquire(Shape{x.dim(0), wt.dim(0), g.out_h(), g.out_w()});
  ws.note_use(x);
  if (bitgemm::all_pm1(x)) {
    bitgemm::xnor_conv2d(x, g, w.conv, out);
  } else {
    bitgemm::sign_conv2d(x, g, w.signs, out);
  }
  return out;
}

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad)
    : kernel_(kernel), stride_(stride), pad_(pad) {
  DDNN_CHECK(kernel_ > 0 && stride_ > 0 && pad_ >= 0, "MaxPool2d: bad config");
}

Variable MaxPool2d::forward(const Variable& x) {
  return autograd::max_pool2d(x, kernel_, stride_, pad_);
}

Tensor MaxPool2d::infer(const Tensor& x, infer::Workspace& ws) {
  DDNN_CHECK(x.ndim() == 4, "MaxPool2d::infer expects [N, C, H, W]");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h + 2 * pad_ - kernel_) / stride_ + 1;
  const std::int64_t ow = (w + 2 * pad_ - kernel_) / stride_ + 1;
  DDNN_CHECK(oh > 0 && ow > 0, "MaxPool2d::infer: empty output");
  Tensor out = ws.acquire(Shape{n, c, oh, ow});
  ws.note_use(x);
  // Row maxima of one image, in per-thread scratch like the binary convs'
  // padded input (tensor/bitgemm.cpp). Drawn from the workspace they would
  // sit beside the input and raise the section's planned peak, which at
  // the device tier is this pool's input plus output. Poison mode fills
  // them with +inf before each image: a max fold skips NaN but selects
  // +inf, so a read of an unwritten entry breaks parity.
  static thread_local std::vector<float> rows;
  rows.resize(static_cast<std::size_t>(c * h * ow));
  const bool poison = infer::poison_enabled();
  for (std::int64_t b = 0; b < n; ++b) {
    if (poison) {
      std::fill(rows.begin(), rows.end(),
                std::numeric_limits<float>::infinity());
    }
    // Same selects as autograd::max_pool2d, minus argmax bookkeeping;
    // comparisons are exact, so the selected values match bit-for-bit.
    max_pool_rows(x.data() + b * c * h * w, c, h, w, kernel_, stride_, pad_,
                  oh, ow, rows.data(), out.data() + b * c * oh * ow);
  }
  return out;
}

BatchNorm::BatchNorm(std::int64_t num_features, float momentum, float eps)
    : features_(num_features), momentum_(momentum), eps_(eps) {
  DDNN_CHECK(features_ > 0, "BatchNorm: non-positive feature count");
  gamma_ = add_parameter("gamma", Tensor::ones(Shape{features_}));
  beta_ = add_parameter("beta", Tensor::zeros(Shape{features_}));
  running_mean_ = add_buffer("running_mean", Tensor::zeros(Shape{features_}));
  running_var_ = add_buffer("running_var", Tensor::ones(Shape{features_}));
}

Variable BatchNorm::forward(const Variable& x) {
  return autograd::batch_norm(x, gamma_, beta_, running_mean_, running_var_,
                              training(), momentum_, eps_);
}

Tensor BatchNorm::infer(const Tensor& x, infer::Workspace& ws) {
  DDNN_CHECK(!training(), "BatchNorm::infer requires eval mode");
  Tensor inv_std = ws.acquire(Shape{features_});
  Tensor x_hat = ws.acquire(x.shape());
  Tensor out = ws.acquire(x.shape());
  ws.note_use(x);
  // batch_norm_apply interleaves writes to x_hat/out with reads of x_hat
  // and inv_std, so all three must stay distinct for the whole kernel.
  ws.note_use(inv_std);
  ws.note_use(x_hat);
  ops::batch_norm_apply(x, gamma_.value(), beta_.value(), running_mean_,
                        running_var_, eps_, inv_std, x_hat, out);
  return out;
}

Variable Sequential::forward(const Variable& x) {
  Variable cur = x;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    cur = forwards_[i](*stages_[i], cur);
  }
  return cur;
}

Tensor Sequential::infer(const Tensor& x, infer::Workspace& ws) {
  Tensor cur = x;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    cur = infers_[i](*stages_[i], cur, ws);
  }
  return cur;
}

void Sequential::add_stage_internal(std::unique_ptr<Module> stage,
                                    ForwardFn fn, InferFn infer_fn) {
  add_child("stage" + std::to_string(stages_.size()), stage.get());
  stages_.push_back(std::move(stage));
  forwards_.push_back(fn);
  infers_.push_back(infer_fn);
}

}  // namespace ddnn::nn
