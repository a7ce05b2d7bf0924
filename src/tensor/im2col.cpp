#include "tensor/im2col.hpp"

#include "obs/profile.hpp"
#include "util/thread_pool.hpp"

namespace ddnn {

namespace {

void check_geometry(const Tensor& x, const Conv2dGeometry& g) {
  DDNN_CHECK(x.ndim() == 4, "im2col expects [N, C, H, W], got "
                                << x.shape().to_string());
  DDNN_CHECK(x.dim(1) == g.in_channels && x.dim(2) == g.in_h &&
                 x.dim(3) == g.in_w,
             "im2col: tensor " << x.shape().to_string()
                               << " does not match geometry");
  DDNN_CHECK(g.stride > 0 && g.pad >= 0 && g.kernel_h > 0 && g.kernel_w > 0,
             "im2col: bad geometry");
  DDNN_CHECK(g.out_h() > 0 && g.out_w() > 0, "im2col: empty output");
}

}  // namespace

Tensor im2col(const Tensor& x, const Conv2dGeometry& g) {
  check_geometry(x, g);
  Tensor cols(Shape{x.dim(0) * g.out_h() * g.out_w(), g.patch_size()});
  im2col_into(x, g, cols);
  return cols;
}

void im2col_into(const Tensor& x, const Conv2dGeometry& g, Tensor& cols) {
  DDNN_PROF_SCOPE("im2col");
  check_geometry(x, g);
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t patch = g.patch_size();
  DDNN_CHECK(cols.ndim() == 2 && cols.dim(0) == n * oh * ow &&
                 cols.dim(1) == patch,
             "im2col_into: bad cols shape " << cols.shape().to_string());
  float* pc = cols.data();
  const float* px = x.data();
  const std::int64_t chw = g.in_channels * g.in_h * g.in_w;
  // Each image writes a disjoint block of `cols` rows, so the batch loop
  // parallelizes without any cross-thread accumulation. Every element is
  // written (padded positions get an explicit 0): the destination may be a
  // recycled planner arena.
  if (g.kernel_h == 1 && g.kernel_w == 1 && g.stride == 1 && g.pad == 0) {
    // A 1x1 unpadded window is a per-image transpose [C, H*W] -> [H*W, C].
    const std::int64_t c = g.in_channels, hw = g.in_h * g.in_w;
    parallel_for(0, n, 1, [&](std::int64_t b0, std::int64_t b1) {
      for (std::int64_t b = b0; b < b1; ++b) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          const float* chan = px + (b * c + ch) * hw;
          float* col = pc + b * hw * c + ch;
          for (std::int64_t pix = 0; pix < hw; ++pix) col[pix * c] = chan[pix];
        }
      }
    });
    return;
  }
  parallel_for(0, n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const float* img = px + b * chw;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float* row = pc + ((b * oh + oy) * ow + ox) * patch;
          std::int64_t idx = 0;
          for (std::int64_t c = 0; c < g.in_channels; ++c) {
            const float* chan = img + c * g.in_h * g.in_w;
            for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
              const std::int64_t iy = oy * g.stride - g.pad + ky;
              for (std::int64_t kx = 0; kx < g.kernel_w; ++kx, ++idx) {
                const std::int64_t ix = ox * g.stride - g.pad + kx;
                row[idx] = (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                               ? chan[iy * g.in_w + ix]
                               : 0.0f;
              }
            }
          }
        }
      }
    }
  });
}

Tensor col2im(const Tensor& cols, const Conv2dGeometry& g, std::int64_t batch) {
  DDNN_PROF_SCOPE("col2im");
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t patch = g.patch_size();
  DDNN_CHECK(cols.ndim() == 2 && cols.dim(0) == batch * oh * ow &&
                 cols.dim(1) == patch,
             "col2im: cols " << cols.shape().to_string()
                             << " does not match geometry");
  Tensor x(Shape{batch, g.in_channels, g.in_h, g.in_w});
  float* px = x.data();
  const float* pc = cols.data();
  const std::int64_t chw = g.in_channels * g.in_h * g.in_w;
  // Scatter-adds stay within image b's slab, so chunking over the batch
  // keeps the per-pixel accumulation order identical to the serial loop.
  parallel_for(0, batch, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      float* img = px + b * chw;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const float* row = pc + ((b * oh + oy) * ow + ox) * patch;
          std::int64_t idx = 0;
          for (std::int64_t c = 0; c < g.in_channels; ++c) {
            float* chan = img + c * g.in_h * g.in_w;
            for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
              const std::int64_t iy = oy * g.stride - g.pad + ky;
              for (std::int64_t kx = 0; kx < g.kernel_w; ++kx, ++idx) {
                const std::int64_t ix = ox * g.stride - g.pad + kx;
                if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
                  chan[iy * g.in_w + ix] += row[idx];
                }
              }
            }
          }
        }
      }
    }
  });
  return x;
}

}  // namespace ddnn
