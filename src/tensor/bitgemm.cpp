#include "tensor/bitgemm.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/profile.hpp"
#include "tensor/bitpack.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ddnn::bitgemm {

namespace {

/// Chunk size keeping per-task work around 64k scalar operations. Small
/// problems (under ~256k total operations) run as a single inline chunk —
/// pool dispatch costs more than it buys at batch-1 section sizes.
std::int64_t grain_for(std::int64_t work_per_index, std::int64_t total_indices) {
  const std::int64_t per = std::max<std::int64_t>(1, work_per_index);
  if (total_indices * per <= 262144) return std::max<std::int64_t>(1, total_indices);
  return std::max<std::int64_t>(1, 65536 / per);
}

/// In-bounds kernel offsets [lo, hi) of output coordinate `o`: the k whose
/// input coordinate o*stride - pad + k lies in [0, size).
void tap_range(std::int64_t o, std::int64_t stride, std::int64_t pad,
               std::int64_t kernel, std::int64_t size, std::int64_t& lo,
               std::int64_t& hi) {
  const std::int64_t start = o * stride - pad;
  lo = std::max<std::int64_t>(0, -start);
  hi = std::max(lo, std::min(kernel, size - start));
}

/// d[j] += popcount(x ^ w[j]) over the f filters of one conv-form word; the
/// filter loop vectorizes.
void add_disagreements(std::uint64_t x, const std::uint64_t* __restrict w,
                       std::int64_t f, std::int64_t* __restrict d) {
  for (std::int64_t j = 0; j < f; ++j) d[j] += std::popcount(x ^ w[j]);
}

/// Channel-packs images [blo, bhi) of x ([N, C, hw] floats) into wpp word
/// planes per image: bit c%64 of plane c/64 is the sign of channel c, so a
/// pixel's words sit hw apart and the packing loop runs over contiguous
/// pixels. (Scalars come by value throughout these kernels: a bound read
/// through a reference may alias the 64-bit stores, which stops GCC from
/// vectorizing.)
void pack_channel_planes(const float* px, std::int64_t channels,
                         std::int64_t hw, std::int64_t wpp, std::int64_t blo,
                         std::int64_t bhi, std::uint64_t* xbits) {
  for (std::int64_t b = blo; b < bhi; ++b) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* plane = px + (b * channels + c) * hw;
      std::uint64_t* dst = xbits + (b * wpp + (c >> 6)) * hw;
      const std::int64_t shift = c & 63;
      for (std::int64_t pix = 0; pix < hw; ++pix) {
        dst[pix] |= static_cast<std::uint64_t>(plane[pix] >= 0.0f) << shift;
      }
    }
  }
}

/// Output rows [rlo, rhi) (r = b*OH + oy) of xnor_conv2d over the
/// channel-packed input and the conv-form weights. Per output pixel, every
/// in-bounds tap adds one popcount per word and filter; the filter loop is
/// innermost and contiguous in the conv form.
void xnor_conv_rows(const std::uint64_t* xbits, const std::uint64_t* wbits,
                    const Conv2dGeometry g, std::int64_t f, std::int64_t wpp,
                    std::int64_t rlo, std::int64_t rhi, float* po) {
  const std::int64_t oh = g.out_h(), ow = g.out_w(), hw = g.in_h * g.in_w;
  std::vector<std::int64_t> disagree(static_cast<std::size_t>(f));
  std::int64_t* d = disagree.data();
  for (std::int64_t r = rlo; r < rhi; ++r) {
    const std::int64_t b = r / oh, oy = r % oh;
    const std::uint64_t* img = xbits + b * wpp * hw;
    float* out_row = po + b * f * oh * ow + oy * ow;
    std::int64_t ky_lo, ky_hi;
    tap_range(oy, g.stride, g.pad, g.kernel_h, g.in_h, ky_lo, ky_hi);
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      std::int64_t kx_lo, kx_hi;
      tap_range(ox, g.stride, g.pad, g.kernel_w, g.in_w, kx_lo, kx_hi);
      std::fill_n(d, f, 0);
      for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
        const std::int64_t iy = oy * g.stride - g.pad + ky;
        for (std::int64_t kx = kx_lo; kx < kx_hi; ++kx) {
          const std::int64_t ix = ox * g.stride - g.pad + kx;
          const std::uint64_t* xp = img + iy * g.in_w + ix;
          const std::uint64_t* wt = wbits + (ky * g.kernel_w + kx) * wpp * f;
          for (std::int64_t t = 0; t < wpp; ++t) {
            add_disagreements(xp[t * hw], wt + t * f, f, d);
          }
        }
      }
      const std::int64_t valid =
          g.in_channels * (ky_hi - ky_lo) * (kx_hi - kx_lo);
      for (std::int64_t j = 0; j < f; ++j) {
        out_row[j * oh * ow + ox] = static_cast<float>(valid - 2 * d[j]);
      }
    }
  }
}

/// Output columns one sign_conv2d tile accumulates in registers.
constexpr std::int64_t kTileW = 16;
/// Filters one sign_conv2d tile accumulates together.
constexpr int kFilterBlock = 4;

/// One output row of filters [j0, j0 + FB) of sign_conv2d. `img` is the
/// image's zero-padded copy ([C, ph, pw], wide enough for whole tiles) and
/// `st` the transposed signs ([patch, f]). Each tile's FB accumulators of
/// kTileW lanes start at +0.0f and take their terms in ascending patch order
/// (c, ky, kx); lanes past `ow` read padding and are never stored. The lanes
/// are a vector type because as plain loops GCC vectorizes the tap loop
/// instead and spills every accumulator. STRIDE > 0 bakes the stride into
/// the instantiation.
template <int FB, int STRIDE>
void sign_conv_tiles(const float* img, const float* st, std::int64_t f,
                     std::int64_t j0, const Conv2dGeometry& g, std::int64_t ph,
                     std::int64_t pw, std::int64_t oy, std::int64_t oh,
                     std::int64_t ow, float* out_img) {
  using Lanes = float __attribute__((vector_size(kTileW * sizeof(float))));
  const std::int64_t stride = STRIDE > 0 ? STRIDE : g.stride;
  for (std::int64_t ox0 = 0; ox0 < ow; ox0 += kTileW) {
    Lanes acc[FB] = {};
    const float* s = st + j0;
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
      for (std::int64_t ky = 0; ky < g.kernel_h; ++ky) {
        const float* row =
            img + (c * ph + oy * stride + ky) * pw + ox0 * stride;
        for (std::int64_t kx = 0; kx < g.kernel_w; ++kx, s += f) {
          Lanes xv;
          if (stride == 1) {
            std::memcpy(&xv, row + kx, sizeof xv);
          } else {
            for (std::int64_t v = 0; v < kTileW; ++v) {
              xv[v] = row[v * stride + kx];
            }
          }
          for (int fb = 0; fb < FB; ++fb) acc[fb] += xv * s[fb];
        }
      }
    }
    const std::int64_t m = std::min(kTileW, ow - ox0);
    for (int fb = 0; fb < FB; ++fb) {
      float* o = out_img + ((j0 + fb) * oh + oy) * ow + ox0;
      if (m == kTileW) {
        std::memcpy(o, &acc[fb], sizeof(Lanes));
      } else {
        for (std::int64_t v = 0; v < m; ++v) o[v] = acc[fb][v];
      }
    }
  }
}

/// Every filter block of one sign_conv2d output row.
template <int STRIDE>
void sign_conv_row(const float* img, const float* st, std::int64_t f,
                   const Conv2dGeometry& g, std::int64_t ph, std::int64_t pw,
                   std::int64_t oy, std::int64_t oh, std::int64_t ow,
                   float* out) {
  for (std::int64_t j0 = 0; j0 < f; j0 += kFilterBlock) {
    switch (std::min<std::int64_t>(kFilterBlock, f - j0)) {
      case 4:
        sign_conv_tiles<4, STRIDE>(img, st, f, j0, g, ph, pw, oy, oh, ow, out);
        break;
      case 3:
        sign_conv_tiles<3, STRIDE>(img, st, f, j0, g, ph, pw, oy, oh, ow, out);
        break;
      case 2:
        sign_conv_tiles<2, STRIDE>(img, st, f, j0, g, ph, pw, oy, oh, ow, out);
        break;
      default:
        sign_conv_tiles<1, STRIDE>(img, st, f, j0, g, ph, pw, oy, oh, ow, out);
        break;
    }
  }
}

void pack_one_row(const float* src, std::int64_t cols, std::uint64_t* dst,
                  std::int64_t words) {
  for (std::int64_t w = 0; w < words; ++w) {
    const std::int64_t base = w * 64;
    if (base + 64 <= cols) {
      dst[w] = sign_bits32(src + base) |
               std::uint64_t{sign_bits32(src + base + 32)} << 32;
      continue;
    }
    std::uint64_t bits = 0;
    for (std::int64_t j = 0; base + j < cols; ++j) {
      bits |= static_cast<std::uint64_t>(src[base + j] >= 0.0f) << j;
    }
    dst[w] = bits;
  }
}

}  // namespace

void pack_sign_rows(const float* data, std::int64_t rows, std::int64_t cols,
                    PackedBits& out) {
  DDNN_CHECK(rows > 0 && cols > 0, "pack_sign_rows: empty matrix");
  // Dot products are reconstructed through float, exact only below 2^24.
  DDNN_CHECK(cols < (std::int64_t{1} << 24), "pack_sign_rows: row too long");
  out.rows = rows;
  out.cols = cols;
  out.words_per_row = (cols + 63) / 64;
  out.bits.assign(static_cast<std::size_t>(rows * out.words_per_row), 0);
  for (std::int64_t r = 0; r < rows; ++r) {
    pack_one_row(data + r * cols, cols, out.bits.data() + r * out.words_per_row,
                 out.words_per_row);
  }
}

PackedSigns pack_signs_matrix(const float* data, std::int64_t rows,
                              std::int64_t cols) {
  PackedSigns out;
  pack_sign_rows(data, rows, cols, out.bits);
  out.signs_t.assign(static_cast<std::size_t>(rows * cols), 0.0f);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t k = 0; k < cols; ++k) {
      out.signs_t[static_cast<std::size_t>(k * rows + r)] =
          data[r * cols + k] >= 0.0f ? 1.0f : -1.0f;
    }
  }
  return out;
}

void pack_conv_bits(const PackedBits& w, std::int64_t channels,
                    std::int64_t kernel_h, std::int64_t kernel_w,
                    PackedConvBits& out) {
  const std::int64_t taps = kernel_h * kernel_w, f = w.rows;
  DDNN_CHECK(w.cols == channels * taps,
             "pack_conv_bits: " << w.cols << " packed columns vs " << channels
                                << " channels x " << taps << " taps");
  out.filters = f;
  out.channels = channels;
  out.kernel_h = kernel_h;
  out.kernel_w = kernel_w;
  out.words_per_pixel = (channels + 63) / 64;
  const std::int64_t wpp = out.words_per_pixel;
  out.bits.resize(static_cast<std::size_t>(taps * wpp * f));
  for (std::int64_t j = 0; j < f; ++j) {
    const std::uint64_t* row = w.row(j);
    for (std::int64_t t = 0; t < taps; ++t) {
      for (std::int64_t word = 0; word < wpp; ++word) {
        std::uint64_t bits = 0;
        const std::int64_t c_end = std::min(channels, 64 * (word + 1));
        for (std::int64_t c = 64 * word; c < c_end; ++c) {
          const std::int64_t idx = c * taps + t;
          bits |= ((row[idx >> 6] >> (idx & 63)) & 1) << (c & 63);
        }
        out.bits[static_cast<std::size_t>((t * wpp + word) * f + j)] = bits;
      }
    }
  }
}

bool all_pm1(const Tensor& t) {
  const float* p = t.data();
  const std::int64_t n = t.numel();
  // A float is ±1.0f exactly when its bits other than the sign are
  // 0x3f800000 (NaN and every other value differ), so blocks reduce with an
  // integer OR that vectorizes; early exit once per block.
  const auto off_grid = [](float v) {
    return (std::bit_cast<std::uint32_t>(v) & 0x7fffffffu) ^ 0x3f800000u;
  };
  std::int64_t i = 0;
  for (; i + 256 <= n; i += 256) {
    std::uint32_t bad = 0;
    for (std::int64_t j = 0; j < 256; ++j) bad |= off_grid(p[i + j]);
    if (bad != 0) return false;
  }
  std::uint32_t bad = 0;
  for (; i < n; ++i) bad |= off_grid(p[i]);
  return bad == 0;
}

void xnor_linear(const Tensor& x, const PackedBits& w, Tensor& out) {
  DDNN_PROF_SCOPE("xnor_linear");
  DDNN_CHECK(x.ndim() == 2 && x.dim(1) == w.cols,
             "xnor_linear: x shape " << x.shape().to_string() << " vs "
                                     << w.cols << " packed columns");
  DDNN_CHECK(out.ndim() == 2 && out.dim(0) == x.dim(0) && out.dim(1) == w.rows,
             "xnor_linear: bad output shape");
  const std::int64_t m = x.dim(0), k = w.cols, wpr = w.words_per_row;

  // Per-thread packed-input scratch, reused across calls. Bound to a local
  // reference so the chunk lambdas capture *this* thread's buffer — a lambda
  // never captures a thread_local, and pool workers must not resolve it to
  // their own (empty) instance.
  static thread_local std::vector<std::uint64_t> xbits_tls;
  std::vector<std::uint64_t>& xbits = xbits_tls;
  xbits.assign(static_cast<std::size_t>(m * wpr), 0);
  const float* px = x.data();
  parallel_for(0, m, grain_for(k, m), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      pack_one_row(px + i * k, k, xbits.data() + i * wpr, wpr);
    }
  });

  // Weight the chunking by word operations, not bit operations — a popcount
  // covers 64 patch positions at once.
  float* po = out.data();
  parallel_for(0, m, grain_for(w.rows * wpr * 8, m),
               [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::uint64_t* xr = xbits.data() + i * wpr;
      float* orow = po + i * w.rows;
      for (std::int64_t j = 0; j < w.rows; ++j) {
        const std::uint64_t* wr = w.row(j);
        std::int64_t disagree = 0;
        for (std::int64_t t = 0; t < wpr; ++t) {
          disagree += std::popcount(xr[t] ^ wr[t]);
        }
        // Trailing bits are zero in both packs, so they never disagree.
        orow[j] = static_cast<float>(k - 2 * disagree);
      }
    }
  });
}

void sign_linear(const Tensor& x, const PackedSigns& w, Tensor& out) {
  DDNN_PROF_SCOPE("sign_linear");
  const std::int64_t rows = w.bits.rows, k = w.bits.cols;
  DDNN_CHECK(x.ndim() == 2 && x.dim(1) == k, "sign_linear: in-feature mismatch");
  DDNN_CHECK(out.ndim() == 2 && out.dim(0) == x.dim(0) && out.dim(1) == rows,
             "sign_linear: bad output shape");
  const std::int64_t m = x.dim(0);
  const float* px = x.data();
  const float* st = w.signs_t.data();
  float* po = out.data();
  parallel_for(0, m, grain_for(k * rows, m),
               [&](std::int64_t lo, std::int64_t hi) {
    std::vector<float> acc(static_cast<std::size_t>(rows));
    for (std::int64_t i = lo; i < hi; ++i) {
      const float* xrow = px + i * k;
      for (std::int64_t j = 0; j < rows; ++j) acc[static_cast<std::size_t>(j)] = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float xv = xrow[kk];
        const float* s = st + kk * rows;
        // Independent accumulator per output feature; each feature's terms
        // arrive in kk order, matching ops::matmul_nt exactly (x * ±1.0f is
        // exact, so fused multiply-adds cannot change the rounding).
        for (std::int64_t j = 0; j < rows; ++j) {
          acc[static_cast<std::size_t>(j)] += xv * s[j];
        }
      }
      float* orow = po + i * rows;
      for (std::int64_t j = 0; j < rows; ++j) orow[j] = acc[static_cast<std::size_t>(j)];
    }
  });
}

void xnor_conv2d(const Tensor& x, const Conv2dGeometry& g,
                 const PackedConvBits& w, Tensor& out) {
  DDNN_PROF_SCOPE("xnor_conv2d");
  const std::int64_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  const std::int64_t f = w.filters, wpp = w.words_per_pixel;
  DDNN_CHECK(x.ndim() == 4 && x.dim(1) == g.in_channels && x.dim(2) == g.in_h &&
                 x.dim(3) == g.in_w,
             "xnor_conv2d: input/geometry mismatch");
  DDNN_CHECK(w.channels == g.in_channels && w.kernel_h == g.kernel_h &&
                 w.kernel_w == g.kernel_w,
             "xnor_conv2d: packed weight geometry mismatch");
  DDNN_CHECK(out.ndim() == 4 && out.dim(0) == n && out.dim(1) == f &&
                 out.dim(2) == oh && out.dim(3) == ow,
             "xnor_conv2d: bad output shape");

  // Channel-packed input: wpp words per input pixel. Per-thread scratch,
  // reused; bound to a local reference so the chunk lambdas capture *this*
  // thread's buffer (a lambda never captures a thread_local).
  const std::int64_t hw = g.in_h * g.in_w;
  static thread_local std::vector<std::uint64_t> xbits_tls;
  std::vector<std::uint64_t>& xbits = xbits_tls;
  xbits.assign(static_cast<std::size_t>(n * hw * wpp), 0);
  const float* px = x.data();
  parallel_for(0, n, grain_for(g.in_channels * hw, n),
               [&](std::int64_t blo, std::int64_t bhi) {
    pack_channel_planes(px, g.in_channels, hw, wpp, blo, bhi, xbits.data());
  });

  const std::int64_t taps = g.kernel_h * g.kernel_w;
  float* po = out.data();
  parallel_for(0, n * oh, grain_for(ow * taps * f * wpp * 8, n * oh),
               [&](std::int64_t rlo, std::int64_t rhi) {
    xnor_conv_rows(xbits.data(), w.bits.data(), g, f, wpp, rlo, rhi, po);
  });
}

void xnor_conv2d(const Tensor& x, const Conv2dGeometry& g, const PackedBits& w,
                 Tensor& out) {
  static thread_local PackedConvBits conv;
  pack_conv_bits(w, g.in_channels, g.kernel_h, g.kernel_w, conv);
  xnor_conv2d(x, g, conv, out);
}

void sign_conv2d(const Tensor& x, const Conv2dGeometry& g,
                 const PackedSigns& w, Tensor& out) {
  DDNN_PROF_SCOPE("sign_conv2d");
  const std::int64_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  const std::int64_t patch = g.patch_size(), f = w.bits.rows;
  DDNN_CHECK(x.ndim() == 4 && x.dim(1) == g.in_channels && x.dim(2) == g.in_h &&
                 x.dim(3) == g.in_w,
             "sign_conv2d: input/geometry mismatch");
  DDNN_CHECK(w.bits.cols == patch, "sign_conv2d: packed weight patch mismatch");
  DDNN_CHECK(out.ndim() == 4 && out.dim(0) == n && out.dim(1) == f &&
                 out.dim(2) == oh && out.dim(3) == ow,
             "sign_conv2d: bad output shape");

  const std::int64_t c = g.in_channels;
  const std::int64_t ph = g.in_h + 2 * g.pad;
  const std::int64_t tiles = (ow + kTileW - 1) / kTileW;
  const std::int64_t pw = std::max(g.in_w + 2 * g.pad,
                                   (tiles * kTileW - 1) * g.stride + g.kernel_w);
  const float* px = x.data();
  const float* st = w.signs_t.data();
  float* po = out.data();
  parallel_for(0, n, grain_for(oh * ow * patch * f, n),
               [&](std::int64_t blo, std::int64_t bhi) {
    // Zero-padded copy of one image, wide enough that the last tile's lanes
    // past `ow` still read inside the row. Per-thread scratch: each thread
    // pads the images of the chunks it runs.
    static thread_local std::vector<float> padded;
    padded.resize(static_cast<std::size_t>(c * ph * pw));
    for (std::int64_t b = blo; b < bhi; ++b) {
      std::fill(padded.begin(), padded.end(), 0.0f);
      for (std::int64_t p = 0; p < c; ++p) {
        for (std::int64_t iy = 0; iy < g.in_h; ++iy) {
          std::copy_n(px + ((b * c + p) * g.in_h + iy) * g.in_w, g.in_w,
                      padded.data() + (p * ph + iy + g.pad) * pw + g.pad);
        }
      }
      float* out_img = po + b * f * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        if (g.stride == 1) {
          sign_conv_row<1>(padded.data(), st, f, g, ph, pw, oy, oh, ow, out_img);
        } else {
          sign_conv_row<0>(padded.data(), st, f, g, ph, pw, oy, oh, ow, out_img);
        }
      }
    }
  });
}

}  // namespace ddnn::bitgemm
