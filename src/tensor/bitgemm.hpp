// Bit-packed GEMM kernels for binarized inference.
//
// A binarized layer's weights are ±1, so a row of K weights packs into
// ceil(K/64) words of sign bits (bit = 1 for w >= 0, the same convention as
// bitpack.hpp and ops::sign). Two kernel families execute against the pack:
//
//   XNOR-popcount  — when the input is itself ±1, a K-term dot product is
//                    valid_count - 2*popcount(x ^ w): pure integer
//                    arithmetic, exact, then converted to float (lossless
//                    for K < 2^24).
//   sign-accumulate — when the input is full-precision float (raw images,
//                    CC-projected feature maps), terms x * (±1) are
//                    accumulated in exactly the order ops::matmul_nt uses
//                    (patch index ascending). Multiplying by ±1.0f is exact
//                    in IEEE-754, so the partial sums match the float path
//                    bit-for-bit.
//
// Both are therefore bit-identical to the autograd path (im2col + float
// GEMM over sign(w)). The convolution kernels consume the input directly (no
// materialized col matrix) and write NCHW output in place:
//
//   xnor_conv2d packs the input channel-major per pixel (ceil(C/64) words
//   per pixel, bit c%64 of word c/64 = sign of channel c) and the weights
//   tap-major as [tap][word][filter] (PackedConvBits), so the inner popcount
//   loop runs over contiguous filters and vectorizes. Out-of-bounds taps are
//   skipped, so an output's valid count is C times its number of in-bounds
//   taps; channel bits past C are zero in both packs and never disagree.
//
//   sign_conv2d copies each image once into a zero-padded per-thread scratch
//   image and accumulates a block of filters x a span of output columns in
//   registers, adding each output's taps in ascending (c, ky, kx) order.
//   x * (±1) is exact, so the only rounding is in the accumulation, and each
//   output's terms arrive in the order matmul_nt adds them. A padded term
//   is 0 * (±1) = ±0 — the same term im2col feeds matmul_nt. Adding it also
//   equals skipping it: an accumulator that starts at +0.0f can never become
//   -0.0f (a round-to-nearest sum is -0 only when both addends are -0), and
//   y + ±0 == y for every other y, NaN and ±inf included.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace ddnn::bitgemm {

/// Sign bits of a [rows, cols] matrix, one 64-bit-word-aligned row each
/// (LSB-first within a word; trailing bits of the last word are zero).
struct PackedBits {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t words_per_row = 0;
  std::vector<std::uint64_t> bits;

  const std::uint64_t* row(std::int64_t r) const {
    return bits.data() + r * words_per_row;
  }
};

/// A binarized weight matrix in both kernel forms: packed sign bits for the
/// XNOR path and a transposed ±1.0f matrix (signs_t[k * rows + r]) for the
/// sign-accumulate path, where consecutive output features are contiguous.
struct PackedSigns {
  PackedBits bits;
  std::vector<float> signs_t;
};

/// Pack the sign bits of `rows` x `cols` row-major floats into `out`
/// (bit = 1 for x >= 0). Reuses out's storage when already sized.
void pack_sign_rows(const float* data, std::int64_t rows, std::int64_t cols,
                    PackedBits& out);

/// Both kernel forms of a binarized [rows, cols] weight matrix.
PackedSigns pack_signs_matrix(const float* data, std::int64_t rows,
                              std::int64_t cols);

/// Sign bits of a binarized [F, C, KH, KW] convolution weight in the
/// channel-packed conv form: tap t = ky*KW + kx holds words_per_pixel =
/// ceil(C/64) words per filter, word-major, whose bit c%64 of word c/64 is
/// the sign of channel c (trailing bits zero).
struct PackedConvBits {
  std::int64_t filters = 0;
  std::int64_t channels = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t words_per_pixel = 0;
  std::vector<std::uint64_t> bits;  // [tap][word][filter]
};

/// Regroup the im2col-ordered rows of `w` (F rows of C*KH*KW bits, patch
/// index (c*KH + ky)*KW + kx) into the conv form. Reuses out's storage.
void pack_conv_bits(const PackedBits& w, std::int64_t channels,
                    std::int64_t kernel_h, std::int64_t kernel_w,
                    PackedConvBits& out);

/// True when every element is exactly +1.0f or -1.0f (selects the XNOR
/// path; binary-activation outputs always qualify).
bool all_pm1(const Tensor& t);

/// y[m, out] = x · signs(w)^T for ±1 input x [m, k] (XNOR-popcount).
/// Bit-identical to ops::matmul_nt(x, sign(w)).
void xnor_linear(const Tensor& x, const PackedBits& w, Tensor& out);

/// y[m, out] = x · signs(w)^T for arbitrary float x (sign-accumulate).
void sign_linear(const Tensor& x, const PackedSigns& w, Tensor& out);

/// Binary convolution over a ±1 input: channel-packed XNOR-popcount over
/// the conv-form weights, writing [N, F, OH, OW].
void xnor_conv2d(const Tensor& x, const Conv2dGeometry& g,
                 const PackedConvBits& w, Tensor& out);

/// The same convolution from im2col-ordered weight rows: regroups `w` into
/// the conv form (per-thread scratch) and runs the kernel above.
void xnor_conv2d(const Tensor& x, const Conv2dGeometry& g, const PackedBits& w,
                 Tensor& out);

/// Binary convolution over a float input: register-tiled sign-accumulate
/// over a zero-padded copy of the input, taps in im2col order (c, ky, kx).
void sign_conv2d(const Tensor& x, const Conv2dGeometry& g,
                 const PackedSigns& w, Tensor& out);

}  // namespace ddnn::bitgemm
