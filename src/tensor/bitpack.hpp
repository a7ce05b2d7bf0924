// Bit-packing of binarized activations for the wire format.
//
// After a binary activation every value is exactly -1.0f or +1.0f, so a
// feature map of `n` activations travels as ceil(n / 8) bytes. This is the
// `f * o / 8` term of the paper's communication-cost model (Eq. 1) and is
// what the simulated device->cloud links carry.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace ddnn {

/// Sign bits of 32 consecutive floats (bit j = 1 for p[j] >= 0). 32-bit
/// lanes let the compare-and-shift loop vectorize, which 64-bit ones do not.
inline std::uint32_t sign_bits32(const float* p) {
  std::uint32_t bits = 0;
  for (int j = 0; j < 32; ++j) {
    bits |= static_cast<std::uint32_t>(p[j] >= 0.0f) << j;
  }
  return bits;
}

/// Bytes needed to carry `numel` sign bits.
std::int64_t packed_size_bytes(std::int64_t numel);

/// Pack signs of `t` (bit = 1 for x >= 0). Trailing bits of the last byte
/// are zero.
std::vector<std::uint8_t> pack_signs(const Tensor& t);

/// Inverse of pack_signs: produces a tensor of the given shape with values
/// in {-1, +1}.
Tensor unpack_signs(const std::vector<std::uint8_t>& bytes, Shape shape);

}  // namespace ddnn
