#include "tensor/bitpack.hpp"

namespace ddnn {

std::int64_t packed_size_bytes(std::int64_t numel) {
  DDNN_CHECK(numel >= 0, "negative element count");
  return (numel + 7) / 8;
}

std::vector<std::uint8_t> pack_signs(const Tensor& t) {
  DDNN_CHECK(t.defined(), "pack_signs of undefined tensor");
  const std::int64_t n = t.numel();
  DDNN_CHECK(n > 0, "pack_signs of empty tensor (shape "
                        << t.shape().to_string() << ")");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(packed_size_bytes(n)),
                                  0);
  const float* p = t.data();
  std::uint8_t* out = bytes.data();
  // Whole words first, stored as four LSB-first bytes (byte k holds bits
  // 8k..8k+7, whatever the host's endianness).
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const std::uint32_t word = sign_bits32(p + i);
    for (int k = 0; k < 4; ++k) {
      out[i / 8 + k] = static_cast<std::uint8_t>(word >> (8 * k));
    }
  }
  for (; i < n; ++i) {
    out[i / 8] |= static_cast<std::uint8_t>((p[i] >= 0.0f) << (i % 8));
  }
  return bytes;
}

Tensor unpack_signs(const std::vector<std::uint8_t>& bytes, Shape shape) {
  const std::int64_t n = shape.numel();
  DDNN_CHECK(n > 0, "unpack_signs to empty shape " << shape.to_string());
  DDNN_CHECK(static_cast<std::int64_t>(bytes.size()) == packed_size_bytes(n),
             "unpack_signs: byte count " << bytes.size()
                                         << " does not match shape "
                                         << shape.to_string());
  Tensor t(std::move(shape));
  float* p = t.data();
  const std::uint8_t* in = bytes.data();
  // Whole 32-bit words first (as in pack_signs, the width that vectorizes).
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint32_t word = 0;
    for (int k = 0; k < 4; ++k) {
      word |= static_cast<std::uint32_t>(in[i / 8 + k]) << (8 * k);
    }
    for (int j = 0; j < 32; ++j) {
      p[i + j] = (word >> j) & 1 ? 1.0f : -1.0f;
    }
  }
  for (; i < n; ++i) {
    p[i] = (in[i / 8] >> (i % 8)) & 1 ? 1.0f : -1.0f;
  }
  return t;
}

}  // namespace ddnn
