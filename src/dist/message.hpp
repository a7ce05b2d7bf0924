// Wire format for the simulated distributed hierarchy.
//
// Three payload kinds cross physical boundaries in a DDNN (paper Sections
// III-E and IV-H):
//   * class scores     — float32 vector of length |C| (4*|C| bytes), sent by
//                        every device to the local aggregator for every
//                        sample, and by edges to the edge-exit coordinator;
//   * binary features  — bit-packed sign bits of a binarized feature map
//                        (f*o/8 bytes), sent upward when a sample does not
//                        exit locally; lossless because binarized activations
//                        are exactly +-1;
//   * raw image        — 1 byte per pixel per channel (3072 B for 3x32x32),
//                        the paper's traditional-offloading baseline.
//
// Shapes travel out of band: both endpoints know the architecture, exactly
// as a deployed DDNN's endpoints would.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tensor/tensor.hpp"

namespace ddnn::dist {

enum class MessageKind : std::uint8_t {
  kClassScores = 0,
  kBinaryFeatureMap = 1,
  kRawImage = 2,
};

const char* to_string(MessageKind kind);

struct Message {
  MessageKind kind = MessageKind::kClassScores;
  std::vector<std::uint8_t> payload;

  std::int64_t payload_bytes() const {
    return static_cast<std::int64_t>(payload.size());
  }
};

/// One message per branch of a stage (device, or edge group); nullopt where
/// nothing arrived.
using Messages = std::vector<std::optional<Message>>;

/// [C] or [1, C] float scores -> 4*C bytes (exact float32 round trip).
Message encode_class_scores(const Tensor& scores);
Tensor decode_class_scores(const Message& msg, std::int64_t num_classes);

/// Binarized tensor (+-1 values) -> ceil(numel/8) bytes (exact round trip).
Message encode_binary_feature_map(const Tensor& features);
Tensor decode_binary_feature_map(const Message& msg, Shape shape);

/// [0,1] float image -> 1 byte per value (quantized; the baseline the paper
/// charges 3072 B per 32x32 RGB frame for). Out-of-range values clamp to
/// [0, 1] before quantization.
Message encode_raw_image(const Tensor& image);
Tensor decode_raw_image(const Message& msg, Shape shape);

/// Decode a message of known shape, dispatching on the payload kind: class
/// scores ([1, C]); raw images, the config-(a) device payload and the
/// graceful-degradation raw-offload fallback; bit-packed binary features.
Tensor decode_features(const Message& msg, const Shape& shape);

}  // namespace ddnn::dist
