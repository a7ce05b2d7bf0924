#include "dist/message.hpp"

#include <cmath>
#include <cstring>

#include "tensor/bitgemm.hpp"
#include "tensor/bitpack.hpp"
#include "util/error.hpp"

namespace ddnn::dist {

const char* to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kClassScores: return "class-scores";
    case MessageKind::kBinaryFeatureMap: return "binary-features";
    case MessageKind::kRawImage: return "raw-image";
  }
  return "?";
}

Message encode_class_scores(const Tensor& scores) {
  DDNN_CHECK(scores.defined(), "encoding undefined tensor");
  DDNN_CHECK(scores.ndim() == 1 || (scores.ndim() == 2 && scores.dim(0) == 1),
             "class scores must be [C] or [1, C], got "
                 << scores.shape().to_string());
  Message msg;
  msg.kind = MessageKind::kClassScores;
  msg.payload.resize(static_cast<std::size_t>(scores.numel()) * sizeof(float));
  std::memcpy(msg.payload.data(), scores.data(), msg.payload.size());
  return msg;
}

Tensor decode_class_scores(const Message& msg, std::int64_t num_classes) {
  DDNN_CHECK(msg.kind == MessageKind::kClassScores,
             "expected class-scores, got " << to_string(msg.kind));
  DDNN_CHECK(num_classes > 0,
             "class-scores decode needs a positive class count, got "
                 << num_classes);
  DDNN_CHECK(msg.payload.size() ==
                 static_cast<std::size_t>(num_classes) * sizeof(float),
             "truncated or oversized class-scores payload: "
                 << msg.payload.size() << " B, want "
                 << num_classes * sizeof(float) << " B for " << num_classes
                 << " classes");
  Tensor t(Shape{1, num_classes});
  std::memcpy(t.data(), msg.payload.data(), msg.payload.size());
  return t;
}

Message encode_binary_feature_map(const Tensor& features) {
  DDNN_CHECK(features.defined(), "encoding undefined tensor");
  // Precondition: the tensor really is binarized (exact +-1), otherwise
  // packing would silently lose information. Only a failed check searches
  // for the offending index.
  if (!bitgemm::all_pm1(features)) {
    const float* p = features.data();
    std::int64_t i = 0;
    while (p[i] == 1.0f || p[i] == -1.0f) ++i;
    DDNN_CHECK(false, "feature map is not binarized at index " << i << ": "
                                                              << p[i]);
  }
  Message msg;
  msg.kind = MessageKind::kBinaryFeatureMap;
  msg.payload = pack_signs(features);
  return msg;
}

Tensor decode_binary_feature_map(const Message& msg, Shape shape) {
  DDNN_CHECK(msg.kind == MessageKind::kBinaryFeatureMap,
             "expected binary-features, got " << to_string(msg.kind));
  DDNN_CHECK(static_cast<std::int64_t>(msg.payload.size()) ==
                 packed_size_bytes(shape.numel()),
             "truncated or oversized binary-features payload: "
                 << msg.payload.size() << " B, want "
                 << packed_size_bytes(shape.numel()) << " B for shape "
                 << shape.to_string());
  return unpack_signs(msg.payload, std::move(shape));
}

Message encode_raw_image(const Tensor& image) {
  DDNN_CHECK(image.defined(), "encoding undefined tensor");
  Message msg;
  msg.kind = MessageKind::kRawImage;
  const std::int64_t n = image.numel();
  msg.payload.resize(static_cast<std::size_t>(n));
  const float* p = image.data();
  std::uint8_t* out = msg.payload.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float clipped = std::fmin(1.0f, std::fmax(0.0f, p[i]));
    out[i] = static_cast<std::uint8_t>(std::lround(clipped * 255.0f));
  }
  return msg;
}

Tensor decode_raw_image(const Message& msg, Shape shape) {
  DDNN_CHECK(msg.kind == MessageKind::kRawImage,
             "expected raw-image, got " << to_string(msg.kind));
  DDNN_CHECK(static_cast<std::int64_t>(msg.payload.size()) == shape.numel(),
             "truncated or oversized raw-image payload: "
                 << msg.payload.size() << " B, want " << shape.numel()
                 << " B for shape " << shape.to_string());
  Tensor t(std::move(shape));
  const std::int64_t n = t.numel();
  float* p = t.data();
  const std::uint8_t* in = msg.payload.data();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(in[i]) / 255.0f;
  }
  return t;
}

Tensor decode_features(const Message& msg, const Shape& shape) {
  switch (msg.kind) {
    case MessageKind::kClassScores:
      return decode_class_scores(msg, shape.dim(-1));
    case MessageKind::kRawImage:
      return decode_raw_image(msg, shape);
    case MessageKind::kBinaryFeatureMap:
      break;
  }
  return decode_binary_feature_map(msg, shape);
}

}  // namespace ddnn::dist
