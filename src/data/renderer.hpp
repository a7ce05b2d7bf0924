// Procedural renderer for the SynthMVMC dataset.
//
// Renders the three object classes of the paper's multi-view multi-camera
// dataset (car, bus, person) into 3x32x32 RGB images, as seen from a
// device-specific viewpoint. The class identity is carried by colour and
// coarse shape; the viewpoint is carried by horizontal anisotropy, mirroring
// and placement so that each device must learn its own filters (the paper's
// "geographically unique inputs").
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ddnn::data {

/// RGB colour with components in [0, 1].
struct Color {
  float r = 0.0f, g = 0.0f, b = 0.0f;
};

/// A 3x32x32 RGB canvas stored as a CHW tensor with values clipped to [0, 1].
class Canvas {
 public:
  explicit Canvas(std::int64_t size = 32);

  std::int64_t size() const { return size_; }

  void set(std::int64_t x, std::int64_t y, const Color& c);
  /// Alpha-blend `c` over the existing pixel.
  void blend(std::int64_t x, std::int64_t y, const Color& c, float alpha);

  void fill(const Color& c);
  void fill_rect(std::int64_t x0, std::int64_t y0, std::int64_t x1,
                 std::int64_t y1, const Color& c);
  void fill_circle(float cx, float cy, float radius, const Color& c);
  void fill_ellipse(float cx, float cy, float rx, float ry, const Color& c);

  void add_noise(Rng& rng, float sigma);
  void scale_brightness(float factor);
  /// Clip all values to [0, 1].
  void clip();

  /// Hand the finished image over without a copy; the canvas is spent.
  Tensor take() &&;

 private:
  float* plane(int channel) {
    return pixels_.data() + channel * size_ * size_;
  }

  std::int64_t size_;
  Tensor pixels_;  // [3, size, size]
};

/// How a device sees the world.
struct Viewpoint {
  /// Horizontal anisotropy: widths are multiplied by this (0.5 = oblique
  /// view, 1 = frontal).
  float x_stretch = 1.0f;
  /// Mirror the scene horizontally.
  bool mirrored = false;
  /// Base background tint for this camera position.
  Color background{0.35f, 0.38f, 0.35f};
};

enum class ObjectClass : int { kCar = 0, kBus = 1, kPerson = 2 };

/// Render `cls` on `canvas` as seen from `view`, with randomized placement
/// jitter. `scale` in (0, 1.5] controls apparent object size. `body` is the
/// object's paint colour: it is randomized PER OBJECT (not per class) and
/// shared across all devices observing that object, so class identity is
/// carried by geometry (aspect ratio, wheels, window band, head/legs), not
/// by colour — which is what makes shallow device models genuinely weaker
/// than the deeper cloud section, as in the paper's real-image task.
void render_object(Canvas& canvas, ObjectClass cls, const Viewpoint& view,
                   float scale, const Color& body, Rng& rng);

/// Paint the device-specific background (tint + vertical gradient + clutter).
void render_background(Canvas& canvas, const Viewpoint& view, Rng& rng);

/// Cover a random rectangle of the canvas with flat grey (simulated
/// occlusion by scene objects).
void render_occlusion(Canvas& canvas, Rng& rng);

/// The all-grey "object not present in this frame" image.
Tensor blank_frame(std::int64_t size = 32);

}  // namespace ddnn::data
