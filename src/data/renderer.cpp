#include "data/renderer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace ddnn::data {

Canvas::Canvas(std::int64_t size)
    : size_(size), pixels_(Shape{3, size, size}) {
  DDNN_CHECK(size > 0, "Canvas: non-positive size");
}

void Canvas::set(std::int64_t x, std::int64_t y, const Color& c) {
  fill_rect(x, y, x, y, c);
}

void Canvas::blend(std::int64_t x, std::int64_t y, const Color& c,
                   float alpha) {
  if (x < 0 || x >= size_ || y < 0 || y >= size_) return;
  const float a = std::clamp(alpha, 0.0f, 1.0f);
  const std::int64_t at = y * size_ + x;
  float* pr = plane(0) + at;
  float* pg = plane(1) + at;
  float* pb = plane(2) + at;
  *pr = (1 - a) * *pr + a * c.r;
  *pg = (1 - a) * *pg + a * c.g;
  *pb = (1 - a) * *pb + a * c.b;
}

void Canvas::fill(const Color& c) { fill_rect(0, 0, size_ - 1, size_ - 1, c); }

void Canvas::fill_rect(std::int64_t x0, std::int64_t y0, std::int64_t x1,
                       std::int64_t y1, const Color& c) {
  const std::int64_t xa = std::max<std::int64_t>(x0, 0);
  const std::int64_t xb = std::min(x1, size_ - 1);
  const std::int64_t ya = std::max<std::int64_t>(y0, 0);
  const std::int64_t yb = std::min(y1, size_ - 1);
  if (xa > xb || ya > yb) return;
  const float rgb[3] = {c.r, c.g, c.b};
  for (int ch = 0; ch < 3; ++ch) {
    float* p = plane(ch);
    for (std::int64_t y = ya; y <= yb; ++y) {
      std::fill(p + y * size_ + xa, p + y * size_ + xb + 1, rgb[ch]);
    }
  }
}

void Canvas::fill_circle(float cx, float cy, float radius, const Color& c) {
  fill_ellipse(cx, cy, radius, radius, c);
}

void Canvas::fill_ellipse(float cx, float cy, float rx, float ry,
                          const Color& c) {
  if (rx <= 0.0f || ry <= 0.0f) return;
  // Clip the bounding box to the canvas once: the membership test then only
  // runs where a write can land.
  const auto y0 = std::max<std::int64_t>(
      static_cast<std::int64_t>(std::floor(cy - ry)), 0);
  const auto y1 = std::min<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(cy + ry)), size_ - 1);
  const auto x0 = std::max<std::int64_t>(
      static_cast<std::int64_t>(std::floor(cx - rx)), 0);
  const auto x1 = std::min<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(cx + rx)), size_ - 1);
  float* pr = plane(0);
  float* pg = plane(1);
  float* pb = plane(2);
  for (std::int64_t y = y0; y <= y1; ++y) {
    const std::int64_t row = y * size_;
    for (std::int64_t x = x0; x <= x1; ++x) {
      const float dx = (static_cast<float>(x) - cx) / rx;
      const float dy = (static_cast<float>(y) - cy) / ry;
      if (dx * dx + dy * dy <= 1.0f) {
        pr[row + x] = c.r;
        pg[row + x] = c.g;
        pb[row + x] = c.b;
      }
    }
  }
}

void Canvas::add_noise(Rng& rng, float sigma) {
  if (sigma <= 0.0f) return;
  const std::int64_t n = pixels_.numel();
  static thread_local std::vector<double> noise;
  noise.resize(static_cast<std::size_t>(n));
  rng.normal_fill(noise.data(), noise.size(), 0.0, sigma);
  float* p = pixels_.data();
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] += static_cast<float>(noise[static_cast<std::size_t>(i)]);
  }
}

void Canvas::scale_brightness(float factor) {
  // Kept as its own pass: folded into add_noise, p * factor + noise would
  // contract into one FMA and change the rounding of every pixel.
  float* p = pixels_.data();
  const std::int64_t n = pixels_.numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] *= factor;
}

void Canvas::clip() {
  float* p = pixels_.data();
  const std::int64_t n = pixels_.numel();
  for (std::int64_t i = 0; i < n; ++i) p[i] = std::clamp(p[i], 0.0f, 1.0f);
}

Tensor Canvas::take() && { return std::move(pixels_); }

namespace {

/// Map scene x to canvas x under the device viewpoint (stretch + mirror
/// around the image centre).
float view_x(const Viewpoint& view, float scene_x, float centre) {
  float x = centre + (scene_x - centre) * view.x_stretch;
  if (view.mirrored) x = 2.0f * centre - x;
  return x;
}

void render_car(Canvas& canvas, const Viewpoint& view, float cx, float cy,
                float scale, const Color& body, Rng& rng) {
  // Wide low body with a darker cabin and two dark wheels.
  const Color cabin{body.r * 0.6f, body.g * 0.6f, body.b * 0.6f};
  const Color wheel{0.05f, 0.05f, 0.08f};
  const float half_w = 9.0f * scale * view.x_stretch;
  const float half_h = 3.5f * scale;
  (void)rng;
  canvas.fill_ellipse(cx, cy, half_w, half_h, body);
  canvas.fill_ellipse(cx, cy - half_h * 0.9f, half_w * 0.55f, half_h * 0.8f,
                      cabin);
  const float wheel_r = 1.9f * scale;
  canvas.fill_circle(cx - half_w * 0.55f, cy + half_h, wheel_r, wheel);
  canvas.fill_circle(cx + half_w * 0.55f, cy + half_h, wheel_r, wheel);
}

void render_bus(Canvas& canvas, const Viewpoint& view, float cx, float cy,
                float scale, const Color& body, Rng& rng) {
  // Tall box with a row of light windows.
  const Color window{0.80f, 0.85f, 0.90f};
  const Color wheel{0.05f, 0.05f, 0.08f};
  (void)rng;
  const float half_w = 7.5f * scale * view.x_stretch;
  const float half_h = 8.5f * scale;
  canvas.fill_rect(static_cast<std::int64_t>(cx - half_w),
                   static_cast<std::int64_t>(cy - half_h),
                   static_cast<std::int64_t>(cx + half_w),
                   static_cast<std::int64_t>(cy + half_h), body);
  // Window band.
  const float wy = cy - half_h * 0.45f;
  for (int k = -1; k <= 1; ++k) {
    const float wx = cx + static_cast<float>(k) * half_w * 0.55f;
    canvas.fill_rect(static_cast<std::int64_t>(wx - 1.5f * scale),
                     static_cast<std::int64_t>(wy - 1.8f * scale),
                     static_cast<std::int64_t>(wx + 1.5f * scale),
                     static_cast<std::int64_t>(wy + 1.8f * scale), window);
  }
  canvas.fill_circle(cx - half_w * 0.6f, cy + half_h, 1.7f * scale, wheel);
  canvas.fill_circle(cx + half_w * 0.6f, cy + half_h, 1.7f * scale, wheel);
}

void render_person(Canvas& canvas, const Viewpoint& view, float cx, float cy,
                   float scale, const Color& body, Rng& rng) {
  // Thin vertical body with a skin-tone head and darker legs.
  const Color head{0.85f, 0.65f, 0.50f};
  const Color legs{body.r * 0.4f, body.g * 0.4f, body.b * 0.4f};
  (void)rng;
  const float half_w = 2.4f * scale * view.x_stretch;
  const float body_h = 6.0f * scale;
  canvas.fill_ellipse(cx, cy - 1.0f * scale, half_w, body_h, body);
  canvas.fill_circle(cx, cy - body_h - 2.2f * scale, 2.2f * scale, head);
  canvas.fill_rect(static_cast<std::int64_t>(cx - half_w * 0.8f),
                   static_cast<std::int64_t>(cy + body_h * 0.7f),
                   static_cast<std::int64_t>(cx + half_w * 0.8f),
                   static_cast<std::int64_t>(cy + body_h + 4.0f * scale), legs);
}

}  // namespace

void render_background(Canvas& canvas, const Viewpoint& view, Rng& rng) {
  const auto size = canvas.size();
  // Vertical gradient: sky-ish above, ground-ish below, tinted per device.
  for (std::int64_t y = 0; y < size; ++y) {
    const float t = static_cast<float>(y) / static_cast<float>(size - 1);
    Color c{view.background.r * (1.1f - 0.4f * t),
            view.background.g * (1.1f - 0.3f * t),
            view.background.b * (1.2f - 0.5f * t)};
    canvas.fill_rect(0, y, size - 1, y, c);
  }
  // A few random clutter blobs so the background is not trivially uniform.
  const int blobs = static_cast<int>(rng.uniform_int(2, 5));
  for (int i = 0; i < blobs; ++i) {
    const Color c{static_cast<float>(rng.uniform(0.2, 0.5)),
                  static_cast<float>(rng.uniform(0.2, 0.5)),
                  static_cast<float>(rng.uniform(0.2, 0.5))};
    canvas.fill_ellipse(static_cast<float>(rng.uniform(0.0, 32.0)),
                        static_cast<float>(rng.uniform(20.0, 32.0)),
                        static_cast<float>(rng.uniform(1.5, 4.0)),
                        static_cast<float>(rng.uniform(1.0, 2.5)), c);
  }
}

void render_object(Canvas& canvas, ObjectClass cls, const Viewpoint& view,
                   float scale, const Color& body, Rng& rng) {
  const float centre = static_cast<float>(canvas.size()) / 2.0f;
  const float jitter_x = static_cast<float>(rng.uniform(-3.0, 3.0));
  const float jitter_y = static_cast<float>(rng.uniform(-2.5, 2.5));
  const float cx = view_x(view, centre + jitter_x, centre);
  const float cy = centre + jitter_y;
  switch (cls) {
    case ObjectClass::kCar:
      render_car(canvas, view, cx, cy, scale, body, rng);
      break;
    case ObjectClass::kBus:
      render_bus(canvas, view, cx, cy, scale, body, rng);
      break;
    case ObjectClass::kPerson:
      render_person(canvas, view, cx, cy, scale, body, rng);
      break;
  }
}

void render_occlusion(Canvas& canvas, Rng& rng) {
  const Color grey{0.45f, 0.45f, 0.45f};
  const auto size = canvas.size();
  const auto w = rng.uniform_int(size / 4, size / 2);
  const auto h = rng.uniform_int(size / 3, (3 * size) / 4);
  const auto x0 = rng.uniform_int(0, size - w);
  const auto y0 = rng.uniform_int(0, size - h);
  canvas.fill_rect(x0, y0, x0 + w, y0 + h, grey);
}

Tensor blank_frame(std::int64_t size) {
  return Tensor::full(Shape{3, size, size}, 0.5f);
}

}  // namespace ddnn::data
