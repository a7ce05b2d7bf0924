#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ddnn {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One accepted Marsaglia polar pair: u, v uniform in [-1, 1) with
/// 0 < s = u^2 + v^2 < 1.
struct PolarPair {
  double u, v, s;
};

// normal() and normal_fill() share these two helpers, so both evaluate the
// same expressions and draw bit-identical streams.
inline PolarPair draw_polar(Rng& rng) {
  PolarPair p{};
  do {
    p.u = rng.uniform(-1.0, 1.0);
    p.v = rng.uniform(-1.0, 1.0);
    p.s = p.u * p.u + p.v * p.v;
  } while (p.s >= 1.0 || p.s == 0.0);
  return p;
}

inline double polar_scale(double s) {
  return std::sqrt(-2.0 * std::log(s) / s);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // Take the top 53 bits for a uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  const PolarPair p = draw_polar(*this);
  const double m = polar_scale(p.s);
  cached_normal_ = p.v * m;
  has_cached_normal_ = true;
  return p.u * m;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

void Rng::normal_fill(double* out, std::size_t n, double mean,
                      double stddev) {
  std::size_t i = 0;
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    out[i++] = mean + stddev * cached_normal_;
  }
  // Per block: draw every accepted pair first (the rejection loop is serial
  // in the generator state), then run the independent log/sqrt transforms,
  // which pipeline instead of waiting on the next draw.
  constexpr std::size_t kBlock = 128;
  PolarPair pairs[kBlock] = {};
  while (i < n) {
    const std::size_t count = std::min(kBlock, (n - i + 1) / 2);
    for (std::size_t k = 0; k < count; ++k) pairs[k] = draw_polar(*this);
    for (std::size_t k = 0; k < count; ++k) {
      const double m = polar_scale(pairs[k].s);
      const double first = pairs[k].u * m;
      const double second = pairs[k].v * m;
      out[i++] = mean + stddev * first;
      if (i < n) {
        out[i++] = mean + stddev * second;
      } else {
        cached_normal_ = second;
        has_cached_normal_ = true;
      }
    }
  }
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  DDNN_CHECK(n > 0, "uniform_index requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ull - (~0ull % n);
  std::uint64_t x = 0;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DDNN_CHECK(lo <= hi, "uniform_int requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace ddnn
