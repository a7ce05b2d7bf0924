// Deterministic pseudo-random number generation.
//
// Every stochastic component in this repository (weight init, dataset
// synthesis, shuffling, failure injection) draws from ddnn::Rng, which wraps
// xoshiro256** seeded through splitmix64. Two Rng instances constructed with
// the same seed produce identical streams on every platform, which makes all
// tables and figures in EXPERIMENTS.md bit-reproducible.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ddnn {

/// splitmix64 step; used to expand a single 64-bit seed into xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic PRNG (xoshiro256**) with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via the Marsaglia polar method.
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Fill out[0, n) with normal(mean, stddev) draws: bit-identical values
  /// and end state to n successive calls, but the polar method's
  /// transforms run in batches instead of one call per value.
  void normal_fill(double* out, std::size_t n, double mean, double stddev);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Fisher–Yates shuffle of v.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A fresh Rng whose stream is independent of (but derived from) this one.
  /// Used to give each dataset sample / experiment arm its own sub-stream so
  /// that changing one arm does not perturb the others.
  Rng fork();

 private:
  std::array<std::uint64_t, 4> state_{};
  // Cached second output of the polar method.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ddnn
