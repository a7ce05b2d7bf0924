// Wall-clock profiling hooks for the hot paths.
//
// DDNN_PROFILE=1 (or set_profiling_enabled(true), e.g. from the CLI's
// --profile flag) arms scoped timers placed around the tensor kernels
// (matmul, im2col, the bitgemm XNOR/sign kernels), the model's section
// methods, the aggregator fuse and the trainer's per-batch phases. Each
// timed call books into obs::global_metrics() under two names: an HDR
// histogram `prof.<op>.us` (calls and percentiles, microseconds) and a
// counter `prof.<op>.total_ns` (the exact summed time).
//
// These timers measure *wall-clock* time and are the one nondeterministic
// part of a metrics export (docs/ARCHITECTURE.md "Observability"). A site
// registers its two entries on its first armed call, so an unarmed run
// registers nothing and its exports keep the determinism contract. When
// profiling is disabled a hook costs one relaxed atomic load and a
// predictable branch — measured < 2% of a device section's time (the
// acceptance bar). Registry counters and histograms shard per thread, so
// pool workers never contend on a cache line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace ddnn::obs {

/// Layout of every prof.<op>.us histogram: nanosecond resolution up to an
/// hour, in microseconds.
inline constexpr double kProfileUnitUs = 1e-3;
inline constexpr double kProfileMaxUs = 3.6e9;

/// Is profiling armed? Initialized from DDNN_PROFILE, overridable below.
bool profiling_enabled();
void set_profiling_enabled(bool on);

/// One DDNN_PROF_SCOPE call site. Constant-initialised, so a site costs no
/// guarded static; its registry entries are bound on the first record().
class ProfileSite {
 public:
  constexpr explicit ProfileSite(const char* op) : op_(op) {}

  /// Book one call that took `ns` nanoseconds.
  void record(std::int64_t ns);

 private:
  const char* op_;
  // Get-or-create makes concurrent first calls bind the same entries;
  // total_ns_ is stored before us_ is published (release).
  std::atomic<HdrHistogram*> us_{nullptr};
  std::atomic<Counter*> total_ns_{nullptr};
};

/// RAII timer; near-free when profiling is disabled.
class ProfileScope {
 public:
  explicit ProfileScope(ProfileSite& site)
      : site_(site), active_(profiling_enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ProfileScope() {
    if (active_) {
      site_.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  ProfileSite& site_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ddnn::obs

#define DDNN_PROF_CAT2(a, b) a##b
#define DDNN_PROF_CAT(a, b) DDNN_PROF_CAT2(a, b)

/// Time the enclosing scope as op `name` when profiling is armed.
#define DDNN_PROF_SCOPE(name)                                        \
  constinit static ::ddnn::obs::ProfileSite DDNN_PROF_CAT(           \
      ddnn_prof_site_, __LINE__){name};                              \
  ::ddnn::obs::ProfileScope DDNN_PROF_CAT(ddnn_prof_scope_, __LINE__)( \
      DDNN_PROF_CAT(ddnn_prof_site_, __LINE__))
