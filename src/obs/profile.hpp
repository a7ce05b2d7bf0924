// Wall-clock profiling hooks for the hot paths.
//
// DDNN_PROFILE=1 (or set_profiling_enabled(true), e.g. from the CLI's
// --profile flag) arms scoped timers placed around the tensor kernels
// (matmul, im2col, the bitgemm XNOR/sign kernels), the model's section
// methods, the aggregator fuse and the trainer's per-batch phases. Each
// sample aggregates into a per-op (calls, total ns) table.
//
// These timers measure *wall-clock* time and are the one part of the
// observability layer that is allowed to be nondeterministic; they never
// appear in traces or metrics exports that carry the determinism contract
// (docs/ARCHITECTURE.md "Observability"). When profiling is disabled a hook
// costs one relaxed atomic load and a predictable branch — measured < 2%
// of a device section's time (the acceptance bar).
//
// Recording is sharded per thread (same scheme as obs::Counter), so pool
// workers never contend on a cache line.
#pragma once

#include <chrono>
#include <cstdint>

#include "util/table.hpp"

namespace ddnn::obs {

/// Is profiling armed? Initialized from DDNN_PROFILE, overridable below.
bool profiling_enabled();
void set_profiling_enabled(bool on);

/// Register (or look up) an op name; returns its stable id. Call once per
/// site via the static local inside DDNN_PROF_SCOPE.
int profile_register_op(const char* name);

/// Account `ns` nanoseconds and one call to op `op`.
void profile_record(int op, std::int64_t ns);

/// Per-op profile: Op | Calls | Total ms | us/call | %, sorted by total
/// time descending. Empty table (no rows) when nothing was recorded.
Table profile_table();

/// Total calls recorded for one op (tests).
std::int64_t profile_calls(const char* name);

/// Zero all per-op accumulators (op registrations survive).
void profile_reset();

/// RAII timer; near-free when profiling is disabled.
class ProfileScope {
 public:
  explicit ProfileScope(int op)
      : op_(op), active_(profiling_enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ProfileScope() {
    if (active_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      profile_record(op_, ns);
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  int op_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ddnn::obs

#define DDNN_PROF_CAT2(a, b) a##b
#define DDNN_PROF_CAT(a, b) DDNN_PROF_CAT2(a, b)

/// Time the enclosing scope under `name` when profiling is armed. The op id
/// is resolved once per call site (thread-safe static init).
#define DDNN_PROF_SCOPE(name)                                    \
  static const int DDNN_PROF_CAT(ddnn_prof_op_, __LINE__) =      \
      ::ddnn::obs::profile_register_op(name);                    \
  ::ddnn::obs::ProfileScope DDNN_PROF_CAT(ddnn_prof_scope_,      \
                                          __LINE__)(             \
      DDNN_PROF_CAT(ddnn_prof_op_, __LINE__))
