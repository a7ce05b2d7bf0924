// Shared order-statistics helpers.
//
// Nearest-rank percentiles appear in two places (the exact sorted-sample
// read behind dist::FleetStats, and obs::HdrHistogram's
// bucket read); the HDR read must stay within its relative error bound of
// the exact one (tests/test_obs.cpp), so the rank arithmetic lives here
// exactly once.
#pragma once

#include <cstdint>
#include <vector>

namespace ddnn {

/// 1-based nearest rank for percentile q over n samples:
/// clamp(ceil(q * n), 1, n). q must be in (0, 1] and n >= 1.
std::int64_t nearest_rank(double q, std::int64_t n);

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank nearest_rank(q, n). Example: n=100, q=0.95 -> the 95th
/// smallest value (index 94), not the 96th.
double percentile_nearest_rank(const std::vector<double>& sorted_ascending,
                               double q);

}  // namespace ddnn
