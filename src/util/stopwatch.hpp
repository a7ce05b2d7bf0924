// Wall-clock stopwatch for coarse phase timing in benches and the trainer,
// and the steady-clock read the served hierarchy keeps its time in.
#pragma once

#include <chrono>

namespace ddnn {

/// Seconds on the steady clock since its epoch: the one time base of
/// wall-clock runtime passes, trace epochs, socket deadlines and handshake
/// clock offsets, so readings taken in different places subtract.
inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ddnn
