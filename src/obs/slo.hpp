// SloEngine: declarative service-level objectives evaluated over rolling
// windows on a deterministic clock, with multi-window burn-rate alerting.
//
// Each objective is a good/bad event ratio (latency-under-threshold,
// availability = 1 - degraded/dead fraction, ...) with a target (e.g.
// 0.99). The engine buckets events on the recording clock and evaluates
// two rolling windows per objective — a fast window (minutes of simulated
// time: catches sharp regressions quickly) and a slow window (the averaged
// view: filters one-off blips). The burn rate of a window is
//
//     burn = (bad fraction over the window) / (1 - target)
//
// i.e. how many times faster than "exactly on target" the error budget is
// being spent; 1.0 means the tier is consuming its budget exactly at the
// allowed rate. An objective degrades to `warn` when BOTH windows burn at
// 1.0 or more, and to `critical` when both burn at 2.0 or more — the
// standard multi-window rule: the fast window says "it is happening now",
// the slow window says "it is not just a blip".
//
// Determinism contract (docs/OBSERVABILITY.md): record() is single-writer
// on a monotone simulated clock (the same clocks WindowedSeries keys on),
// buckets are integer good/bad counts, and evaluation/export walk
// objectives in registration order — so to_json()/to_table() are
// byte-identical across reruns and DDNN_THREADS.
//
// health_from_metrics() is the snapshot sibling: serve roles have no
// deterministic simulated clock, so their kHealth answer is derived from
// the frozen MetricsRegistry export (p99 vs a 250 ms threshold,
// availability from the degraded/dead counters vs a 0.99 target) rather
// than from rolling windows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace ddnn::obs {

enum class HealthState { kOk, kWarn, kCritical };

const char* to_string(HealthState s);
/// Worse of two states (critical > warn > ok).
HealthState worse(HealthState a, HealthState b);

/// One declarative objective: a good-event ratio target over rolling
/// windows. Windows are in recording-clock units (simulated seconds).
struct SloObjective {
  std::string name;        ///< unique id, e.g. "fleet.latency"
  std::string tier;        ///< tier it scores, e.g. "edge", "cloud", "fleet"
  double target = 0.99;    ///< required good fraction, in (0, 1]
  double fast_window = 60.0;   ///< "is it happening now" window
  double slow_window = 600.0;  ///< "is it sustained" window
};

/// Evaluated state of one objective at the current clock.
struct SloStatus {
  std::string name;
  std::string tier;
  double target = 0.0;
  std::int64_t good = 0;  ///< lifetime good events
  std::int64_t bad = 0;   ///< lifetime bad events
  double ratio = 1.0;     ///< lifetime good fraction (1 when no events)
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  HealthState state = HealthState::kOk;
};

struct TierHealth {
  std::string tier;
  HealthState state = HealthState::kOk;
};

class SloEngine {
 public:
  SloEngine() = default;
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Get-or-create by objective name (re-adding ignores the new config,
  /// mirroring MetricsRegistry registration). Returns the objective id.
  int add_objective(const SloObjective& objective);
  /// Id of a registered objective (-1 when unknown).
  int objective_id(const std::string& name) const;

  /// Record one event outcome at clock `t` (monotone per engine, >= 0).
  /// Inline while `t` stays in the objective's open bucket; the checks and
  /// the bucket advance run out of line.
  void record(int id, double t, bool good) {
    if (static_cast<std::size_t>(id) < objectives_.size()) {
      Objective& o = objectives_[static_cast<std::size_t>(id)];
      if (t >= last_t_ && t >= o.open_lo && t < o.open_hi) {
        last_t_ = t;
        if (good) {
          ++o.good[o.open_bucket];
          ++o.total_good;
        } else {
          ++o.bad[o.open_bucket];
          ++o.total_bad;
        }
        return;
      }
    }
    record_slow(id, t, good);
  }

  /// Evaluate every objective at the latest recorded clock, in
  /// registration order.
  std::vector<SloStatus> evaluate() const;
  /// Worst objective state per tier, in first-seen tier order.
  std::vector<TierHealth> tier_health() const;
  /// Worst state across all objectives.
  HealthState overall() const;

  std::size_t objective_count() const { return objectives_.size(); }

  /// Deterministic health document: objectives (registration order), tiers
  /// (first-seen order), overall. Byte-identical across reruns.
  std::string to_json() const;
  /// Objective | Tier | Target | Ratio | Fast burn | Slow burn | State.
  Table to_table() const;

 private:
  struct Objective {
    SloObjective config;
    double bucket_width = 5.0;  ///< fast_window / 12
    std::vector<std::int64_t> good;  ///< per-bucket counts, index = bucket
    std::vector<std::int64_t> bad;
    std::int64_t total_good = 0;
    std::int64_t total_bad = 0;
    /// Clock range [open_lo, open_hi) of bucket open_bucket, the last one
    /// recorded into (window_start() math: membership is exactly
    /// static_cast<size_t>(t / bucket_width)); empty until the first
    /// record.
    std::size_t open_bucket = 0;
    double open_lo = 0.0;
    double open_hi = 0.0;
  };

  void record_slow(int id, double t, bool good);

  /// Burn rate over the trailing `window` ending at the current clock.
  double window_burn(const Objective& o, double window) const;
  SloStatus status_of(const Objective& o) const;

  std::vector<Objective> objectives_;  // registration order
  double last_t_ = 0.0;
};

/// Snapshot health for roles without a deterministic simulated clock
/// (`ddnn serve`'s kHealth frame): derives per-signal latency states (p99
/// of every *latency_ms hdr metric vs 250 ms) and an availability state
/// (degraded/dead counters vs total samples, against a 0.99 target) from a
/// frozen MetricsRegistry JSON export. Output is byte-identical for
/// identical metrics JSON.
std::string health_from_metrics(const std::string& metrics_json);

}  // namespace ddnn::obs
