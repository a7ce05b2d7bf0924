// Fault injection and reliability for the simulated hierarchy.
//
// The paper's fault-tolerance claim (Section IV-G) is that a DDNN keeps
// classifying when end devices fail, losing accuracy gradually. Real
// deployments fail in more ways than a permanently dead camera: links drop
// packets, devices flap, a whole edge tier goes dark for a while. This
// header provides
//
//   * FaultPlan      — a declarative, seeded description of what goes wrong
//                      (per-link drop probability, per-device permanent and
//                      intermittent failure schedules, edge-tier outages);
//   * FaultInjector  — the deterministic oracle the runtime consults. Every
//                      decision is a pure function of (seed, identifiers):
//                      hashed counter-mode draws through ddnn::Rng, so the
//                      same plan produces bit-identical failures regardless
//                      of call order, thread count or repetition;
//   * ReliableChannel — deadline-based timeout + bounded retry with
//                      exponential backoff and seeded jitter on top of a
//                      Link. With no injector it degenerates to exactly one
//                      attempt with plain link latency, so fault-free runs
//                      are byte- and latency-identical to the seed behavior.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dist/link.hpp"

namespace ddnn::dist {

/// Failure schedule for one device (model branch), in sample-index time.
struct DeviceFaultSchedule {
  /// Device is permanently down from this sample index on (-1 = never).
  std::int64_t permanent_fail_at = -1;
  /// Probability the device is unreachable for any given sample (flapping
  /// radio, duty-cycled sensor). Drawn independently per sample.
  double intermittent_down_prob = 0.0;
};

/// One edge-tier outage window, in sample-index time.
struct EdgeOutage {
  int group = -1;  ///< edge group index; -1 = every edge group
  std::int64_t start_sample = 0;
  std::int64_t end_sample = 0;  ///< half-open: [start_sample, end_sample)
};

/// Declarative description of everything that goes wrong in a run.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Default per-attempt drop probability for every link.
  double link_drop_prob = 0.0;
  /// Per-link overrides, keyed by Link::name().
  std::unordered_map<std::string, double> link_drop_overrides;
  /// Per-device schedules, indexed by model branch. Devices beyond the
  /// vector's size are healthy.
  std::vector<DeviceFaultSchedule> devices;
  std::vector<EdgeOutage> edge_outages;

  /// Throws ddnn::Error on out-of-range probabilities or inverted windows.
  void validate() const;
};

/// Deterministic failure oracle. Stateless after construction: every query
/// hashes (plan seed, entity id, sample index, attempt) into a fresh
/// ddnn::Rng draw, so results do not depend on query order.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Is transmission attempt `attempt` of this sample's message on `link`
  /// lost in flight?
  bool drop(std::string_view link, std::int64_t sample, int attempt) const;

  /// Is device `branch` unreachable for `sample` (permanent schedule or
  /// intermittent draw)?
  bool device_down(int branch, std::int64_t sample) const;

  /// Is edge group `group` inside an outage window at `sample`?
  bool edge_down(int group, std::int64_t sample) const;

  /// Uniform [0, 1) jitter draw for the backoff before `attempt`.
  double backoff_jitter(std::string_view link, std::int64_t sample,
                        int attempt) const;

  /// Effective drop probability for a link (override or default).
  double drop_prob(std::string_view link) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
};

/// Retry/timeout policy for a ReliableChannel (and the socket transport).
/// The wait before each retry is fixed: see retry_backoff_s().
struct ReliabilityConfig {
  int max_retries = 2;       ///< re-attempts after the first send
  double timeout_s = 50e-3;  ///< per-attempt delivery deadline

  void validate() const;
};

/// The wait before re-attempt `retry` (0 = the first retry): 10 ms, doubled
/// per retry, scaled by a jitter draw `u` in [0, 1) to [0.8, 1.2) of that.
/// u = 0.5 is the jitter-free wait, what a send without a FaultInjector
/// (and every socket retry) waits.
double retry_backoff_s(int retry, double u = 0.5);

/// Outcome of one reliable send.
struct SendResult {
  bool delivered = false;
  int attempts = 0;         ///< total transmissions (1 + retries performed)
  int dropped_attempts = 0; ///< attempts lost in flight
  double latency_s = 0.0;   ///< transmit + timeout + backoff time elapsed
};

/// Deadline/retry/backoff wrapper around a Link. Cheap to construct per
/// send; all persistent accounting lives in LinkStats and the caller's
/// metrics.
class ReliableChannel {
 public:
  /// `injector` may be null: then every send is delivered on the first
  /// attempt at plain link latency.
  ReliableChannel(Link& link, const FaultInjector* injector,
                  const ReliabilityConfig& config);

  /// Attempt delivery of `msg` for sample `sample_index`, retrying dropped
  /// attempts up to config.max_retries times. A dropped attempt costs the
  /// full timeout; each retry is preceded by retry_backoff_s() of a seeded
  /// jitter draw.
  SendResult send(const Message& msg, std::int64_t sample_index);

 private:
  Link& link_;
  const FaultInjector* injector_;
  ReliabilityConfig config_;
};

}  // namespace ddnn::dist
