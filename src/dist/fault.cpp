#include "dist/fault.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ddnn::dist {

namespace {

// Salts separating the draw families so a drop decision never correlates
// with a jitter or availability draw at the same coordinates.
constexpr std::uint64_t kLinkDropSalt = 0x6c696e6b64726f70ull;   // "linkdrop"
constexpr std::uint64_t kDeviceDownSalt = 0x646576646f776e21ull; // "devdown!"
constexpr std::uint64_t kJitterSalt = 0x6a69747465722121ull;     // "jitter!!"

/// Retry backoff: the wait before the first retry, its growth per retry,
/// and the +- fraction of it a jitter draw spans.
constexpr double kBackoffBaseS = 10e-3;
constexpr double kBackoffFactor = 2.0;
constexpr double kJitterFrac = 0.2;

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Counter-mode seed derivation: mixes the plan seed with the entity id,
/// sample index, attempt number and a salt through splitmix64. The returned
/// value seeds a throwaway ddnn::Rng, so every stochastic decision flows
/// through the repo's one PRNG family and is a pure function of its
/// coordinates — independent of call order and thread count.
std::uint64_t mix(std::uint64_t seed, std::uint64_t entity,
                  std::int64_t sample, int attempt, std::uint64_t salt) {
  std::uint64_t state = seed;
  state ^= splitmix64(state) + entity;
  state ^= splitmix64(state) + static_cast<std::uint64_t>(sample);
  state ^= splitmix64(state) +
           static_cast<std::uint64_t>(attempt) * 0x632BE59BD9B4E019ull;
  state ^= splitmix64(state) + salt;
  return splitmix64(state);
}

void check_prob(double p, const char* what) {
  DDNN_CHECK(p >= 0.0 && p <= 1.0,
             what << " probability " << p << " outside [0, 1]");
}

}  // namespace

void FaultPlan::validate() const {
  check_prob(link_drop_prob, "link drop");
  for (const auto& [name, p] : link_drop_overrides) {
    check_prob(p, ("link '" + name + "' drop").c_str());
  }
  for (const auto& d : devices) {
    check_prob(d.intermittent_down_prob, "intermittent device down");
    DDNN_CHECK(d.permanent_fail_at >= -1,
               "permanent_fail_at must be a sample index or -1");
  }
  for (const auto& o : edge_outages) {
    DDNN_CHECK(o.group >= -1, "edge outage group must be an index or -1");
    DDNN_CHECK(o.start_sample >= 0 && o.end_sample >= o.start_sample,
               "edge outage window [" << o.start_sample << ", "
                                      << o.end_sample << ") is inverted");
  }
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  plan_.validate();
}

double FaultInjector::drop_prob(std::string_view link) const {
  const auto it = plan_.link_drop_overrides.find(std::string(link));
  return it != plan_.link_drop_overrides.end() ? it->second
                                               : plan_.link_drop_prob;
}

bool FaultInjector::drop(std::string_view link, std::int64_t sample,
                         int attempt) const {
  const double p = drop_prob(link);
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  Rng rng(mix(plan_.seed, fnv1a(link), sample, attempt, kLinkDropSalt));
  return rng.bernoulli(p);
}

bool FaultInjector::device_down(int branch, std::int64_t sample) const {
  if (branch < 0 || static_cast<std::size_t>(branch) >= plan_.devices.size()) {
    return false;
  }
  const auto& sched = plan_.devices[static_cast<std::size_t>(branch)];
  if (sched.permanent_fail_at >= 0 && sample >= sched.permanent_fail_at) {
    return true;
  }
  const double p = sched.intermittent_down_prob;
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  Rng rng(mix(plan_.seed, static_cast<std::uint64_t>(branch), sample, 0,
              kDeviceDownSalt));
  return rng.bernoulli(p);
}

bool FaultInjector::edge_down(int group, std::int64_t sample) const {
  for (const auto& o : plan_.edge_outages) {
    if (o.group != -1 && o.group != group) continue;
    if (sample >= o.start_sample && sample < o.end_sample) return true;
  }
  return false;
}

double FaultInjector::backoff_jitter(std::string_view link,
                                     std::int64_t sample, int attempt) const {
  Rng rng(mix(plan_.seed, fnv1a(link), sample, attempt, kJitterSalt));
  return rng.uniform();
}

void ReliabilityConfig::validate() const {
  DDNN_CHECK(max_retries >= 0, "negative retry budget");
  DDNN_CHECK(timeout_s > 0.0, "non-positive delivery deadline");
}

double retry_backoff_s(int retry, double u) {
  double backoff = kBackoffBaseS;
  for (int i = 0; i < retry; ++i) backoff *= kBackoffFactor;
  // Jitter is symmetric around the nominal backoff: [1-j, 1+j).
  return backoff * (1.0 + kJitterFrac * (2.0 * u - 1.0));
}

ReliableChannel::ReliableChannel(Link& link, const FaultInjector* injector,
                                 const ReliabilityConfig& config)
    : link_(link), injector_(injector), config_(config) {
  config_.validate();
}

SendResult ReliableChannel::send(const Message& msg,
                                 std::int64_t sample_index) {
  SendResult result;
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      const double u =
          injector_ ? injector_->backoff_jitter(link_.name(), sample_index,
                                                attempt)
                    : 0.5;
      result.latency_s += retry_backoff_s(attempt - 1, u);
    }
    ++result.attempts;
    if (injector_ && injector_->drop(link_.name(), sample_index, attempt)) {
      link_.record_drop(msg);
      ++result.dropped_attempts;
      result.latency_s += config_.timeout_s;  // sender waits out the deadline
      continue;
    }
    result.latency_s += link_.transmit(msg);
    result.delivered = true;
    break;
  }
  return result;
}

}  // namespace ddnn::dist
