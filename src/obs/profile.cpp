#include "obs/profile.hpp"

#include <string>

#include "util/env.hpp"

namespace ddnn::obs {

namespace {

std::atomic<bool> g_enabled{[] {
  return env_bool("DDNN_PROFILE", false);
}()};

}  // namespace

bool profiling_enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void set_profiling_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void ProfileSite::record(std::int64_t ns) {
  HdrHistogram* us = us_.load(std::memory_order_acquire);
  if (us == nullptr) {
    MetricsRegistry& registry = global_metrics();
    const std::string prefix = std::string("prof.") + op_;
    us = &registry.hdr_histogram(prefix + ".us", kProfileUnitUs,
                                 kProfileMaxUs);
    total_ns_.store(&registry.counter(prefix + ".total_ns"),
                    std::memory_order_relaxed);
    us_.store(us, std::memory_order_release);
  }
  total_ns_.load(std::memory_order_relaxed)->add(ns);
  us->record(static_cast<double>(ns) / 1e3);
}

}  // namespace ddnn::obs
