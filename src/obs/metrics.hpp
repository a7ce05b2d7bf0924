// MetricsRegistry: named counters, gauges and HDR histograms (obs/hdr.hpp)
// for the whole stack (runtime, trainer, CLI).
//
// Determinism contract (docs/ARCHITECTURE.md "Observability"): every metric
// is sharded per thread and merged in a fixed order, and every merged
// quantity is order-independent — counter shards hold exact integers and sum
// associatively, histogram shards hold integer bucket counts plus global
// extrema (max/min are commutative). Reported values therefore never
// depend on DDNN_THREADS or on which pool worker recorded what. Gauges are
// last-write-wins and must be set from a single thread (all of ours are set
// from the main thread).
//
// Export walks metrics in registration order, so two runs that register the
// same metrics in the same order produce byte-identical JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/hdr.hpp"
#include "util/table.hpp"

namespace ddnn::obs {

/// Number of per-thread shards behind every counter/histogram. Threads
/// beyond this share slots (atomics keep that exact).
inline constexpr int kMetricShards = 64;

/// Stable small id for the calling thread, in [0, kMetricShards).
int thread_shard();

/// Monotonically increasing integer metric. add() is wait-free on the
/// calling thread's shard; value() merges shards in index order (exact).
class Counter {
 public:
  void add(std::int64_t n = 1) {
    shards_[static_cast<std::size_t>(thread_shard())].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::int64_t value() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::int64_t> v{0};
  };
  std::vector<Shard> shards_{kMetricShards};
};

/// Last-write-wins double. Not sharded: set it from one thread only.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Name -> metric registry. Registration is get-or-create and thread-safe;
/// references stay valid for the registry's lifetime. Export (to_json /
/// to_table) walks metrics in registration order.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Log-bucketed histogram with trace exemplars (obs/hdr.hpp).
  /// Re-requesting an existing one with another unit/max_value throws, as
  /// re-requesting a name under another metric type does.
  HdrHistogram& hdr_histogram(const std::string& name, double unit,
                              double max_value);

  /// Zero every metric; registrations (and registration order) survive.
  void reset();

  std::size_t size() const;
  /// Registered names in registration order.
  std::vector<std::string> names() const;

  /// {"metrics": [{"name", "type", ...}, ...]} in registration order, with
  /// deterministic number formatting (byte-identical across reruns given
  /// identical values).
  std::string to_json() const;
  void write_json(const std::string& path) const;

  /// Metric | Type | Value summary table (histograms show n/p50/p99/p99.9/
  /// max).
  Table to_table() const;

 private:
  enum class Kind { kCounter, kGauge, kHdrHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HdrHistogram> hdr;
  };

  /// Get-or-create under mu_: a new entry's metric is built inside the
  /// lock (histograms from unit/max_value), so threads first requesting
  /// one name share one object.
  Entry& find_or_create(const std::string& name, Kind kind, double unit = 0.0,
                        double max_value = 0.0);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;          // registration order
  std::unordered_map<std::string, std::size_t> index_;
};

/// Process-wide registry used by the CLI (`--metrics-out`).
MetricsRegistry& global_metrics();

}  // namespace ddnn::obs
