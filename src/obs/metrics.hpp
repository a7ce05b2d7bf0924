// MetricsRegistry: named counters, gauges and fixed-bin histograms for the
// whole stack (runtime, trainer, CLI).
//
// Determinism contract (docs/ARCHITECTURE.md "Observability"): every metric
// is sharded per thread and merged in a fixed order, and every merged
// quantity is order-independent — counter shards hold exact integers and sum
// associatively, histogram shards hold integer bin counts plus per-bin /
// global extrema (max/min are commutative). Reported values therefore never
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

/// Fixed-bin histogram over [lo, hi); out-of-range values clamp into the
/// first/last bin. Alongside the integer bin counts each bin tracks the
/// largest value recorded into it, so nearest-rank percentiles are *exact*
/// whenever a bin holds a single distinct value (n = 1, all-equal samples,
/// or bins aligned to the value grid) and an in-bin upper bound otherwise.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);

  void record(double v);

  std::int64_t count() const;
  double min() const;  ///< smallest recorded value (0 when empty)
  double max() const;  ///< largest recorded value (0 when empty)
  /// Recordings below lo / at-or-above hi. They are clamped into the edge
  /// bins for the counts, so binned percentiles saturate there — but min()/
  /// max() stay exact, and these counters make the clamping visible in the
  /// export instead of silently misreporting the tail.
  std::int64_t underflow() const;
  std::int64_t overflow() const;

  /// Nearest-rank percentile at bin granularity: with n samples and rank
  /// r = max(1, ceil(q * n)), returns the largest recorded value in the bin
  /// containing the r-th smallest sample. q must be in (0, 1]. Returns 0
  /// when the histogram is empty. Agrees with
  /// dist::percentile_nearest_rank() whenever each bin holds one distinct
  /// value.
  double percentile(double q) const;

  /// Merged per-bin counts, in bin order.
  std::vector<std::int64_t> bin_counts() const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int bins() const { return bins_; }

  void reset();

 private:
  int bin_index(double v) const;

  double lo_;
  double hi_;
  double width_;
  int bins_;
  struct Shard {
    std::vector<std::atomic<std::int64_t>> counts;
    std::vector<std::atomic<double>> bin_max;
    std::atomic<double> mn;
    std::atomic<double> mx;
    std::atomic<std::int64_t> n{0};
    std::atomic<std::int64_t> under{0};
    std::atomic<std::int64_t> over{0};
  };
  std::vector<std::unique_ptr<Shard>> shards_;
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
  /// Re-requesting an existing histogram with another lo/hi/bins throws,
  /// as re-requesting a name under another metric type does.
  Histogram& histogram(const std::string& name, double lo, double hi,
                       int bins);
  /// Log-bucketed histogram with trace exemplars (obs/hdr.hpp).
  /// Re-requesting an existing one with another unit/max_value throws.
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

  /// Metric | Type | Value summary table (histograms show n/min/p50/p99/max).
  Table to_table() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kHdrHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<HdrHistogram> hdr;
  };

  /// Get-or-create under mu_: a new entry's metric is built inside the
  /// lock (histograms from lo/hi/bins, HDR ones from lo = unit and hi =
  /// max_value), so threads first requesting one name share one object.
  Entry& find_or_create(const std::string& name, Kind kind, double lo = 0.0,
                        double hi = 0.0, int bins = 0);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;          // registration order
  std::unordered_map<std::string, std::size_t> index_;
};

/// Process-wide registry used by the CLI (`--metrics-out`).
MetricsRegistry& global_metrics();

}  // namespace ddnn::obs
