// HdrHistogram: log-bucketed value-range histogram with bounded relative
// error, exact extrema, and per-bucket trace exemplars.
//
// Values are quantized to integer units (u = floor(v / unit)) and binned
// into a log-linear layout: the first 128 buckets are exact (one unit
// each), after which every power of two is split into 128 sub-buckets, so
// the [128, 256) octave is one unit per bucket too. A bucket under 256
// units names its value, and a percentile read there is the recorded
// integer-unit value itself (integer-valued metrics at unit 1, such as
// byte counts, read exactly). A wider bucket never spans more than 1/128
// (~0.78%) of the values it holds, so a percentile read from its upper
// edge is within 1% of the true sample percentile — across the whole range
// up to `max_value` (hours of latency at millisecond units) with a few
// thousand buckets, not the millions a fixed-bin histogram would need.
//
// Determinism contract (docs/ARCHITECTURE.md "Observability"): recording is
// sharded per thread exactly like obs::Counter; bucket counts sum
// associatively, extrema are commutative max/min, and the per-bucket
// exemplar is merged by *smallest sample index* — an order-independent rule,
// so reads never depend on DDNN_THREADS or recording interleaving. The
// exact recorded max is tracked alongside the buckets: `max()` is a real
// recorded value, and no percentile reads above it. A value past
// `max_value` is clamped into the top bucket and counted in overflow();
// overflowed values exceed every in-range one, so they hold the top ranks,
// and a rank among them reports the exact max instead of the top bucket's
// edge (which would understate the tail).
//
// Read cost: a read merges every live shard's bucket counts once (one
// bucket-sized buffer, one pass per shard that has recorded) and walks the
// merged counts for the rank. A caller that reads several ranks takes one
// view() and reads them all from it; percentile(), exemplar_at() and
// max_exemplar() on the histogram are one-shot views.
//
// Single writer: HdrHistogram::Local is the same bucket layout held in
// plain (non-atomic) fields for a sink with one writer — a simulator event
// loop, a WindowedSeries column. It records inline without atomics or an
// exemplar CAS, reads through the same View (in place, no merge copy), and
// folds into a sharded histogram with merge(): one atomic add per occupied
// bucket under the same smallest-sample-index exemplar rule, so a merged
// accumulator reads exactly like its samples recorded directly.
//
// Trace exemplars: record(v, trace_id, sample_index) retains, per bucket,
// the (trace_id, sample_index) pair with the smallest sample index — the
// first sample to land there under any serial recording order. Reading a
// percentile can then name the concrete sample (and its span tree in the
// trace export) that produced it: "p99.9 = 412 ms, e.g. sample 31415".
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace ddnn::obs {

/// One retained sample reference: `sample` is the sample index (-1 = none),
/// `trace_id` a 48-bit distributed trace id (round-trips through JSON
/// doubles).
struct HdrExemplar {
  std::int64_t sample = -1;
  std::uint64_t trace_id = 0;
  bool valid() const { return sample >= 0; }
};

class HdrHistogram {
 public:
  /// Sub-buckets per power of two: bounds the relative bucket error at
  /// 1/128 (~0.78%), under the documented 1% budget.
  static constexpr int kSubBuckets = 128;

  /// `unit`: value per integer count (the resolution floor, e.g. 1e-3 for
  /// microsecond-resolution millisecond values). `max_value`: largest value
  /// the buckets cover; larger recordings clamp into the top bucket (and
  /// are counted in overflow()) but still update the exact max.
  HdrHistogram(double unit, double max_value);

  class Local;

  void record(double v) { record(v, 0, -1); }
  /// Record with a trace exemplar. Exemplars follow the smallest-sample-
  /// index rule, so pass the deterministic per-run sample index.
  void record(double v, std::uint64_t trace_id, std::int64_t sample_index);
  /// Fold a single-writer accumulator in, as if its samples were recorded
  /// here: one atomic add per occupied bucket, the exemplars under the
  /// smallest-sample-index rule. The layouts (unit, max_value) must match.
  void merge(const Local& local);

  std::int64_t count() const;
  std::int64_t overflow() const;  ///< recordings clamped into the top bucket
  double min() const;             ///< exact smallest recorded value (0 empty)
  double max() const;             ///< exact largest recorded value (0 empty)

  /// One merged read: the bucket counts of every live shard summed once
  /// (a Local's counts are read in place), plus the exact max. Ranks read
  /// from one view agree with each other. Exemplars are looked up in the
  /// source when asked for, so a view must not outlive its histogram.
  class View {
   public:
    /// Nearest-rank percentile at bucket granularity. Under
    /// 2 * kSubBuckets units a bucket holds one unit count and reads that
    /// integer-unit value; above, the upper edge of the bucket holding the
    /// rank-q sample, clamped to the exact recorded max, within
    /// 1/kSubBuckets of the true sample percentile. The top rank, and a
    /// rank held by an overflowed sample (above count - overflow), read
    /// the exact max. q in (0, 1]; returns 0 when empty.
    double percentile(double q) const;
    /// Exemplar of the bucket percentile(q) resolves to (invalid when empty
    /// or when no exemplar was ever recorded there).
    HdrExemplar exemplar_at(double q) const;
    /// Exemplar of the top occupied bucket — the recorded max's bucket.
    HdrExemplar max_exemplar() const;

   private:
    friend class HdrHistogram;
    int rank_bucket(double q) const;  // -1 when empty
    const std::int64_t* counts() const;
    HdrExemplar exemplar(int b) const;

    const HdrHistogram* hist_ = nullptr;  // sharded source
    const Local* local_ = nullptr;        // single-writer source
    std::vector<std::int64_t> merged_;    // sharded source's summed counts
    std::size_t buckets_ = 0;
    std::int64_t total_ = 0;
    std::int64_t overflow_ = 0;
    double max_ = 0.0;
    double unit_ = 0.0;
  };

  View view() const;
  double percentile(double q) const { return view().percentile(q); }
  HdrExemplar exemplar_at(double q) const { return view().exemplar_at(q); }
  HdrExemplar max_exemplar() const { return view().max_exemplar(); }

  double unit() const { return unit_; }
  double max_value() const { return max_value_; }
  int buckets() const { return buckets_; }
  /// Documented bound on the relative bucket error of percentile().
  static constexpr double relative_error_bound() {
    return 1.0 / kSubBuckets;
  }

  /// Bucket layout math, shared with tests: bucket index of an integer
  /// unit count, and a bucket's inclusive upper edge in units.
  static int bucket_for_unit(std::int64_t u) {
    if (u < 0) u = 0;
    if (u < kSubBuckets) return static_cast<int>(u);
    // Shift u down until it sits in [kSubBuckets, 2*kSubBuckets): k
    // doublings past the linear range, each power of two split into
    // kSubBuckets slots.
    const int k = std::bit_width(static_cast<std::uint64_t>(u)) -
                  std::bit_width(static_cast<std::uint64_t>(kSubBuckets));
    return kSubBuckets * k + static_cast<int>(u >> k);
  }
  static std::int64_t bucket_upper_unit(int b);

  void reset();

 private:
  /// Layout check shared by both constructors; returns the top unit count.
  static std::int64_t max_unit_of(double unit, double max_value);
  /// Bucket of a recorded value: quantized to units, clamped into the top
  /// bucket (setting `clamped`) past max_unit.
  static int bucket_of(double v, double unit, std::int64_t max_unit,
                       bool& clamped) {
    auto u = static_cast<std::int64_t>(std::max(v, 0.0) / unit);
    clamped = u > max_unit;
    return bucket_for_unit(clamped ? max_unit : u);
  }

  struct Exemplar {
    std::atomic<std::int64_t> sample{-1};
    std::atomic<std::uint64_t> trace{0};
  };
  struct Shard {
    std::vector<std::atomic<std::int64_t>> counts;
    std::vector<Exemplar> exemplars;
    std::atomic<double> mn;
    std::atomic<double> mx;
    std::atomic<std::int64_t> n{0};
    std::atomic<std::int64_t> over{0};
  };

  Shard& shard_for_thread();
  HdrExemplar merged_exemplar(int b) const;

  double unit_;
  double max_value_;
  std::int64_t max_unit_;
  int buckets_;
  /// Shards allocate lazily on first record from a shard slot, so a
  /// single-writer histogram (the common case: simulator event loops)
  /// costs one shard, not kMetricShards.
  std::vector<std::atomic<Shard*>> shards_;
  std::vector<std::unique_ptr<Shard>> owned_;
  std::mutex alloc_mu_;
};

/// Single-writer accumulator on HdrHistogram's bucket layout: the counts,
/// extrema, n, overflow and smallest-index exemplars of a sharded
/// histogram in plain fields. Not thread-safe: one writer, reads from that
/// writer (or after it is done). Reads go through HdrHistogram::View;
/// HdrHistogram::merge() publishes it into a shared histogram.
class HdrHistogram::Local {
 public:
  Local(double unit, double max_value);

  void record(double v) { record(v, 0, -1); }
  void record(double v, std::uint64_t trace_id, std::int64_t sample_index) {
    bool clamped = false;
    const auto b =
        static_cast<std::size_t>(bucket_of(v, unit_, max_unit_, clamped));
    if (clamped) ++over_;
    ++counts_[b];
    if (v < mn_) mn_ = v;
    if (v > mx_) mx_ = v;
    ++n_;
    if (sample_index >= 0) offer_exemplar(b, trace_id, sample_index);
  }

  std::int64_t count() const { return n_; }
  std::int64_t overflow() const { return over_; }
  double min() const { return std::isinf(mn_) ? 0.0 : mn_; }
  double max() const { return std::isinf(mx_) ? 0.0 : mx_; }
  View view() const;

  void reset();

 private:
  friend class HdrHistogram;
  void offer_exemplar(std::size_t b, std::uint64_t trace_id,
                      std::int64_t sample_index);

  double unit_;
  double max_value_;
  std::int64_t max_unit_;
  std::vector<std::int64_t> counts_;
  /// Sized on the first exemplar, so a sink that never takes one (a
  /// series column) neither allocates nor clears them.
  std::vector<HdrExemplar> exemplars_;
  double mn_ = std::numeric_limits<double>::infinity();
  double mx_ = -std::numeric_limits<double>::infinity();
  std::int64_t n_ = 0;
  std::int64_t over_ = 0;
};

}  // namespace ddnn::obs
