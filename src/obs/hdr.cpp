#include "obs/hdr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace ddnn::obs {

std::int64_t HdrHistogram::bucket_upper_unit(int b) {
  if (b < kSubBuckets) return b;
  const int k = b / kSubBuckets - 1;
  const std::int64_t m = b % kSubBuckets + kSubBuckets;
  return ((m + 1) << k) - 1;
}

std::int64_t HdrHistogram::max_unit_of(double unit, double max_value) {
  DDNN_CHECK(unit > 0.0, "hdr histogram unit " << unit << " must be positive");
  DDNN_CHECK(max_value > unit,
             "hdr histogram range must exceed one unit (unit="
                 << unit << ", max=" << max_value << ")");
  return static_cast<std::int64_t>(max_value / unit);
}

HdrHistogram::HdrHistogram(double unit, double max_value)
    : unit_(unit),
      max_value_(max_value),
      max_unit_(max_unit_of(unit, max_value)),
      buckets_(bucket_for_unit(max_unit_) + 1) {
  shards_ = std::vector<std::atomic<Shard*>>(
      static_cast<std::size_t>(kMetricShards));
  for (auto& s : shards_) s.store(nullptr, std::memory_order_relaxed);
}

HdrHistogram::Shard& HdrHistogram::shard_for_thread() {
  auto& slot = shards_[static_cast<std::size_t>(thread_shard())];
  Shard* s = slot.load(std::memory_order_acquire);
  if (s != nullptr) return *s;
  std::lock_guard<std::mutex> lock(alloc_mu_);
  s = slot.load(std::memory_order_acquire);
  if (s != nullptr) return *s;
  auto fresh = std::make_unique<Shard>();
  fresh->counts =
      std::vector<std::atomic<std::int64_t>>(static_cast<std::size_t>(buckets_));
  fresh->exemplars = std::vector<Exemplar>(static_cast<std::size_t>(buckets_));
  for (auto& c : fresh->counts) c.store(0, std::memory_order_relaxed);
  fresh->mn.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
  fresh->mx.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
  s = fresh.get();
  owned_.push_back(std::move(fresh));
  slot.store(s, std::memory_order_release);
  return *s;
}

namespace {

void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Smallest-sample-index-wins: commutative, so shard merge order and
/// recording interleaving cannot change which exemplar survives. The trace
/// id follows a won CAS; concurrent recorders of the *same* sample index do
/// not occur (sample indices are unique per run).
void offer_exemplar(std::atomic<std::int64_t>& sample,
                    std::atomic<std::uint64_t>& trace,
                    std::int64_t sample_index, std::uint64_t trace_id) {
  std::int64_t cur = sample.load(std::memory_order_relaxed);
  while (cur < 0 || sample_index < cur) {
    if (sample.compare_exchange_weak(cur, sample_index,
                                     std::memory_order_relaxed)) {
      trace.store(trace_id, std::memory_order_relaxed);
      break;
    }
  }
}

}  // namespace

void HdrHistogram::record(double v, std::uint64_t trace_id,
                          std::int64_t sample_index) {
  Shard& s = shard_for_thread();
  bool clamped = false;
  const auto b =
      static_cast<std::size_t>(bucket_of(v, unit_, max_unit_, clamped));
  if (clamped) s.over.fetch_add(1, std::memory_order_relaxed);
  s.counts[b].fetch_add(1, std::memory_order_relaxed);
  atomic_min(s.mn, v);
  atomic_max(s.mx, v);
  s.n.fetch_add(1, std::memory_order_relaxed);
  if (sample_index >= 0) {
    Exemplar& e = s.exemplars[b];
    offer_exemplar(e.sample, e.trace, sample_index, trace_id);
  }
}

void HdrHistogram::merge(const Local& local) {
  DDNN_CHECK(local.unit_ == unit_ && local.max_value_ == max_value_,
             "hdr merge across layouts (unit " << local.unit_ << " vs "
                                               << unit_ << ", max "
                                               << local.max_value_ << " vs "
                                               << max_value_ << ")");
  if (local.n_ == 0) return;
  Shard& s = shard_for_thread();
  for (std::size_t b = 0; b < local.counts_.size(); ++b) {
    const std::int64_t c = local.counts_[b];
    if (c == 0) continue;
    s.counts[b].fetch_add(c, std::memory_order_relaxed);
    if (!local.exemplars_.empty() && local.exemplars_[b].valid()) {
      Exemplar& e = s.exemplars[b];
      offer_exemplar(e.sample, e.trace, local.exemplars_[b].sample,
                     local.exemplars_[b].trace_id);
    }
  }
  atomic_min(s.mn, local.mn_);
  atomic_max(s.mx, local.mx_);
  s.n.fetch_add(local.n_, std::memory_order_relaxed);
  s.over.fetch_add(local.over_, std::memory_order_relaxed);
}

std::int64_t HdrHistogram::count() const {
  std::int64_t total = 0;
  for (const auto& slot : shards_) {
    if (const Shard* s = slot.load(std::memory_order_acquire)) {
      total += s->n.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::int64_t HdrHistogram::overflow() const {
  std::int64_t total = 0;
  for (const auto& slot : shards_) {
    if (const Shard* s = slot.load(std::memory_order_acquire)) {
      total += s->over.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double HdrHistogram::min() const {
  double m = std::numeric_limits<double>::infinity();
  for (const auto& slot : shards_) {
    if (const Shard* s = slot.load(std::memory_order_acquire)) {
      m = std::min(m, s->mn.load(std::memory_order_relaxed));
    }
  }
  return std::isinf(m) ? 0.0 : m;
}

double HdrHistogram::max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (const auto& slot : shards_) {
    if (const Shard* s = slot.load(std::memory_order_acquire)) {
      m = std::max(m, s->mx.load(std::memory_order_relaxed));
    }
  }
  return std::isinf(m) ? 0.0 : m;
}

HdrExemplar HdrHistogram::merged_exemplar(int b) const {
  HdrExemplar best;
  for (const auto& slot : shards_) {
    const Shard* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    const Exemplar& e = s->exemplars[static_cast<std::size_t>(b)];
    const std::int64_t sample = e.sample.load(std::memory_order_relaxed);
    if (sample >= 0 && (!best.valid() || sample < best.sample)) {
      best.sample = sample;
      best.trace_id = e.trace.load(std::memory_order_relaxed);
    }
  }
  return best;
}

HdrHistogram::View HdrHistogram::view() const {
  View v;
  v.hist_ = this;
  v.merged_.assign(static_cast<std::size_t>(buckets_), 0);
  for (const auto& slot : shards_) {
    const Shard* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (std::size_t b = 0; b < v.merged_.size(); ++b) {
      v.merged_[b] += s->counts[b].load(std::memory_order_relaxed);
    }
    v.overflow_ += s->over.load(std::memory_order_relaxed);
  }
  for (const std::int64_t c : v.merged_) v.total_ += c;
  v.buckets_ = v.merged_.size();
  v.max_ = max();
  v.unit_ = unit_;
  return v;
}

const std::int64_t* HdrHistogram::View::counts() const {
  return local_ != nullptr ? local_->counts_.data() : merged_.data();
}

HdrExemplar HdrHistogram::View::exemplar(int b) const {
  if (local_ == nullptr) return hist_->merged_exemplar(b);
  return local_->exemplars_.empty()
             ? HdrExemplar{}
             : local_->exemplars_[static_cast<std::size_t>(b)];
}

int HdrHistogram::View::rank_bucket(double q) const {
  DDNN_CHECK(q > 0.0 && q <= 1.0, "percentile rank " << q << " not in (0, 1]");
  if (total_ == 0) return -1;
  const std::int64_t rank = nearest_rank(q, total_);
  const std::int64_t* c = counts();
  std::int64_t cum = 0;
  for (std::size_t b = 0; b < buckets_; ++b) {
    cum += c[b];
    if (cum >= rank) return static_cast<int>(b);
  }
  return static_cast<int>(buckets_) - 1;
}

double HdrHistogram::View::percentile(double q) const {
  const int b = rank_bucket(q);
  if (b < 0) return 0.0;
  // The top rank is the recorded max. Overflowed samples exceed every
  // in-range one, so they hold the top ranks; the top bucket's edge they
  // were clamped into would understate them.
  const std::int64_t rank = nearest_rank(q, total_);
  if (rank == total_ || rank > total_ - overflow_) return max_;
  // Below 2 * kSubBuckets units every bucket holds one unit count, so the
  // bucket names the (integer-unit) value itself; the clamp keeps negative
  // recordings, which land in bucket 0, from reading above the max.
  if (b < 2 * kSubBuckets) {
    return std::min(static_cast<double>(bucket_upper_unit(b)) * unit_, max_);
  }
  // Upper edge of the bucket (the supremum of values it can hold), clamped
  // to the exact recorded max so the top bucket reports a real value.
  const double edge = static_cast<double>(bucket_upper_unit(b) + 1) * unit_;
  return std::min(edge, max_);
}

HdrExemplar HdrHistogram::View::exemplar_at(double q) const {
  const int b = rank_bucket(q);
  return b < 0 ? HdrExemplar{} : exemplar(b);
}

HdrExemplar HdrHistogram::View::max_exemplar() const {
  const std::int64_t* c = counts();
  for (int b = static_cast<int>(buckets_) - 1; b >= 0; --b) {
    if (c[static_cast<std::size_t>(b)] > 0) return exemplar(b);
  }
  return HdrExemplar{};
}

void HdrHistogram::reset() {
  for (auto& slot : shards_) {
    Shard* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (auto& c : s->counts) c.store(0, std::memory_order_relaxed);
    for (auto& e : s->exemplars) {
      e.sample.store(-1, std::memory_order_relaxed);
      e.trace.store(0, std::memory_order_relaxed);
    }
    s->mn.store(std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s->mx.store(-std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s->n.store(0, std::memory_order_relaxed);
    s->over.store(0, std::memory_order_relaxed);
  }
}

HdrHistogram::Local::Local(double unit, double max_value)
    : unit_(unit),
      max_value_(max_value),
      max_unit_(max_unit_of(unit, max_value)),
      counts_(static_cast<std::size_t>(bucket_for_unit(max_unit_) + 1), 0) {}

void HdrHistogram::Local::offer_exemplar(std::size_t b, std::uint64_t trace_id,
                                         std::int64_t sample_index) {
  if (exemplars_.empty()) exemplars_.resize(counts_.size());
  HdrExemplar& e = exemplars_[b];
  if (!e.valid() || sample_index < e.sample) e = {sample_index, trace_id};
}

HdrHistogram::View HdrHistogram::Local::view() const {
  View v;
  v.local_ = this;
  v.buckets_ = counts_.size();
  v.total_ = n_;
  v.overflow_ = over_;
  v.max_ = max();
  v.unit_ = unit_;
  return v;
}

void HdrHistogram::Local::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  std::fill(exemplars_.begin(), exemplars_.end(), HdrExemplar{});
  mn_ = std::numeric_limits<double>::infinity();
  mx_ = -std::numeric_limits<double>::infinity();
  n_ = 0;
  over_ = 0;
}

}  // namespace ddnn::obs
