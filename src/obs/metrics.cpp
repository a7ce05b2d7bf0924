#include "obs/metrics.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace ddnn::obs {

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

}  // namespace

int thread_shard() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id % kMetricShards;
}

// ----------------------------------------------------------------- Counter

std::int64_t Counter::value() const {
  std::int64_t total = 0;
  for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------- Histogram

Histogram::Histogram(double lo, double hi, int bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / bins), bins_(bins) {
  DDNN_CHECK(bins >= 1, "histogram needs at least one bin, got " << bins);
  DDNN_CHECK(hi > lo, "histogram range [" << lo << ", " << hi
                                          << ") is empty or inverted");
  shards_.reserve(kMetricShards);
  for (int i = 0; i < kMetricShards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->counts = std::vector<std::atomic<std::int64_t>>(
        static_cast<std::size_t>(bins));
    shard->bin_max =
        std::vector<std::atomic<double>>(static_cast<std::size_t>(bins));
    for (auto& c : shard->counts) c.store(0, std::memory_order_relaxed);
    for (auto& m : shard->bin_max) {
      m.store(-std::numeric_limits<double>::infinity(),
              std::memory_order_relaxed);
    }
    shard->mn.store(std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
    shard->mx.store(-std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
    shards_.push_back(std::move(shard));
  }
}

int Histogram::bin_index(double v) const {
  if (v < lo_) return 0;
  const auto i = static_cast<std::int64_t>((v - lo_) / width_);
  if (i >= bins_) return bins_ - 1;
  return static_cast<int>(i);
}

void Histogram::record(double v) {
  Shard& s = *shards_[static_cast<std::size_t>(thread_shard())];
  const auto b = static_cast<std::size_t>(bin_index(v));
  if (v < lo_) s.under.fetch_add(1, std::memory_order_relaxed);
  if (v >= hi_) s.over.fetch_add(1, std::memory_order_relaxed);
  s.counts[b].fetch_add(1, std::memory_order_relaxed);
  atomic_max(s.bin_max[b], v);
  atomic_min(s.mn, v);
  atomic_max(s.mx, v);
  s.n.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t Histogram::count() const {
  std::int64_t total = 0;
  for (const auto& s : shards_) total += s->n.load(std::memory_order_relaxed);
  return total;
}

std::int64_t Histogram::underflow() const {
  std::int64_t total = 0;
  for (const auto& s : shards_) {
    total += s->under.load(std::memory_order_relaxed);
  }
  return total;
}

std::int64_t Histogram::overflow() const {
  std::int64_t total = 0;
  for (const auto& s : shards_) {
    total += s->over.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::min() const {
  double m = std::numeric_limits<double>::infinity();
  for (const auto& s : shards_) {
    m = std::min(m, s->mn.load(std::memory_order_relaxed));
  }
  return std::isinf(m) ? 0.0 : m;
}

double Histogram::max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (const auto& s : shards_) {
    m = std::max(m, s->mx.load(std::memory_order_relaxed));
  }
  return std::isinf(m) ? 0.0 : m;
}

std::vector<std::int64_t> Histogram::bin_counts() const {
  std::vector<std::int64_t> merged(static_cast<std::size_t>(bins_), 0);
  for (const auto& s : shards_) {
    for (int b = 0; b < bins_; ++b) {
      merged[static_cast<std::size_t>(b)] +=
          s->counts[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
    }
  }
  return merged;
}

double Histogram::percentile(double q) const {
  DDNN_CHECK(q > 0.0 && q <= 1.0, "percentile rank " << q << " not in (0, 1]");
  const std::int64_t n = count();
  if (n == 0) return 0.0;
  const std::int64_t rank = nearest_rank(q, n);
  const auto counts = bin_counts();
  std::int64_t cum = 0;
  for (int b = 0; b < bins_; ++b) {
    cum += counts[static_cast<std::size_t>(b)];
    if (cum >= rank) {
      double m = -std::numeric_limits<double>::infinity();
      for (const auto& s : shards_) {
        m = std::max(m, s->bin_max[static_cast<std::size_t>(b)].load(
                            std::memory_order_relaxed));
      }
      return m;
    }
  }
  return max();  // unreachable when counts are consistent
}

void Histogram::reset() {
  for (auto& s : shards_) {
    for (auto& c : s->counts) c.store(0, std::memory_order_relaxed);
    for (auto& m : s->bin_max) {
      m.store(-std::numeric_limits<double>::infinity(),
              std::memory_order_relaxed);
    }
    s->mn.store(std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s->mx.store(-std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s->n.store(0, std::memory_order_relaxed);
    s->under.store(0, std::memory_order_relaxed);
    s->over.store(0, std::memory_order_relaxed);
  }
}

// ----------------------------------------------------------- MetricsRegistry

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, Kind kind, double lo, double hi, int bins) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& e = *entries_[it->second];
    DDNN_CHECK(e.kind == kind,
               "metric '" << name << "' already registered with another type");
    return e;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter: entry->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: entry->gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>(lo, hi, bins);
      break;
    case Kind::kHdrHistogram:
      entry->hdr = std::make_unique<HdrHistogram>(lo, hi);
      break;
  }
  index_.emplace(name, entries_.size());
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *find_or_create(name, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *find_or_create(name, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                      double hi, int bins) {
  Entry& e = find_or_create(name, Kind::kHistogram, lo, hi, bins);
  const Histogram& h = *e.histogram;
  DDNN_CHECK(h.lo() == lo && h.hi() == hi && h.bins() == bins,
             "histogram '" << name << "' already registered with layout ["
                           << h.lo() << ", " << h.hi() << ") x " << h.bins()
                           << ", requested [" << lo << ", " << hi << ") x "
                           << bins);
  return *e.histogram;
}

HdrHistogram& MetricsRegistry::hdr_histogram(const std::string& name,
                                             double unit, double max_value) {
  Entry& e = find_or_create(name, Kind::kHdrHistogram, unit, max_value);
  DDNN_CHECK(e.hdr->unit() == unit && e.hdr->max_value() == max_value,
             "hdr histogram '" << name << "' already registered with unit "
                               << e.hdr->unit() << ", max "
                               << e.hdr->max_value() << ", requested unit "
                               << unit << ", max " << max_value);
  return *e.hdr;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : entries_) {
    if (e->counter) e->counter->reset();
    if (e->gauge) e->gauge->reset();
    if (e->histogram) e->histogram->reset();
    if (e->hdr) e->hdr->reset();
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e->name);
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = *entries_[i];
    os << "    {\"name\": \"" << e.name << "\", ";
    switch (e.kind) {
      case Kind::kCounter:
        os << "\"type\": \"counter\", \"value\": " << e.counter->value();
        break;
      case Kind::kGauge:
        os << "\"type\": \"gauge\", \"value\": "
           << json_double(e.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        os << "\"type\": \"histogram\", \"count\": " << h.count()
           << ", \"min\": " << json_double(h.min())
           << ", \"max\": " << json_double(h.max());
        if (h.count() > 0) {
          os << ", \"p50\": " << json_double(h.percentile(0.50))
             << ", \"p90\": " << json_double(h.percentile(0.90))
             << ", \"p99\": " << json_double(h.percentile(0.99));
        } else {
          os << ", \"p50\": 0, \"p90\": 0, \"p99\": 0";
        }
        os << ", \"underflow\": " << h.underflow()
           << ", \"overflow\": " << h.overflow();
        os << ", \"bins\": [";
        const auto counts = h.bin_counts();
        for (std::size_t b = 0; b < counts.size(); ++b) {
          if (b != 0) os << ", ";
          os << counts[b];
        }
        os << "]";
        break;
      }
      case Kind::kHdrHistogram: {
        const HdrHistogram& h = *e.hdr;
        const HdrHistogram::View v = h.view();
        os << "\"type\": \"hdr\", \"count\": " << h.count()
           << ", \"overflow\": " << h.overflow()
           << ", \"rel_err\": "
           << json_double(HdrHistogram::relative_error_bound())
           << ", \"min\": " << json_double(h.min())
           << ", \"max\": " << json_double(h.max());
        if (h.count() > 0) {
          os << ", \"p50\": " << json_double(v.percentile(0.50))
             << ", \"p90\": " << json_double(v.percentile(0.90))
             << ", \"p99\": " << json_double(v.percentile(0.99))
             << ", \"p999\": " << json_double(v.percentile(0.999));
        } else {
          os << ", \"p50\": 0, \"p90\": 0, \"p99\": 0, \"p999\": 0";
        }
        const HdrExemplar p99 = v.exemplar_at(0.99);
        const HdrExemplar p999 = v.exemplar_at(0.999);
        const HdrExemplar mx = v.max_exemplar();
        os << ", \"p99_sample\": " << p99.sample
           << ", \"p99_trace_id\": " << p99.trace_id
           << ", \"p999_sample\": " << p999.sample
           << ", \"p999_trace_id\": " << p999.trace_id
           << ", \"max_sample\": " << mx.sample
           << ", \"max_trace_id\": " << mx.trace_id;
        break;
      }
    }
    os << "}" << (i + 1 == entries_.size() ? "" : ",") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  DDNN_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << to_json();
  DDNN_CHECK(out.good(), "write to '" << path << "' failed");
}

Table MetricsRegistry::to_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  Table table({"Metric", "Type", "Value"});
  for (const auto& e : entries_) {
    switch (e->kind) {
      case Kind::kCounter:
        table.add_row({e->name, "counter", std::to_string(e->counter->value())});
        break;
      case Kind::kGauge:
        table.add_row({e->name, "gauge", Table::num(e->gauge->value(), 6)});
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e->histogram;
        std::ostringstream v;
        v << "n=" << h.count();
        if (h.count() > 0) {
          v << " min=" << Table::num(h.min(), 3)
            << " p50=" << Table::num(h.percentile(0.50), 3)
            << " p99=" << Table::num(h.percentile(0.99), 3)
            << " max=" << Table::num(h.max(), 3);
        }
        table.add_row({e->name, "histogram", v.str()});
        break;
      }
      case Kind::kHdrHistogram: {
        const HdrHistogram& h = *e->hdr;
        std::ostringstream v;
        v << "n=" << h.count();
        if (h.count() > 0) {
          const HdrHistogram::View view = h.view();
          v << " p50=" << Table::num(view.percentile(0.50), 3)
            << " p99=" << Table::num(view.percentile(0.99), 3)
            << " p99.9=" << Table::num(view.percentile(0.999), 3)
            << " max=" << Table::num(h.max(), 3);
          const HdrExemplar ex = view.exemplar_at(0.999);
          if (ex.valid()) v << " ex=#" << ex.sample;
        }
        table.add_row({e->name, "hdr", v.str()});
        break;
      }
    }
  }
  return table;
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace ddnn::obs
