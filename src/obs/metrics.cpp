#include "obs/metrics.hpp"

#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace ddnn::obs {

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

// ----------------------------------------------------------- MetricsRegistry

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, Kind kind, double unit, double max_value) {
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
    case Kind::kHdrHistogram:
      entry->hdr = std::make_unique<HdrHistogram>(unit, max_value);
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
