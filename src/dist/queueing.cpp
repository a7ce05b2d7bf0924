#include "dist/queueing.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace ddnn::dist {

double exponential_from_uniform(double u, double rate_hz) {
  DDNN_CHECK(rate_hz > 0.0, "non-positive arrival rate " << rate_hz);
  // Clamp u away from 1: -log(1 - 1) is +inf, which would freeze the
  // arrival clock forever. The largest double below 1 keeps the tail gap
  // finite (~36.7 mean inter-arrival times) without biasing the body.
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  u = std::clamp(u, 0.0, kBelowOne);
  return -std::log(1.0 - u) / rate_hz;
}

namespace {

/// Sort ascending with an LSD radix sort over order-preserving bit keys:
/// a double's bits with the sign flipped when positive and all bits
/// flipped when negative compare as unsigned integers exactly as the
/// doubles do. 11-bit digits take six counting passes; a digit every key
/// shares is skipped. The result equals std::sort's element for element
/// (the inputs hold no NaN). `values` must not be empty.
void radix_sort(std::vector<double>& values) {
  constexpr int kDigitBits = 11;
  constexpr int kPasses = (64 + kDigitBits - 1) / kDigitBits;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  const std::size_t n = values.size();
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint64_t> scratch(n);
  std::vector<std::size_t> counts(std::size_t{kPasses} << kDigitBits, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = std::bit_cast<std::uint64_t>(values[i]);
    const std::uint64_t key = (u & kSignBit) != 0 ? ~u : u | kSignBit;
    keys[i] = key;
    for (int p = 0; p < kPasses; ++p) {
      ++counts[(std::size_t(p) << kDigitBits) +
               ((key >> (p * kDigitBits)) & kDigitMask)];
    }
  }
  for (int p = 0; p < kPasses; ++p) {
    std::size_t* count = counts.data() + (std::size_t(p) << kDigitBits);
    const int shift = p * kDigitBits;
    if (count[(keys[0] >> shift) & kDigitMask] == n) continue;
    std::size_t offset = 0;
    for (std::size_t d = 0; d <= kDigitMask; ++d) {
      const std::size_t c = count[d];
      count[d] = offset;
      offset += c;
    }
    for (const std::uint64_t key : keys) {
      scratch[count[(key >> shift) & kDigitMask]++] = key;
    }
    keys.swap(scratch);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = keys[i];
    values[i] = std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit
                                                             : ~key);
  }
}

/// Sort + summarize a latency sample; all-zero when the sample is empty
/// (e.g. every trace was dead), never UB.
void fill_latency_stats(std::vector<double>& latencies, double& mean,
                        double& p50, double& p95, double& max) {
  if (latencies.empty()) {
    mean = p50 = p95 = max = 0.0;
    return;
  }
  radix_sort(latencies);
  double sum = 0.0;
  for (const double l : latencies) sum += l;
  mean = sum / static_cast<double>(latencies.size());
  p50 = ddnn::percentile_nearest_rank(latencies, 0.50);
  p95 = ddnn::percentile_nearest_rank(latencies, 0.95);
  max = latencies.back();
}

/// Every trace that some tier classified carries a finite, non-negative
/// latency: a NaN would break the event order, and a negative latency
/// would schedule into the past.
void check_trace_latencies(const std::vector<InferenceTrace>& traces) {
  for (std::size_t k = 0; k < traces.size(); ++k) {
    const InferenceTrace& trace = traces[k];
    DDNN_CHECK(trace.exit_taken < 0 ||
                   (std::isfinite(trace.latency_s) && trace.latency_s >= 0.0),
               "trace " << k << " latency_s " << trace.latency_s
                        << " must be finite and >= 0");
  }
}

}  // namespace

// ------------------------------------------------------ fleet-scale network

FleetConfig single_queue_config(double arrival_rate_hz, double cloud_service_s,
                                std::uint64_t seed,
                                std::int64_t stream_length) {
  DDNN_CHECK(stream_length > 0, "non-positive stream length");
  FleetConfig config;
  config.num_devices = 1;
  config.num_edges = 1;
  config.edge_servers = 1;
  config.cloud_servers = 1;
  config.edge_service_s = 0.0;
  config.cloud_service_s = cloud_service_s;
  config.edge_cloud_latency_s = 0.0;
  config.max_batch = 1;
  config.queue_capacity = stream_length;
  config.first_cloud_exit = 1;
  config.seed = seed;
  Rng rng(seed);
  config.interarrival_s.reserve(static_cast<std::size_t>(stream_length));
  for (std::int64_t k = 0; k < stream_length; ++k) {
    config.interarrival_s.push_back(
        exponential_from_uniform(rng.uniform(), arrival_rate_hz));
  }
  return config;
}

EdgePolicy parse_edge_policy(const std::string& name) {
  if (name == "nearest") return EdgePolicy::kNearest;
  if (name == "least-loaded") return EdgePolicy::kLeastLoaded;
  if (name == "round-robin") return EdgePolicy::kRoundRobin;
  DDNN_CHECK(false, "unknown edge policy '"
                        << name
                        << "' (expected nearest|least-loaded|round-robin)");
  return EdgePolicy::kNearest;
}

std::string to_string(EdgePolicy policy) {
  switch (policy) {
    case EdgePolicy::kNearest: return "nearest";
    case EdgePolicy::kLeastLoaded: return "least-loaded";
    case EdgePolicy::kRoundRobin: return "round-robin";
  }
  return "?";
}

double FleetStats::mean_edge_utilization() const {
  if (edges.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& e : edges) sum += e.utilization;
  return sum / static_cast<double>(edges.size());
}

Table FleetStats::station_table() const {
  Table table({"Station", "Served", "Batches", "Shed", "Peak queue",
               "Util. (%)"});
  for (std::size_t g = 0; g < edges.size(); ++g) {
    const auto& e = edges[g];
    table.add_row({"edge" + std::to_string(g), std::to_string(e.served),
                   std::to_string(e.batches), std::to_string(e.shed),
                   std::to_string(e.peak_queue),
                   Table::num(100.0 * e.utilization, 1)});
  }
  table.add_row({"cloud", std::to_string(cloud.served),
                 std::to_string(cloud.batches), std::to_string(cloud.shed),
                 std::to_string(cloud.peak_queue),
                 Table::num(100.0 * cloud.utilization, 1)});
  return table;
}

void add_ledger_metrics(obs::LedgerRecord& rec, const FleetStats& stats,
                        const obs::SloEngine* slo) {
  const auto count = [&](const std::string& name, std::int64_t n) {
    rec.add_metric("fleet." + name, static_cast<double>(n));
  };
  const auto ms = [&](const std::string& name, double seconds) {
    rec.add_metric("fleet." + name + "_latency_ms", 1e3 * seconds);
  };
  count("arrivals", stats.arrivals);
  count("completed", stats.completed);
  count("local", stats.local);
  count("escalated", stats.escalated);
  count("shed", stats.shed);
  count("dead", stats.dead);
  rec.add_metric("fleet.throughput_hz", stats.throughput_hz);
  ms("mean", stats.mean_latency_s);
  ms("p50", stats.p50_latency_s);
  ms("p95", stats.p95_latency_s);
  ms("max", stats.max_latency_s);
  ms("p99", stats.p99_latency_s);
  ms("p999", stats.p999_latency_s);
  // Exemplar arrival indices are deterministic, so a baseline can pin them:
  // a drifting exemplar means the tail itself moved.
  count("p99_sample", stats.p99_exemplar.sample);
  count("p999_sample", stats.p999_exemplar.sample);
  rec.add_metric("fleet.edge_util_mean", stats.mean_edge_utilization());
  rec.add_metric("fleet.cloud_util", stats.cloud.utilization);
  if (slo != nullptr) {
    for (const auto& status : slo->evaluate()) {
      // fleet.latency -> fleet.slo.latency.*
      const std::string base = "fleet.slo." + status.name.substr(6);
      rec.add_metric(base + ".ratio", status.ratio);
      rec.add_metric(base + ".fast_burn", status.fast_burn);
      rec.add_metric(base + ".slow_burn", status.slow_burn);
      rec.add_metric(base + ".state",
                     static_cast<double>(static_cast<int>(status.state)));
    }
  }
  const auto station = [&](const std::string& name, const StationStats& s) {
    const std::string base = "fleet.station." + name;
    rec.add_metric(base + ".served", static_cast<double>(s.served));
    rec.add_metric(base + ".utilization", s.utilization);
  };
  for (std::size_t g = 0; g < stats.edges.size(); ++g) {
    station("edge" + std::to_string(g), stats.edges[g]);
  }
  station("cloud", stats.cloud);
}

namespace {

/// One sample in flight through the network.
struct Job {
  double entry_t = 0.0;     // network-entry time (open-loop arrival)
  bool needs_cloud = false; // continues edge -> cloud after edge service
  bool local = false;       // device-tier exit, never touches a station
  std::int64_t index = 0;   // arrival index — the exemplar sample index
  std::uint64_t trace_id = 0;  // replayed trace's distributed trace id
};

/// A scheduled station arrival, server-free or completion. Its (t, seq)
/// key lives in the EventQueue; arrivals are not events (see the loop).
struct Event {
  enum class Kind : std::uint8_t { kStationArrival, kServerFree, kDone };
  Kind kind = Kind::kDone;
  int station = -1;  // kStationArrival / kServerFree
  Job job;           // kStationArrival / kDone
};

/// An event's schedule key. seq is the schedule sequence number, so
/// simultaneous events resolve in the deterministic order they were
/// created — never by allocation address or hash order.
struct EventKey {
  double t = 0.0;
  std::int64_t seq = 0;
};

/// (t, seq) order. seq is unique, so this is a strict total order and any
/// correct priority queue pops the same sequence of events.
bool before(const EventKey& a, const EventKey& b) {
  return a.t < b.t || (a.t == b.t && a.seq < b.seq);
}

/// Min-queue of events: a 4-ary heap of compact (t, seq, slot) keys over a
/// slab of payloads whose freed slots are reused. The shallow heap halves
/// the levels a sift crosses, and a sift moves 24-byte keys, never
/// payloads.
class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  const EventKey& top() const { return heap_.front().key; }

  void push(const EventKey& key, const Event& event) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(event);
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = event;
    }
    // Sift the hole up from the new leaf.
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!before(key, heap_[parent].key)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = {key, slot};
  }

  /// Remove the top event and return its payload.
  Event pop() {
    const std::uint32_t slot = heap_.front().slot;
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      // Sift the hole down from the root, taking the least of up to four
      // children each level, until `last` fits.
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first = kArity * hole + 1;
        if (first >= n) break;
        std::size_t least = first;
        const std::size_t end = std::min(first + kArity, n);
        for (std::size_t c = first + 1; c < end; ++c) {
          if (before(heap_[c].key, heap_[least].key)) least = c;
        }
        if (!before(heap_[least].key, last.key)) break;
        heap_[hole] = heap_[least];
        hole = least;
      }
      heap_[hole] = last;
    }
    free_.push_back(slot);
    return slab_[slot];
  }

 private:
  static constexpr std::size_t kArity = 4;
  struct Entry {
    EventKey key;
    std::uint32_t slot = 0;
  };
  std::vector<Entry> heap_;
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_;
};

/// A FIFO station with a pool of identical servers and a bounded queue.
struct Station {
  std::vector<double> server_free_at;
  std::deque<Job> queue;
  StationStats stats;
};

/// The fleet.* counter columns and the FleetStats totals behind them.
constexpr std::array<const char*, 6> kCounterColumns{
    "fleet.arrivals", "fleet.completed", "fleet.local",
    "fleet.escalated", "fleet.dead",     "fleet.shed"};
std::array<std::int64_t, 6> counter_totals(const FleetStats& s) {
  return {s.arrivals, s.completed, s.local, s.escalated, s.dead, s.shed};
}

/// fleet.* series column handles (all -1 when no series is bound).
struct FleetSeries {
  obs::WindowedSeries* series = nullptr;
  std::array<int, 6> counters{};  // kCounterColumns order
  int hdr_latency_ms = -1;
  int queue_depth = -1;
  std::vector<int> station_queue;  // per-station queue gauge, cloud last
};

/// Station metric name: fleet.station.edge<g> / fleet.station.cloud.
std::string station_prefix(int station, int cloud_idx) {
  return station == cloud_idx ? "fleet.station.cloud"
                              : "fleet.station.edge" + std::to_string(station);
}

}  // namespace

FleetStats simulate_fleet(const std::vector<InferenceTrace>& traces,
                          const FleetConfig& config,
                          std::int64_t stream_length,
                          obs::WindowedSeries* series,
                          obs::MetricsRegistry* registry,
                          obs::SloEngine* slo) {
  DDNN_CHECK(!traces.empty(), "fleet simulation needs at least one trace");
  DDNN_CHECK(stream_length > 0, "non-positive stream length");
  DDNN_CHECK(config.num_devices > 0, "fleet needs at least one device");
  DDNN_CHECK(config.num_edges > 0, "fleet needs at least one edge");
  DDNN_CHECK(config.edge_servers > 0 && config.cloud_servers > 0,
             "every server pool needs at least one server");
  DDNN_CHECK(config.edge_service_s >= 0.0 && config.cloud_service_s >= 0.0,
             "negative service time");
  DDNN_CHECK(config.edge_cloud_latency_s >= 0.0, "negative hop latency");
  DDNN_CHECK(config.max_batch >= 1, "max_batch must be >= 1");
  DDNN_CHECK(config.batch_growth >= 0.0, "negative batch growth");
  DDNN_CHECK(config.queue_capacity >= 1, "queue capacity must be >= 1");
  DDNN_CHECK(config.first_cloud_exit >= 1, "first_cloud_exit must be >= 1");
  check_trace_latencies(traces);
  if (config.interarrival_s.empty()) {
    DDNN_CHECK(config.arrival_rate_hz > 0.0, "non-positive arrival rate");
  } else {
    for (const double gap : config.interarrival_s) {
      DDNN_CHECK(gap >= 0.0 && std::isfinite(gap),
                 "inter-arrival gap " << gap << " must be finite and >= 0");
    }
  }

  // Latency tail buckets: millisecond values at microsecond resolution up
  // to an hour — a few thousand log buckets, <= 1/128 relative error.
  constexpr double kHdrUnitMs = 1e-3;
  constexpr double kHdrMaxMs = 3.6e6;
  const int cloud_idx = config.num_edges;

  FleetSeries fs;
  if (series != nullptr) {
    DDNN_CHECK(series->column_count() == 0,
               "simulate_fleet needs a freshly constructed series (it "
               "registers its own fleet.* columns)");
    fs.series = series;
    for (std::size_t i = 0; i < kCounterColumns.size(); ++i) {
      fs.counters[i] = series->add_counter(kCounterColumns[i]);
    }
    series->add_rate("fleet.throughput_hz", fs.counters[1]);  // completed
    fs.hdr_latency_ms =
        series->add_hdr("fleet.hdr_latency_ms", kHdrUnitMs, kHdrMaxMs);
    fs.queue_depth = series->add_gauge("fleet.queue_depth");
    for (int g = 0; g <= config.num_edges; ++g) {
      fs.station_queue.push_back(
          series->add_gauge(station_prefix(g, cloud_idx) + ".queue"));
    }
  }

  // Every completion lands in one single-writer accumulator: FleetStats
  // reads p99/p99.9 and their exemplars from it, and a bound registry gets
  // it merged into fleet.hdr_latency_ms once, at the end (registered here,
  // so the export keeps its registration order).
  obs::HdrHistogram::Local latency_hdr(kHdrUnitMs, kHdrMaxMs);
  obs::HdrHistogram* registry_hdr =
      registry != nullptr ? &registry->hdr_histogram("fleet.hdr_latency_ms",
                                                     kHdrUnitMs, kHdrMaxMs)
                          : nullptr;

  int slo_latency = -1;
  int slo_availability = -1;
  if (slo != nullptr) {
    slo_latency = slo->add_objective(
        {.name = "fleet.latency",
         .tier = "fleet",
         .target = config.slo_latency_target,
         .fast_window = config.slo_fast_window_s,
         .slow_window = config.slo_slow_window_s});
    slo_availability = slo->add_objective(
        {.name = "fleet.availability",
         .tier = "fleet",
         .target = config.slo_availability_target,
         .fast_window = config.slo_fast_window_s,
         .slow_window = config.slo_slow_window_s});
  }

  FleetStats stats;
  stats.edges.resize(static_cast<std::size_t>(config.num_edges));

  // Stations 0..M-1 are edges, station M is the cloud.
  std::vector<Station> stations(static_cast<std::size_t>(config.num_edges) +
                                1);
  for (int g = 0; g < config.num_edges; ++g) {
    stations[static_cast<std::size_t>(g)].server_free_at.assign(
        static_cast<std::size_t>(config.edge_servers), 0.0);
  }
  stations[static_cast<std::size_t>(cloud_idx)].server_free_at.assign(
      static_cast<std::size_t>(config.cloud_servers), 0.0);

  EventQueue events;
  std::int64_t seq = 0;
  const auto push = [&events, &seq](double t, const Event& ev) {
    events.push({t, seq++}, ev);
  };

  Rng rng(config.seed);
  std::int64_t queued_total = 0;  // across every station, for the gauge
  std::int64_t rr_next = 0;       // round-robin edge cursor
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(stream_length));

  // Dispatch loop for one station: every free server takes up to max_batch
  // queued samples (the cloud serves singly; its upstream edge already
  // batched the section forward pass) and serves the batch in
  // base * (1 + (k-1) * growth).
  const auto dispatch = [&](int station_idx, double now) {
    Station& st = stations[static_cast<std::size_t>(station_idx)];
    const bool is_cloud = station_idx == cloud_idx;
    const double base_service =
        is_cloud ? config.cloud_service_s : config.edge_service_s;
    while (!st.queue.empty()) {
      int srv = -1;
      for (std::size_t s = 0; s < st.server_free_at.size(); ++s) {
        if (st.server_free_at[s] <= now) {
          srv = static_cast<int>(s);
          break;
        }
      }
      if (srv < 0) return;
      const auto batch = is_cloud
                             ? std::int64_t{1}
                             : std::min<std::int64_t>(
                                   config.max_batch,
                                   static_cast<std::int64_t>(st.queue.size()));
      const double service =
          base_service *
          (1.0 + static_cast<double>(batch - 1) * config.batch_growth);
      const double done = now + service;
      st.server_free_at[static_cast<std::size_t>(srv)] = done;
      st.stats.busy_s += service;
      st.stats.served += batch;
      ++st.stats.batches;
      push(done, {.kind = Event::Kind::kServerFree, .station = station_idx,
                  .job = {}});
      for (std::int64_t b = 0; b < batch; ++b) {
        Job job = st.queue.front();
        st.queue.pop_front();
        --queued_total;
        if (!is_cloud && job.needs_cloud) {
          push(done + config.edge_cloud_latency_s,
               {.kind = Event::Kind::kStationArrival, .station = cloud_idx,
                .job = job});
        } else {
          push(done, {.kind = Event::Kind::kDone, .job = job});
        }
      }
    }
  };

  // The arrival chain: arrival k schedules arrival k+1 before its own
  // job's event, so the RNG draw order is exactly the arrival order. The
  // one pending arrival waits outside the heap with the seq it would have
  // had as an event; the loop takes it whenever its key is before the
  // heap's top, so every event keeps its (t, seq) turn.
  struct Arrival {
    EventKey key;
    std::int64_t index = 0;
  };
  // Gap before arrival `index`: a Poisson draw, or the replayed gap.
  const auto gap_before = [&](std::int64_t index) {
    return config.interarrival_s.empty()
               ? exponential_from_uniform(rng.uniform(),
                                          config.arrival_rate_hz)
               : config.interarrival_s[static_cast<std::size_t>(
                     index % static_cast<std::int64_t>(
                                 config.interarrival_s.size()))];
  };
  Arrival next{.key = {gap_before(0), seq++}, .index = 0};
  bool arrival_pending = true;

  // One open-loop arrival at `now`: route its trace into the network.
  const auto enter = [&](std::int64_t index, double now) {
    ++stats.arrivals;
    const int device = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(config.num_devices)));
    const InferenceTrace& trace =
        traces[static_cast<std::size_t>(index) % traces.size()];
    if (trace.exit_taken < 0) {
      // Dead trace: no tier classified it — it must never occupy a
      // queueing server or contribute a latency sample. It does count
      // against availability: the fleet failed to classify it.
      ++stats.dead;
      if (slo != nullptr) slo->record(slo_availability, now, false);
      return;
    }
    Job job;
    job.entry_t = now;
    job.index = index;
    // Pools that predate trace ids get the simulator's, keyed by the
    // arrival index.
    job.trace_id =
        trace.trace_id != 0 ? trace.trace_id : trace_id_of(index);
    if (trace.exit_taken == 0) {
      job.local = true;
      push(now + trace.latency_s, {.kind = Event::Kind::kDone, .job = job});
      return;
    }
    job.needs_cloud = trace.exit_taken >= config.first_cloud_exit;
    int edge = 0;
    switch (config.policy) {
      case EdgePolicy::kNearest:
        edge = static_cast<int>(static_cast<std::int64_t>(device) *
                                config.num_edges / config.num_devices);
        break;
      case EdgePolicy::kRoundRobin:
        edge = static_cast<int>(
            rr_next++ % static_cast<std::int64_t>(config.num_edges));
        break;
      case EdgePolicy::kLeastLoaded: {
        std::int64_t best = -1;
        for (int g = 0; g < config.num_edges; ++g) {
          const Station& st = stations[static_cast<std::size_t>(g)];
          auto load = static_cast<std::int64_t>(st.queue.size());
          for (const double free_at : st.server_free_at) {
            if (free_at > now) ++load;
          }
          if (best < 0 || load < best) {
            best = load;
            edge = g;
          }
        }
        break;
      }
    }
    push(now + trace.latency_s,
         {.kind = Event::Kind::kStationArrival, .station = edge, .job = job});
  };

  // Counter and gauge columns take one write per window, at the clock of
  // the window's last event: the counters write the growth of the
  // FleetStats totals since the last write, the gauges the queue state the
  // loop keeps. Only a station arrival or a server free at a station
  // changes its queue, so the state after the window's last event is the
  // last queue size of the window.
  std::array<std::int64_t, 6> written{};  // counter totals at the last write
  bool window_open = false;
  double window_t = 0.0;    // clock of the open window's latest event
  double window_end = 0.0;  // first clock past the open window
  const auto write_window = [&] {
    const std::array<std::int64_t, 6> totals = counter_totals(stats);
    for (std::size_t i = 0; i < totals.size(); ++i) {
      fs.series->record(fs.counters[i], window_t,
                        static_cast<double>(totals[i] - written[i]));
    }
    written = totals;
    fs.series->record(fs.queue_depth, window_t,
                      static_cast<double>(queued_total));
    for (std::size_t g = 0; g < stations.size(); ++g) {
      fs.series->record(fs.station_queue[g], window_t,
                        static_cast<double>(stations[g].queue.size()));
    }
  };
  // Called with each event's clock before the event runs, so a window's
  // writes precede every record into a later one.
  const auto enter_window = [&](double now) {
    if (now >= window_end) {
      if (window_open) write_window();
      const double width = fs.series->width();
      window_end = obs::window_start(
          width, static_cast<std::int64_t>(now / width) + 1);
      window_open = true;
    }
    window_t = now;
  };

  double horizon = 0.0;
  while (arrival_pending || !events.empty()) {
    if (arrival_pending &&
        (events.empty() || before(next.key, events.top()))) {
      const Arrival arrival = next;
      const double now = arrival.key.t;
      horizon = std::max(horizon, now);
      if (fs.series != nullptr) enter_window(now);
      if (arrival.index + 1 < stream_length) {
        next.index = arrival.index + 1;
        next.key.t += gap_before(next.index);
        next.key.seq = seq++;
      } else {
        arrival_pending = false;
      }
      enter(arrival.index, now);
      continue;
    }
    const double now = events.top().t;
    const Event ev = events.pop();
    horizon = std::max(horizon, now);
    if (fs.series != nullptr) enter_window(now);
    switch (ev.kind) {
      case Event::Kind::kStationArrival: {
        Station& st = stations[static_cast<std::size_t>(ev.station)];
        if (static_cast<std::int64_t>(st.queue.size()) >=
            config.queue_capacity) {
          // Admission control: the queue is full, so the sample is shed —
          // counted at both the station and the network, never crashed on.
          ++st.stats.shed;
          ++stats.shed;
          if (slo != nullptr) slo->record(slo_availability, now, false);
          break;
        }
        st.queue.push_back(ev.job);
        ++queued_total;
        st.stats.peak_queue = std::max(
            st.stats.peak_queue, static_cast<std::int64_t>(st.queue.size()));
        dispatch(ev.station, now);
        break;
      }
      case Event::Kind::kServerFree:
        dispatch(ev.station, now);
        break;
      case Event::Kind::kDone: {
        const double latency = now - ev.job.entry_t;
        latencies.push_back(latency);
        ++stats.completed;
        if (ev.job.local) {
          ++stats.local;
        } else {
          ++stats.escalated;
        }
        const double latency_ms = 1e3 * latency;
        latency_hdr.record(latency_ms, ev.job.trace_id, ev.job.index);
        if (fs.series != nullptr) {
          fs.series->record(fs.hdr_latency_ms, now, latency_ms);
        }
        if (slo != nullptr) {
          slo->record(slo_latency, now, latency_ms <= config.slo_latency_ms);
          slo->record(slo_availability, now, true);
        }
        break;
      }
    }
  }

  if (window_open) write_window();
  fill_latency_stats(latencies, stats.mean_latency_s, stats.p50_latency_s,
                     stats.p95_latency_s, stats.max_latency_s);
  if (registry_hdr != nullptr) registry_hdr->merge(latency_hdr);
  if (latency_hdr.count() > 0) {
    const obs::HdrHistogram::View tail = latency_hdr.view();
    stats.p99_latency_s = 1e-3 * tail.percentile(0.99);
    stats.p999_latency_s = 1e-3 * tail.percentile(0.999);
    stats.p99_exemplar = tail.exemplar_at(0.99);
    stats.p999_exemplar = tail.exemplar_at(0.999);
    stats.max_exemplar = tail.max_exemplar();
  }
  stats.horizon_s = horizon;
  stats.throughput_hz =
      horizon > 0.0 ? static_cast<double>(stats.completed) / horizon : 0.0;
  for (int g = 0; g <= config.num_edges; ++g) {
    const Station& st = stations[static_cast<std::size_t>(g)];
    StationStats out = st.stats;
    const double pool =
        static_cast<double>(st.server_free_at.size()) * horizon;
    out.utilization = pool > 0.0 ? out.busy_s / pool : 0.0;
    if (g == cloud_idx) {
      stats.cloud = out;
    } else {
      stats.edges[static_cast<std::size_t>(g)] = out;
    }
    if (registry != nullptr) {
      const std::string prefix = station_prefix(g, cloud_idx);
      registry->counter(prefix + ".served").add(out.served);
      registry->counter(prefix + ".batches").add(out.batches);
      registry->counter(prefix + ".shed").add(out.shed);
      registry->gauge(prefix + ".peak_queue")
          .set(static_cast<double>(out.peak_queue));
      registry->gauge(prefix + ".utilization").set(out.utilization);
    }
  }
  return stats;
}

}  // namespace ddnn::dist
