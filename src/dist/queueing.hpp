// Queueing study: end-to-end response time of a DDNN under streaming load.
//
// The paper's latency argument (Sections I and V) is per-sample: samples
// exiting locally skip the uplink. Under *load*, local exits matter even
// more — escalated samples contend for shared edge/cloud resources, and
// queueing delay compounds the transfer time. simulate_fleet is a
// deterministic open-loop multi-server queueing network over per-sample
// inference traces and an N-device × M-edge × multi-cloud topology:
// per-edge and per-cloud server pools with bounded FIFO queues (overflow
// is shed and counted, never crashed on), Poisson- or trace-driven
// arrivals, per-edge request batching that amortizes section forward
// passes over concurrent samples, and pluggable edge-selection policies
// (nearest / least-loaded / round-robin). Event processing is
// single-threaded: a 4-ary heap of (time, schedule sequence, slot) keys
// over a slab of event payloads, with the one pending arrival kept outside
// the heap and taken whenever its key is before the heap's top. The
// sequence number is unique, so pops follow the strict (time, sequence)
// order and results are byte-identical across reruns and DDNN_THREADS
// settings.
//
// The paper-style single queue is one configuration of the same network
// (single_queue_config below): escalated samples queue FIFO for one cloud
// server after their network latency, an M/D/1 queue under Poisson
// arrivals.
//
// Input is a trace of per-sample outcomes from HierarchyRuntime (exit tier
// and network latency), so the queueing layer composes with any trained
// model and threshold policy without re-running inference. Dead traces
// (exit_taken == -1, produced by the fault layer) never occupy a server:
// they are counted separately and contribute no latency sample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ddnn::dist {

/// Inverse-CDF exponential inter-arrival gap from a uniform draw u:
/// -log(1 - u) / rate_hz, with u clamped below 1 so the gap is always
/// finite (u == 1 would map to +inf and freeze the arrival clock).
/// rate_hz must be positive; u outside [0, 1] is clamped into it.
double exponential_from_uniform(double u, double rate_hz);

// ------------------------------------------------------ fleet-scale network

/// How an escalated sample picks its edge station.
enum class EdgePolicy {
  /// The device's home edge: contiguous blocks of devices per edge.
  kNearest,
  /// The edge with the fewest queued + in-service samples at routing time
  /// (ties broken toward the lowest index).
  kLeastLoaded,
  /// A global round-robin counter over the edges.
  kRoundRobin,
};

EdgePolicy parse_edge_policy(const std::string& name);
std::string to_string(EdgePolicy policy);

struct FleetConfig {
  /// Topology: N devices spread over M edges; one cloud with its own pool.
  int num_devices = 100;
  int num_edges = 4;
  /// Server-pool sizes: each edge runs `edge_servers` parallel servers,
  /// the cloud runs `cloud_servers`.
  int edge_servers = 1;
  int cloud_servers = 2;

  /// Open-loop arrivals: Poisson at `arrival_rate_hz` over the whole
  /// fleet, unless `interarrival_s` is non-empty — then the gaps (seconds,
  /// all >= 0) are replayed in order and cycled (trace-file-driven load).
  double arrival_rate_hz = 200.0;
  std::vector<double> interarrival_s;

  /// Deterministic service model (seconds).
  double edge_service_s = 2e-3;
  double cloud_service_s = 4e-3;
  /// Extra hop latency for samples forwarded from an edge to the cloud.
  double edge_cloud_latency_s = 10e-3;

  /// Per-edge request batching: a freeing server takes up to `max_batch`
  /// queued samples and serves them together in
  /// edge_service_s * (1 + (batch - 1) * batch_growth) — the section
  /// forward pass is amortized over the batch. The cloud serves one sample
  /// per dispatch (its section already runs at batch granularity upstream).
  int max_batch = 8;
  double batch_growth = 0.25;

  /// Bounded-queue admission control: a sample arriving at a station whose
  /// queue already holds `queue_capacity` samples is shed (counted, never
  /// crashed on) and leaves the network.
  std::int64_t queue_capacity = 256;

  /// Traces with exit_taken >= first_cloud_exit continue from their edge
  /// to the cloud tier. Three-exit traces (local/edge/cloud) use the
  /// default 2; two-exit traces (local/cloud) should set 1 so escalated
  /// samples pass through their gateway/edge station on the way up.
  int first_cloud_exit = 2;

  EdgePolicy policy = EdgePolicy::kNearest;
  std::uint64_t seed = 1;

  /// SLO configuration consumed when an obs::SloEngine is bound: a
  /// completion is "good" for the latency objective when its end-to-end
  /// latency is at or under `slo_latency_ms`; shed and dead samples are
  /// "bad" for the availability objective. Windows are simulated seconds.
  double slo_latency_ms = 100.0;
  double slo_latency_target = 0.99;
  double slo_availability_target = 0.999;
  double slo_fast_window_s = 60.0;
  double slo_slow_window_s = 600.0;
};

/// Per-station (edge or cloud) accounting.
struct StationStats {
  std::int64_t served = 0;   // samples that completed service here
  std::int64_t batches = 0;  // dispatches (served / batches = mean batch)
  std::int64_t shed = 0;     // arrivals rejected by admission control
  std::int64_t peak_queue = 0;
  double busy_s = 0.0;       // server-busy seconds summed over the pool
  double utilization = 0.0;  // busy_s / (servers * horizon)
};

struct FleetStats {
  std::int64_t arrivals = 0;
  std::int64_t completed = 0;  // samples that obtained a classification
  std::int64_t local = 0;      // completed at the device tier
  std::int64_t escalated = 0;  // completed after edge (and maybe cloud)
  std::int64_t dead = 0;       // dead traces: counted, never enqueued
  std::int64_t shed = 0;       // dropped by admission control (all stations)
  double horizon_s = 0.0;      // time of the last processed event
  double throughput_hz = 0.0;  // completed / horizon
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double max_latency_s = 0.0;
  /// Tail percentiles from the log-bucketed latency histogram (obs/hdr.hpp,
  /// relative bucket error <= 1/128); max_latency_s above stays exact.
  double p99_latency_s = 0.0;
  double p999_latency_s = 0.0;
  /// Trace exemplars of the p99 / p99.9 / max latency buckets: the sample
  /// index is the open-loop arrival index, the trace id the replayed
  /// InferenceTrace's distributed trace id (0 when the trace pool predates
  /// trace ids — then a seed-derived id stands in).
  obs::HdrExemplar p99_exemplar;
  obs::HdrExemplar p999_exemplar;
  obs::HdrExemplar max_exemplar;
  std::vector<StationStats> edges;
  StationStats cloud;

  double mean_edge_utilization() const;
  /// Per-station breakdown (station, servers implied by config, served,
  /// batches, shed, peak queue, utilization %).
  Table station_table() const;
};

/// The ledger encoding of a FleetStats, appended to `rec` in a fixed order:
/// fleet.arrivals, .completed, .local, .escalated, .shed, .dead,
/// .throughput_hz, the .{mean,p50,p95,max,p99,p999}_latency_ms, the
/// .p99_sample and .p999_sample exemplar arrival indices, .edge_util_mean,
/// .cloud_util; with `slo`, fleet.slo.<objective>.{ratio,fast_burn,
/// slow_burn,state} per objective; then fleet.station.<edgeN|cloud>.
/// {served,utilization}.
void add_ledger_metrics(obs::LedgerRecord& rec, const FleetStats& stats,
                        const obs::SloEngine* slo = nullptr);

/// The single-queue topology: one device, one edge that adds nothing
/// (edge_service_s = 0, edge_cloud_latency_s = 0, max_batch = 1), one
/// cloud server serving every trace past exit 0 in `cloud_service_s`, and
/// a queue that never sheds. The `stream_length` Poisson gaps at
/// `arrival_rate_hz` are drawn up front from Rng(seed) and replayed as
/// interarrival_s, so the arrival times are that seed's plain exponential
/// sequence: the simulator's own Poisson draws interleave with its
/// per-arrival device draw.
FleetConfig single_queue_config(double arrival_rate_hz, double cloud_service_s,
                                std::uint64_t seed,
                                std::int64_t stream_length);

/// Simulate `stream_length` open-loop arrivals over the fleet topology,
/// replaying `traces` cyclically; every trace with exit_taken >= 0 must
/// carry a finite latency_s >= 0 (checked up front). When `series` is given it must be freshly
/// constructed (no columns yet); the simulator registers fleet.* columns —
/// arrivals/completed/local/escalated/dead/shed counters, a
/// fleet.throughput_hz rate, a fleet.hdr_latency_ms column
/// (.n/.p50/.p95/.p99/.p999/.max), per-station queue gauges and a
/// fleet.queue_depth gauge — on the simulated clock, so exports are
/// byte-identical across reruns and DDNN_THREADS settings. The hdr column
/// takes every completion; the counter and gauge columns take one write
/// per window (the counts' growth and the queue state at the window's last
/// event), flushed when an event falls in a later window and at the end.
///
/// The latency tail is one single-writer HdrHistogram::Local per call;
/// FleetStats reads its p99/p99.9 and exemplars. When `registry` is given
/// the simulator additionally merges it, once, into a
/// fleet.hdr_latency_ms HDR histogram (with trace exemplars) and
/// fleet.station.* counters/gauges (served/batches/shed/peak_queue/
/// utilization per station). When `slo` is given it registers (get-or-
/// create) the fleet.latency and fleet.availability objectives from the
/// config's slo_* fields and feeds them on the simulated clock.
FleetStats simulate_fleet(const std::vector<InferenceTrace>& traces,
                          const FleetConfig& config,
                          std::int64_t stream_length,
                          obs::WindowedSeries* series = nullptr,
                          obs::MetricsRegistry* registry = nullptr,
                          obs::SloEngine* slo = nullptr);

}  // namespace ddnn::dist
