// HierarchyRuntime: end-to-end simulated execution of DDNN inference over
// the distributed computing hierarchy (paper Section III-D, steps 1-6).
//
// Per sample:
//   1. every healthy device runs its NN section and sends its class-score
//      message to the local aggregator (gateway);
//   2. the gateway fuses the scores and computes the normalized entropy;
//   3. eta <= T_local  -> classify locally, nothing else is transmitted;
//   4. otherwise every healthy device transmits its bit-packed binary
//      feature map to its edge (or straight to the cloud);
//   5. with an edge tier: each edge aggregates its members, runs its trunk,
//      and the fused edge exit decides; confident -> classify at the edge;
//   6. otherwise the edges (or devices) forward features to the cloud,
//      which always classifies.
//
// Every message crosses a Link, so byte counts and simulated latency are
// measured, not modeled; tests assert the measured per-device bytes match
// the paper's Eq. 1.
//
// With a FaultPlan installed (set_fault_plan), every send goes through a
// ReliableChannel (timeout + bounded retry + backoff) and the runtime
// degrades gracefully instead of aborting:
//   * a gateway that hears from zero devices escalates without a local
//     decision;
//   * a sample whose edge tier is in an outage window routes device
//     features straight to the cloud, which runs the edge section itself;
//   * when no feature reaches the cloud at all, alive devices fall back to
//     raw-image offload (the paper's traditional-offloading baseline);
//   * a sample no tier can classify yields a flagged dead trace
//     (exit_taken = -1) — counted, never crashed on.
// All fault randomness is counter-mode seeded (see dist/fault.hpp), so runs
// are bit-identical across repetitions and DDNN_THREADS settings.
#pragma once

#include <optional>

#include "core/inference.hpp"
#include "core/metrics.hpp"
#include "core/model.hpp"
#include "data/mvmc.hpp"
#include "dist/fault.hpp"
#include "dist/link.hpp"
#include "dist/node.hpp"
#include "dist/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace ddnn::dist {

struct RuntimeConfig {
  /// Device uplinks (to gateway / edge / cloud): constrained wireless.
  LinkConfig device_link{};
  /// Edge-to-cloud links: faster backhaul.
  LinkConfig edge_link{.bandwidth_bytes_per_s = 2e6, .base_latency_s = 10e-3};
  /// Fixed compute latency charged per tier per sample (seconds).
  double device_compute_s = 2e-3;
  double edge_compute_s = 1e-3;
  double cloud_compute_s = 0.5e-3;
  /// Timeout/retry/backoff policy applied to every send. With no fault plan
  /// installed nothing is ever dropped, so this is inert for healthy runs.
  ReliabilityConfig reliability{};
};

/// Outcome of classifying one sample on the simulated hierarchy.
struct InferenceTrace {
  int exit_taken = 0;            // index into exit_names(); -1 = dead sample
  std::int64_t prediction = 0;   // -1 when no tier could classify
  double entropy = 0.0;          // normalized entropy at the taken exit
  double latency_s = 0.0;        // simulated network + compute latency
  std::int64_t bytes_sent = 0;   // total delivered bytes across all links
  bool degraded = false;         // took a graceful-degradation route
  bool dead = false;             // nothing reached any classifier
  int retries = 0;               // re-transmissions spent on this sample
  /// Deterministic 48-bit distributed trace id, minted from the run seed
  /// and sample index (never the wall clock) — the key histogram exemplars
  /// carry so a p99.9 bucket resolves to this sample's span tree.
  std::uint64_t trace_id = 0;
};

/// argmax + normalized entropy of a [1, C] score vector — the decision rule
/// every exit applies to its fused scores. Shared by the simulator and the
/// served hierarchy (dist/serve.cpp) so the two paths cannot drift.
struct ExitDecision {
  std::int64_t prediction = 0;
  double entropy = 0.0;
};
ExitDecision decide_exit(const Tensor& logits);

/// Edge-outage fallback shared by the simulator and the served cloud
/// (dist/serve.cpp): run edge group `g`'s section on whatever member device
/// features arrived. Returns the feature message the cloud would have
/// received from that edge, or nullopt when no member delivered.
std::optional<Message> edge_section_at_cloud(
    core::DdnnModel& model, std::size_t g,
    const std::vector<std::optional<Message>>& features);

/// Raw-offload fallback shared by the simulator and the served cloud: run
/// the full network on delivered raw views (indexed by model branch).
/// Returns the final [1, C] scores.
Tensor cloud_forward_from_raw_views(
    core::DdnnModel& model, const std::vector<std::optional<Message>>& raws);

/// Aggregate statistics over a run.
struct RuntimeMetrics {
  std::int64_t samples = 0;
  std::vector<std::int64_t> exit_counts;   // per exit; dead samples excluded
  std::vector<std::int64_t> device_bytes;  // per device, all uplinks
  std::int64_t total_bytes = 0;
  double total_latency_s = 0.0;
  std::int64_t correct = 0;
  core::ReliabilityCounters reliability;

  double accuracy() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(samples);
  }
  double mean_latency_s() const {
    return samples == 0 ? 0.0 : total_latency_s / static_cast<double>(samples);
  }
  /// Average uplink bytes per sample for one device — the quantity the
  /// paper's Eq. 1 models.
  double device_bytes_per_sample(int device) const {
    return samples == 0
               ? 0.0
               : static_cast<double>(
                     device_bytes[static_cast<std::size_t>(device)]) /
                     static_cast<double>(samples);
  }
};

/// The one writer of a run's accounting, shared by the simulator
/// (HierarchyRuntime) and the served driver (drive_hierarchy), so both paths
/// book the same RuntimeMetrics, registry metrics and series columns. It
/// owns the run's RuntimeMetrics window and, when bound, the registry
/// handles and series column ids. One entry point per event:
///   * send()   — one reliable send: retries, drops, timeouts and delivered
///                bytes, into the trace and every bound sink;
///   * sample() — one finished sample: exit, correct, degraded, dead, total
///                latency, the latency and bytes histograms, and the HDR
///                latency histogram with the sample's trace exemplar.
/// link.<name>.* is booked only for the links the book was built with; a
/// send on any other link books the runtime.* aggregates alone.
///
/// Single-writer, like the loops that call it. Links are keyed by address,
/// so they must outlive the book and never move.
class RunBook {
 public:
  RunBook() = default;
  RunBook(std::vector<std::string> exit_names, std::size_t num_devices,
          std::vector<const Link*> links);

  /// Bind a metrics registry (not owned; null unbinds) and register, once
  /// and in a fixed order: the runtime.* counters (samples, bytes_total,
  /// correct, retries, drops, timeouts, degraded, dead, exit.<name>), the
  /// runtime.total_latency_s gauge, the runtime.sample_latency_ms
  /// histogram, the runtime.hdr_latency_ms HDR histogram, the
  /// runtime.sample_bytes histogram, then each booked link's link.<name>.*
  /// counters.
  void bind_metrics(obs::MetricsRegistry* registry);
  /// Bind a windowed series (not owned; null unbinds) and register its
  /// columns: counters named exactly like the registry counters, per-exit
  /// runtime.exit_frac.<name> and runtime.accuracy ratios, the
  /// runtime.latency_ms histogram, the runtime.hdr_latency_ms tail column
  /// and one link.<name>.bytes counter per booked link. Every event is
  /// recorded at the clock `t` its caller passes.
  void bind_series(obs::WindowedSeries* series);

  /// Book one send of `payload_bytes` on `link` by model branch `branch`
  /// (-1 for a non-device sender) at clock `t`.
  void send(const Link& link, const SendResult& res,
            std::int64_t payload_bytes, int branch, double t,
            InferenceTrace& trace);
  /// Book one finished sample (exit_taken, prediction, latency_s, bytes_sent
  /// and flags already set) at clock `t`.
  void sample(const InferenceTrace& trace, std::int64_t label,
              std::int64_t sample_index, double t);

  const RuntimeMetrics& metrics() const { return metrics_; }
  /// Zero the RuntimeMetrics window; bound sinks keep accumulating.
  void reset();

 private:
  /// Counter slots booked into both sinks; exit e is slot kExit0 + e.
  enum Slot : std::size_t {
    kSamples, kBytesTotal, kCorrect, kRetries, kDrops, kTimeouts, kDegraded,
    kDead, kExit0
  };
  /// Add `n` to counter slot `slot` in every bound sink (series at `t`).
  void count(std::size_t slot, std::int64_t n, double t);

  std::vector<std::string> exit_names_;
  std::vector<const Link*> links_;
  RuntimeMetrics metrics_;

  obs::MetricsRegistry* registry_ = nullptr;
  std::vector<obs::Counter*> counters_;  // by slot
  obs::Gauge* total_latency_s_ = nullptr;
  obs::Histogram* latency_ms_ = nullptr;
  obs::HdrHistogram* hdr_latency_ms_ = nullptr;
  obs::Histogram* sample_bytes_ = nullptr;
  std::vector<LinkCounters> link_counters_;  // parallel to links_

  obs::WindowedSeries* series_ = nullptr;
  std::vector<int> columns_;  // by slot
  int latency_col_ = -1;
  int hdr_latency_col_ = -1;
  std::vector<int> link_bytes_cols_;  // parallel to links_
};

class HierarchyRuntime {
 public:
  /// `thresholds`: one normalized-entropy threshold per non-final exit.
  /// `device_map` maps model branches to dataset device ids (as in
  /// core::train_ddnn).
  HierarchyRuntime(core::DdnnModel& model, std::vector<double> thresholds,
                   std::vector<int> device_map, RuntimeConfig config = {});
  // The book keys its links by address: the runtime stays where it is built.
  HierarchyRuntime(const HierarchyRuntime&) = delete;
  HierarchyRuntime& operator=(const HierarchyRuntime&) = delete;

  /// Mark a device (by model branch index) failed/healthy.
  void set_device_failed(int branch, bool failed);

  /// Install a fault plan: from now on link drops, device schedules and
  /// edge outages are drawn deterministically from the plan's seed, keyed
  /// by sample index (see reset_metrics() for the timeline).
  void set_fault_plan(FaultPlan plan);

  /// Remove the fault plan; subsequent runs are fault-free.
  void clear_fault_plan();

  const FaultInjector* fault_injector() const {
    return injector_ ? &*injector_ : nullptr;
  }

  /// Route every send through `transport` (not owned; null restores the
  /// builtin SimTransport). The installed fault injector follows the active
  /// transport, so set_fault_plan/clear_fault_plan keep working across
  /// swaps.
  void set_transport(Transport* transport);
  Transport& transport() {
    return transport_ != nullptr ? *transport_ : sim_transport_;
  }

  /// Classify one multi-view sample; updates metrics. Never throws for
  /// fault-induced conditions: a sample that no tier can classify yields a
  /// flagged dead trace (exit_taken = -1, prediction = -1) instead.
  InferenceTrace classify(const data::MvmcSample& sample);

  /// Classify a whole sample set (convenience; updates metrics).
  RuntimeMetrics run(const std::vector<data::MvmcSample>& samples);

  const RuntimeMetrics& metrics() const { return book_.metrics(); }

  /// Clear metrics and link stats, and rewind the fault timeline to sample
  /// index 0 — so repeated runs of the same sample set under the same plan
  /// are bit-identical.
  void reset_metrics();

  /// Attach a span tracer (not owned; null detaches). Every subsequent
  /// classify() appends one span tree — a root "sample" span on track 0 plus
  /// per-tier child spans (device_section, send:*, gateway_fuse, edge_trunk,
  /// edge_exit_fuse, cloud_classify) — stamped with the *simulated* clock:
  /// span start times are offsets on a run timeline where sample k begins at
  /// the sum of the previous samples' latencies. Traces are therefore a pure
  /// function of (model, data, fault plan) and byte-identical across reruns.
  /// Track names for the hierarchy are registered on attach.
  void set_tracer(obs::SpanTracer* tracer);

  /// Bind a metrics registry (not owned; null unbinds). The runtime's
  /// RunBook registers every runtime.* metric and the link.<name>.* counters
  /// of every hierarchy link here, once, so the export order is stable no
  /// matter which path the first sample takes; classify() then books each
  /// send and sample into it (see RunBook::bind_metrics for the names).
  void bind_metrics(obs::MetricsRegistry* registry) {
    book_.bind_metrics(registry);
  }

  /// Bind a windowed series (not owned; null unbinds). The RunBook registers
  /// its columns — counters named exactly like the registry counters, so
  /// window sums reconcile exactly with the final metrics snapshot
  /// (scripts/check_trace.py --series) — and classify() records every
  /// sample at its simulated start time, the clock origin the tracer uses.
  void bind_series(obs::WindowedSeries* series) { book_.bind_series(series); }

  /// Per-link traffic table (link, messages, bytes, bytes/sample) over the
  /// metrics window — the bytes-crossing-every-boundary view of a run.
  Table link_report() const;

  core::DdnnModel& model() { return model_; }

  /// Link inspection for tests/benches.
  const std::vector<Link>& device_gateway_links() const {
    return dev_gateway_links_;
  }
  const std::vector<Link>& device_uplink_links() const {
    return dev_uplink_links_;
  }
  const std::vector<Link>& edge_cloud_links() const {
    return edge_cloud_links_;
  }
  /// Direct device->cloud fallback links (edge configurations only): used
  /// when a device's edge tier is unreachable and for raw-image offload.
  const std::vector<Link>& device_cloud_fallback_links() const {
    return dev_cloud_links_;
  }

 private:
  core::DdnnModel& model_;
  std::vector<double> thresholds_;
  std::vector<int> device_map_;
  RuntimeConfig config_;

  std::vector<DeviceNode> devices_;
  std::optional<GatewayNode> gateway_;
  std::vector<EdgeNode> edges_;
  CloudNode cloud_;

  // Device -> gateway (class scores) and device -> edge/cloud (features).
  std::vector<Link> dev_gateway_links_;
  std::vector<Link> dev_uplink_links_;
  // Edge -> edge-exit coordinator (scores) and edge -> cloud (features).
  std::vector<Link> edge_coord_links_;
  std::vector<Link> edge_cloud_links_;
  // Device -> cloud fallback links (edge configurations only).
  std::vector<Link> dev_cloud_links_;

  RunBook book_;  // books every link above, by address
  std::optional<FaultInjector> injector_;
  std::int64_t sample_index_ = 0;  // fault-timeline clock

  /// Default transport (the simulator path) and the active override.
  SimTransport sim_transport_;
  Transport* transport_ = nullptr;  // not owned; null = sim_transport_

  obs::SpanTracer* tracer_ = nullptr;  // not owned

  // Trace track layout: 0 = samples, then devices, gateway, edges,
  // edge-exit coordinator, cloud.
  int device_track(int b) const { return 1 + b; }
  int gateway_track() const { return 1 + static_cast<int>(devices_.size()); }
  int edge_track(int g) const {
    return 2 + static_cast<int>(devices_.size()) + g;
  }
  int coord_track() const {
    return 2 + static_cast<int>(devices_.size() + edges_.size());
  }
  int cloud_track() const {
    return 3 + static_cast<int>(devices_.size() + edges_.size());
  }

  /// Edge group index for a model branch (-1 when no edge tier).
  int group_of(int branch) const;
};

}  // namespace ddnn::dist
