// HierarchyRuntime: DDNN inference over the distributed computing hierarchy
// (paper Section III-D, steps 1-6), and the one place that routes a sample.
//
// Per sample:
//   1. every healthy device runs its NN section and sends its class-score
//      message to the local aggregator (gateway);
//   2. the gateway fuses the scores; eta <= T_local -> classify locally;
//   3. otherwise every healthy device sends its bit-packed binary feature
//      map to its edge (or straight to the cloud);
//   4. with an edge tier: each edge runs its trunk and the fused edge exit
//      decides; confident -> classify at the edge;
//   5. otherwise the edges (or devices) forward features to the cloud,
//      which always classifies.
//
// Each tier is one step (sense, gateway_exit, run_edge, run_cloud). A tier
// above the devices is in-process, where the ladder calls its step, or a
// RemoteTier in another process, which first receives its messages over
// the transport and then answers a Classify request. `ddnn serve`
// (dist/serve.hpp) runs the devices and the gateway in the driver and the
// edge and cloud steps in their own processes: the same code either way.
//
// Every message crosses a Link, so byte counts are measured, not modelled;
// tests assert the measured per-device bytes match the paper's Eq. 1. The
// transport sets the clock: the simulator charges modelled link latency and
// fixed per-tier compute costs, a socket transport measured wall time.
//
// Degradation, with a FaultPlan installed (set_fault_plan) or a remote tier
// that stops answering:
//   * a gateway that hears from zero devices escalates without a local
//     decision;
//   * a sample whose edge is dark (in an outage window, or a remote edge
//     that stopped answering — from then on) routes device features
//     straight to the cloud, which runs the edge section itself;
//   * when no feature reaches the cloud at all, alive devices fall back to
//     raw-image offload (the paper's traditional-offloading baseline);
//   * a sample no tier can classify yields a flagged dead trace
//     (exit_taken = -1) — counted, never crashed on.
// All fault randomness is counter-mode seeded (see dist/fault.hpp), so
// simulated runs are bit-identical across repetitions and DDNN_THREADS.
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
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace ddnn::dist {

/// What a run varies about the hierarchy. The edge-to-cloud backhaul and
/// the per-tier compute costs the simulator charges are fixed (runtime.cpp).
struct RuntimeConfig {
  /// Device uplinks (to gateway / edge / cloud): constrained wireless.
  LinkConfig device_link{};
  /// Timeout/retry policy applied to every send. With no fault plan
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

/// Deterministic 48-bit trace id of sample `index`: a splitmix-style
/// multiply of the index folded with a run nonce — 0 on the simulator, so
/// exports carrying it stay byte-identical; drawn from the clock when tiers
/// are remote, so concurrent served runs never share ids. 48 bits survive
/// JSON consumers that parse numbers as doubles.
inline std::uint64_t trace_id_of(std::int64_t index,
                                 std::uint64_t nonce = 0) {
  const auto mixed =
      nonce ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(index + 1));
  return mixed & ((1ull << 48) - 1);
}

/// How a tier should treat the messages delivered to it for one sample —
/// the mode a served Classify frame carries.
enum class ClassifyMode : std::uint8_t {
  kNormal = 0,      ///< features from the tier directly below
  kEdgeAtCloud = 1, ///< device features; the cloud runs the edge section
  kRawOffload = 2,  ///< raw views; the cloud runs the whole network
};

/// One tier's verdict on one sample: what a served Decision frame carries.
struct TierDecision {
  int exit_taken = -1;          // -1: no verdict
  std::int64_t prediction = -1;
  double entropy = 1.0;
  /// Bytes this tier and the tiers above it delivered for the sample.
  std::int64_t bytes = 0;
  bool degraded = false;
};

/// A tier above the devices that runs in another process (dist/serve.cpp
/// implements it over SocketTransport; tests substitute fakes). The runtime
/// first sends the tier its messages over the transport, then asks it to
/// decide.
class RemoteTier {
 public:
  virtual ~RemoteTier() = default;
  /// False once the tier has stopped answering: the runtime then routes
  /// around it for the rest of the run.
  virtual bool up() const = 0;
  /// Decide `sample` from `delivered`, the messages that reached the tier
  /// (a socket peer already holds them). nullopt: the tier did not answer.
  virtual std::optional<TierDecision> classify(std::int64_t sample,
                                               ClassifyMode mode,
                                               const Messages& delivered,
                                               const TraceContext& ctx) = 0;
};

/// Where the tiers above the devices run: null means in-process.
struct RemoteTiers {
  RemoteTier* edge = nullptr;
  RemoteTier* cloud = nullptr;
};

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

/// The ledger encoding of a run's RuntimeMetrics, appended to `rec` in a
/// fixed order: runtime.samples, .accuracy, .bytes_total, .mean_latency_ms,
/// .exit.<name> per exit, .drops, .retries, .timeouts, .degraded, .dead.
/// Every count carries the name RunBook books it under in a bound registry.
void add_ledger_metrics(obs::LedgerRecord& rec, const RuntimeMetrics& metrics,
                        const std::vector<std::string>& exit_names);

/// The one writer of a HierarchyRuntime's accounting, in the simulator and
/// the served driver alike. It owns the run's RuntimeMetrics window and,
/// when bound, the registry handles and series column ids. One entry point
/// per event:
///   * send()   — one reliable send: retries, drops, timeouts and delivered
///                bytes, into the trace and every bound sink;
///   * sample() — one finished sample: exit, correct, degraded, dead, total
///                latency, and the HDR latency and bytes histograms with
///                the sample's trace exemplar.
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
  /// runtime.total_latency_s gauge, the runtime.hdr_latency_ms and
  /// runtime.sample_bytes HDR histograms, then each booked link's
  /// link.<name>.* counters.
  void bind_metrics(obs::MetricsRegistry* registry);
  /// Bind a windowed series (not owned; null unbinds) and register its
  /// columns: counters named exactly like the registry counters, per-exit
  /// runtime.exit_frac.<name> and runtime.accuracy ratios, the
  /// runtime.hdr_latency_ms column and one link.<name>.bytes counter per
  /// booked link. Every event is
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
  obs::HdrHistogram* hdr_latency_ms_ = nullptr;
  obs::HdrHistogram* sample_bytes_ = nullptr;
  std::vector<LinkCounters> link_counters_;  // parallel to links_

  obs::WindowedSeries* series_ = nullptr;
  std::vector<int> columns_;  // by slot
  int hdr_latency_col_ = -1;
  std::vector<int> link_bytes_cols_;  // parallel to links_
};

class HierarchyRuntime {
 public:
  /// `thresholds`: one normalized-entropy threshold per non-final exit.
  /// `device_map` maps model branches to dataset device ids (as in
  /// core::train_ddnn). `remote` names the tiers that run in other
  /// processes; a runtime with a remote tier serves at most one edge group.
  HierarchyRuntime(core::DdnnModel& model, std::vector<double> thresholds,
                   std::vector<int> device_map, RuntimeConfig config = {},
                   RemoteTiers remote = {});
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
  /// swaps. The transport also sets the clock (Transport::measures_time):
  /// modelled costs on the simulator, measured wall time on sockets.
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

  /// The served roles' entry points: decide `sample` from the messages the
  /// tier below delivered, under the caller's trace context. edge_step runs
  /// the edge trunk, the coordinator fuse, then the edge exit or the
  /// escalation to the cloud tier; cloud_step runs the cloud for `mode`.
  /// The verdict's bytes count what this process and the tiers above
  /// delivered for the sample.
  TierDecision edge_step(std::int64_t sample, const Messages& features,
                         const TraceContext& ctx);
  TierDecision cloud_step(std::int64_t sample, ClassifyMode mode,
                          Messages msgs, const TraceContext& ctx);

  const RuntimeMetrics& metrics() const { return book_.metrics(); }

  /// Clear metrics and link stats, and rewind the fault timeline to sample
  /// index 0 — so repeated runs of the same sample set under the same plan
  /// are bit-identical.
  void reset_metrics();

  /// Attach a span tracer (not owned; null detaches) and name the tracks of
  /// every in-process tier. Every subsequent classify() appends one span
  /// tree — a root "sample" span on track 0 plus per-tier child spans
  /// (device_section, send:*, gateway_fuse, edge_trunk, edge_exit_fuse,
  /// cloud_classify) — on the transport's clock. On the simulator that is
  /// the *simulated* clock: sample k begins at the sum of the previous
  /// samples' latencies, so traces are a pure function of (model, data,
  /// fault plan) and byte-identical across reruns. On a measuring transport
  /// spans are wall seconds since attach (exported as the epoch_s meta),
  /// and those of a sample with a distributed trace context carry its
  /// sample_index, trace_id and parent_span. Set the transport first.
  void set_tracer(obs::SpanTracer* tracer);

  /// Bind a metrics registry (not owned; null unbinds). The runtime's
  /// RunBook registers every runtime.* metric and the link.<name>.* counters
  /// of every hop into an in-process tier here, once, so the export order is
  /// stable no matter which path the first sample takes; classify() then
  /// books each send and sample into it (see RunBook::bind_metrics for the
  /// names). A hop into a remote tier is booked by the transport carrying it.
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
  /// One sample's pass through the tiers this process runs.
  struct Pass {
    std::int64_t sidx = 0;
    TraceContext ctx;      // zero: no distributed trace (the simulator)
    bool wall = false;     // charge measured wall time, not modelled costs
    double t0 = 0.0;       // wall clock at the start (wall mode)
    double base = 0.0;     // the sample's start on the trace timeline
    InferenceTrace trace;
    std::vector<bool> alive;  // by branch: devices that sensed the sample

    /// A stage's start: the wall clock, or 0 when costs are modelled.
    double now() const;
    /// What a stage that began at `start` costs: measured, or `modelled`.
    double charge(double start, double modelled) const;
  };
  Pass begin(std::int64_t sidx, const TraceContext& ctx);
  InferenceTrace commit(Pass& p, std::int64_t label, const TierDecision& d);

  // The ladder's steps, one per tier. A verdict with exit_taken -1 means
  // nothing reached the cloud: the caller falls back to raw offload.
  bool sense(Pass& p, const data::MvmcSample& sample);
  std::optional<TierDecision> gateway_exit(Pass& p);
  Messages send_features(Pass& p, const std::vector<bool>& dark);
  TierDecision run_edge(Pass& p, const Messages& features,
                        const std::vector<bool>& dark);
  Messages to_cloud(Pass& p, const std::vector<bool>& dark,
                    const std::vector<bool>& active, const Messages& features);
  /// Edge group `g`'s section, run at the cloud on whatever member features
  /// reached it (nullopt when none did): the edge-outage fallback.
  std::optional<Message> edge_at_cloud(std::size_t g,
                                       const Messages& features);
  /// The raw-offload fallback: the features each delivered raw view would
  /// have put on the cloud's branches.
  Messages raw_at_cloud(const Messages& raws);
  TierDecision cloud(Pass& p, ClassifyMode mode, Messages& msgs);
  TierDecision run_cloud(Pass& p, ClassifyMode mode, Messages& msgs);
  TierDecision raw_offload(Pass& p);
  std::optional<TierDecision> ask(RemoteTier& tier, Pass& p, ClassifyMode mode,
                                  const Messages& msgs);

  /// Every alive device sends the message `make(device)` over
  /// `route(branch)`; returns the delivered messages, by branch.
  template <typename Make, typename Route>
  Messages from_devices(Pass& p, Make make, Route route, bool colocated,
                        const char* span_name);
  /// Send items_ as one stage of parallel sends — from devices, or from
  /// edges (`from_edge`; their book branch is -1) — booking each, recording
  /// its span, and raising `stage` to the stage's critical path. A
  /// colocated hop is delivered at once with zero wire latency; its bytes
  /// still cross the Link. results_ holds the outcomes.
  void send_items(Pass& p, bool from_edge, bool colocated,
                  const char* span_name, double t_off, double& stage);
  /// A child span of the current sample, stamped with its distributed trace
  /// context when it has one.
  obs::Span& span(const Pass& p, const char* name, const char* cat, int track,
                  double start, double dur);

  core::DdnnModel& model_;
  std::vector<double> thresholds_;
  std::vector<int> device_map_;
  RuntimeConfig config_;
  RemoteTiers remote_;

  std::vector<DeviceNode> devices_;
  std::vector<EdgeNode> edges_;

  // Device -> gateway (class scores) and device -> edge/cloud (features).
  std::vector<Link> dev_gateway_links_;
  std::vector<Link> dev_uplink_links_;
  // Edge -> edge-exit coordinator (scores) and edge -> cloud (features).
  std::vector<Link> edge_coord_links_;
  std::vector<Link> edge_cloud_links_;
  // Device -> cloud fallback links (edge configurations only).
  std::vector<Link> dev_cloud_links_;

  RunBook book_;  // books the links above that end in-process, by address
  std::optional<FaultInjector> injector_;
  std::int64_t sample_index_ = 0;  // fault-timeline clock
  std::uint64_t run_nonce_ = 0;  // see trace_id_of

  /// Default transport (the simulator path) and the active override.
  SimTransport sim_transport_;
  Transport* transport_ = nullptr;  // not owned; null = sim_transport_
  /// Reused per-stage send buffers: a sample allocates none of its own.
  std::vector<Transport::BatchItem> items_;
  std::vector<SendResult> results_;

  obs::SpanTracer* tracer_ = nullptr;  // not owned
  double epoch_ = 0.0;  // wall-clock origin of measured traces

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
