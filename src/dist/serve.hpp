// `ddnn serve`: the hierarchy as real device/edge/cloud processes.
//
//   driver (devices + gateway) ──► edge process ──► cloud process
//      feature frames + Classify     edge step         cloud step
//      ◄─────────── Decision ◄──── relay ◄─────────────┘
//
// Every role runs a HierarchyRuntime over SocketTransport frames
// (dist/transport.hpp): the driver's classify() reaches the edge and the
// cloud as remote tiers, the edge process runs the edge step with the cloud
// as its remote tier, and the cloud runs the cloud step. A serving role
// answers each connection's frames in arrival order, and every reply — Ack,
// Hello, Decision, Stats, Health — carries its request's seq, the one rule
// a requester matches replies by (FrameConn::await_reply). The route ladder
// is therefore the simulator's own, and a loopback run reproduces `ddnn
// simulate`'s per-sample exits, predictions, entropies and bytes (the
// serve_loopback_e2e and test_serve checks); only latency, measured on the
// wall clock, differs.
//
// Degradation uses real failures instead of injected ones: an edge that
// never answers (down, or started with --blackhole) takes the outage route
// from then on, its devices' features going straight to the cloud (mode
// kEdgeAtCloud); a cloud that no feature reached gets raw views (mode
// kRawOffload); a sample no tier can classify is a flagged dead trace.
#pragma once

#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/mvmc.hpp"
#include "dist/runtime.hpp"
#include "dist/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddnn::dist {

struct ServeOptions {
  /// Servers: TCP listen port (0 = OS-assigned ephemeral port) and an
  /// optional file the bound port is written to — how parallel test jobs
  /// discover each other without colliding.
  int listen_port = 0;
  std::string port_file;
  /// Driver: edge tier address (empty for hierarchies without an edge).
  std::string edge_addr;
  /// Driver and edge: cloud address (always required).
  std::string cloud_addr;

  /// One normalized-entropy threshold per non-final exit.
  std::vector<double> thresholds;
  /// Timeout and retry budget for every framed send (same struct the
  /// simulator's ReliableChannel uses; retries wait retry_backoff_s()).
  ReliabilityConfig reliability{};
  /// Driver/edge: how long to wait for a Decision before treating the tier
  /// above as unreachable.
  double decision_timeout_s = 5.0;
  /// Servers: exit after this much silence (keeps CI runs from hanging).
  double idle_timeout_s = 120.0;

  /// Driver: classify only the first N test samples (-1 = all).
  std::int64_t max_samples = -1;
  /// Servers: accept frames and never respond — the forced-timeout
  /// degradation hook the e2e test points at the edge tier.
  bool blackhole = false;

  /// Driver artifacts: per-sample decisions CSV (the parity artifact the
  /// e2e test compares against `ddnn simulate --decisions-out`), wall-clock
  /// spans, metrics registry.
  std::string decisions_out;
  obs::SpanTracer* tracer = nullptr;          // not owned
  obs::MetricsRegistry* metrics = nullptr;    // not owned
};

/// Run the cloud tier: listen, Ack feature/raw frames, answer each Classify
/// request with the Decision of HierarchyRuntime::cloud_step. Returns a
/// process exit code.
int serve_cloud(core::DdnnModel& model, const ServeOptions& opts);

/// Run the edge tier: Ack device feature frames, answer each Classify
/// request with the Decision of HierarchyRuntime::edge_step, which reaches
/// the cloud as a remote tier.
int serve_edge(core::DdnnModel& model, const ServeOptions& opts);

/// The device tier doubles as the driver: a HierarchyRuntime whose edge and
/// cloud are remote tiers, classifying every sample — the devices and the
/// gateway run here, colocated as in the paper's deployment — into the
/// same InferenceTrace the simulator produces, with wall-clock latency.
struct DriveResult {
  RuntimeMetrics metrics;
  std::vector<InferenceTrace> traces;
};
DriveResult drive_hierarchy(core::DdnnModel& model,
                            const std::vector<data::MvmcSample>& samples,
                            const std::vector<int>& device_map,
                            const ServeOptions& opts);

/// Per-sample decisions CSV shared by `ddnn simulate --decisions-out` and
/// the serve driver: sample,exit,prediction,entropy,bytes,degraded,dead.
/// Entropy prints with enough digits to round-trip doubles exactly, so two
/// byte-identical files mean bit-identical decisions.
void write_decisions_csv(const std::string& path,
                         const std::vector<InferenceTrace>& traces);

/// Model-identity handshake payload: both ends of a connection must derive
/// the same signature from their --preset/--devices/--filters flags.
std::string model_signature(const core::DdnnModel& model);

}  // namespace ddnn::dist
