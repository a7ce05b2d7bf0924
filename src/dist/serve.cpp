#include "dist/serve.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "core/inference.hpp"
#include "dist/node.hpp"
#include "obs/slo.hpp"
#include "infer/workspace.hpp"
#include "util/error.hpp"

namespace ddnn::dist {
namespace {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------ protocol payloads

struct DecisionPayload {
  std::int64_t sample = 0;
  std::int32_t exit_taken = -1;
  std::int64_t prediction = -1;
  double entropy = 1.0;
  std::int64_t upstream_bytes = 0;
  bool degraded = false;
};

Frame decision_frame(const DecisionPayload& d) {
  Frame frame;
  frame.kind = FrameKind::kDecision;
  PayloadWriter w;
  w.i64(d.sample);
  w.i32(d.exit_taken);
  w.i64(d.prediction);
  w.f64(d.entropy);
  w.i64(d.upstream_bytes);
  w.u8(d.degraded ? 1 : 0);
  frame.payload = w.take();
  return frame;
}

DecisionPayload decode_decision(const Frame& frame) {
  PayloadReader r(frame.payload.data(), frame.payload.size(), "decision");
  DecisionPayload d;
  d.sample = r.i64();
  d.exit_taken = r.i32();
  d.prediction = r.i64();
  d.entropy = r.f64();
  d.upstream_bytes = r.i64();
  d.degraded = r.u8() != 0;
  return d;
}

Frame classify_frame(std::int64_t sample, ClassifyMode mode,
                     const TraceContext& trace = TraceContext{}) {
  Frame frame;
  frame.kind = FrameKind::kClassify;
  PayloadWriter w;
  w.i64(sample);
  w.u8(static_cast<std::uint8_t>(mode));
  w.u64(trace.trace_id);
  w.u64(trace.parent_span);
  frame.payload = w.take();
  return frame;
}

/// `t_send` is the sender's wall clock at send time; the Hello round trip
/// doubles as an NTP-style clock-offset probe (offset = (t0 + t3)/2 - t1)
/// that trace-merge uses to align per-process span timelines.
Frame hello_frame(const std::string& role, const std::string& signature,
                  double t_send) {
  Frame frame;
  frame.kind = FrameKind::kHello;
  PayloadWriter w;
  w.str(role);
  w.str(signature);
  w.f64(t_send);
  frame.payload = w.take();
  return frame;
}

/// The span name the simulator gives a hop carrying this message kind —
/// served traces must match the oracle's span-tree shape name-for-name.
const char* send_span_name(MessageKind kind) {
  switch (kind) {
    case MessageKind::kClassScores: return "send:scores";
    case MessageKind::kBinaryFeatureMap: return "send:features";
    case MessageKind::kRawImage: return "send:raw_image";
  }
  return "send";
}

// ----------------------------------------------------------- server loop

/// One accepted connection plus the per-sample frames it has delivered and
/// not yet consumed by a Classify. sample -> branch -> Message.
struct ServedConn {
  std::shared_ptr<FrameConn> conn;
  std::map<std::int64_t, std::map<std::int32_t, Message>> pending;
  /// Sent at least one non-Stats frame — a hierarchy peer, counted by the
  /// serve.connections gauge. Stats pollers observe the event loop and must
  /// not perturb what they measure.
  bool saw_data = false;
  /// Out-queue depth gauge (serve.conn<N>.queued_bytes), N = connection
  /// slot. Slots are pooled: a disconnecting peer returns its slot (gauge
  /// zeroed), and the next accept reuses the lowest free one — reconnecting
  /// peers do not mint unbounded registry entries.
  obs::Gauge* queued = nullptr;
  int slot = -1;
};

/// Shared edge/cloud skeleton: listen (writing the bound port to the port
/// file for the process that spawned us), poll every connection, feed
/// complete frames to `handle(ServedConn&, Frame&)`, exit when every peer
/// has disconnected (or the idle timeout fires). Servers are
/// single-threaded: each request runs to completion on the accept thread,
/// so per-thread == per-connection inference workspaces (infer/workspace).
class FrameServer {
 public:
  FrameServer(const char* role, const ServeOptions& opts)
      : role_(role), opts_(opts), listener_(opts.listen_port) {
    if (opts_.metrics != nullptr) {
      frames_in_ = &opts_.metrics->counter("serve.frames_in");
      bytes_in_ = &opts_.metrics->counter("serve.bytes_in");
      loop_lag_ms_ = &opts_.metrics->gauge("serve.loop.lag_ms");
      connections_ = &opts_.metrics->gauge("serve.connections");
      queued_bytes_ = &opts_.metrics->gauge("serve.queued_bytes");
    }
    if (!opts_.port_file.empty()) {
      std::ofstream out(opts_.port_file);
      DDNN_CHECK(out.good(),
                 "cannot write port file '" << opts_.port_file << "'");
      out << listener_.port() << "\n";
    }
    std::printf("ddnn serve [%s]: listening on 127.0.0.1:%d%s\n", role_,
                listener_.port(), opts_.blackhole ? " (blackhole)" : "");
    std::fflush(stdout);
  }

  int port() const { return listener_.port(); }

  template <typename Handler>
  int run(Handler&& handle) {
    double last_activity = wall_s();
    bool saw_conn = false;
    while (true) {
      // One poll over the listener and every live connection.
      std::vector<pollfd> fds;
      fds.push_back({listener_.fd(), POLLIN, 0});
      for (auto& sc : conns_) {
        if (!sc.conn->closed()) fds.push_back({sc.conn->fd(), POLLIN, 0});
      }
      ::poll(fds.data(), fds.size(), 100);

      // Runtime-health gauges only move on hierarchy activity (accepts,
      // data/control frames, peer departures), never on Stats polls: once
      // the driver finishes, the registry freezes and a final poll returns
      // bytes identical to the --metrics-out file written at exit.
      const double handle_start = wall_s();
      bool activity = false;
      if (auto conn = listener_.accept(0.0)) {
        ServedConn sc;
        sc.conn = std::move(conn);
        if (opts_.metrics != nullptr) {
          sc.slot = claim_slot();
          sc.queued = slot_gauges_[static_cast<std::size_t>(sc.slot)];
        }
        conns_.push_back(std::move(sc));
        saw_conn = true;
        activity = true;
        last_activity = wall_s();
      }
      for (auto& sc : conns_) {
        if (sc.conn->closed()) continue;
        std::vector<Frame> frames;
        try {
          frames = sc.conn->poll_frames();
        } catch (const ddnn::Error& e) {
          std::fprintf(stderr, "ddnn serve [%s]: dropping peer: %s\n", role_,
                       e.what());
          sc.conn->close();
          continue;
        }
        if (!frames.empty()) last_activity = wall_s();
        for (Frame& frame : frames) {
          if (opts_.blackhole) continue;  // read everything, answer nothing
          if (frame.kind == FrameKind::kStats) {
            answer_stats(sc, frame);
            continue;
          }
          if (frame.kind == FrameKind::kHealth) {
            answer_health(sc, frame);
            continue;
          }
          sc.saw_data = true;
          activity = true;
          if (frames_in_ != nullptr) {
            frames_in_->add(1);
            bytes_in_->add(static_cast<std::int64_t>(kFrameHeaderBytes +
                                                     frame.payload.size()));
          }
          if (frame.kind == FrameKind::kBye) {
            sc.conn->close();
            break;
          }
          try {
            handle(sc, frame);
          } catch (const ddnn::Error& e) {
            std::fprintf(stderr, "ddnn serve [%s]: request failed: %s\n",
                         role_, e.what());
          }
        }
        if (!sc.conn->closed()) sc.conn->flush(opts_.reliability.timeout_s);
      }
      bool data_peer_left = false;
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [&](const ServedConn& sc) {
                                    if (!sc.conn->closed()) return false;
                                    data_peer_left |= sc.saw_data;
                                    release_slot(sc);
                                    return true;
                                  }),
                   conns_.end());
      activity = activity || data_peer_left;
      if (activity && opts_.metrics != nullptr) update_gauges(handle_start);
      if (saw_conn && conns_.empty()) break;  // every peer hung up
      if (wall_s() - last_activity > opts_.idle_timeout_s) {
        std::fprintf(stderr, "ddnn serve [%s]: idle for %.0f s, exiting\n",
                     role_, opts_.idle_timeout_s);
        return saw_conn ? 0 : 1;
      }
    }
    std::printf("ddnn serve [%s]: all peers disconnected, exiting\n", role_);
    return 0;
  }

  /// ACK a data frame and stash its Message under (sample, branch).
  void accept_data(ServedConn& sc, const Frame& frame) {
    MessageMeta meta;
    Message msg = frame_message(frame, &meta);
    sc.pending[meta.sample][meta.branch] = std::move(msg);
    // Bound the stash: a sample the driver abandoned (timeout ladder) would
    // otherwise pin its features forever.
    while (sc.pending.size() > 64) sc.pending.erase(sc.pending.begin());
    Frame ack;
    ack.kind = FrameKind::kAck;
    ack.seq = frame.seq;
    sc.conn->queue(ack);
  }

  /// Answer a Hello with our own (role, signature); a mismatched model is a
  /// loud failure on both ends instead of silently-diverging inference. The
  /// reply timestamp is this process's clock at handling time — the t1 of
  /// the sender's NTP-style offset estimate.
  void answer_hello(ServedConn& sc, const Frame& frame,
                    const std::string& signature) {
    PayloadReader r(frame.payload.data(), frame.payload.size(), "hello");
    const std::string peer_role = r.str();
    const std::string peer_sig = r.str();
    DDNN_CHECK(peer_sig == signature,
               "model mismatch: peer '" << peer_role << "' runs " << peer_sig
                                        << ", this " << role_ << " runs "
                                        << signature);
    Frame reply = hello_frame(role_, signature, wall_s());
    reply.seq = frame.seq;
    sc.conn->queue(reply);
  }

  /// Live telemetry: reply with a MetricsRegistry snapshot. Deliberately
  /// side-effect-free so polling cannot change what it observes.
  void answer_stats(ServedConn& sc, const Frame& frame) {
    Frame reply;
    reply.kind = FrameKind::kStats;
    reply.seq = frame.seq;
    PayloadWriter w;
    w.str(opts_.metrics != nullptr ? opts_.metrics->to_json()
                                   : std::string("{\n  \"metrics\": []\n}\n"));
    reply.payload = w.take();
    sc.conn->queue(reply);
  }

  /// SLO health poll: reply with the snapshot health document derived from
  /// the frozen registry (obs::health_from_metrics) — serve roles have no
  /// deterministic simulated clock, so health here is a registry snapshot,
  /// not a burn-rate window. Side-effect-free like answer_stats: once the
  /// driver finishes and the registry freezes, repeated polls return
  /// byte-identical payloads.
  void answer_health(ServedConn& sc, const Frame& frame) {
    Frame reply;
    reply.kind = FrameKind::kHealth;
    reply.seq = frame.seq;
    PayloadWriter w;
    if (opts_.metrics != nullptr) {
      w.str(obs::health_from_metrics(opts_.metrics->to_json(),
                                     obs::SnapshotSloConfig{}));
    } else {
      w.str(std::string("{\n  \"signals\": [],\n  \"overall\": \"ok\"\n}\n"));
    }
    reply.payload = w.take();
    sc.conn->queue(reply);
  }

  /// Collect sample `s`'s pending messages into a branch-indexed vector and
  /// drop the stash (plus anything older — those samples were abandoned).
  std::vector<std::optional<Message>> take_sample(ServedConn& sc,
                                                  std::int64_t s,
                                                  std::size_t branches) {
    std::vector<std::optional<Message>> out(branches);
    const auto it = sc.pending.find(s);
    if (it != sc.pending.end()) {
      for (auto& [branch, msg] : it->second) {
        if (branch >= 0 && static_cast<std::size_t>(branch) < branches) {
          out[static_cast<std::size_t>(branch)] = std::move(msg);
        }
      }
    }
    sc.pending.erase(sc.pending.begin(), sc.pending.upper_bound(s));
    return out;
  }

 private:
  /// Lowest free connection-slot gauge, minting serve.conn<slot>.queued_bytes
  /// only the first time a slot index is ever used — the registry holds at
  /// most peak-concurrent-connections slot gauges, however many times peers
  /// reconnect.
  int claim_slot() {
    for (std::size_t s = 0; s < slot_free_.size(); ++s) {
      if (slot_free_[s]) {
        slot_free_[s] = false;
        return static_cast<int>(s);
      }
    }
    const int slot = static_cast<int>(slot_gauges_.size());
    slot_gauges_.push_back(&opts_.metrics->gauge(
        "serve.conn" + std::to_string(slot) + ".queued_bytes"));
    slot_free_.push_back(false);
    return slot;
  }

  /// Retire a departed connection's slot: zero the gauge (the queue is
  /// gone) and return the slot to the pool.
  void release_slot(const ServedConn& sc) {
    if (sc.slot < 0) return;
    sc.queued->set(0.0);
    slot_free_[static_cast<std::size_t>(sc.slot)] = true;
  }

  void update_gauges(double handle_start) {
    loop_lag_ms_->set((wall_s() - handle_start) * 1e3);
    std::int64_t open_data = 0;
    double total_queued = 0.0;
    for (const ServedConn& sc : conns_) {
      const double q = static_cast<double>(sc.conn->queued_bytes());
      if (sc.queued != nullptr) sc.queued->set(q);
      total_queued += q;
      if (sc.saw_data && !sc.conn->closed()) ++open_data;
    }
    connections_->set(static_cast<double>(open_data));
    queued_bytes_->set(total_queued);
  }

  const char* role_;
  const ServeOptions& opts_;
  Listener listener_;
  std::vector<ServedConn> conns_;
  /// Connection-slot gauge pool: index = slot, minted lazily by claim_slot.
  std::vector<obs::Gauge*> slot_gauges_;
  std::vector<bool> slot_free_;
  obs::Counter* frames_in_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Gauge* loop_lag_ms_ = nullptr;
  obs::Gauge* connections_ = nullptr;
  obs::Gauge* queued_bytes_ = nullptr;
};

}  // namespace

std::string model_signature(const core::DdnnModel& model) {
  const auto& cfg = model.config();
  std::ostringstream os;
  os << "devices=" << cfg.num_devices << ";filters=" << cfg.device_filters
     << ";classes=" << cfg.num_classes << ";exits=" << cfg.num_exits()
     << ";local_exit=" << (cfg.has_local_exit ? 1 : 0) << ";groups=";
  for (const auto& g : cfg.edge_groups) os << g.size() << ",";
  return os.str();
}

void write_decisions_csv(const std::string& path,
                         const std::vector<InferenceTrace>& traces) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  DDNN_CHECK(f != nullptr, "cannot write decisions CSV '" << path << "'");
  std::fprintf(f, "sample,exit,prediction,entropy,bytes,degraded,dead\n");
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const InferenceTrace& t = traces[i];
    // %.17g round-trips doubles exactly: byte-identical files mean
    // bit-identical decisions.
    std::fprintf(f, "%zu,%d,%lld,%.17g,%lld,%d,%d\n", i, t.exit_taken,
                 static_cast<long long>(t.prediction), t.entropy,
                 static_cast<long long>(t.bytes_sent), t.degraded ? 1 : 0,
                 t.dead ? 1 : 0);
  }
  std::fclose(f);
}

// ------------------------------------------------------------------ cloud

int serve_cloud(core::DdnnModel& model, const ServeOptions& opts) {
  const auto& cfg = model.config();
  CloudNode cloud(model);
  FrameServer server("cloud", opts);
  const std::string signature = model_signature(model);
  const std::size_t n_dev = static_cast<std::size_t>(cfg.num_devices);
  const std::size_t n_groups = cfg.edge_groups.size();

  obs::SpanTracer* tr = opts.tracer;
  const double epoch = wall_s();
  if (tr != nullptr) {
    tr->set_process(2, "cloud");
    tr->set_meta("epoch_s", epoch);
    tr->set_track_name(0, "cloud");
  }

  return server.run([&](ServedConn& sc, const Frame& frame) {
    if (frame.kind == FrameKind::kHello) {
      server.answer_hello(sc, frame, signature);
      return;
    }
    if (is_data_kind(frame.kind)) {
      server.accept_data(sc, frame);
      return;
    }
    if (frame.kind != FrameKind::kClassify) return;

    PayloadReader r(frame.payload.data(), frame.payload.size(), "classify");
    const std::int64_t sample = r.i64();
    const auto mode = static_cast<ClassifyMode>(r.u8());
    TraceContext ctx;
    ctx.trace_id = r.u64();
    ctx.parent_span = r.u64();

    // Spans mirror the simulator oracle's cloud-tier shape:
    // edge_section_at_cloud per dark group (outage route) then
    // cloud_classify, all attributed to this process under the driver's
    // trace context.
    auto span = [&](const char* name, double start, double dur) -> obs::Span& {
      return tr->add(name, "compute", 0, start - epoch, dur)
          .with("sample_index", sample)
          .with("trace_id", static_cast<std::int64_t>(ctx.trace_id))
          .with("parent_span", static_cast<std::int64_t>(ctx.parent_span));
    };

    DecisionPayload d;
    d.sample = sample;
    d.degraded = mode != ClassifyMode::kNormal;
    if (mode == ClassifyMode::kNormal) {
      // Features from the tier directly below: edge branches when the
      // hierarchy has an edge tier, device branches otherwise — the
      // simulator's healthy stage-6 path.
      const std::size_t branches = cfg.has_edge() ? n_groups : n_dev;
      auto feats = server.take_sample(sc, sample, branches);
      const bool any = std::any_of(feats.begin(), feats.end(),
                                   [](const auto& m) { return m.has_value(); });
      if (any) {
        const double t0 = wall_s();
        const ExitDecision dec = decide_exit(cloud.process(feats, 1));
        d.exit_taken = cfg.num_exits() - 1;
        d.prediction = dec.prediction;
        d.entropy = dec.entropy;
        if (tr != nullptr) {
          span("cloud_classify", t0, wall_s() - t0)
              .with("raw_offload", false)
              .with("entropy", dec.entropy);
        }
      }
    } else if (mode == ClassifyMode::kEdgeAtCloud) {
      // Edge outage route: device features arrived directly; this process
      // runs every edge group's section itself, then classifies — the same
      // computation the simulator's whole-tier outage performs.
      auto feats = server.take_sample(sc, sample, n_dev);
      std::vector<std::optional<Message>> branches(n_groups);
      for (std::size_t g = 0; g < n_groups; ++g) {
        const double tg = wall_s();
        branches[g] = edge_section_at_cloud(model, g, feats);
        if (tr != nullptr) {
          span("edge_section_at_cloud", tg, wall_s() - tg)
              .with("group", static_cast<std::int64_t>(g))
              .with("delivered", branches[g].has_value());
        }
      }
      const bool any =
          std::any_of(branches.begin(), branches.end(),
                      [](const auto& m) { return m.has_value(); });
      if (any) {
        const double t0 = wall_s();
        const ExitDecision dec = decide_exit(cloud.process(branches, 1));
        d.exit_taken = cfg.num_exits() - 1;
        d.prediction = dec.prediction;
        d.entropy = dec.entropy;
        if (tr != nullptr) {
          span("cloud_classify", t0, wall_s() - t0)
              .with("raw_offload", false)
              .with("entropy", dec.entropy);
        }
      }
    } else if (mode == ClassifyMode::kRawOffload) {
      auto raws = server.take_sample(sc, sample, n_dev);
      const bool any = std::any_of(raws.begin(), raws.end(),
                                   [](const auto& m) { return m.has_value(); });
      if (any) {
        const double t0 = wall_s();
        const ExitDecision dec =
            decide_exit(cloud_forward_from_raw_views(model, raws));
        d.exit_taken = cfg.num_exits() - 1;
        d.prediction = dec.prediction;
        d.entropy = dec.entropy;
        if (tr != nullptr) {
          span("cloud_classify", t0, wall_s() - t0)
              .with("raw_offload", true)
              .with("entropy", dec.entropy);
        }
      }
    }
    sc.conn->queue(decision_frame(d));
  });
}

// ------------------------------------------------------------------- edge

int serve_edge(core::DdnnModel& model, const ServeOptions& opts) {
  const auto& cfg = model.config();
  DDNN_CHECK(cfg.has_edge(), "edge role on a hierarchy without an edge tier");
  DDNN_CHECK(cfg.edge_groups.size() == 1,
             "ddnn serve runs one edge process; multi-edge presets are "
             "simulator-only for now");
  EdgeNode edge(0, model);
  const std::string signature = model_signature(model);
  const std::size_t n_dev = static_cast<std::size_t>(cfg.num_devices);
  const int edge_exit_index = cfg.has_local_exit ? 1 : 0;
  const double threshold =
      opts.thresholds.at(static_cast<std::size_t>(edge_exit_index));

  obs::SpanTracer* tr = opts.tracer;
  const double epoch = wall_s();
  if (tr != nullptr) {
    tr->set_process(1, "edge");
    tr->set_meta("epoch_s", epoch);
    tr->set_track_name(0, "edge0");
    tr->set_track_name(1, "edge-coord");
  }

  // Upstream leg: this process is itself a SocketTransport client of the
  // cloud. The Link mirrors the simulator's edge->cloud backhaul so the
  // delivered-byte accounting reported in Decision.upstream_bytes matches.
  SocketTransport uplink(opts.reliability);
  uplink.bind_metrics(opts.metrics);  // eager link.* columns pre-traffic
  Link edge_cloud_link("edge0->cloud", RuntimeConfig{}.edge_link);
  if (!opts.blackhole) {
    DDNN_CHECK(!opts.cloud_addr.empty(), "edge role needs --cloud host:port");
    auto cloud_conn = connect_to(opts.cloud_addr, opts.connect_timeout_s);
    DDNN_CHECK(cloud_conn != nullptr,
               "cannot reach the cloud at " << opts.cloud_addr);
    uplink.attach(edge_cloud_link.name(), cloud_conn);
    uplink.attach("cloud-ctl", cloud_conn);
    DDNN_CHECK(
        uplink.post("cloud-ctl", hello_frame("edge", signature, wall_s())),
        "cloud handshake send failed");
    const auto reply =
        uplink.await("cloud-ctl", FrameKind::kHello, opts.connect_timeout_s);
    DDNN_CHECK(reply.has_value(), "cloud handshake timed out");
  }

  FrameServer server("edge", opts);
  const int rc = server.run([&](ServedConn& sc, const Frame& frame) {
    if (frame.kind == FrameKind::kHello) {
      server.answer_hello(sc, frame, signature);
      return;
    }
    if (is_data_kind(frame.kind)) {
      server.accept_data(sc, frame);
      return;
    }
    if (frame.kind != FrameKind::kClassify) return;

    PayloadReader r(frame.payload.data(), frame.payload.size(), "classify");
    const std::int64_t sample = r.i64();
    r.u8();  // mode: an edge only serves the normal route
    TraceContext ctx;
    ctx.trace_id = r.u64();
    ctx.parent_span = r.u64();

    auto span = [&](const char* name, const char* cat, int track,
                    double start, double dur) -> obs::Span& {
      return tr->add(name, cat, track, start - epoch, dur)
          .with("sample_index", sample)
          .with("trace_id", static_cast<std::int64_t>(ctx.trace_id))
          .with("parent_span", static_cast<std::int64_t>(ctx.parent_span));
    };

    DecisionPayload d;
    d.sample = sample;
    auto feats = server.take_sample(sc, sample, n_dev);
    std::vector<std::optional<Message>> members;
    bool any = false;
    for (int dev : cfg.edge_groups[0]) {
      members.push_back(feats[static_cast<std::size_t>(dev)]);
      any = any || members.back().has_value();
    }
    if (!any) {  // classify without a single delivered feature
      sc.conn->queue(decision_frame(d));
      return;
    }

    // Trunk + fused edge exit, exactly the simulator's stages 3-4. The
    // score message's bytes are charged as upstream traffic: the simulator
    // sends them to the edge-exit coordinator over a real link (here the
    // coordinator is colocated, so the hop is a zero-duration span with the
    // same name/bytes the oracle books).
    const double t_trunk = wall_s();
    Message scores = edge.process(members, 1);
    d.upstream_bytes += scores.payload_bytes();
    if (tr != nullptr) {
      span("edge_trunk", "compute", 0, t_trunk, wall_s() - t_trunk)
          .with("group", 0);
      span("send:edge_scores", "net", 0, wall_s(), 0.0)
          .with("link", "edge0->coord")
          .with("bytes", scores.payload_bytes())
          .with("attempts", 1)
          .with("delivered", true);
    }
    const double t_fuse = wall_s();
    std::vector<core::Variable> logits;
    logits.emplace_back(decode_class_scores(scores, cfg.num_classes));
    const Tensor fused =
        model.edge_exit_aggregate(logits, {true}).value();
    const ExitDecision dec = decide_exit(fused);
    if (tr != nullptr) {
      span("edge_exit_fuse", "compute", 1, t_fuse, wall_s() - t_fuse)
          .with("entropy", dec.entropy);
    }
    if (core::should_exit(dec.entropy, threshold)) {
      d.exit_taken = edge_exit_index;
      d.prediction = dec.prediction;
      d.entropy = dec.entropy;
      sc.conn->queue(decision_frame(d));
      return;
    }

    // Stage 5: escalate this edge's features to the cloud and relay its
    // Decision, adding the bytes spent on the way up.
    const Message features = edge.feature_message();
    const double t_send = wall_s();
    std::vector<SocketTransport::BatchItem> batch;
    batch.push_back({&edge_cloud_link, &features, sample, 0, ctx});
    const SendResult sent = uplink.send_batch(batch)[0];
    if (tr != nullptr) {
      span("send:edge_features", "net", 0, t_send, sent.latency_s)
          .with("link", edge_cloud_link.name())
          .with("bytes", sent.delivered ? features.payload_bytes() : 0)
          .with("attempts", sent.attempts)
          .with("delivered", sent.delivered);
    }
    if (sent.delivered &&
        uplink.post("cloud-ctl",
                    classify_frame(sample, ClassifyMode::kNormal, ctx))) {
      d.upstream_bytes += features.payload_bytes();
      const double deadline = wall_s() + opts.decision_timeout_s;
      while (wall_s() < deadline) {
        const auto reply = uplink.await("cloud-ctl", FrameKind::kDecision,
                                        deadline - wall_s());
        if (!reply.has_value()) break;
        DecisionPayload cloud_d = decode_decision(*reply);
        if (cloud_d.sample != sample) continue;  // stale abandoned sample
        d.exit_taken = cloud_d.exit_taken;
        d.prediction = cloud_d.prediction;
        d.entropy = cloud_d.entropy;
        d.degraded = d.degraded || cloud_d.degraded;
        d.upstream_bytes += cloud_d.upstream_bytes;
        break;
      }
    }
    sc.conn->queue(decision_frame(d));  // exit stays -1 if the cloud failed
  });
  if (!opts.blackhole && !uplink.channel_down("cloud-ctl")) {
    Frame bye;
    bye.kind = FrameKind::kBye;
    uplink.post("cloud-ctl", bye);
  }
  return rc;
}

// ----------------------------------------------------------------- driver

DriveResult drive_hierarchy(core::DdnnModel& model,
                            const std::vector<data::MvmcSample>& samples,
                            const std::vector<int>& device_map,
                            const ServeOptions& opts) {
  const auto& cfg = model.config();
  DDNN_CHECK(!cfg.float_devices,
             "float-device models have no 1-bit wire format");
  DDNN_CHECK(static_cast<int>(opts.thresholds.size()) + 1 == cfg.num_exits(),
             "need one threshold per non-final exit");
  DDNN_CHECK(cfg.edge_groups.size() <= 1,
             "ddnn serve runs one edge process; multi-edge presets are "
             "simulator-only for now");
  DDNN_CHECK(!opts.cloud_addr.empty(), "driver needs --cloud host:port");
  const std::size_t n_dev = static_cast<std::size_t>(cfg.num_devices);
  const std::string signature = model_signature(model);
  const RuntimeConfig link_cfg{};  // the simulator's link parameters

  // Device-tier state: nodes, the colocated gateway, and the same Link
  // names/configs the simulator uses so byte accounting lines up.
  std::vector<DeviceNode> devices;
  std::vector<Link> gw_links;
  std::vector<Link> up_links;
  std::vector<Link> fb_links;
  for (std::size_t b = 0; b < n_dev; ++b) {
    devices.emplace_back(static_cast<int>(b), model, static_cast<int>(b));
    gw_links.emplace_back("device" + std::to_string(b) + "->gateway",
                          link_cfg.device_link);
    const std::string up_target = cfg.has_edge() ? "edge" : "cloud";
    up_links.emplace_back("device" + std::to_string(b) + "->" + up_target,
                          link_cfg.device_link);
    if (cfg.has_edge()) {
      fb_links.emplace_back("device" + std::to_string(b) + "->cloud(fallback)",
                            link_cfg.device_link);
    }
  }
  std::optional<GatewayNode> gateway;
  if (cfg.has_local_exit) gateway.emplace(model);

  // A RunBook books the run, as in the simulator. It owns only the
  // colocated gateway links; the transport books the socket links, as it
  // does for the edge role, which has no book. Registry layout: runtime.*
  // and the gateway links, serve.arena_bytes, then the socket links in
  // attach order — eagerly, before any traffic, so the metrics columns are
  // identical whether or not a link ever carried a frame (a degraded run
  // exports the same schema as a healthy one).
  DriveResult result;
  std::vector<const Link*> local;
  for (const Link& l : gw_links) local.push_back(&l);
  RunBook book(model.exit_names(), n_dev, std::move(local));
  book.bind_metrics(opts.metrics);
  obs::Gauge* arena_bytes = opts.metrics == nullptr
                                ? nullptr
                                : &opts.metrics->gauge("serve.arena_bytes");

  // Tracer attribution: this process is pid 0 ("driver"), the reference
  // clock of the merged timeline. Spans are recorded relative to `epoch`;
  // trace-merge reads epoch_s plus the handshake-measured per-peer offsets
  // from the file's metadata to place every role on this clock.
  obs::SpanTracer* tr = opts.tracer;
  const double epoch = wall_s();
  if (tr != nullptr) {
    tr->set_process(0, "driver");
    tr->set_meta("epoch_s", epoch);
    tr->set_track_name(0, "samples");
    for (std::size_t b = 0; b < n_dev; ++b) {
      tr->set_track_name(static_cast<int>(1 + b),
                         "device" + std::to_string(b));
    }
    if (cfg.has_local_exit) {
      tr->set_track_name(static_cast<int>(1 + n_dev), "gateway");
    }
  }
  const int gateway_track = static_cast<int>(1 + n_dev);

  // Wire up the transport: every cloud-bound channel shares one socket,
  // every edge-bound channel shares another.
  SocketTransport transport(opts.reliability);
  transport.set_fail_fast(opts.fail_fast);
  transport.bind_metrics(opts.metrics);
  auto cloud_conn = connect_to(opts.cloud_addr, opts.connect_timeout_s);
  DDNN_CHECK(cloud_conn != nullptr,
             "cannot reach the cloud at " << opts.cloud_addr);
  transport.attach("cloud-ctl", cloud_conn);
  for (auto& l : fb_links) transport.attach(l.name(), cloud_conn);
  if (!cfg.has_edge()) {
    for (auto& l : up_links) transport.attach(l.name(), cloud_conn);
  }
  const double cloud_t0 = wall_s();
  DDNN_CHECK(
      transport.post("cloud-ctl", hello_frame("driver", signature, cloud_t0)),
      "cloud handshake send failed");
  {
    const auto reply = transport.await("cloud-ctl", FrameKind::kHello,
                                       opts.connect_timeout_s);
    DDNN_CHECK(reply.has_value(), "cloud handshake timed out");
    const double cloud_t3 = wall_s();
    PayloadReader hr(reply->payload.data(), reply->payload.size(), "hello");
    hr.str();  // role
    hr.str();  // signature
    const double cloud_t1 = hr.f64();
    if (tr != nullptr) {
      // NTP-style: what to add to a cloud clock reading to land on ours.
      tr->set_meta("offset_cloud_s", 0.5 * (cloud_t0 + cloud_t3) - cloud_t1);
    }
  }

  bool edge_up = false;
  if (cfg.has_edge()) {
    DDNN_CHECK(!opts.edge_addr.empty(), "driver needs --edge host:port");
    if (auto edge_conn = connect_to(opts.edge_addr, opts.connect_timeout_s)) {
      transport.attach("edge-ctl", edge_conn);
      for (auto& l : up_links) transport.attach(l.name(), edge_conn);
      // A silent edge (down, blackholed) fails the handshake and the run
      // degrades from sample 0 — the served twin of a whole-run outage.
      const double edge_t0 = wall_s();
      if (transport.post("edge-ctl",
                         hello_frame("driver", signature, edge_t0))) {
        const auto reply = transport.await("edge-ctl", FrameKind::kHello,
                                           opts.decision_timeout_s);
        if (reply.has_value()) {
          edge_up = true;
          const double edge_t3 = wall_s();
          PayloadReader hr(reply->payload.data(), reply->payload.size(),
                           "hello");
          hr.str();  // role
          hr.str();  // signature
          const double edge_t1 = hr.f64();
          if (tr != nullptr) {
            tr->set_meta("offset_edge_s",
                         0.5 * (edge_t0 + edge_t3) - edge_t1);
          }
        }
      }
    }
    if (!edge_up) {
      std::fprintf(stderr,
                   "ddnn serve [driver]: edge unreachable, degrading to "
                   "cloud-only routes\n");
    }
  }

  // Per-sample distributed trace ids: a run nonce folded with the sample
  // index, masked to 48 bits so JSON double parsing round-trips them.
  const std::uint64_t run_nonce = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const auto trace_id_of = [run_nonce](std::int64_t sidx) {
    const std::uint64_t mixed =
        (run_nonce ^ (0x9E3779B97F4A7C15ull *
                      (static_cast<std::uint64_t>(sidx) + 1ull)));
    return mixed & ((1ull << 48) - 1ull);
  };

  const int cloud_exit = cfg.num_exits() - 1;
  const double run_start = epoch;
  const std::int64_t limit =
      opts.max_samples < 0
          ? static_cast<std::int64_t>(samples.size())
          : std::min<std::int64_t>(opts.max_samples,
                                   static_cast<std::int64_t>(samples.size()));

  // Await the Decision for `sidx` on a control channel; stale decisions for
  // abandoned samples are discarded.
  auto await_decision =
      [&](const std::string& ctl,
          std::int64_t sidx) -> std::optional<DecisionPayload> {
    const double deadline = wall_s() + opts.decision_timeout_s;
    while (wall_s() < deadline) {
      const auto reply =
          transport.await(ctl, FrameKind::kDecision, deadline - wall_s());
      if (!reply.has_value()) return std::nullopt;
      DecisionPayload d = decode_decision(*reply);
      if (d.sample == sidx) return d;
    }
    return std::nullopt;
  };

  for (std::int64_t sidx = 0; sidx < limit; ++sidx) {
    const data::MvmcSample& sample = samples[static_cast<std::size_t>(sidx)];
    const double t0 = wall_s();
    InferenceTrace trace;

    // The distributed trace identity every hop of this sample carries: the
    // remote tiers stamp their spans with (trace_id, parent_span) so the
    // merged timeline can regroup the cross-process tree per sample.
    TraceContext ctx;
    ctx.trace_id = trace_id_of(sidx);
    ctx.parent_span = (static_cast<std::uint64_t>(sidx) << 8) | 1ull;

    trace.trace_id = ctx.trace_id;  // the HDR exemplar key

    // Book the finished trace (same shape as the simulator's commit).
    auto commit = [&](int exit_taken, std::int64_t prediction,
                      double entropy) {
      trace.exit_taken = exit_taken;
      trace.prediction = prediction;
      trace.entropy = entropy;
      trace.latency_s = wall_s() - t0;
      book.sample(trace, sample.label, sidx, t0 - run_start);
      if (tr != nullptr) {
        tr->add("sample", "sample", 0, t0 - run_start, trace.latency_s)
            .with("sample_index", sidx)
            .with("exit", exit_taken)
            .with("prediction", prediction)
            .with("label", sample.label)
            .with("entropy", entropy)
            .with("latency_s", trace.latency_s)
            .with("bytes", trace.bytes_sent)
            .with("retries", trace.retries)
            .with("degraded", trace.degraded)
            .with("dead", trace.dead)
            .with("trace_id", static_cast<std::int64_t>(ctx.trace_id))
            .with("span_id", static_cast<std::int64_t>(ctx.parent_span));
      }
      if (arena_bytes != nullptr) {
        arena_bytes->set(static_cast<double>(infer::thread_arena_bytes()));
      }
      result.traces.push_back(trace);
    };

    // Every child span carries the sample identity + trace context.
    auto child = [&](const char* name, const char* cat, int track,
                     double start, double dur) -> obs::Span& {
      return tr->add(name, cat, track, start - run_start, dur)
          .with("sample_index", sidx)
          .with("trace_id", static_cast<std::int64_t>(ctx.trace_id))
          .with("parent_span", static_cast<std::int64_t>(ctx.parent_span));
    };

    // Book one send like the simulator's send() and record its span.
    auto book_send = [&](Link& link, const Message& msg,
                         const SendResult& res, int branch, double start) {
      book.send(link, res, msg.payload_bytes(), branch, t0 - run_start,
                trace);
      if (tr != nullptr) {
        child(send_span_name(msg.kind), "net", 1 + branch, start,
              res.latency_s)
            .with("link", link.name())
            .with("bytes", res.delivered ? msg.payload_bytes() : 0)
            .with("attempts", res.attempts)
            .with("delivered", res.delivered);
      }
    };

    // A delivered local send: device and gateway are colocated, so it is
    // one attempt, but the frame still crosses the simulated gateway link
    // for byte parity.
    auto local_send = [&](Link& link, const Message& msg, int branch) {
      link.transmit(msg);
      book_send(link, msg, SendResult{true, 1, 0, 0.0}, branch, wall_s());
    };

    // Batched uplink flush of one message per device over `links`; returns
    // how many were delivered.
    auto send_all = [&](std::vector<Link>& links,
                        const std::vector<Message>& msgs) {
      std::vector<SocketTransport::BatchItem> batch;
      for (std::size_t b = 0; b < n_dev; ++b) {
        batch.push_back({&links[b], &msgs[b], sidx,
                         static_cast<std::int32_t>(b), ctx});
      }
      const double batch_start = wall_s();
      const auto results = transport.send_batch(batch);
      int delivered = 0;
      for (std::size_t b = 0; b < n_dev; ++b) {
        book_send(links[b], msgs[b], results[b], static_cast<int>(b),
                  batch_start);
        if (results[b].delivered) ++delivered;
      }
      return delivered;
    };

    // --- Stage 0: every device senses its view and runs its section.
    for (std::size_t b = 0; b < n_dev; ++b) {
      const double tb = wall_s();
      devices[b].sense(
          sample.views.at(static_cast<std::size_t>(device_map[b])));
      if (tr != nullptr) {
        child("device_section", "compute", static_cast<int>(1 + b), tb,
              wall_s() - tb)
            .with("branch", static_cast<std::int64_t>(b));
      }
    }

    // --- Stage 1: local exit at the colocated gateway.
    if (cfg.has_local_exit) {
      std::vector<std::optional<Message>> scores(n_dev);
      for (std::size_t b = 0; b < n_dev; ++b) {
        Message msg = devices[b].scores_message();
        local_send(gw_links[b], msg, static_cast<int>(b));
        scores[b] = std::move(msg);
      }
      const double t_fuse = wall_s();
      const ExitDecision d = decide_exit(gateway->aggregate(scores));
      if (tr != nullptr) {
        child("gateway_fuse", "compute", gateway_track, t_fuse,
              wall_s() - t_fuse)
            .with("delivered", static_cast<std::int64_t>(n_dev))
            .with("entropy", d.entropy);
      }
      if (core::should_exit(d.entropy, opts.thresholds[0])) {
        commit(0, d.prediction, d.entropy);
        continue;
      }
    }

    // --- Stage 2: escalate features over real sockets, then ask the tier
    // above to decide. Fallbacks mirror the simulator's ladder.
    std::vector<Message> feats;
    for (std::size_t b = 0; b < n_dev; ++b) {
      feats.push_back(devices[b].feature_message());
    }

    bool decided = false;
    bool try_edge_at_cloud = false;
    if (cfg.has_edge() && edge_up) {
      if (send_all(up_links, feats) > 0 &&
          transport.post("edge-ctl",
                         classify_frame(sidx, ClassifyMode::kNormal, ctx))) {
        if (const auto d = await_decision("edge-ctl", sidx)) {
          if (d->exit_taken >= 0) {
            trace.bytes_sent += d->upstream_bytes;
            trace.degraded = trace.degraded || d->degraded;
            commit(d->exit_taken, d->prediction, d->entropy);
            decided = true;
          } else {
            try_edge_at_cloud = true;  // the edge could not reach a verdict
          }
        } else {
          edge_up = false;  // silent edge: degrade for the rest of the run
          try_edge_at_cloud = true;
        }
      } else {
        edge_up = edge_up && !transport.channel_down("edge-ctl");
        try_edge_at_cloud = true;
      }
    } else if (cfg.has_edge()) {
      try_edge_at_cloud = true;
    }

    if (!decided && cfg.has_edge() && try_edge_at_cloud) {
      // Edge unreachable: features go straight to the cloud, which runs the
      // edge section itself (the simulator's outage route).
      trace.degraded = true;
      if (send_all(fb_links, feats) > 0 &&
          transport.post("cloud-ctl",
                         classify_frame(sidx, ClassifyMode::kEdgeAtCloud,
                                        ctx))) {
        if (const auto d = await_decision("cloud-ctl", sidx)) {
          if (d->exit_taken >= 0) {
            commit(d->exit_taken, d->prediction, d->entropy);
            decided = true;
          }
        }
      }
    }
    if (!decided && !cfg.has_edge()) {
      if (send_all(up_links, feats) > 0 &&
          transport.post("cloud-ctl",
                         classify_frame(sidx, ClassifyMode::kNormal, ctx))) {
        if (const auto d = await_decision("cloud-ctl", sidx)) {
          if (d->exit_taken >= 0) {
            trace.degraded = trace.degraded || d->degraded;
            commit(d->exit_taken, d->prediction, d->entropy);
            decided = true;
          }
        }
      }
    }

    if (!decided) {
      // Last-resort raw offload over the cloud-bound links, then dead.
      trace.degraded = true;
      std::vector<Message> raws;
      for (std::size_t b = 0; b < n_dev; ++b) {
        raws.push_back(devices[b].raw_image_message());
      }
      std::vector<Link>& to_cloud = cfg.has_edge() ? fb_links : up_links;
      if (send_all(to_cloud, raws) > 0 &&
          transport.post("cloud-ctl",
                         classify_frame(sidx, ClassifyMode::kRawOffload,
                                        ctx))) {
        if (const auto d = await_decision("cloud-ctl", sidx)) {
          if (d->exit_taken >= 0) {
            commit(cloud_exit, d->prediction, d->entropy);
            decided = true;
          }
        }
      }
      if (!decided) {
        trace.dead = true;
        commit(-1, -1, 1.0);
      }
    }
  }

  Frame bye;
  bye.kind = FrameKind::kBye;
  if (cfg.has_edge() && !transport.channel_down("edge-ctl")) {
    transport.post("edge-ctl", bye);
  }
  transport.post("cloud-ctl", bye);

  result.metrics = book.metrics();
  if (!opts.decisions_out.empty()) {
    write_decisions_csv(opts.decisions_out, result.traces);
  }
  return result;
}

}  // namespace ddnn::dist
