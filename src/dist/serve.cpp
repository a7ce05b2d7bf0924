#include "dist/serve.hpp"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "obs/slo.hpp"
#include "infer/workspace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace ddnn::dist {
namespace {

/// How long the driver and the edge wait to connect to, and handshake
/// with, the tier above them.
constexpr double kConnectTimeoutS = 10.0;

// ------------------------------------------------------ protocol payloads

Frame decision_frame(std::int64_t sample, const TierDecision& d) {
  Frame frame;
  frame.kind = FrameKind::kDecision;
  PayloadWriter w;
  w.i64(sample);
  w.i32(d.exit_taken);
  w.i64(d.prediction);
  w.f64(d.entropy);
  w.i64(d.bytes);
  w.u8(d.degraded ? 1 : 0);
  frame.payload = w.take();
  return frame;
}

TierDecision decode_decision(const Frame& frame, std::int64_t* sample) {
  PayloadReader r(frame.payload.data(), frame.payload.size(), "decision");
  *sample = r.i64();
  TierDecision d;
  d.exit_taken = r.i32();
  d.prediction = r.i64();
  d.entropy = r.f64();
  d.bytes = r.i64();
  d.degraded = r.u8() != 0;
  return d;
}

struct ClassifyRequest {
  std::int64_t sample = 0;
  ClassifyMode mode = ClassifyMode::kNormal;
  TraceContext ctx;
};

Frame classify_frame(const ClassifyRequest& req) {
  Frame frame;
  frame.kind = FrameKind::kClassify;
  PayloadWriter w;
  w.i64(req.sample);
  w.u8(static_cast<std::uint8_t>(req.mode));
  w.u64(req.ctx.trace_id);
  w.u64(req.ctx.parent_span);
  frame.payload = w.take();
  return frame;
}

ClassifyRequest decode_classify(const Frame& frame) {
  PayloadReader r(frame.payload.data(), frame.payload.size(), "classify");
  ClassifyRequest req;
  req.sample = r.i64();
  req.mode = static_cast<ClassifyMode>(r.u8());
  req.ctx.trace_id = r.u64();
  req.ctx.parent_span = r.u64();
  return req;
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

/// Connect to the tier at `addr`, attach control channel `ctl` and `links`
/// to that one socket, and run the Hello round trip within `timeout_s`.
/// Returns the peer's clock offset — what to add to its clock readings to
/// land on ours, NTP-style: (t0 + t3)/2 - t1 — or nullopt when the peer
/// cannot be reached or does not answer in time.
std::optional<double> connect_tier(SocketTransport& transport,
                                   const std::string& addr,
                                   const std::string& ctl,
                                   const std::vector<Link>& links,
                                   const char* role,
                                   const std::string& signature,
                                   double timeout_s) {
  const auto conn = connect_to(addr, kConnectTimeoutS);
  if (conn == nullptr) return std::nullopt;
  transport.attach(ctl, conn);
  for (const Link& l : links) transport.attach(l.name(), conn);
  const double t0 = wall_s();
  const auto reply =
      transport.request(ctl, hello_frame(role, signature, t0), timeout_s);
  if (!reply.has_value()) return std::nullopt;
  const double t3 = wall_s();
  PayloadReader r(reply->payload.data(), reply->payload.size(), "hello");
  r.str();  // role
  r.str();  // signature
  return 0.5 * (t0 + t3) - r.f64();
}

/// A tier in another process: its messages ride the transport's data
/// channels, Classify goes out on its control channel and the Decision comes
/// back there. Once the peer stops answering — an open breaker on any of
/// its channels, or no Decision within the timeout — the tier is down for
/// the rest of the run.
class SocketTier final : public RemoteTier {
 public:
  SocketTier(SocketTransport& transport, std::string ctl, double timeout_s)
      : transport_(transport), ctl_(std::move(ctl)), timeout_s_(timeout_s) {}

  bool up() const override { return !lost && !transport_.peer_down(ctl_); }

  std::optional<TierDecision> classify(std::int64_t sample, ClassifyMode mode,
                                       const Messages& delivered,
                                       const TraceContext& ctx) override {
    if (!up()) return std::nullopt;
    if (std::none_of(delivered.begin(), delivered.end(),
                     [](const auto& m) { return m.has_value(); })) {
      return TierDecision{};  // nothing to decide on: no verdict
    }
    const auto reply = transport_.request(
        ctl_, classify_frame({sample, mode, ctx}), timeout_s_);
    if (reply.has_value()) {
      std::int64_t answered = -1;
      const TierDecision d = decode_decision(*reply, &answered);
      if (answered == sample) return d;
    }
    lost = true;
    return std::nullopt;
  }

  bool lost = false;

 private:
  SocketTransport& transport_;
  std::string ctl_;
  double timeout_s_;
};

/// Serving roles never sense: any device map of the right size will do.
std::vector<int> no_views(const core::DdnnConfig& cfg) {
  return std::vector<int>(static_cast<std::size_t>(cfg.num_devices));
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
/// file for the process that spawned us), poll every connection, answer
/// Hello, stash and Ack data frames, answer each Classify request with the
/// Decision `handle(ServedConn&, const ClassifyRequest&)` returns, exit
/// when every peer has disconnected (or the idle timeout fires). Every
/// reply carries its request's seq (answer()). Servers are
/// single-threaded: each request runs to completion on the accept thread,
/// in arrival order per connection, so per-thread == per-connection
/// inference workspaces (infer/workspace).
class FrameServer {
 public:
  FrameServer(const char* role, std::string signature,
              const ServeOptions& opts)
      : role_(role),
        signature_(std::move(signature)),
        opts_(opts),
        listener_(opts.listen_port) {
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
          frames = sc.conn->ready_frames();
        } catch (const ddnn::Error& e) {
          std::fprintf(stderr, "ddnn serve [%s]: dropping peer: %s\n", role_,
                       e.what());
          sc.conn->close();
          continue;
        }
        if (!frames.empty()) last_activity = wall_s();
        for (Frame& frame : frames) {
          if (opts_.blackhole) continue;  // read everything, answer nothing
          if (frame.kind == FrameKind::kStats ||
              frame.kind == FrameKind::kHealth) {
            answer_poll(sc, frame);
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
            if (frame.kind == FrameKind::kHello) {
              answer(sc, frame, hello_reply(frame));
            } else if (is_data_kind(frame.kind)) {
              stash(sc, frame);
              answer(sc, frame, Frame{FrameKind::kAck, 0, {}});
            } else if (frame.kind == FrameKind::kClassify) {
              const ClassifyRequest req = decode_classify(frame);
              answer(sc, frame, decision_frame(req.sample, handle(sc, req)));
            }
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

  /// Live telemetry polls, deliberately side-effect-free so polling cannot
  /// change what it observes: Stats answers with a MetricsRegistry
  /// snapshot; Health with the snapshot health document derived from it
  /// (obs::health_from_metrics) — serve roles have no deterministic
  /// simulated clock, so health here is a registry snapshot, not a
  /// burn-rate window. Once the driver finishes and the registry freezes,
  /// repeated polls return byte-identical payloads.
  void answer_poll(ServedConn& sc, const Frame& frame) {
    std::string doc;
    if (opts_.metrics == nullptr) {
      doc = frame.kind == FrameKind::kStats
                ? "{\n  \"metrics\": []\n}\n"
                : "{\n  \"signals\": [],\n  \"overall\": \"ok\"\n}\n";
    } else if (frame.kind == FrameKind::kStats) {
      doc = opts_.metrics->to_json();
    } else {
      doc = obs::health_from_metrics(opts_.metrics->to_json());
    }
    PayloadWriter w;
    w.str(doc);
    answer(sc, frame, Frame{frame.kind, 0, w.take()});
  }

  /// Collect sample `s`'s pending messages into a branch-indexed vector and
  /// drop the stash (plus anything older — those samples were abandoned).
  Messages take_sample(ServedConn& sc, std::int64_t s, std::size_t branches) {
    Messages out(branches);
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
  /// Queue `reply` as the answer to `request`: every reply carries its
  /// request's seq, the one rule requesters match replies by.
  static void answer(ServedConn& sc, const Frame& request, Frame reply) {
    reply.seq = request.seq;
    sc.conn->queue(reply);
  }

  /// Stash a data frame's Message under (sample, branch).
  static void stash(ServedConn& sc, const Frame& frame) {
    MessageMeta meta;
    Message msg = frame_message(frame, &meta);
    sc.pending[meta.sample][meta.branch] = std::move(msg);
    // Bound the stash: a sample the driver abandoned (timeout ladder) would
    // otherwise pin its features forever.
    while (sc.pending.size() > 64) sc.pending.erase(sc.pending.begin());
  }

  /// Our own (role, signature) for a Hello; a mismatched model is a loud
  /// failure on both ends instead of silently-diverging inference. The
  /// reply timestamp is this process's clock at handling time — the t1 of
  /// the sender's NTP-style offset estimate.
  Frame hello_reply(const Frame& frame) const {
    PayloadReader r(frame.payload.data(), frame.payload.size(), "hello");
    const std::string peer_role = r.str();
    const std::string peer_sig = r.str();
    DDNN_CHECK(peer_sig == signature_,
               "model mismatch: peer '" << peer_role << "' runs " << peer_sig
                                        << ", this " << role_ << " runs "
                                        << signature_);
    return hello_frame(role_, signature_, wall_s());
  }

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
  std::string signature_;
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
  // The cloud sends nothing; its socket transport only sets the clock, so
  // the runtime charges and stamps measured wall time.
  SocketTransport clock(opts.reliability);
  HierarchyRuntime runtime(model, opts.thresholds, no_views(cfg));
  runtime.set_transport(&clock);
  if (opts.tracer != nullptr) {
    opts.tracer->set_process(2, "cloud");
    runtime.set_tracer(opts.tracer);
  }
  FrameServer server("cloud", model_signature(model), opts);
  return server.run([&](ServedConn& sc, const ClassifyRequest& req) {
    // Normal requests carry one message per branch into the cloud: edge
    // groups, or devices without an edge tier. The others carry devices'.
    const int branches = req.mode == ClassifyMode::kNormal && cfg.has_edge()
                             ? static_cast<int>(cfg.edge_groups.size())
                             : cfg.num_devices;
    auto msgs =
        server.take_sample(sc, req.sample, static_cast<std::size_t>(branches));
    return runtime.cloud_step(req.sample, req.mode, std::move(msgs), req.ctx);
  });
}

// ------------------------------------------------------------------- edge

int serve_edge(core::DdnnModel& model, const ServeOptions& opts) {
  const auto& cfg = model.config();
  DDNN_CHECK(cfg.has_edge(), "edge role on a hierarchy without an edge tier");
  const std::string signature = model_signature(model);

  // Upstream leg: this process is itself a SocketTransport client of the
  // cloud, which its runtime reaches as a remote tier.
  SocketTransport uplink(opts.reliability);
  uplink.bind_metrics(opts.metrics);  // eager link.* columns pre-traffic
  SocketTier cloud(uplink, "cloud-ctl", opts.decision_timeout_s);
  HierarchyRuntime runtime(model, opts.thresholds, no_views(cfg), {},
                           {.cloud = &cloud});
  runtime.set_transport(&uplink);
  if (!opts.blackhole) {
    DDNN_CHECK(!opts.cloud_addr.empty(), "edge role needs --cloud host:port");
    DDNN_CHECK(connect_tier(uplink, opts.cloud_addr, "cloud-ctl",
                            runtime.edge_cloud_links(), "edge", signature,
                            kConnectTimeoutS),
               "cannot reach the cloud at " << opts.cloud_addr);
  }
  if (opts.tracer != nullptr) {
    opts.tracer->set_process(1, "edge");
    runtime.set_tracer(opts.tracer);
  }

  FrameServer server("edge", signature, opts);
  const int rc = server.run([&](ServedConn& sc, const ClassifyRequest& req) {
    // An edge serves only the normal route.
    return runtime.edge_step(
        req.sample,
        server.take_sample(sc, req.sample,
                           static_cast<std::size_t>(cfg.num_devices)),
        req.ctx);
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
  DDNN_CHECK(!opts.cloud_addr.empty(), "driver needs --cloud host:port");
  DDNN_CHECK(!cfg.has_edge() || !opts.edge_addr.empty(),
             "driver needs --edge host:port");
  const std::string signature = model_signature(model);

  // The devices and the gateway run here; the edge and the cloud are remote
  // tiers over one socket each.
  SocketTransport transport(opts.reliability);
  SocketTier edge(transport, "edge-ctl", opts.decision_timeout_s);
  SocketTier cloud(transport, "cloud-ctl", opts.decision_timeout_s);
  HierarchyRuntime runtime(model, opts.thresholds, device_map, {},
                           {cfg.has_edge() ? &edge : nullptr, &cloud});
  runtime.set_transport(&transport);

  // Registry layout: runtime.* and the gateway links (the runtime's book),
  // serve.arena_bytes, then the socket links in attach order — eagerly,
  // before any traffic, so a degraded run exports the same columns as a
  // healthy one.
  runtime.bind_metrics(opts.metrics);
  obs::Gauge* arena_bytes = opts.metrics == nullptr
                                ? nullptr
                                : &opts.metrics->gauge("serve.arena_bytes");
  transport.bind_metrics(opts.metrics);

  // Tracer attribution: this process is pid 0 ("driver"), the reference
  // clock of the merged timeline; trace-merge places every role on it from
  // the epochs and the handshake-measured offsets in each file's metadata.
  obs::SpanTracer* tr = opts.tracer;
  if (tr != nullptr) tr->set_process(0, "driver");

  // Every channel into a tier rides that tier's one socket. Without an edge
  // tier the device uplinks end at the cloud; with one, the cloud takes the
  // fallback links.
  const auto cloud_offset = connect_tier(
      transport, opts.cloud_addr, "cloud-ctl",
      cfg.has_edge() ? runtime.device_cloud_fallback_links()
                     : runtime.device_uplink_links(),
      "driver", signature, kConnectTimeoutS);
  DDNN_CHECK(cloud_offset.has_value(),
             "cannot reach the cloud at " << opts.cloud_addr);
  if (tr != nullptr) tr->set_meta("offset_cloud_s", *cloud_offset);

  if (cfg.has_edge()) {
    const auto edge_offset = connect_tier(
        transport, opts.edge_addr, "edge-ctl", runtime.device_uplink_links(),
        "driver", signature, opts.decision_timeout_s);
    if (edge_offset.has_value()) {
      if (tr != nullptr) tr->set_meta("offset_edge_s", *edge_offset);
    } else {
      // A silent edge (down, blackholed) degrades the run from sample 0 —
      // the served twin of a whole-run outage.
      edge.lost = true;
      std::fprintf(stderr,
                   "ddnn serve [driver]: edge unreachable, degrading to "
                   "cloud-only routes\n");
    }
  }
  runtime.set_tracer(tr);

  DriveResult result;
  const std::size_t limit =
      opts.max_samples < 0
          ? samples.size()
          : std::min(samples.size(),
                     static_cast<std::size_t>(opts.max_samples));
  for (std::size_t i = 0; i < limit; ++i) {
    result.traces.push_back(runtime.classify(samples[i]));
    if (arena_bytes != nullptr) {
      arena_bytes->set(static_cast<double>(infer::thread_arena_bytes()));
    }
  }

  Frame bye;
  bye.kind = FrameKind::kBye;
  if (cfg.has_edge() && !transport.channel_down("edge-ctl")) {
    transport.post("edge-ctl", bye);
  }
  transport.post("cloud-ctl", bye);

  result.metrics = runtime.metrics();
  if (!opts.decisions_out.empty()) {
    write_decisions_csv(opts.decisions_out, result.traces);
  }
  return result;
}

}  // namespace ddnn::dist
