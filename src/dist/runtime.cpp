#include "dist/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "autograd/grad_mode.hpp"
#include "core/entropy.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace ddnn::dist {

namespace {

/// Edge-to-cloud links: a faster backhaul than the device uplinks.
constexpr LinkConfig kEdgeLink{.bandwidth_bytes_per_s = 2e6,
                               .base_latency_s = 10e-3};
/// Fixed compute latency the simulator charges per tier per sample (s).
constexpr double kDeviceComputeS = 2e-3;
constexpr double kEdgeComputeS = 1e-3;
constexpr double kCloudComputeS = 0.5e-3;

/// argmax + normalized entropy of a [1, C] score vector — the decision rule
/// every exit applies to its fused scores.
struct ExitDecision {
  std::int64_t prediction = 0;
  double entropy = 0.0;
};
ExitDecision decide_exit(const Tensor& logits) {
  const Tensor probs = ops::softmax_rows(logits);
  return {ops::argmax_rows(probs)[0], core::normalized_entropy_row(probs, 0)};
}

bool any_of(const Messages& msgs) {
  return std::any_of(msgs.begin(), msgs.end(),
                     [](const auto& m) { return m.has_value(); });
}

/// An edge group's members' messages, by position in the group.
Messages members_of(const std::vector<int>& group, const Messages& features) {
  Messages members;
  for (int d : group) members.push_back(features[static_cast<std::size_t>(d)]);
  return members;
}

}  // namespace

HierarchyRuntime::HierarchyRuntime(core::DdnnModel& model,
                                   std::vector<double> thresholds,
                                   std::vector<int> device_map,
                                   RuntimeConfig config, RemoteTiers remote)
    : model_(model),
      thresholds_(std::move(thresholds)),
      device_map_(std::move(device_map)),
      config_(config),
      remote_(remote),
      sim_transport_(config.reliability) {
  const auto& cfg = model_.config();
  DDNN_CHECK(!cfg.float_devices,
             "float-device models have no 1-bit wire format; the distributed "
             "runtime requires binarized device sections");
  DDNN_CHECK(static_cast<int>(thresholds_.size()) + 1 == cfg.num_exits(),
             "need one threshold per non-final exit");
  DDNN_CHECK(static_cast<int>(device_map_.size()) == cfg.num_devices,
             "device map size mismatch");
  const bool edge_local = remote_.edge == nullptr;
  const bool cloud_local = remote_.cloud == nullptr;
  DDNN_CHECK((edge_local && cloud_local) || cfg.edge_groups.size() <= 1,
             "ddnn serve runs one edge process; multi-edge presets are "
             "simulator-only for now");
  config_.reliability.validate();

  for (int b = 0; b < cfg.num_devices; ++b) {
    devices_.emplace_back(b, model_, b);
    dev_gateway_links_.emplace_back("device" + std::to_string(b) + "->gateway",
                                    config_.device_link);
    const std::string up_target = cfg.has_edge() ? "edge" : "cloud";
    dev_uplink_links_.emplace_back(
        "device" + std::to_string(b) + "->" + up_target, config_.device_link);
    if (cfg.has_edge()) {
      // Degraded-routing path: when the edge tier is unreachable, devices
      // escalate straight to the cloud over these links. (Without an edge
      // tier the normal uplink already terminates at the cloud.)
      dev_cloud_links_.emplace_back(
          "device" + std::to_string(b) + "->cloud(fallback)",
          config_.device_link);
    }
  }
  if (cfg.has_edge()) {
    for (std::size_t g = 0; g < cfg.edge_groups.size(); ++g) {
      edges_.emplace_back(g, model_);
      edge_coord_links_.emplace_back("edge" + std::to_string(g) + "->coord",
                                     kEdgeLink);
      edge_cloud_links_.emplace_back("edge" + std::to_string(g) + "->cloud",
                                     kEdgeLink);
    }
  }
  // The book owns link.* of every hop into an in-process tier; a hop into a
  // remote tier is booked by the transport that carries it.
  const std::pair<const std::vector<Link>*, bool> booked[] = {
      {&dev_gateway_links_, true},
      {&dev_uplink_links_, cfg.has_edge() ? edge_local : cloud_local},
      {&edge_coord_links_, edge_local},
      {&edge_cloud_links_, edge_local && cloud_local},
      {&dev_cloud_links_, cloud_local}};
  std::vector<const Link*> links;
  for (const auto& [group, local] : booked) {
    if (!local) continue;
    for (const Link& link : *group) links.push_back(&link);
  }
  book_ = RunBook(model_.exit_names(), devices_.size(), std::move(links));
  if (!edge_local || !cloud_local) {
    run_nonce_ = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
  }
  reset_metrics();
}

void HierarchyRuntime::set_device_failed(int branch, bool failed) {
  DDNN_CHECK(branch >= 0 &&
                 branch < static_cast<int>(devices_.size()),
             "branch out of range");
  devices_[static_cast<std::size_t>(branch)].set_failed(failed);
}

void HierarchyRuntime::set_fault_plan(FaultPlan plan) {
  plan.validate();
  DDNN_CHECK(plan.devices.size() <= devices_.size(),
             "fault plan schedules " << plan.devices.size()
                                     << " devices but the runtime has "
                                     << devices_.size());
  const int n_groups = static_cast<int>(model_.config().edge_groups.size());
  for (const auto& o : plan.edge_outages) {
    DDNN_CHECK(n_groups > 0,
               "edge outage in the plan but this hierarchy has no edge tier");
    DDNN_CHECK(o.group < n_groups, "edge outage group out of range");
  }
  injector_.emplace(std::move(plan));
  transport().set_fault_injector(fault_injector());
}

void HierarchyRuntime::clear_fault_plan() {
  injector_.reset();
  transport().set_fault_injector(nullptr);
}

void HierarchyRuntime::set_transport(Transport* transport) {
  transport_ = transport;
  // The new transport inherits the installed fault oracle (a no-op for
  // transports that ignore injectors, e.g. real sockets).
  this->transport().set_fault_injector(fault_injector());
}

void HierarchyRuntime::reset_metrics() {
  book_.reset();
  for (auto& l : dev_gateway_links_) l.reset_stats();
  for (auto& l : dev_uplink_links_) l.reset_stats();
  for (auto& l : edge_coord_links_) l.reset_stats();
  for (auto& l : edge_cloud_links_) l.reset_stats();
  for (auto& l : dev_cloud_links_) l.reset_stats();
  sample_index_ = 0;
}

void HierarchyRuntime::set_tracer(obs::SpanTracer* tracer) {
  tracer_ = tracer;
  if (!tracer_) return;
  if (transport().measures_time()) {
    epoch_ = wall_s();
    tracer_->set_meta("epoch_s", epoch_);
  }
  tracer_->set_track_name(0, "samples");
  for (std::size_t b = 0; b < devices_.size(); ++b) {
    tracer_->set_track_name(device_track(static_cast<int>(b)),
                            "device" + std::to_string(b));
  }
  if (model_.config().has_local_exit) {
    tracer_->set_track_name(gateway_track(), "gateway");
  }
  if (remote_.edge == nullptr) {
    for (std::size_t g = 0; g < edges_.size(); ++g) {
      tracer_->set_track_name(edge_track(static_cast<int>(g)),
                              "edge" + std::to_string(g));
    }
    if (!edges_.empty()) tracer_->set_track_name(coord_track(), "edge-coord");
  }
  if (remote_.cloud == nullptr) tracer_->set_track_name(cloud_track(), "cloud");
}

namespace {

/// Counter slot names, shared by the registry and the series so that
/// scripts/check_trace.py --series can reconcile same-named pairs exactly.
constexpr const char* kSlotNames[] = {
    "runtime.samples",  "runtime.bytes_total", "runtime.correct",
    "runtime.retries",  "runtime.drops",       "runtime.timeouts",
    "runtime.degraded", "runtime.dead"};
constexpr const char* kHdrLatencyName = "runtime.hdr_latency_ms";
// Microsecond resolution up to an hour of latency.
constexpr double kHdrUnitMs = 1e-3;
constexpr double kHdrMaxMs = 3.6e6;
// Byte resolution up to 1 MiB per sample; larger samples count as overflow
// and keep the exact max.
constexpr double kSampleBytesMax = 1048576.0;

}  // namespace

void add_ledger_metrics(obs::LedgerRecord& rec, const RuntimeMetrics& metrics,
                        const std::vector<std::string>& exit_names) {
  DDNN_CHECK(exit_names.size() == metrics.exit_counts.size(),
             "one exit name per exit count");
  const auto count = [&](const std::string& name, std::int64_t n) {
    rec.add_metric("runtime." + name, static_cast<double>(n));
  };
  count("samples", metrics.samples);
  rec.add_metric("runtime.accuracy", metrics.accuracy());
  count("bytes_total", metrics.total_bytes);
  rec.add_metric("runtime.mean_latency_ms", 1e3 * metrics.mean_latency_s());
  for (std::size_t e = 0; e < exit_names.size(); ++e) {
    count("exit." + exit_names[e], metrics.exit_counts[e]);
  }
  const auto& rel = metrics.reliability;
  count("drops", rel.drops);
  count("retries", rel.retries);
  count("timeouts", rel.timeouts);
  count("degraded", rel.degraded_exits);
  count("dead", rel.dead_samples);
}

RunBook::RunBook(std::vector<std::string> exit_names,
                 std::size_t num_devices, std::vector<const Link*> links)
    : exit_names_(std::move(exit_names)), links_(std::move(links)) {
  metrics_.exit_counts.assign(exit_names_.size(), 0);
  metrics_.device_bytes.assign(num_devices, 0);
}

void RunBook::reset() {
  RuntimeMetrics fresh;
  fresh.exit_counts.assign(metrics_.exit_counts.size(), 0);
  fresh.device_bytes.assign(metrics_.device_bytes.size(), 0);
  metrics_ = std::move(fresh);
}

void RunBook::bind_metrics(obs::MetricsRegistry* registry) {
  static_assert(std::size(kSlotNames) == kExit0, "one name per slot");
  registry_ = registry;
  counters_.clear();
  link_counters_.clear();
  if (registry == nullptr) return;
  for (const char* name : kSlotNames) {
    counters_.push_back(&registry->counter(name));
  }
  for (const auto& name : exit_names_) {
    counters_.push_back(&registry->counter("runtime.exit." + name));
  }
  total_latency_s_ = &registry->gauge("runtime.total_latency_s");
  hdr_latency_ms_ =
      &registry->hdr_histogram(kHdrLatencyName, kHdrUnitMs, kHdrMaxMs);
  sample_bytes_ = &registry->hdr_histogram("runtime.sample_bytes", 1.0,
                                           kSampleBytesMax);
  for (const Link* link : links_) {
    link_counters_.push_back(LinkCounters::bind(*registry, link->name()));
  }
}

void RunBook::bind_series(obs::WindowedSeries* series) {
  series_ = series;
  columns_.clear();
  link_bytes_cols_.clear();
  if (series == nullptr) return;
  for (const char* name : kSlotNames) {
    columns_.push_back(series->add_counter(name));
  }
  for (const auto& name : exit_names_) {
    columns_.push_back(series->add_counter("runtime.exit." + name));
  }
  for (std::size_t e = 0; e < exit_names_.size(); ++e) {
    series->add_ratio("runtime.exit_frac." + exit_names_[e],
                      columns_[kExit0 + e], columns_[kSamples]);
  }
  series->add_ratio("runtime.accuracy", columns_[kCorrect],
                    columns_[kSamples]);
  hdr_latency_col_ = series->add_hdr(kHdrLatencyName, kHdrUnitMs, kHdrMaxMs);
  for (const Link* link : links_) {
    link_bytes_cols_.push_back(
        series->add_counter("link." + link->name() + ".bytes"));
  }
}

void RunBook::count(std::size_t slot, std::int64_t n, double t) {
  if (n == 0) return;
  if (registry_ != nullptr) counters_[slot]->add(n);
  if (series_ != nullptr) {
    series_->record(columns_[slot], t, static_cast<double>(n));
  }
}

void RunBook::send(const Link& link, const SendResult& res,
                   std::int64_t payload_bytes, int branch, double t,
                   InferenceTrace& trace) {
  const int retries = res.attempts - 1;
  metrics_.reliability.drops += res.dropped_attempts;
  metrics_.reliability.retries += retries;
  trace.retries += retries;
  if (res.delivered) {
    trace.bytes_sent += payload_bytes;
    if (branch >= 0) {
      metrics_.device_bytes[static_cast<std::size_t>(branch)] += payload_bytes;
    }
  } else {
    ++metrics_.reliability.timeouts;
  }
  count(kDrops, res.dropped_attempts, t);
  count(kRetries, retries, t);
  count(kTimeouts, res.delivered ? 0 : 1, t);
  if (registry_ == nullptr && series_ == nullptr) return;
  const auto it = std::find(links_.begin(), links_.end(), &link);
  if (it == links_.end()) return;
  const auto l = static_cast<std::size_t>(it - links_.begin());
  if (registry_ != nullptr) link_counters_[l].book(res, payload_bytes);
  if (series_ != nullptr && res.delivered) {
    series_->record(link_bytes_cols_[l], t,
                    static_cast<double>(payload_bytes));
  }
}

void RunBook::sample(const InferenceTrace& trace, std::int64_t label,
                     std::int64_t sample_index, double t) {
  const bool correct = trace.prediction == label;
  ++metrics_.samples;
  metrics_.total_bytes += trace.bytes_sent;
  metrics_.total_latency_s += trace.latency_s;
  if (correct) ++metrics_.correct;
  if (trace.degraded) ++metrics_.reliability.degraded_exits;
  if (trace.dead) ++metrics_.reliability.dead_samples;
  if (trace.exit_taken >= 0) {
    ++metrics_.exit_counts[static_cast<std::size_t>(trace.exit_taken)];
  }
  // Everything a sample contributes lands at its clock `t` (its sends were
  // booked there too), so it falls in exactly one series window and the
  // counter columns' window sums reconcile with the final snapshot.
  count(kSamples, 1, t);
  count(kBytesTotal, trace.bytes_sent, t);
  count(kCorrect, correct ? 1 : 0, t);
  count(kDegraded, trace.degraded ? 1 : 0, t);
  count(kDead, trace.dead ? 1 : 0, t);
  if (trace.exit_taken >= 0) {
    count(kExit0 + static_cast<std::size_t>(trace.exit_taken), 1, t);
  }
  const double latency_ms = trace.latency_s * 1e3;
  if (registry_ != nullptr) {
    total_latency_s_->set(metrics_.total_latency_s);
    hdr_latency_ms_->record(latency_ms, trace.trace_id, sample_index);
    sample_bytes_->record(static_cast<double>(trace.bytes_sent),
                          trace.trace_id, sample_index);
  }
  if (series_ != nullptr) {
    series_->record(hdr_latency_col_, t, latency_ms);
  }
}

int HierarchyRuntime::group_of(int branch) const {
  const auto& groups = model_.config().edge_groups;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (int d : groups[g]) {
      if (d == branch) return static_cast<int>(g);
    }
  }
  return -1;
}

Table HierarchyRuntime::link_report() const {
  Table table({"Link", "Messages", "Dropped", "Bytes", "Bytes/sample"});
  const std::int64_t n = book_.metrics().samples;
  auto emit = [&](const std::vector<Link>& links) {
    for (const auto& link : links) {
      // An empty metrics window has no meaningful per-sample rate; emit "-"
      // instead of mistaking the byte total for a rate.
      const std::string per_sample =
          n == 0 ? "-"
                 : Table::num(static_cast<double>(link.stats().bytes) /
                                  static_cast<double>(n),
                              1);
      table.add_row({link.name(), std::to_string(link.stats().messages),
                     std::to_string(link.stats().dropped),
                     std::to_string(link.stats().bytes), per_sample});
    }
  };
  emit(dev_gateway_links_);
  emit(dev_uplink_links_);
  emit(edge_coord_links_);
  emit(edge_cloud_links_);
  emit(dev_cloud_links_);
  return table;
}

double HierarchyRuntime::Pass::now() const { return wall ? wall_s() : 0.0; }

double HierarchyRuntime::Pass::charge(double start, double modelled) const {
  return wall ? wall_s() - start : modelled;
}

HierarchyRuntime::Pass HierarchyRuntime::begin(std::int64_t sidx,
                                               const TraceContext& ctx) {
  Pass p;
  p.sidx = sidx;
  p.ctx = ctx;
  p.wall = transport().measures_time();
  p.t0 = p.now();
  // Simulated samples lay out back to back on the run timeline, each
  // starting where the previous one's latency ended; measured samples start
  // at their wall time since the tracer's epoch.
  p.base = p.wall ? p.t0 - epoch_ : book_.metrics().total_latency_s;
  return p;
}

InferenceTrace HierarchyRuntime::commit(Pass& p, std::int64_t label,
                                        const TierDecision& d) {
  InferenceTrace& trace = p.trace;
  trace.exit_taken = d.exit_taken;
  trace.prediction = d.prediction;
  trace.entropy = d.entropy;
  // No tier could classify: a flagged dead trace, counted, never crashed on.
  if (d.exit_taken < 0) trace.degraded = trace.dead = true;
  trace.latency_s = p.charge(p.t0, trace.latency_s);
  book_.sample(trace, label, p.sidx, p.base);
  if (tracer_) {
    // Root span: dur_s and the latency_s/bytes args are the *exact*
    // doubles/integers booked into RuntimeMetrics, so trace consumers can
    // cross-check the two exports bit-for-bit (scripts/check_trace.py).
    obs::Span& root = tracer_->add("sample", "sample", 0, p.base,
                                   trace.latency_s)
                          .with("sample_index", p.sidx)
                          .with("exit", trace.exit_taken)
                          .with("prediction", trace.prediction)
                          .with("label", label)
                          .with("entropy", trace.entropy)
                          .with("latency_s", trace.latency_s)
                          .with("bytes", trace.bytes_sent)
                          .with("retries", trace.retries)
                          .with("degraded", trace.degraded)
                          .with("dead", trace.dead);
    if (p.ctx.trace_id != 0) {
      root.with("trace_id", static_cast<std::int64_t>(p.ctx.trace_id))
          .with("span_id", static_cast<std::int64_t>(p.ctx.parent_span));
    }
  }
  return trace;
}

obs::Span& HierarchyRuntime::span(const Pass& p, const char* name,
                                  const char* cat, int track, double start,
                                  double dur) {
  obs::Span& s = tracer_->add(name, cat, track, start, dur);
  if (p.ctx.trace_id != 0) {
    s.with("sample_index", p.sidx)
        .with("trace_id", static_cast<std::int64_t>(p.ctx.trace_id))
        .with("parent_span", static_cast<std::int64_t>(p.ctx.parent_span));
  }
  return s;
}

void HierarchyRuntime::send_items(Pass& p, bool from_edge, bool colocated,
                                  const char* span_name, double t_off,
                                  double& stage) {
  const double start = p.now();
  if (colocated) {
    results_.clear();
    for (const auto& item : items_) {
      item.link->transmit(*item.msg);
      results_.push_back(SendResult{true, 1, 0, 0.0});
    }
  } else {
    transport().send_batch(items_, results_);
  }
  // Sends are booked at the sample's start time. Each span starts at the
  // stage's start on the sender's track (`t_off` shifts it past compute
  // charged before the send, e.g. the edge trunk).
  double slowest = 0.0;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& item = items_[i];
    const SendResult& res = results_[i];
    const std::int64_t bytes = item.msg->payload_bytes();
    book_.send(*item.link, res, bytes, from_edge ? -1 : item.branch, p.base,
               p.trace);
    if (tracer_) {
      span(p, span_name, "net",
           from_edge ? edge_track(item.branch) : device_track(item.branch),
           p.base + p.trace.latency_s + t_off, res.latency_s)
          .with("link", item.link->name())
          .with("bytes", res.delivered ? bytes : std::int64_t{0})
          .with("attempts", res.attempts)
          .with("delivered", res.delivered);
    }
    slowest = std::max(slowest, res.latency_s);
  }
  stage = std::max(stage, p.charge(start, slowest));
}

bool HierarchyRuntime::sense(Pass& p, const data::MvmcSample& sample) {
  const FaultInjector* inj = fault_injector();
  const double start = p.now();
  p.alive.assign(devices_.size(), false);
  bool any_alive = false;
  for (std::size_t b = 0; b < devices_.size(); ++b) {
    if (devices_[b].failed()) continue;
    if (inj && inj->device_down(static_cast<int>(b), p.sidx)) continue;
    const auto dev_id = static_cast<std::size_t>(device_map_[b]);
    devices_[b].sense(sample.views.at(dev_id));
    p.alive[b] = true;
    any_alive = true;
  }
  if (!any_alive) return false;
  const double dur = p.charge(start, kDeviceComputeS);
  if (tracer_) {
    for (std::size_t b = 0; b < devices_.size(); ++b) {
      if (!p.alive[b]) continue;
      span(p, "device_section", "compute", device_track(static_cast<int>(b)),
           p.base + p.trace.latency_s, dur)
          .with("branch", static_cast<int>(b));
    }
  }
  p.trace.latency_s += dur;
  return true;
}

template <typename Make, typename Route>
Messages HierarchyRuntime::from_devices(Pass& p, Make make, Route route,
                                        bool colocated, const char* span_name) {
  Messages msgs(devices_.size());
  items_.clear();
  for (std::size_t b = 0; b < devices_.size(); ++b) {
    if (!p.alive[b]) continue;
    msgs[b] = make(devices_[b]);
    items_.push_back({&route(b), &*msgs[b], p.sidx,
                      static_cast<std::int32_t>(b), p.ctx});
  }
  double stage = 0.0;
  send_items(p, false, colocated, span_name, 0.0, stage);
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (!results_[i].delivered) {
      msgs[static_cast<std::size_t>(items_[i].branch)].reset();
    }
  }
  p.trace.latency_s += stage;
  return msgs;
}

std::optional<TierDecision> HierarchyRuntime::gateway_exit(Pass& p) {
  // A real gateway runs beside the devices that feed it.
  const auto scores = from_devices(
      p, [](DeviceNode& d) { return d.scores_message(); },
      [&](std::size_t b) -> Link& { return dev_gateway_links_[b]; }, p.wall,
      "send:scores");
  const auto delivered = static_cast<int>(
      std::count_if(scores.begin(), scores.end(),
                    [](const auto& m) { return m.has_value(); }));
  if (delivered == 0) {
    // The gateway heard from zero devices: it cannot make a local
    // decision, so the sample escalates without one.
    p.trace.degraded = true;
    return std::nullopt;
  }
  const double start = p.now();
  autograd::NoGradGuard no_grad;
  const auto in = decode_inputs(scores, Shape{1, model_.config().num_classes});
  const ExitDecision d =
      decide_exit(model_.local_aggregate(in.values, in.active).value());
  const double fuse = p.charge(start, 0.0);
  if (tracer_) {
    span(p, "gateway_fuse", "compute", gateway_track(),
         p.base + p.trace.latency_s, fuse)
        .with("delivered", delivered)
        .with("entropy", d.entropy);
  }
  p.trace.latency_s += fuse;
  if (!core::should_exit(d.entropy, thresholds_[0])) return std::nullopt;
  return TierDecision{0, d.prediction, d.entropy};
}

Messages HierarchyRuntime::send_features(Pass& p,
                                         const std::vector<bool>& dark) {
  const bool has_edge = model_.config().has_edge();
  return from_devices(
      p, [](DeviceNode& d) { return d.feature_message(); },
      [&](std::size_t b) -> Link& {
        const int g = has_edge ? group_of(static_cast<int>(b)) : -1;
        if (g < 0 || !dark[static_cast<std::size_t>(g)]) {
          return dev_uplink_links_[b];
        }
        p.trace.degraded = true;
        return dev_cloud_links_[b];
      },
      false, "send:features");
}

TierDecision HierarchyRuntime::run_edge(Pass& p, const Messages& features,
                                        const std::vector<bool>& dark) {
  const auto& cfg = model_.config();
  const auto n_groups = cfg.edge_groups.size();
  // Reachable edges process their member devices and send their exit scores
  // to the coordinator, which a real edge runs in its own process.
  Messages edge_scores(n_groups);
  std::vector<bool> active(n_groups, false);
  double trunk = 0.0;
  double stage = 0.0;
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (dark[g]) continue;
    const auto members = members_of(cfg.edge_groups[g], features);
    active[g] = any_of(members);
    if (!active[g]) continue;
    const double start = p.now();
    edge_scores[g] = edges_[g].process(members, 1);
    const double dur = p.charge(start, kEdgeComputeS);
    trunk = std::max(trunk, dur);
    if (tracer_) {
      span(p, "edge_trunk", "compute", edge_track(static_cast<int>(g)),
           p.base + p.trace.latency_s, dur)
          .with("group", static_cast<int>(g));
    }
    items_.assign(1, {&edge_coord_links_[g], &*edge_scores[g], p.sidx,
                      static_cast<std::int32_t>(g), p.ctx});
    send_items(p, true, p.wall, "send:edge_scores", dur, stage);
    if (!results_[0].delivered) edge_scores[g].reset();
  }
  p.trace.latency_s += trunk;
  p.trace.latency_s += stage;

  // Fused edge exit (skipped when the coordinator heard from zero edges —
  // the sample escalates straight to the cloud).
  if (any_of(edge_scores)) {
    const auto in = decode_inputs(edge_scores, Shape{1, cfg.num_classes});
    const double start = p.now();
    const ExitDecision d =
        decide_exit(model_.edge_exit_aggregate(in.values, in.active).value());
    const double fuse = p.charge(start, 0.0);
    if (tracer_) {
      span(p, "edge_exit_fuse", "compute", coord_track(),
           p.base + p.trace.latency_s, fuse)
          .with("entropy", d.entropy);
    }
    p.trace.latency_s += fuse;
    const int exit_index = cfg.has_local_exit ? 1 : 0;
    if (core::should_exit(d.entropy,
                          thresholds_[static_cast<std::size_t>(exit_index)])) {
      return TierDecision{exit_index, d.prediction, d.entropy};
    }
  } else {
    p.trace.degraded = true;
  }
  auto branches = to_cloud(p, dark, active, features);
  return cloud(p, ClassifyMode::kNormal, branches);
}

Messages HierarchyRuntime::to_cloud(Pass& p, const std::vector<bool>& dark,
                                    const std::vector<bool>& active,
                                    const Messages& features) {
  // What reaches the cloud from each group: its edge's features or, for a
  // dark group, the group's edge section, run by the cloud itself on the
  // member features sent straight to it.
  const auto& groups = model_.config().edge_groups;
  Messages branches(groups.size());
  double stage = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (dark[g]) {
      const double start = p.now();
      branches[g] = edge_at_cloud(g, features);
      const double dur = p.charge(start, 0.0);
      if (tracer_) {
        span(p, "edge_section_at_cloud", "compute", cloud_track(),
             p.base + p.trace.latency_s, dur)
            .with("group", static_cast<int>(g))
            .with("delivered", branches[g].has_value());
      }
      p.trace.latency_s += dur;
      continue;
    }
    if (!active[g]) continue;
    Message msg = edges_[g].feature_message();
    items_.assign(1, {&edge_cloud_links_[g], &msg, p.sidx,
                      static_cast<std::int32_t>(g), p.ctx});
    send_items(p, true, false, "send:edge_features", 0.0, stage);
    if (results_[0].delivered) branches[g] = std::move(msg);
  }
  p.trace.latency_s += stage;
  return branches;
}

std::optional<Message> HierarchyRuntime::edge_at_cloud(
    std::size_t g, const Messages& features) {
  const auto members = members_of(model_.config().edge_groups[g], features);
  if (!any_of(members)) return std::nullopt;
  edges_[g].process(members, 1);
  return edges_[g].feature_message();
}

Messages HierarchyRuntime::raw_at_cloud(const Messages& raws) {
  // Each raw view through its device section, then each group's edge
  // section: the cloud runs the whole network itself. Binary features
  // round-trip their messages exactly.
  const auto& cfg = model_.config();
  autograd::NoGradGuard no_grad;
  const Shape view{1, cfg.input_channels, cfg.input_size, cfg.input_size};
  Messages features(raws.size());
  for (std::size_t b = 0; b < raws.size(); ++b) {
    if (!raws[b].has_value()) continue;
    features[b] =
        cfg.device_conv_blocks == 0
            ? *raws[b]
            : encode_binary_feature_map(
                  model_
                      .device_section_features(
                          static_cast<int>(b),
                          core::Variable(decode_raw_image(*raws[b], view)))
                      .value());
  }
  if (!cfg.has_edge()) return features;
  Messages branches(cfg.edge_groups.size());
  for (std::size_t g = 0; g < branches.size(); ++g) {
    branches[g] = edge_at_cloud(g, features);
  }
  return branches;
}

TierDecision HierarchyRuntime::cloud(Pass& p, ClassifyMode mode,
                                     Messages& msgs) {
  if (remote_.cloud == nullptr) return run_cloud(p, mode, msgs);
  return ask(*remote_.cloud, p, mode, msgs).value_or(TierDecision{});
}

TierDecision HierarchyRuntime::run_cloud(Pass& p, ClassifyMode mode,
                                         Messages& msgs) {
  const auto& cfg = model_.config();
  if (mode == ClassifyMode::kEdgeAtCloud) {
    const std::vector<bool> dark(cfg.edge_groups.size(), true);
    msgs = to_cloud(p, dark, dark, msgs);
  }
  if (!any_of(msgs)) return {};
  const bool raw = mode == ClassifyMode::kRawOffload;
  const double start = p.now();
  if (raw) msgs = raw_at_cloud(msgs);
  autograd::NoGradGuard no_grad;
  const auto in = decode_inputs(msgs, cfg.has_edge()
                                          ? edge_feature_shape(cfg)
                                          : device_feature_shape(cfg));
  const ExitDecision d =
      decide_exit(model_.cloud_section(in.values, in.active).value());
  const double dur = p.charge(start, kCloudComputeS);
  if (tracer_) {
    span(p, "cloud_classify", "compute", cloud_track(),
         p.base + p.trace.latency_s, dur)
        .with("raw_offload", raw)
        .with("entropy", d.entropy);
  }
  p.trace.latency_s += dur;
  return TierDecision{cfg.num_exits() - 1, d.prediction, d.entropy};
}

TierDecision HierarchyRuntime::raw_offload(Pass& p) {
  // Last resort: no feature reached the cloud, so alive devices retransmit
  // their quantized raw views and the cloud runs the whole network itself
  // (the paper's traditional-offloading path).
  const bool has_edge = model_.config().has_edge();
  p.trace.degraded = true;
  auto raws = from_devices(
      p, [](DeviceNode& d) { return d.raw_image_message(); },
      [&](std::size_t b) -> Link& {
        return has_edge ? dev_cloud_links_[b] : dev_uplink_links_[b];
      },
      false, "send:raw_image");
  return cloud(p, ClassifyMode::kRawOffload, raws);
}

std::optional<TierDecision> HierarchyRuntime::ask(RemoteTier& tier, Pass& p,
                                                  ClassifyMode mode,
                                                  const Messages& msgs) {
  const double start = p.now();
  std::optional<TierDecision> d = tier.classify(p.sidx, mode, msgs, p.ctx);
  p.trace.latency_s += p.charge(start, 0.0);
  if (d) {
    p.trace.bytes_sent += d->bytes;
    p.trace.degraded = p.trace.degraded || d->degraded;
  }
  return d;
}

InferenceTrace HierarchyRuntime::classify(const data::MvmcSample& sample) {
  const auto& cfg = model_.config();
  const std::int64_t sidx = sample_index_++;
  const std::uint64_t trace_id = trace_id_of(sidx, run_nonce_);
  // Remote tiers stamp their spans with the sample's trace context.
  TraceContext ctx;
  if (remote_.edge != nullptr || remote_.cloud != nullptr) {
    ctx = {trace_id, (static_cast<std::uint64_t>(sidx) << 8) | 1ull};
  }
  Pass p = begin(sidx, ctx);
  p.trace.trace_id = trace_id;

  // Every device down: nothing sensed, nothing to classify — a dead trace.
  if (!sense(p, sample)) return commit(p, sample.label, {});
  if (cfg.has_local_exit) {
    if (const auto d = gateway_exit(p)) return commit(p, sample.label, *d);
  }

  // Escalate. An edge group is dark for this sample inside an injected
  // outage window, or once its remote edge has stopped answering; its
  // devices then send straight to the cloud, which runs the group's edge
  // section itself.
  const FaultInjector* inj = fault_injector();
  std::vector<bool> dark(cfg.edge_groups.size());
  for (std::size_t g = 0; g < dark.size(); ++g) {
    dark[g] = remote_.edge != nullptr
                  ? !remote_.edge->up()
                  : inj && inj->edge_down(static_cast<int>(g), sidx);
  }
  auto features = send_features(p, dark);
  TierDecision d;
  if (!cfg.has_edge()) {
    d = cloud(p, ClassifyMode::kNormal, features);
  } else if (remote_.edge == nullptr) {
    d = run_edge(p, features, dark);
  } else {
    std::optional<TierDecision> answer;
    if (!dark.front()) {
      answer = ask(*remote_.edge, p, ClassifyMode::kNormal, features);
    }
    if (answer) {
      d = *answer;
    } else {
      // The edge has stopped answering: this sample, and every later one,
      // takes the outage route.
      if (!dark.front()) {
        dark.assign(dark.size(), true);
        features = send_features(p, dark);
      }
      d = cloud(p, ClassifyMode::kEdgeAtCloud, features);
    }
  }
  if (d.exit_taken < 0) d = raw_offload(p);
  return commit(p, sample.label, d);
}

TierDecision HierarchyRuntime::edge_step(std::int64_t sample,
                                         const Messages& features,
                                         const TraceContext& ctx) {
  Pass p = begin(sample, ctx);
  const std::vector<bool> dark(model_.config().edge_groups.size(), false);
  TierDecision d = run_edge(p, features, dark);
  d.bytes = p.trace.bytes_sent;
  d.degraded = p.trace.degraded;
  return d;
}

TierDecision HierarchyRuntime::cloud_step(
    std::int64_t sample, ClassifyMode mode, Messages msgs,
    const TraceContext& ctx) {
  Pass p = begin(sample, ctx);
  TierDecision d = run_cloud(p, mode, msgs);
  d.bytes = p.trace.bytes_sent;
  d.degraded = mode != ClassifyMode::kNormal;
  return d;
}

RuntimeMetrics HierarchyRuntime::run(
    const std::vector<data::MvmcSample>& samples) {
  for (const auto& s : samples) classify(s);
  return book_.metrics();
}

}  // namespace ddnn::dist
