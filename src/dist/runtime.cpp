#include "dist/runtime.hpp"

#include <algorithm>
#include <iterator>

#include "autograd/grad_mode.hpp"
#include "core/entropy.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"

namespace ddnn::dist {

ExitDecision decide_exit(const Tensor& logits) {
  const Tensor probs = ops::softmax_rows(logits);
  return {ops::argmax_rows(probs)[0], core::normalized_entropy_row(probs, 0)};
}

HierarchyRuntime::HierarchyRuntime(core::DdnnModel& model,
                                   std::vector<double> thresholds,
                                   std::vector<int> device_map,
                                   RuntimeConfig config)
    : model_(model),
      thresholds_(std::move(thresholds)),
      device_map_(std::move(device_map)),
      config_(config),
      cloud_(model),
      sim_transport_(config.reliability) {
  const auto& cfg = model_.config();
  DDNN_CHECK(!cfg.float_devices,
             "float-device models have no 1-bit wire format; the distributed "
             "runtime requires binarized device sections");
  DDNN_CHECK(static_cast<int>(thresholds_.size()) + 1 == cfg.num_exits(),
             "need one threshold per non-final exit");
  DDNN_CHECK(static_cast<int>(device_map_.size()) == cfg.num_devices,
             "device map size mismatch");
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
  if (cfg.has_local_exit) gateway_.emplace(model_);
  if (cfg.has_edge()) {
    for (std::size_t g = 0; g < cfg.edge_groups.size(); ++g) {
      edges_.emplace_back(g, model_);
      edge_coord_links_.emplace_back("edge" + std::to_string(g) + "->coord",
                                     config_.edge_link);
      edge_cloud_links_.emplace_back("edge" + std::to_string(g) + "->cloud",
                                     config_.edge_link);
    }
  }
  std::vector<const Link*> links;
  for (const auto* group : {&dev_gateway_links_, &dev_uplink_links_,
                            &edge_coord_links_, &edge_cloud_links_,
                            &dev_cloud_links_}) {
    for (const Link& link : *group) links.push_back(&link);
  }
  book_ = RunBook(model_.exit_names(), devices_.size(), std::move(links));
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
  tracer_->set_track_name(0, "samples");
  for (std::size_t b = 0; b < devices_.size(); ++b) {
    tracer_->set_track_name(device_track(static_cast<int>(b)),
                            "device" + std::to_string(b));
  }
  if (gateway_) tracer_->set_track_name(gateway_track(), "gateway");
  for (std::size_t g = 0; g < edges_.size(); ++g) {
    tracer_->set_track_name(edge_track(static_cast<int>(g)),
                            "edge" + std::to_string(g));
  }
  if (!edges_.empty()) tracer_->set_track_name(coord_track(), "edge-coord");
  tracer_->set_track_name(cloud_track(), "cloud");
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

}  // namespace

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
  latency_ms_ =
      &registry->histogram("runtime.sample_latency_ms", 0.0, 1000.0, 100);
  // Tail companion to the fixed-bin histogram, with per-bucket exemplars.
  hdr_latency_ms_ =
      &registry->hdr_histogram(kHdrLatencyName, kHdrUnitMs, kHdrMaxMs);
  sample_bytes_ =
      &registry->histogram("runtime.sample_bytes", 0.0, 1048576.0, 64);
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
  latency_col_ = series->add_histogram("runtime.latency_ms");
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
    latency_ms_->record(latency_ms);
    hdr_latency_ms_->record(latency_ms, trace.trace_id, sample_index);
    sample_bytes_->record(static_cast<double>(trace.bytes_sent));
  }
  if (series_ != nullptr) {
    series_->record(latency_col_, t, latency_ms);
    series_->record(hdr_latency_col_, t, latency_ms, trace.trace_id,
                    sample_index);
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

std::optional<Message> edge_section_at_cloud(
    core::DdnnModel& model, std::size_t g,
    const std::vector<std::optional<Message>>& features) {
  const auto& cfg = model.config();
  autograd::NoGradGuard no_grad;
  const Shape shape = device_feature_shape(cfg);
  std::vector<core::Variable> members;
  std::vector<bool> active;
  bool any = false;
  for (int d : cfg.edge_groups[g]) {
    const auto& msg = features[static_cast<std::size_t>(d)];
    if (msg.has_value()) {
      members.emplace_back(decode_features(*msg, shape));
      active.push_back(true);
      any = true;
    } else {
      members.emplace_back(Tensor::zeros(shape));
      active.push_back(false);
    }
  }
  if (!any) return std::nullopt;
  const auto result = model.edge_section(g, members, active);
  return encode_binary_feature_map(result.features.value());
}

Tensor cloud_forward_from_raw_views(
    core::DdnnModel& model, const std::vector<std::optional<Message>>& raws) {
  const auto& cfg = model.config();
  autograd::NoGradGuard no_grad;
  const Shape view_shape{1, cfg.input_channels, cfg.input_size,
                         cfg.input_size};
  const Shape feature_shape = device_feature_shape(cfg);
  std::vector<core::Variable> feats;
  std::vector<bool> active;
  for (std::size_t b = 0; b < raws.size(); ++b) {
    if (raws[b].has_value()) {
      const core::Variable input(decode_raw_image(*raws[b], view_shape));
      feats.emplace_back(cfg.device_conv_blocks == 0
                             ? input
                             : model.device_section_features(
                                   static_cast<int>(b), input));
      active.push_back(true);
    } else {
      feats.emplace_back(Tensor::zeros(feature_shape));
      active.push_back(false);
    }
  }
  if (!cfg.has_edge()) return model.cloud_section(feats, active).value();

  const Shape edge_shape = edge_feature_shape(cfg);
  std::vector<core::Variable> branches;
  std::vector<bool> branch_active;
  for (std::size_t g = 0; g < cfg.edge_groups.size(); ++g) {
    std::vector<core::Variable> members;
    std::vector<bool> member_active;
    bool any = false;
    for (int d : cfg.edge_groups[g]) {
      members.push_back(feats[static_cast<std::size_t>(d)]);
      member_active.push_back(active[static_cast<std::size_t>(d)]);
      any = any || active[static_cast<std::size_t>(d)];
    }
    if (any) {
      branches.push_back(model.edge_section(g, members, member_active)
                             .features);
      branch_active.push_back(true);
    } else {
      branches.emplace_back(Tensor::zeros(edge_shape));
      branch_active.push_back(false);
    }
  }
  return model.cloud_section(branches, branch_active).value();
}

InferenceTrace HierarchyRuntime::classify(const data::MvmcSample& sample) {
  const auto& cfg = model_.config();
  const auto n_dev = devices_.size();
  const std::int64_t sidx = sample_index_++;
  const FaultInjector* inj = fault_injector();
  InferenceTrace trace;
  // 48-bit trace id minted from the sample index alone (splitmix-style
  // multiply) — never the wall clock, so any export carrying it stays
  // byte-identical across reruns.
  trace.trace_id =
      (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(sidx + 1)) &
      ((1ull << 48) - 1);
  int exit_index = 0;
  const int cloud_exit = cfg.num_exits() - 1;

  // Simulated-clock origin of this sample on the run timeline: samples lay
  // out sequentially, each starting where the previous one's latency ended.
  obs::SpanTracer* tr = tracer_;
  const double base = book_.metrics().total_latency_s;

  // Book a finished trace into the run accounting; every return goes
  // through here exactly once.
  auto commit = [&](int exit_taken, std::int64_t prediction,
                    double entropy) -> InferenceTrace& {
    trace.exit_taken = exit_taken;
    trace.prediction = prediction;
    trace.entropy = entropy;
    book_.sample(trace, sample.label, sidx, base);
    if (tr) {
      // Root span: dur_s and the latency_s/bytes args are the *exact*
      // doubles/integers booked into RuntimeMetrics, so trace consumers can
      // cross-check the two exports bit-for-bit (scripts/check_trace.py).
      tr->add("sample", "sample", 0, base, trace.latency_s)
          .with("sample_index", sidx)
          .with("exit", exit_taken)
          .with("prediction", prediction)
          .with("label", sample.label)
          .with("entropy", entropy)
          .with("latency_s", trace.latency_s)
          .with("bytes", trace.bytes_sent)
          .with("retries", trace.retries)
          .with("degraded", trace.degraded)
          .with("dead", trace.dead);
    }
    return trace;
  };

  // Reliable send, booked at the sample's start time. The elapsed time
  // joins the stage's parallel-sender critical path. The span starts at the
  // stage's start on the sender's track (`t_off` shifts it past compute
  // charged before the send, e.g. the edge trunk).
  auto send = [&](Link& link, const Message& msg, int branch,
                  double& stage_latency, int track, const char* span_name,
                  double t_off = 0.0) -> bool {
    const SendResult res = transport().send(link, msg, sidx);
    book_.send(link, res, msg.payload_bytes(), branch, base, trace);
    if (tr) {
      tr->add(span_name, "net", track, base + trace.latency_s + t_off,
              res.latency_s)
          .with("link", link.name())
          .with("bytes", res.delivered ? msg.payload_bytes()
                                       : std::int64_t{0})
          .with("attempts", res.attempts)
          .with("delivered", res.delivered);
    }
    stage_latency = std::max(stage_latency, res.latency_s);
    return res.delivered;
  };

  // --- Stage 0: every reachable device runs its NN section on its view.
  std::vector<bool> alive(n_dev, false);
  bool any_alive = false;
  for (std::size_t b = 0; b < n_dev; ++b) {
    if (devices_[b].failed()) continue;
    if (inj && inj->device_down(static_cast<int>(b), sidx)) continue;
    const auto dev_id = static_cast<std::size_t>(device_map_[b]);
    devices_[b].sense(sample.views.at(dev_id));
    alive[b] = true;
    any_alive = true;
  }
  if (!any_alive) {
    // Every device is down: nothing sensed, nothing to classify. Count the
    // sample as a flagged dead trace instead of aborting the run — accuracy
    // degrades, the system keeps serving.
    trace.degraded = trace.dead = true;
    return commit(-1, -1, 1.0);
  }
  if (tr) {
    for (std::size_t b = 0; b < n_dev; ++b) {
      if (!alive[b]) continue;
      tr->add("device_section", "compute", device_track(static_cast<int>(b)),
              base, config_.device_compute_s)
          .with("branch", static_cast<int>(b));
    }
  }
  trace.latency_s += config_.device_compute_s;

  // --- Stage 1: local exit.
  if (cfg.has_local_exit) {
    std::vector<std::optional<Message>> scores(n_dev);
    double stage_latency = 0.0;
    int delivered = 0;
    for (std::size_t b = 0; b < n_dev; ++b) {
      if (!alive[b]) continue;
      Message msg = devices_[b].scores_message();
      if (send(dev_gateway_links_[b], msg, static_cast<int>(b),
               stage_latency, device_track(static_cast<int>(b)),
               "send:scores")) {
        scores[b] = std::move(msg);
        ++delivered;
      }
    }
    trace.latency_s += stage_latency;
    if (delivered > 0) {
      const Tensor fused = gateway_->aggregate(scores);
      const ExitDecision d = decide_exit(fused);
      if (tr) {
        tr->add("gateway_fuse", "compute", gateway_track(),
                base + trace.latency_s, 0.0)
            .with("delivered", delivered)
            .with("entropy", d.entropy);
      }
      if (core::should_exit(d.entropy, thresholds_[0])) {
        return commit(0, d.prediction, d.entropy);
      }
    } else {
      // The gateway heard from zero devices: it cannot make a local
      // decision, so the sample escalates without one.
      trace.degraded = true;
    }
    exit_index = 1;
  }

  // --- Stage 2: devices escalate their features upward. A device whose
  // edge group is inside an outage window routes straight to the cloud.
  std::vector<std::optional<Message>> features(n_dev);
  {
    double stage_latency = 0.0;
    for (std::size_t b = 0; b < n_dev; ++b) {
      if (!alive[b]) continue;
      const int g = cfg.has_edge() ? group_of(static_cast<int>(b)) : -1;
      const bool edge_up = g < 0 || !(inj && inj->edge_down(g, sidx));
      if (!edge_up) trace.degraded = true;
      Link& uplink = edge_up ? dev_uplink_links_[b] : dev_cloud_links_[b];
      Message msg = devices_[b].feature_message();
      if (send(uplink, msg, static_cast<int>(b), stage_latency,
               device_track(static_cast<int>(b)), "send:features")) {
        features[b] = std::move(msg);
      }
    }
    trace.latency_s += stage_latency;
  }

  std::vector<std::optional<Message>> cloud_branches;
  if (cfg.has_edge()) {
    // --- Stage 3: reachable edges process their member devices.
    const auto n_groups = cfg.edge_groups.size();
    std::vector<std::optional<Message>> edge_scores(n_groups);
    std::vector<bool> group_active(n_groups, false);
    std::vector<bool> edge_up(n_groups, true);
    double stage_latency = 0.0;
    bool any_edge_ran = false;
    for (std::size_t g = 0; g < n_groups; ++g) {
      edge_up[g] = !(inj && inj->edge_down(static_cast<int>(g), sidx));
      if (!edge_up[g]) continue;
      std::vector<std::optional<Message>> members;
      bool any = false;
      for (int d : cfg.edge_groups[g]) {
        members.push_back(features[static_cast<std::size_t>(d)]);
        any = any || features[static_cast<std::size_t>(d)].has_value();
      }
      group_active[g] = any;
      if (!any) continue;
      Message msg = edges_[g].process(members, 1);
      any_edge_ran = true;
      if (tr) {
        tr->add("edge_trunk", "compute", edge_track(static_cast<int>(g)),
                base + trace.latency_s, config_.edge_compute_s)
            .with("group", static_cast<int>(g));
      }
      if (send(edge_coord_links_[g], msg, -1, stage_latency,
               edge_track(static_cast<int>(g)), "send:edge_scores",
               config_.edge_compute_s)) {
        edge_scores[g] = std::move(msg);
      }
    }
    if (any_edge_ran) trace.latency_s += config_.edge_compute_s;
    trace.latency_s += stage_latency;

    // --- Stage 4: fused edge exit decision (skipped when the coordinator
    // heard from zero edges — the sample escalates straight to the cloud).
    const bool any_score =
        std::any_of(edge_scores.begin(), edge_scores.end(),
                    [](const auto& s) { return s.has_value(); });
    if (any_score) {
      std::vector<core::Variable> edge_logits;
      std::vector<bool> active;
      for (std::size_t g = 0; g < n_groups; ++g) {
        if (edge_scores[g].has_value()) {
          edge_logits.emplace_back(
              decode_class_scores(*edge_scores[g], cfg.num_classes));
          active.push_back(true);
        } else {
          edge_logits.emplace_back(Tensor::zeros(Shape{1, cfg.num_classes}));
          active.push_back(false);
        }
      }
      const Tensor fused =
          model_.edge_exit_aggregate(edge_logits, active).value();
      const ExitDecision d = decide_exit(fused);
      if (tr) {
        tr->add("edge_exit_fuse", "compute", coord_track(),
                base + trace.latency_s, 0.0)
            .with("entropy", d.entropy);
      }
      if (core::should_exit(
              d.entropy, thresholds_[static_cast<std::size_t>(exit_index)])) {
        return commit(exit_index, d.prediction, d.entropy);
      }
    } else {
      trace.degraded = true;
    }
    ++exit_index;

    // --- Stage 5: edges forward their features to the cloud; groups whose
    // edge is dark have their edge section computed by the cloud itself on
    // the member features that arrived over the fallback links.
    double cloud_latency = 0.0;
    cloud_branches.resize(n_groups);
    for (std::size_t g = 0; g < n_groups; ++g) {
      if (!edge_up[g]) {
        cloud_branches[g] = edge_section_at_cloud(model_, g, features);
        if (tr) {
          tr->add("edge_section_at_cloud", "compute", cloud_track(),
                  base + trace.latency_s, 0.0)
              .with("group", static_cast<int>(g))
              .with("delivered", cloud_branches[g].has_value());
        }
        continue;
      }
      if (!group_active[g]) continue;
      Message msg = edges_[g].feature_message();
      if (send(edge_cloud_links_[g], msg, -1, cloud_latency,
               edge_track(static_cast<int>(g)), "send:edge_features")) {
        cloud_branches[g] = std::move(msg);
      }
    }
    trace.latency_s += cloud_latency;
  } else {
    cloud_branches = std::move(features);
  }

  // --- Stage 6: the cloud always classifies.
  const bool any_branch =
      std::any_of(cloud_branches.begin(), cloud_branches.end(),
                  [](const auto& b) { return b.has_value(); });
  if (!any_branch) {
    // Last-resort raw offload: no feature reached the cloud, so alive
    // devices retransmit their quantized raw views and the cloud runs the
    // whole network itself (the paper's traditional-offloading path).
    trace.degraded = true;
    std::vector<std::optional<Message>> raws(n_dev);
    double stage_latency = 0.0;
    int delivered = 0;
    for (std::size_t b = 0; b < n_dev; ++b) {
      if (!alive[b]) continue;
      Message msg = devices_[b].raw_image_message();
      Link& to_cloud =
          cfg.has_edge() ? dev_cloud_links_[b] : dev_uplink_links_[b];
      if (send(to_cloud, msg, static_cast<int>(b), stage_latency,
               device_track(static_cast<int>(b)), "send:raw_image")) {
        raws[b] = std::move(msg);
        ++delivered;
      }
    }
    trace.latency_s += stage_latency;
    if (delivered == 0) {
      trace.dead = true;
      return commit(-1, -1, 1.0);
    }
    const ExitDecision d = decide_exit(cloud_forward_from_raw_views(model_, raws));
    if (tr) {
      tr->add("cloud_classify", "compute", cloud_track(),
              base + trace.latency_s, config_.cloud_compute_s)
          .with("raw_offload", true)
          .with("entropy", d.entropy);
    }
    trace.latency_s += config_.cloud_compute_s;
    return commit(cloud_exit, d.prediction, d.entropy);
  }
  const Tensor logits = cloud_.process(cloud_branches, 1);
  const ExitDecision d = decide_exit(logits);
  if (tr) {
    tr->add("cloud_classify", "compute", cloud_track(),
            base + trace.latency_s, config_.cloud_compute_s)
        .with("raw_offload", false)
        .with("entropy", d.entropy);
  }
  trace.latency_s += config_.cloud_compute_s;
  return commit(cloud_exit, d.prediction, d.entropy);
}

RuntimeMetrics HierarchyRuntime::run(
    const std::vector<data::MvmcSample>& samples) {
  for (const auto& s : samples) classify(s);
  return book_.metrics();
}

}  // namespace ddnn::dist
