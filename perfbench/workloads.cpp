#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "autograd/ops.hpp"
#include "core/comm_cost.hpp"
#include "core/entropy.hpp"
#include "core/inference.hpp"
#include "core/trainer.hpp"
#include "data/loader.hpp"
#include "dist/fault.hpp"
#include "dist/serve.hpp"
#include "nn/serialize.hpp"
#include "obs/slo.hpp"
#include "opt/optimizer.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ddnn;

ddnn::core::DdnnConfig bench_config(std::uint64_t seed) {
  auto cfg = core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud,
                                      6, 4);
  cfg.init_seed = seed;
  return cfg;
}

std::vector<int> device_map() { return {0, 1, 2, 3, 4, 5}; }

std::unique_ptr<data::MvmcDataset> make_dataset(std::uint64_t seed) {
  data::MvmcConfig cfg;
  cfg.seed = seed;
  return std::make_unique<data::MvmcDataset>(data::MvmcDataset::generate(cfg));
}

std::vector<double> all_cloud_thresholds() { return {-1.0, -1.0}; }

double Workload::peak_rss_mb() const { return perfbench::peak_rss_mb(0); }

namespace {

constexpr int kCloudExit = 2;  // local, edge, cloud

/// Exit, prediction, entropy (bitwise), bytes and flags: the fields the
/// decisions CSV pins between the simulator and `ddnn serve`.
bool same_decision(const dist::InferenceTrace& a,
                   const dist::InferenceTrace& b) {
  return a.exit_taken == b.exit_taken && a.prediction == b.prediction &&
         std::bit_cast<std::uint64_t>(a.entropy) ==
             std::bit_cast<std::uint64_t>(b.entropy) &&
         a.bytes_sent == b.bytes_sent && a.degraded == b.degraded &&
         a.dead == b.dead;
}

bool failed_sample(const dist::InferenceTrace& t) {
  return t.dead || t.degraded || t.retries > 0;
}

}  // namespace

// ------------------------------------------------------------ in-process

void InprocClassify::setup() {
  runtime_.reset();
  series_.reset();
  registry_.reset();
  model_.reset();
  data_ = make_dataset(options_.seed);
  model_ = std::make_unique<core::DdnnModel>(bench_config(options_.seed));
  model_->set_training(false);
  registry_ = std::make_unique<obs::MetricsRegistry>();
  series_ = std::make_unique<obs::WindowedSeries>(0.5, "t");
  runtime_ = std::make_unique<dist::HierarchyRuntime>(
      *model_, all_cloud_thresholds(), device_map());
  runtime_->bind_metrics(registry_.get());
  runtime_->bind_series(series_.get());
  // Warm-up pass: fills the plan-engine caches and yields the decision
  // every later pass over the same sample must repeat, the previous
  // set-up's included.
  std::vector<dist::InferenceTrace> warm;
  for (const auto& sample : data_->test()) {
    warm.push_back(runtime_->classify(sample));
  }
  for (std::size_t k = 0; k < reference_.size(); ++k) {
    if (!same_decision(warm[k], reference_[k])) ++setup_disagreements_;
  }
  reference_ = std::move(warm);
  disagreements_ = 0;
}

Loop InprocClassify::run(double seconds, ddnn::obs::SpanTracer* spans) {
  const auto& test = data_->test();
  if (spans != nullptr) runtime_->set_tracer(&tracer_);
  Loop loop;
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  const double deadline = start + seconds;
  for (std::size_t i = 0;; ++i) {
    const std::size_t k = i % test.size();
    const Scope span(spans, "classify");
    const double t0 = now_s();
    const dist::InferenceTrace trace = runtime_->classify(test[k]);
    const double t1 = now_s();
    loop.op_s.push_back(t1 - t0);
    if (failed_sample(trace)) ++loop.failed;
    if (!same_decision(trace, reference_[k])) ++disagreements_;
    // Traced runs pay for recording spans, not for keeping them.
    if (k + 1 == test.size()) tracer_.clear();
    if (t1 >= deadline) break;
  }
  loop.wall_s = now_s() - start;
  loop.cpu_s = process_cpu_s() - cpu0;
  loop.units = static_cast<std::int64_t>(loop.op_s.size());
  runtime_->set_tracer(nullptr);
  tracer_.clear();
  return loop;
}

void InprocClassify::check(Result& result) {
  const auto& cfg = model_->config();
  const core::ExitEval eval =
      core::evaluate_exits(*model_, data_->test(), device_map());
  const auto cloud_pred = ops::argmax_rows(eval.exit_probs.back());
  std::int64_t wrong_exit = 0;
  std::int64_t wrong_pred = 0;
  for (std::size_t k = 0; k < reference_.size(); ++k) {
    if (reference_[k].exit_taken != kCloudExit) ++wrong_exit;
    if (reference_[k].prediction != cloud_pred[k]) ++wrong_pred;
  }
  if (wrong_exit != 0) {
    result.fail(std::to_string(wrong_exit) + " samples left before the cloud");
  }
  if (wrong_pred != 0) {
    result.fail(std::to_string(wrong_pred) +
                " predictions differ from evaluate_exits' cloud argmax");
  }
  if (disagreements_ != 0) {
    result.fail(std::to_string(disagreements_) +
                " timed decisions differ from the warm-up pass");
  }
  if (setup_disagreements_ != 0) {
    result.fail(std::to_string(setup_disagreements_) +
                " warm-up decisions differ from a previous set-up's");
  }
  const double eq1 = core::ddnn_comm_bytes(0.0, cfg.comm_params());
  for (int d = 0; d < cfg.num_devices; ++d) {
    const double measured = runtime_->metrics().device_bytes_per_sample(d);
    if (measured != eq1) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "device %d sent %.17g B/sample, Eq. 1 gives %.17g", d,
                    measured, eq1);
      result.fail(buf);
    }
  }
}

std::string InprocClassify::output_digest() const {
  std::string all;
  char buf[96];
  for (const auto& t : reference_) {
    std::snprintf(buf, sizeof buf, "%d,%lld,%a,%lld;", t.exit_taken,
                  static_cast<long long>(t.prediction), t.entropy,
                  static_cast<long long>(t.bytes_sent));
    all += buf;
  }
  return fnv1a_hex(all);
}

// ---------------------------------------------------------------- served

void ServedClassify::setup() {
  deployment_.reset();
  model_.reset();
  data_ = make_dataset(options_.seed);
  model_ = std::make_unique<core::DdnnModel>(bench_config(options_.seed));
  model_->set_training(false);
  const std::string model_path = options_.workdir + "/model.ddnn";
  nn::save_state(*model_, model_path);
  deployment_ = std::make_unique<Deployment>(options_, model_path);
  served_.clear();
  reliability_ = {};
  // Warm-up session over the test set: warms the driver and both roles.
  const Loop warm = run(0.0, nullptr);
  if (warm.op_s.size() != data_->test().size()) {
    throw std::runtime_error("served warm-up classified " +
                             std::to_string(warm.op_s.size()) + " of " +
                             std::to_string(data_->test().size()) +
                             " samples");
  }
}

Loop ServedClassify::run(double seconds, ddnn::obs::SpanTracer* spans) {
  dist::ServeOptions opts;
  opts.edge_addr = deployment_->edge_addr();
  opts.cloud_addr = deployment_->cloud_addr();
  opts.thresholds = all_cloud_thresholds();
  opts.tracer = spans != nullptr ? &tracer_ : nullptr;
  const pid_t edge = deployment_->edge_pid();
  const pid_t cloud = deployment_->cloud_pid();

  Loop loop;
  const double edge_cpu0 = child_cpu_s(edge);
  const double cloud_cpu0 = child_cpu_s(cloud);
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  const double deadline = start + seconds;
  // One driver session per pass over the test set; the edge keepalive
  // keeps the roles up between sessions.
  do {
    const Scope span(spans, "drive_hierarchy");
    const dist::DriveResult res =
        dist::drive_hierarchy(*model_, data_->test(), device_map(), opts);
    std::int64_t flagged = 0;
    for (const auto& trace : res.traces) {
      loop.op_s.push_back(trace.latency_s);
      if (failed_sample(trace)) ++flagged;
      served_.push_back(trace);
    }
    // A timeout that no trace flags still cost some sample its answer.
    loop.failed += std::max(flagged, res.metrics.reliability.timeouts);
    reliability_ += res.metrics.reliability;
    tracer_.clear();  // recorded, then dropped: only the cost is measured
  } while (now_s() < deadline);
  loop.wall_s = now_s() - start;
  sides_.edge_cpu_s = child_cpu_s(edge) - edge_cpu0;
  sides_.cloud_cpu_s = child_cpu_s(cloud) - cloud_cpu0;
  loop.cpu_s = process_cpu_s() - cpu0 + sides_.edge_cpu_s + sides_.cloud_cpu_s;
  loop.units = static_cast<std::int64_t>(loop.op_s.size());
  sides_.edge_peak_rss_mb = perfbench::peak_rss_mb(edge);
  sides_.cloud_peak_rss_mb = perfbench::peak_rss_mb(cloud);
  peak_rss_mb_ = perfbench::peak_rss_mb(0) + sides_.edge_peak_rss_mb +
                 sides_.cloud_peak_rss_mb;
  return loop;
}

void ServedClassify::check(Result& result) {
  // The oracle: classify_inproc's runtime on the same model and samples.
  dist::HierarchyRuntime runtime(*model_, all_cloud_thresholds(), device_map());
  std::vector<dist::InferenceTrace> inproc;
  for (const auto& sample : data_->test()) {
    inproc.push_back(runtime.classify(sample));
  }
  std::int64_t differ = 0;
  for (std::size_t i = 0; i < served_.size(); ++i) {
    if (!same_decision(served_[i], inproc[i % inproc.size()])) ++differ;
  }
  if (differ != 0) {
    result.fail(std::to_string(differ) + " of " +
                std::to_string(served_.size()) +
                " served decisions differ from the in-process runtime");
  }
}

// ----------------------------------------------------------------- fleet

namespace {

/// The entropy threshold whose exit share over `entropies` comes closest to
/// `share`. An untrained exit often saturates, so many entropies tie (at 0)
/// and a plain quantile could send far more than `share` through.
double threshold_for_share(std::vector<double> entropies, double share) {
  std::sort(entropies.begin(), entropies.end());
  const double want = share * static_cast<double>(entropies.size());
  double best = -1.0;  // no sample exits
  double best_err = want;
  for (std::size_t i = 0; i < entropies.size(); ++i) {
    // At threshold entropies[i], the first i + 1 samples exit.
    if (i + 1 < entropies.size() && entropies[i + 1] == entropies[i]) continue;
    const double err = std::abs(static_cast<double>(i + 1) - want);
    if (err < best_err) {
      best_err = err;
      best = entropies[i];
    }
  }
  return best;
}

/// The fleet's trace pool, built as examples/fleet_sim builds its own: the
/// seeded test set classified by HierarchyRuntime under a fault plan, so
/// every latency is the runtime's link model and every byte count Eq. 1's.
/// The untrained model's entropies say nothing about the data, so its two
/// thresholds are set on its own exit entropies (from evaluate_exits) so
/// that, fault-free, about 40% of samples would exit local and 25% at the
/// edge. On top, every link drops 10% of attempts (retries), the edge
/// is dark for samples [80%, 95%) of the set (escalations take the degraded
/// edge-at-cloud route) and every device is down from 95% on (dead).
std::vector<dist::InferenceTrace> make_trace_pool(std::uint64_t seed) {
  const auto data = make_dataset(seed);
  core::DdnnModel model(bench_config(seed));
  model.set_training(false);
  const auto& test = data->test();
  const core::ExitEval eval = core::evaluate_exits(model, test, device_map());
  const auto n = static_cast<std::int64_t>(test.size());
  std::vector<double> local, edge;
  for (std::int64_t k = 0; k < n; ++k) {
    local.push_back(core::normalized_entropy_row(eval.exit_probs[0], k));
  }
  const double t_local = threshold_for_share(local, 0.40);
  for (std::int64_t k = 0; k < n; ++k) {
    if (local[static_cast<std::size_t>(k)] > t_local) {
      edge.push_back(core::normalized_entropy_row(eval.exit_probs[1], k));
    }
  }
  const double t_edge = threshold_for_share(edge, 0.25 / 0.60);

  dist::HierarchyRuntime runtime(model, {t_local, t_edge}, device_map());
  dist::FaultPlan plan;
  plan.seed = seed;
  plan.link_drop_prob = 0.1;
  plan.edge_outages.push_back({.group = -1,
                               .start_sample = n * 80 / 100,
                               .end_sample = n * 95 / 100});
  for (std::size_t d = 0; d < device_map().size(); ++d) {
    plan.devices.push_back({.permanent_fail_at = n * 95 / 100});
  }
  runtime.set_fault_plan(plan);
  std::vector<dist::InferenceTrace> pool;
  for (const auto& sample : test) pool.push_back(runtime.classify(sample));
  return pool;
}

/// Every FleetStats field, doubles in hex: equal digests mean identical
/// stats.
std::string digest(const dist::FleetStats& s) {
  std::string out;
  char buf[64];
  const auto i64 = [&](std::int64_t v) {
    std::snprintf(buf, sizeof buf, "%lld,", static_cast<long long>(v));
    out += buf;
  };
  const auto f64 = [&](double v) {
    std::snprintf(buf, sizeof buf, "%a,", v);
    out += buf;
  };
  const auto station = [&](const dist::StationStats& st) {
    i64(st.served);
    i64(st.batches);
    i64(st.shed);
    i64(st.peak_queue);
    f64(st.busy_s);
    f64(st.utilization);
  };
  for (const auto v : {s.arrivals, s.completed, s.local, s.escalated, s.dead,
                       s.shed}) {
    i64(v);
  }
  for (const double v : {s.horizon_s, s.throughput_hz, s.mean_latency_s,
                         s.p50_latency_s, s.p95_latency_s, s.max_latency_s,
                         s.p99_latency_s, s.p999_latency_s}) {
    f64(v);
  }
  for (const auto* ex : {&s.p99_exemplar, &s.p999_exemplar, &s.max_exemplar}) {
    i64(ex->sample);
    i64(static_cast<std::int64_t>(ex->trace_id));
  }
  for (const auto& e : s.edges) station(e);
  station(s.cloud);
  return out;
}

}  // namespace

void FleetSim::setup() {
  pool_ = make_trace_pool(options_.seed);
  // The examples/fleet_sim topology: 120 devices over 4 edge pools, a
  // 10-server cloud pool, 2000 Hz Poisson arrivals.
  config_ = {};
  config_.num_devices = 120;
  config_.num_edges = 4;
  config_.edge_servers = 1;
  config_.cloud_servers = 10;
  config_.arrival_rate_hz = 2000.0;
  config_.first_cloud_exit = kCloudExit;
  // Warm-up: one call per seed, which also records the reference stats.
  // A later set-up must reproduce the first one's, pool included.
  for (int s = 0; s < kSeeds; ++s) {
    std::string& ref = reference_[static_cast<std::size_t>(s)];
    const std::string d = digest(call(s, true));
    if (!ref.empty() && d != ref) ++setup_disagreements_;
    ref = d;
  }
  disagreements_ = 0;
  unbalanced_ = 0;
}

dist::FleetStats FleetSim::call(int s, bool observed) const {
  dist::FleetConfig cfg = config_;
  cfg.seed = options_.seed * 1000 + static_cast<std::uint64_t>(s);
  if (!observed) return dist::simulate_fleet(pool_, cfg, kArrivals);
  obs::WindowedSeries series(5.0, "t");
  obs::MetricsRegistry registry;
  obs::SloEngine slo;
  return dist::simulate_fleet(pool_, cfg, kArrivals, &series, &registry, &slo);
}

Loop FleetSim::run(double seconds, ddnn::obs::SpanTracer* spans) {
  Loop loop;
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  const double deadline = start + seconds;
  for (int i = 0;; ++i) {
    const int s = i % kSeeds;
    const Scope span(spans, "simulate_fleet");
    const double t0 = now_s();
    const dist::FleetStats stats = call(s, true);
    const double t1 = now_s();
    loop.op_s.push_back(t1 - t0);
    loop.units += stats.arrivals;
    const bool balanced =
        stats.arrivals == kArrivals &&
        stats.arrivals == stats.completed + stats.shed + stats.dead;
    const bool same = digest(stats) == reference_[static_cast<std::size_t>(s)];
    if (!balanced) ++unbalanced_;
    if (!same) ++disagreements_;
    if (!balanced || !same) ++loop.failed;
    if (t1 >= deadline) break;
  }
  loop.wall_s = now_s() - start;
  loop.cpu_s = process_cpu_s() - cpu0;
  return loop;
}

void FleetSim::check(Result& result) {
  if (unbalanced_ != 0) {
    result.fail(std::to_string(unbalanced_) +
                " fleet calls broke arrivals = completed + shed + dead");
  }
  if (disagreements_ != 0) {
    result.fail(std::to_string(disagreements_) +
                " fleet calls differ from an earlier call with the same seed");
  }
  if (setup_disagreements_ != 0) {
    result.fail(std::to_string(setup_disagreements_) +
                " per-seed fleet digests changed from one set-up to the next");
  }
}

std::string FleetSim::output_digest() const {
  std::string all;
  for (const auto& d : reference_) all += d;
  return fnv1a_hex(all);
}

// ----------------------------------------------------------------- train

struct Train::State {
  explicit State(std::uint64_t seed)
      : model(bench_config(seed)),
        optimizer(model.parameters(), core::TrainConfig{}.adam),
        shuffle(core::TrainConfig{}.shuffle_seed) {
    model.set_training(true);
    optimizer.set_gradient_clip(core::TrainConfig{}.grad_clip_norm);
  }
  core::DdnnModel model;
  opt::Adam optimizer;
  Rng shuffle;
  std::vector<std::vector<std::size_t>> schedule;  // this epoch's batches
  std::size_t next = 0;
  double epoch_loss = 0.0;
  std::int64_t seen = 0;
  std::vector<float> epoch_losses;  // completed epochs
  std::int64_t nonfinite = 0;
};

constexpr std::size_t kBatch = 32;

Train::Train(const Options& options) : options_(options) {}
Train::~Train() = default;

std::int64_t Train::step(State& s, ddnn::obs::SpanTracer* spans, double* loss_out) {
  const auto& train = data_->train();
  if (s.next == s.schedule.size()) {
    if (!s.schedule.empty()) {
      s.epoch_losses.push_back(static_cast<float>(
          s.epoch_loss / static_cast<double>(s.seen)));
    }
    s.schedule = data::epoch_batches(train.size(), kBatch, s.shuffle);
    s.next = 0;
    s.epoch_loss = 0.0;
    s.seen = 0;
  }
  const auto& idx = s.schedule[s.next++];
  // train_ddnn skips single-sample batches (batch norm needs two).
  if (idx.size() == 1) return 0;
  const Scope batch_span(spans, "train.batch");
  const data::Batch batch = data::make_batch(train, idx, device_map());
  std::vector<core::Variable> views;
  for (const auto& v : batch.views) views.emplace_back(v);
  core::Variable loss;
  {
    const Scope span(spans, "train.forward");
    const core::DdnnOutputs out = s.model.forward(views);
    for (const auto& logits : out.exit_logits) {
      core::Variable term = autograd::mul_scalar(
          autograd::softmax_cross_entropy(logits, batch.labels), 1.0f);
      loss = loss.defined() ? autograd::add(loss, term) : term;
    }
  }
  s.optimizer.zero_grad();
  {
    const Scope span(spans, "train.backward");
    loss.backward();
  }
  {
    const Scope span(spans, "train.step");
    s.optimizer.step();
  }
  *loss_out = static_cast<double>(loss.value()[0]);
  s.epoch_loss += *loss_out * static_cast<double>(batch.size());
  s.seen += batch.size();
  return batch.size();
}

void Train::setup() {
  state_.reset();
  data_ = make_dataset(options_.seed);
  {
    // Warm-up on a throwaway model, so the timed model starts from its
    // seeded initial weights exactly as train_ddnn's would.
    State warm(options_.seed);
    double loss = 0.0;
    for (int b = 0; b < 2; ++b) step(warm, nullptr, &loss);
  }
  state_ = std::make_unique<State>(options_.seed);
}

Loop Train::run(double seconds, ddnn::obs::SpanTracer* spans) {
  Loop loop;
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  const double deadline = start + seconds;
  for (;;) {
    const double t0 = now_s();
    double loss = 0.0;
    const std::int64_t n = step(*state_, spans, &loss);
    const double t1 = now_s();
    if (n > 0) {
      loop.op_s.push_back(t1 - t0);
      loop.units += n;
      if (!std::isfinite(loss)) {
        ++loop.failed;
        ++state_->nonfinite;
      }
    }
    if (t1 >= deadline) break;
  }
  loop.wall_s = now_s() - start;
  loop.cpu_s = process_cpu_s() - cpu0;
  return loop;
}

void Train::check(Result& result) {
  const auto& losses = state_->epoch_losses;
  if (state_->nonfinite != 0) {
    result.fail(std::to_string(state_->nonfinite) + " batches had a non-finite loss");
  }
  if (losses.empty()) {
    result.fail("no training epoch completed in the timed window");
    return;
  }
  // The same seed through train_ddnn itself must give a bit-identical
  // first-epoch loss.
  core::DdnnModel model(bench_config(options_.seed));
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = kBatch;
  std::vector<float> replay;
  cfg.epoch_callback = [&](int, float loss) { replay.push_back(loss); };
  core::train_ddnn(model, data_->train(), device_map(), cfg);
  for (std::size_t e = 0; e < replay.size(); ++e) {
    if (!std::isfinite(losses[e]) ||
        std::bit_cast<std::uint32_t>(losses[e]) !=
            std::bit_cast<std::uint32_t>(replay[e])) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "epoch %zu loss %.9g differs from train_ddnn's %.9g", e,
                    static_cast<double>(losses[e]),
                    static_cast<double>(replay[e]));
      result.fail(buf);
    }
  }
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options) {
  if (name == "classify_inproc") return std::make_unique<InprocClassify>(options);
  if (name == "classify_served") return std::make_unique<ServedClassify>(options);
  if (name == "fleet_sim") return std::make_unique<FleetSim>(options);
  if (name == "train") return std::make_unique<Train>(options);
  throw std::runtime_error("unknown workload '" + name + "'");
}

}  // namespace perfbench
