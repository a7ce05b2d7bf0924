// ddnn — command-line interface to the DDNN library.
//
//   ddnn train    --preset c --filters 4 --epochs 40 --out model.ddnn
//   ddnn eval     --model model.ddnn --preset c --filters 4 --threshold 0.8
//   ddnn simulate --model model.ddnn --preset c --filters 4 --threshold 0.8
//                 --fail 1,6
//   ddnn dataset  --out-dir views --samples 2
//   ddnn report   --out results/report.html
//
// Every train/eval/simulate run appends a record to the run ledger
// (<results>/ledger.jsonl, see obs/ledger.hpp); `ddnn report` renders the
// ledger plus any series/CSV artifacts into one self-contained HTML page.
//
// The architecture is reconstructed from the flags, so eval/simulate must be
// invoked with the same --preset/--filters/--devices/--agg used at training
// time (a mismatch fails loudly at weight-load time).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

#include "core/inference.hpp"
#include "core/metrics.hpp"
#include "core/trainer.hpp"
#include "data/ppm.hpp"
#include "dist/queueing.hpp"
#include "dist/runtime.hpp"
#include "dist/serve.hpp"
#include "infer/planner.hpp"
#include "nn/serialize.hpp"
#include "dist/transport.hpp"
#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/tracemerge.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/results.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace ddnn;

namespace {

core::HierarchyPreset parse_preset(const std::string& name) {
  if (name == "a") return core::HierarchyPreset::kCloudOnly;
  if (name == "b") return core::HierarchyPreset::kDeviceCloud;
  if (name == "c") return core::HierarchyPreset::kDevicesCloud;
  if (name == "d") return core::HierarchyPreset::kDeviceEdgeCloud;
  if (name == "e") return core::HierarchyPreset::kDevicesEdgeCloud;
  if (name == "f") return core::HierarchyPreset::kDevicesEdgesCloud;
  DDNN_CHECK(false, "unknown preset '" << name << "' (expected a..f)");
  return core::HierarchyPreset::kDevicesCloud;
}

/// Architecture/data flags shared by every subcommand.
void add_model_options(ArgParser& args) {
  args.add_option("preset", "hierarchy configuration a..f (paper Fig. 2)", "c")
      .add_option("devices", "number of end devices", "6")
      .add_option("filters", "device ConvP filters f", "4")
      .add_option("local-agg", "local aggregation scheme MP|AP|CC|GA", "MP")
      .add_option("cloud-agg", "cloud aggregation scheme MP|AP|CC|GA", "CC")
      .add_flag("float-cloud", "use float32 NN blocks in the cloud section")
      .add_option("seed", "dataset + init seed", "42");
}

core::DdnnConfig config_from(const ArgParser& args) {
  auto cfg = core::DdnnConfig::preset(
      parse_preset(args.get("preset")),
      static_cast<int>(args.get_int("devices")),
      static_cast<int>(args.get_int("filters")));
  cfg.local_agg = core::parse_agg_kind(args.get("local-agg"));
  cfg.cloud_agg = core::parse_agg_kind(args.get("cloud-agg"));
  cfg.float_cloud = args.has_flag("float-cloud");
  if (!cfg.has_local_exit) cfg.local_agg = core::AggKind::kMaxPool;
  cfg.validate();
  return cfg;
}

data::MvmcDataset dataset_from(const ArgParser& args) {
  data::MvmcConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const int devices = static_cast<int>(args.get_int("devices"));
  cfg.num_devices = std::max(devices, 6);  // profiles cycle beyond 6
  return data::MvmcDataset::generate(cfg);
}

std::vector<int> device_map_from(const core::DdnnConfig& cfg) {
  std::vector<int> devices;
  for (int d = 0; d < cfg.num_devices; ++d) devices.push_back(d);
  return devices;
}

/// Export the per-tier planned activation peaks of this run as metrics
/// gauges and ledger metrics (runtime.mem_peak.{device,edge,cloud}; 0 for
/// tiers the hierarchy does not run). Byte-identical across reruns and
/// thread counts: plans are deterministic and the stats are pure maxima.
void record_mem_peaks(obs::LedgerRecord& rec) {
  const auto stats = infer::plan_stats();
  for (const auto tier :
       {infer::SectionTier::kDevice, infer::SectionTier::kEdge,
        infer::SectionTier::kCloud}) {
    const std::string name = "runtime.mem_peak." + infer::to_string(tier);
    const double bytes = static_cast<double>(stats.peak(tier));
    obs::global_metrics().gauge(name).set(bytes);
    rec.add_metric(name, bytes);
  }
}

void add_profile_flag(ArgParser& args) {
  args.add_flag("profile",
                "collect wall-clock per-op timings (same as DDNN_PROFILE=1) "
                "into the metrics registry and print it on exit");
}

/// Arm profiling when --profile was given (DDNN_PROFILE=1 also arms it).
void apply_profile_flag(const ArgParser& args) {
  if (args.has_flag("profile")) obs::set_profiling_enabled(true);
}

/// Start a ledger record pre-filled with the identity flags every
/// subcommand shares (preset/devices/filters/seed) plus the thread count.
obs::LedgerRecord ledger_record(const std::string& command,
                                const ArgParser& args) {
  obs::LedgerRecord rec;
  rec.command = command;
  rec.add_info("preset", args.get("preset"));
  rec.add_info("devices", args.get("devices"));
  rec.add_info("filters", args.get("filters"));
  rec.add_info("seed", args.get("seed"));
  rec.add_info("threads", std::to_string(ThreadPool::instance().size()));
  return rec;
}

/// The options of every command that runs saved weights.
void add_model_run_options(ArgParser& args) {
  args.add_option("model", "weight file from `ddnn train`", "model.ddnn")
      .add_option("mem-budget",
                  "hard cap on any section's planned activation arena in "
                  "bytes (0 = unlimited); over-budget sections are "
                  "batch-sliced to fit",
                  "0");
  add_profile_flag(args);
}

/// The prologue of every command that runs saved weights, on a `model`
/// built from the same flags: arm --profile; apply --mem-budget and clear
/// the per-tier peak stats, so the run reports only its own planned peaks;
/// load --model in eval mode (batch-norm running statistics, and what the
/// plan engine runs on).
void load_model(const ArgParser& args, core::DdnnModel& model) {
  apply_profile_flag(args);
  infer::set_mem_budget(args.get_int_at_least("mem-budget", 0));
  infer::reset_plan_stats();
  nn::load_state(model, args.get("model"));
  model.set_training(false);
}

/// The summary `ddnn simulate` and the serve driver both print, so their
/// runs read alike: accuracy, exit counts, latency and bytes, and the
/// reliability table when anything went wrong. B/sample/device is the mean
/// over every device, failed ones included: Eq. 1 when all are healthy.
void print_run_summary(const dist::RuntimeMetrics& metrics) {
  std::printf("accuracy %.1f%% over %lld samples\n", 100.0 * metrics.accuracy(),
              static_cast<long long>(metrics.samples));
  std::printf("exit counts:");
  for (const auto c : metrics.exit_counts) {
    std::printf(" %lld", static_cast<long long>(c));
  }
  const std::int64_t device_bytes =
      std::accumulate(metrics.device_bytes.begin(), metrics.device_bytes.end(),
                      std::int64_t{0});
  const double device_samples =
      static_cast<double>(metrics.device_bytes.size()) *
      static_cast<double>(metrics.samples);
  std::printf("\nmean latency %.2f ms, %.1f B/sample/device, total %lld B\n",
              1e3 * metrics.mean_latency_s(),
              device_samples == 0.0
                  ? 0.0
                  : static_cast<double>(device_bytes) / device_samples,
              static_cast<long long>(metrics.total_bytes));
  if (metrics.reliability.any()) {
    std::printf("reliability:\n%s",
                metrics.reliability.to_table().to_string().c_str());
  }
}

/// Write the --trace-out, --metrics-out and --series-out artifacts whose
/// flags are set, and say where each went. A null sink marks an output the
/// command does not offer; every caller offers --metrics-out.
void write_artifacts(const ArgParser& args, const obs::SpanTracer* tracer,
                     const obs::WindowedSeries* series) {
  if (tracer != nullptr && !args.get("trace-out").empty()) {
    tracer->write_json(args.get("trace-out"));
    std::printf("wrote %zu spans to %s\n", tracer->spans().size(),
                args.get("trace-out").c_str());
  }
  if (!args.get("metrics-out").empty()) {
    obs::global_metrics().write_json(args.get("metrics-out"));
    std::printf("wrote metrics to %s\n", args.get("metrics-out").c_str());
  }
  if (series != nullptr && !args.get("series-out").empty()) {
    series->write(args.get("series-out"));
    std::printf("wrote %zu series windows to %s\n", series->window_count(),
                args.get("series-out").c_str());
  }
}

/// End a run: append its ledger record, when it has one, and say where it
/// went (silent when the results dir is disabled); then print the metrics
/// registry, whose prof.<op>.* entries hold the per-op wall-clock timings,
/// when profiling was armed.
void finish_run(const obs::LedgerRecord* rec) {
  if (rec != nullptr) {
    const std::string path = obs::append_record(*rec);
    if (!path.empty()) {
      std::printf("appended run record to %s\n", path.c_str());
    }
  }
  if (obs::profiling_enabled()) {
    std::printf("\nmetrics (prof.* = wall-clock profile):\n%s",
                obs::global_metrics().to_table().to_string().c_str());
  }
}

int cmd_train(int argc, const char* const* argv) {
  ArgParser args("ddnn train", "Jointly train a DDNN and save its weights.");
  add_model_options(args);
  args.add_option("epochs", "training epochs", "40")
      .add_option("batch", "mini-batch size", "32")
      .add_option("out", "output weight file", "model.ddnn")
      .add_option("metrics-out", "write the metrics registry as JSON", "")
      .add_option("series-out",
                  "write a per-epoch windowed series (loss, per-exit "
                  "accuracy, exit fractions) as CSV or .json",
                  "")
      .add_flag("verbose", "log per-epoch loss");
  add_profile_flag(args);
  if (!args.parse(argc, argv)) return 0;
  apply_profile_flag(args);

  const auto cfg = config_from(args);
  const auto dataset = dataset_from(args);
  core::DdnnModel model(cfg);

  core::TrainConfig train_cfg;
  train_cfg.epochs = static_cast<int>(args.get_int("epochs"));
  train_cfg.batch_size = static_cast<std::size_t>(args.get_int("batch"));
  train_cfg.verbose = args.has_flag("verbose");
  train_cfg.metrics = &obs::global_metrics();
  obs::WindowedSeries series(1.0, "epoch");
  if (!args.get("series-out").empty()) {
    train_cfg.series = &series;
    train_cfg.series_eval = &dataset.test();
  }
  std::printf("training %s for %d epochs...\n", cfg.cache_key().c_str(),
              train_cfg.epochs);
  const auto history = core::train_ddnn(model, dataset.train(),
                                        device_map_from(cfg), train_cfg);
  std::printf("final loss %.4f after %.1f s\n", history.final_loss(),
              history.total_seconds);
  nn::save_state(model, args.get("out"));
  std::printf("saved weights to %s\n", args.get("out").c_str());
  write_artifacts(args, nullptr, &series);

  obs::LedgerRecord rec = ledger_record("train", args);
  rec.add_info("epochs", args.get("epochs"));
  rec.add_info("batch", args.get("batch"));
  rec.add_info("out", args.get("out"));
  if (!args.get("series-out").empty()) {
    rec.add_info("series", args.get("series-out"));
  }
  rec.add_metric("train.final_loss", static_cast<double>(history.final_loss()));
  rec.add_metric("train.epochs", train_cfg.epochs);
  rec.add_metric("train.seconds", history.total_seconds);
  finish_run(&rec);
  return 0;
}

int cmd_eval(int argc, const char* const* argv) {
  ArgParser args("ddnn eval",
                 "Evaluate a trained DDNN: per-exit accuracy, staged policy, "
                 "confusion matrix.");
  add_model_options(args);
  add_model_run_options(args);
  args.add_option("threshold", "local exit threshold T (-1 = grid search)",
                  "0.8")
      .add_option("metrics-out", "write the metrics registry as JSON", "");
  if (!args.parse(argc, argv)) return 0;

  core::DdnnModel model(config_from(args));
  load_model(args, model);
  const auto& cfg = model.config();
  const auto dataset = dataset_from(args);
  const auto eval =
      core::evaluate_exits(model, dataset.test(), device_map_from(cfg));
  obs::LedgerRecord rec = ledger_record("eval", args);
  rec.add_info("model", args.get("model"));
  record_mem_peaks(rec);
  for (std::size_t e = 0; e < eval.num_exits(); ++e) {
    std::printf("%-5s accuracy (100%% exit there): %.1f%%\n",
                eval.exit_names[e].c_str(),
                100.0 * core::exit_accuracy(eval, e));
    rec.add_metric("exit_acc." + eval.exit_names[e],
                   core::exit_accuracy(eval, e));
  }

  if (cfg.num_exits() > 1) {
    std::vector<double> thresholds;
    const double t = args.get_double("threshold");
    if (t < 0.0) {
      thresholds = core::search_thresholds_best_overall(eval, 0.1);
      std::printf("grid-searched thresholds:");
      for (const double x : thresholds) std::printf(" %.2f", x);
      std::printf("\n");
    } else {
      thresholds.assign(static_cast<std::size_t>(cfg.num_exits()) - 1, t);
    }
    const auto policy = core::apply_policy(eval, thresholds);
    std::printf("overall accuracy %.1f%%; exit split:",
                100.0 * policy.overall_accuracy);
    for (const double f : policy.exit_fraction) {
      std::printf(" %.1f%%", 100.0 * f);
    }
    std::printf("\n\n");

    core::ConfusionMatrix confusion(cfg.num_classes);
    for (std::size_t i = 0; i < policy.decisions.size(); ++i) {
      confusion.add(eval.labels[i], policy.decisions[i].prediction);
    }
    std::printf("%s", confusion.to_table({"car", "bus", "person"})
                          .to_string()
                          .c_str());
    rec.add_info("threshold", args.get("threshold"));
    rec.add_metric("overall_acc", policy.overall_accuracy);
    for (std::size_t e = 0; e < policy.exit_fraction.size(); ++e) {
      rec.add_metric("exit_frac." + eval.exit_names[e],
                     policy.exit_fraction[e]);
    }
  }
  write_artifacts(args, nullptr, nullptr);
  finish_run(&rec);
  return 0;
}

/// The FaultPlan of `ddnn simulate`'s --fault-seed, --drop, --intermittent
/// and --outage flags.
dist::FaultPlan fault_plan_from(const ArgParser& args,
                                const core::DdnnConfig& cfg) {
  dist::FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(args.get_int("fault-seed"));
  plan.link_drop_prob = args.get_double("drop");
  const double intermittent = args.get_double("intermittent");
  if (intermittent > 0.0) {
    plan.devices.assign(static_cast<std::size_t>(cfg.num_devices),
                        {.intermittent_down_prob = intermittent});
  }
  const std::string outage = args.get("outage");
  if (!outage.empty()) {
    const auto colon = outage.find(':');
    const auto start = parse_int(outage.substr(0, colon));
    const auto end = colon == std::string::npos
                         ? std::nullopt
                         : parse_int(outage.substr(colon + 1));
    DDNN_CHECK(start.has_value() && end.has_value(),
               "--outage expects start:end sample indices, got '" << outage
                                                                 << "'");
    plan.edge_outages.push_back(
        {.group = -1, .start_sample = *start, .end_sample = *end});
  }
  return plan;
}

int cmd_simulate(int argc, const char* const* argv) {
  ArgParser args("ddnn simulate",
                 "Run a trained DDNN on the simulated distributed hierarchy "
                 "with byte/latency accounting and optional failures.");
  add_model_options(args);
  add_model_run_options(args);
  args.add_option("threshold", "exit threshold for every non-final exit",
                  "0.8")
      .add_option("fail", "comma-separated 1-based devices to fail", "")
      .add_option("drop", "per-attempt link drop probability", "0")
      .add_option("intermittent",
                  "per-sample probability each device is unreachable", "0")
      .add_option("outage",
                  "edge outage window start:end (sample indices, edge "
                  "presets only)",
                  "")
      .add_option("retries", "retry budget per send", "2")
      .add_option("fault-seed", "seed for all fault draws", "7")
      .add_option("trace-out",
                  "write per-sample spans as Chrome trace_event JSON "
                  "(load in Perfetto)",
                  "")
      .add_option("metrics-out", "write the metrics registry as JSON", "")
      .add_option("decisions-out",
                  "write per-sample decisions CSV "
                  "(sample,exit,prediction,entropy,bytes,degraded,dead) — "
                  "the parity artifact `ddnn serve` drivers compare against",
                  "")
      .add_option("series-out",
                  "write windowed time series (exit fractions, per-link "
                  "bytes, faults, latency percentiles) as CSV or .json",
                  "")
      .add_option("series-window",
                  "series window width in simulated seconds", "0.5")
      .add_option("fleet-devices",
                  "fleet queueing network: number of devices (0 = off); "
                  "replays the per-sample traces of this run as open-loop "
                  "load over an N-device x M-edge topology",
                  "0")
      .add_option("fleet-edges", "fleet: number of edge stations", "4")
      .add_option("fleet-edge-servers", "fleet: servers per edge station",
                  "1")
      .add_option("fleet-cloud-servers", "fleet: servers in the cloud pool",
                  "2")
      .add_option("fleet-arrival-hz",
                  "fleet: whole-fleet Poisson arrival rate (samples/s)",
                  "200")
      .add_option("fleet-arrivals-file",
                  "fleet: trace-driven load — file with one inter-arrival "
                  "gap (seconds) per line, cycled (overrides "
                  "--fleet-arrival-hz)",
                  "")
      .add_option("fleet-stream", "fleet: number of open-loop arrivals",
                  "100000")
      .add_option("fleet-policy",
                  "fleet: edge selection nearest|least-loaded|round-robin",
                  "nearest")
      .add_option("fleet-edge-service-ms",
                  "fleet: edge section service time per dispatch (ms)", "2")
      .add_option("fleet-cloud-service-ms",
                  "fleet: cloud service time per sample (ms)", "4")
      .add_option("fleet-hop-ms", "fleet: edge->cloud hop latency (ms)",
                  "10")
      .add_option("fleet-batch",
                  "fleet: max samples fused per edge dispatch", "8")
      .add_option("fleet-batch-growth",
                  "fleet: marginal service cost per extra batched sample",
                  "0.25")
      .add_option("fleet-queue-cap",
                  "fleet: per-station queue bound (overflow is shed)", "256")
      .add_option("fleet-seed", "fleet: arrival-process seed", "1")
      .add_option("fleet-series-out",
                  "fleet: write windowed fleet series (throughput, latency "
                  "percentiles, shed/dead) as CSV or .json",
                  "")
      .add_option("fleet-series-window",
                  "fleet: series window width in simulated seconds", "5");
  if (!args.parse(argc, argv)) return 0;

  // Fault flags are parsed first, so a malformed one fails before the
  // weights load.
  const auto cfg = config_from(args);
  const auto plan = fault_plan_from(args, cfg);
  const bool faulty = plan.link_drop_prob > 0.0 || !plan.devices.empty() ||
                      !plan.edge_outages.empty();
  core::DdnnModel model(cfg);
  load_model(args, model);
  const auto dataset = dataset_from(args);

  const std::vector<double> thresholds(
      static_cast<std::size_t>(cfg.num_exits()) - 1,
      args.get_double("threshold"));
  dist::RuntimeConfig runtime_cfg;
  runtime_cfg.reliability.max_retries =
      static_cast<int>(args.get_int("retries"));
  dist::HierarchyRuntime runtime(model, thresholds, device_map_from(cfg),
                                 runtime_cfg);
  for (const int failed : parse_int_list(args.get("fail"))) {
    DDNN_CHECK(failed >= 1 && failed <= cfg.num_devices,
               "--fail device " << failed << " out of range");
    runtime.set_device_failed(failed - 1, true);
    std::printf("device %d marked failed\n", failed);
  }
  if (faulty) runtime.set_fault_plan(plan);

  obs::SpanTracer tracer;
  if (!args.get("trace-out").empty()) runtime.set_tracer(&tracer);
  if (!args.get("metrics-out").empty()) {
    runtime.bind_metrics(&obs::global_metrics());
  }
  obs::WindowedSeries series(args.get_double_greater_than("series-window", 0.0),
                             "t");
  if (!args.get("series-out").empty()) runtime.bind_series(&series);

  std::vector<dist::InferenceTrace> traces;
  traces.reserve(dataset.test().size());
  for (const auto& sample : dataset.test()) {
    traces.push_back(runtime.classify(sample));
  }
  print_run_summary(runtime.metrics());
  {
    // Planned activation peak per hierarchy node. Devices (and edge
    // stations) run identical plans, so each node of a tier reports that
    // tier's packed arena peak.
    const auto plan_stats = infer::plan_stats();
    Table peaks({"node", "tier", "planned peak B"});
    for (int d = 0; d < cfg.num_devices; ++d) {
      peaks.add_row(
          {"device" + std::to_string(d + 1), "device",
           Table::num(static_cast<double>(plan_stats.device_peak_bytes), 0)});
    }
    for (std::size_t g = 0; g < cfg.edge_groups.size(); ++g) {
      peaks.add_row(
          {"edge" + std::to_string(g + 1), "edge",
           Table::num(static_cast<double>(plan_stats.edge_peak_bytes), 0)});
    }
    peaks.add_row(
        {"cloud", "cloud",
         Table::num(static_cast<double>(plan_stats.cloud_peak_bytes), 0)});
    std::printf("planned activation peaks:\n%s", peaks.to_string().c_str());
  }
  // The memory-peak gauges are set before --metrics-out is written, so the
  // export carries them as the ledger record does.
  obs::LedgerRecord rec = ledger_record("simulate", args);
  rec.add_info("threshold", args.get("threshold"));
  record_mem_peaks(rec);
  write_artifacts(args, &tracer, &series);
  if (!args.get("decisions-out").empty()) {
    dist::write_decisions_csv(args.get("decisions-out"), traces);
    std::printf("wrote %zu decisions to %s\n", traces.size(),
                args.get("decisions-out").c_str());
  }

  // Fleet queueing network: replay this run's traces as open-loop load.
  const auto fleet_devices =
      static_cast<int>(args.get_int_at_least("fleet-devices", 0));
  dist::FleetStats fleet;
  obs::WindowedSeries fleet_series(
      args.get_double_greater_than("fleet-series-window", 0.0), "t");
  if (fleet_devices > 0) {
    dist::FleetConfig fleet_cfg;
    fleet_cfg.num_devices = fleet_devices;
    fleet_cfg.num_edges =
        static_cast<int>(args.get_int_at_least("fleet-edges", 1));
    fleet_cfg.edge_servers =
        static_cast<int>(args.get_int_at_least("fleet-edge-servers", 1));
    fleet_cfg.cloud_servers =
        static_cast<int>(args.get_int_at_least("fleet-cloud-servers", 1));
    fleet_cfg.arrival_rate_hz =
        args.get_double_greater_than("fleet-arrival-hz", 0.0);
    fleet_cfg.edge_service_s =
        1e-3 * args.get_double_at_least("fleet-edge-service-ms", 0.0);
    fleet_cfg.cloud_service_s =
        1e-3 * args.get_double_at_least("fleet-cloud-service-ms", 0.0);
    fleet_cfg.edge_cloud_latency_s =
        1e-3 * args.get_double_at_least("fleet-hop-ms", 0.0);
    fleet_cfg.max_batch =
        static_cast<int>(args.get_int_at_least("fleet-batch", 1));
    fleet_cfg.batch_growth =
        args.get_double_at_least("fleet-batch-growth", 0.0);
    fleet_cfg.queue_capacity = args.get_int_at_least("fleet-queue-cap", 1);
    fleet_cfg.policy = dist::parse_edge_policy(args.get("fleet-policy"));
    fleet_cfg.seed = static_cast<std::uint64_t>(args.get_int("fleet-seed"));
    // The last exit of this model is its cloud exit; earlier escalation
    // tiers stop at the edge stations.
    fleet_cfg.first_cloud_exit = std::max(1, cfg.num_exits() - 1);
    const std::string arrivals_file = args.get("fleet-arrivals-file");
    if (!arrivals_file.empty()) {
      std::ifstream in(arrivals_file);
      DDNN_CHECK(in.good(),
                 "cannot read --fleet-arrivals-file '" << arrivals_file
                                                       << "'");
      double gap = 0.0;
      while (in >> gap) fleet_cfg.interarrival_s.push_back(gap);
      DDNN_CHECK(!fleet_cfg.interarrival_s.empty(),
                 "--fleet-arrivals-file '" << arrivals_file
                                           << "' holds no gaps");
    }
    const auto stream = args.get_int_at_least("fleet-stream", 1);
    fleet = dist::simulate_fleet(
        traces, fleet_cfg, stream,
        args.get("fleet-series-out").empty() ? nullptr : &fleet_series);
    std::printf(
        "\nfleet: %d devices x %d edges (%s), %lld arrivals over %.1f s\n",
        fleet_cfg.num_devices, fleet_cfg.num_edges,
        dist::to_string(fleet_cfg.policy).c_str(),
        static_cast<long long>(fleet.arrivals), fleet.horizon_s);
    std::printf(
        "fleet: %.1f samples/s, latency p50 %.2f ms p95 %.2f ms max %.2f "
        "ms; local %lld, escalated %lld, shed %lld, dead %lld\n",
        fleet.throughput_hz, 1e3 * fleet.p50_latency_s,
        1e3 * fleet.p95_latency_s, 1e3 * fleet.max_latency_s,
        static_cast<long long>(fleet.local),
        static_cast<long long>(fleet.escalated),
        static_cast<long long>(fleet.shed),
        static_cast<long long>(fleet.dead));
    std::printf("%s", fleet.station_table().to_string().c_str());
    if (!args.get("fleet-series-out").empty()) {
      fleet_series.write(args.get("fleet-series-out"));
      std::printf("wrote %zu fleet series windows to %s\n",
                  fleet_series.window_count(),
                  args.get("fleet-series-out").c_str());
    }
  }

  rec.add_info("fault-seed", args.get("fault-seed"));
  if (faulty) {
    rec.add_info("drop", args.get("drop"));
    rec.add_info("intermittent", args.get("intermittent"));
    if (!args.get("outage").empty()) {
      rec.add_info("outage", args.get("outage"));
    }
    if (!args.get("fail").empty()) rec.add_info("fail", args.get("fail"));
  }
  if (!args.get("series-out").empty()) {
    rec.add_info("series", args.get("series-out"));
  }
  dist::add_ledger_metrics(rec, runtime.metrics(), model.exit_names());
  if (fleet_devices > 0) {
    rec.add_info("fleet-devices", args.get("fleet-devices"));
    rec.add_info("fleet-edges", args.get("fleet-edges"));
    rec.add_info("fleet-policy", args.get("fleet-policy"));
    if (!args.get("fleet-series-out").empty()) {
      rec.add_info("series", args.get("fleet-series-out"));
    }
    dist::add_ledger_metrics(rec, fleet);
  }
  finish_run(&rec);
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  ArgParser args("ddnn serve",
                 "Run one tier of the hierarchy as a real process over TCP "
                 "loopback frames. `--role cloud` and `--role edge` serve; "
                 "`--role device` hosts the devices + gateway, drives the "
                 "test set through the stack and reports the same metrics "
                 "as `ddnn simulate` (with wall-clock latency).");
  add_model_options(args);
  add_model_run_options(args);
  args.add_option("role", "tier to run: device|edge|cloud", "")
      .add_option("threshold", "exit threshold for every non-final exit",
                  "0.8")
      .add_option("listen",
                  "serving roles: TCP port to listen on (0 = OS-assigned)",
                  "0")
      .add_option("port-file",
                  "serving roles: write the bound port to this file", "")
      .add_option("edge", "device role: edge address host:port", "")
      .add_option("cloud", "device/edge roles: cloud address host:port", "")
      .add_option("retries", "retry budget per send", "2")
      .add_option("timeout-ms", "per-attempt ACK timeout (ms)", "250")
      .add_option("decision-timeout",
                  "seconds to wait for a Decision before degrading", "5")
      .add_option("idle-timeout",
                  "serving roles: exit after this many idle seconds", "120")
      .add_option("max-samples",
                  "device role: classify only the first N test samples "
                  "(-1 = all)",
                  "-1")
      .add_flag("blackhole",
                "serving roles: accept frames, never respond (forces the "
                "peers' timeout/degradation routes)")
      .add_option("decisions-out",
                  "device role: write per-sample decisions CSV for parity "
                  "checks against `ddnn simulate --decisions-out`",
                  "")
      .add_option("trace-out",
                  "write this role's wall-clock spans as Chrome trace JSON "
                  "(merge the per-role files with `ddnn trace-merge`)",
                  "")
      .add_option("metrics-out",
                  "write this role's metrics registry as JSON (serving "
                  "roles also answer live Stats polls — see `ddnn top`)",
                  "");
  if (!args.parse(argc, argv)) return 0;

  const std::string role = args.get("role");
  DDNN_CHECK(role == "device" || role == "edge" || role == "cloud",
             "--role must be device, edge or cloud (got '" << role << "')");

  core::DdnnModel model(config_from(args));
  load_model(args, model);
  const auto& cfg = model.config();

  dist::ServeOptions opts;
  opts.listen_port = static_cast<int>(args.get_int_at_least("listen", 0));
  opts.port_file = args.get("port-file");
  opts.edge_addr = args.get("edge");
  opts.cloud_addr = args.get("cloud");
  opts.thresholds.assign(static_cast<std::size_t>(cfg.num_exits()) - 1,
                         args.get_double("threshold"));
  opts.reliability.max_retries = static_cast<int>(args.get_int("retries"));
  opts.reliability.timeout_s =
      1e-3 * args.get_double_greater_than("timeout-ms", 0.0);
  opts.decision_timeout_s =
      args.get_double_greater_than("decision-timeout", 0.0);
  opts.idle_timeout_s = args.get_double_greater_than("idle-timeout", 0.0);
  opts.max_samples = args.get_int("max-samples");
  opts.blackhole = args.has_flag("blackhole");
  opts.decisions_out = args.get("decisions-out");

  obs::SpanTracer tracer;
  if (!args.get("trace-out").empty()) opts.tracer = &tracer;
  if (!args.get("metrics-out").empty()) opts.metrics = &obs::global_metrics();

  if (role == "cloud" || role == "edge") {
    const int rc = role == "cloud" ? dist::serve_cloud(model, opts)
                                   : dist::serve_edge(model, opts);
    write_artifacts(args, &tracer, nullptr);
    finish_run(nullptr);
    return rc;
  }

  // Device role: the driver. Same dataset, thresholds and summary lines as
  // `ddnn simulate`, so runs are directly comparable.
  const auto dataset = dataset_from(args);

  const auto result = dist::drive_hierarchy(model, dataset.test(),
                                            device_map_from(cfg), opts);
  print_run_summary(result.metrics);
  obs::LedgerRecord rec = ledger_record("serve", args);
  rec.add_info("role", role);
  rec.add_info("threshold", args.get("threshold"));
  rec.add_info("transport", "socket");
  record_mem_peaks(rec);  // before --metrics-out, as in `ddnn simulate`
  write_artifacts(args, &tracer, nullptr);
  if (!opts.decisions_out.empty()) {
    std::printf("wrote %zu decisions to %s\n", result.traces.size(),
                opts.decisions_out.c_str());
  }

  dist::add_ledger_metrics(rec, result.metrics, model.exit_names());
  finish_run(&rec);
  return 0;
}

int cmd_trace_merge(int argc, const char* const* argv) {
  ArgParser args(
      "ddnn trace-merge",
      "Stitch the per-role trace files of a served run (driver first — it "
      "holds the handshake clock offsets) into one Perfetto-loadable "
      "timeline.\n\n  ddnn trace-merge driver.json edge.json cloud.json "
      "--out merged.json");
  args.add_option("out", "merged trace output path", "merged_trace.json");
  if (!args.parse(argc, argv)) return 0;
  DDNN_CHECK(!args.positionals().empty(),
             "ddnn trace-merge needs at least one input trace file");

  const auto stats = obs::merge_traces(args.positionals(), args.get("out"));
  std::printf("merged %zu spans from %d process(es) into %s\n", stats.spans,
              stats.processes, args.get("out").c_str());
  std::printf("max |clock offset| %.3f ms, global shift %.3f ms\n",
              1e3 * stats.max_abs_offset_s, 1e3 * stats.shift_s);

  obs::LedgerRecord rec;
  rec.command = "trace-merge";
  rec.add_info("out", args.get("out"));
  for (std::size_t i = 0; i < args.positionals().size(); ++i) {
    rec.add_info("input" + std::to_string(i), args.positionals()[i]);
  }
  rec.add_metric("merge.processes", static_cast<double>(stats.processes));
  rec.add_metric("merge.spans", static_cast<double>(stats.spans));
  rec.add_metric("merge.max_abs_offset_ms", 1e3 * stats.max_abs_offset_s);
  rec.add_metric("merge.shift_ms", 1e3 * stats.shift_s);
  finish_run(&rec);
  return 0;
}

/// Write `text` to `path` byte for byte and say what went there.
void write_text(const std::string& path, const std::string& text,
                const char* what) {
  std::ofstream out(path, std::ios::binary);
  DDNN_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << text;
  std::printf("wrote %s to %s\n", what, path.c_str());
}

/// One Stats or Health request/reply round against a serving role;
/// returns the raw JSON payload exactly as the server rendered it.
std::string poll_json(dist::FrameConn& conn, dist::FrameKind kind,
                      std::uint64_t seq, double timeout_s) {
  const std::string label = dist::to_string(kind);
  DDNN_CHECK(conn.write_frame({kind, seq, {}}, timeout_s),
             label << " request send timed out");
  const auto reply = conn.await_reply(seq, timeout_s);
  DDNN_CHECK(reply.has_value() || !conn.closed(),
             "server closed the " << label << " connection");
  DDNN_CHECK(reply.has_value(),
             label << " poll timed out after " << timeout_s << " s");
  dist::PayloadReader r(reply->payload.data(), reply->payload.size(),
                        label.c_str());
  return r.str();
}

/// Render one metrics snapshot as the familiar Metric/Type/Value table.
void print_stats(const std::string& json, int poll, double age_s) {
  const obs::JsonValue doc = obs::parse_json(json);
  const obs::JsonValue* metrics = doc.find("metrics");
  DDNN_CHECK(metrics != nullptr && metrics->is_array(),
             "stats reply is not a metrics registry snapshot");
  Table table({"Metric", "Type", "Value"});
  for (const obs::JsonValue& m : metrics->items) {
    const std::string type = m.at("type").s;
    std::string value;
    if (type == "hdr") {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "n=%lld p99=%g p99.9=%g max=%g",
                    static_cast<long long>(m.at("count").i),
                    m.at("p99").number(), m.at("p999").number(),
                    m.at("max").number());
      value = buf;
    } else {
      const obs::JsonValue& v = m.at("value");
      value = v.kind == obs::JsonValue::Kind::kInt
                  ? std::to_string(v.i)
                  : Table::num(v.number(), 3);
    }
    table.add_row({m.at("name").s, type, value});
  }
  std::printf("poll %d (t=%.1f s, %zu metrics)\n%s", poll, age_s,
              metrics->items.size(), table.to_string().c_str());
  std::fflush(stdout);
}

int cmd_top(int argc, const char* const* argv) {
  ArgParser args(
      "ddnn top",
      "Live telemetry: poll a serving role's Stats channel and render its "
      "metrics registry. The poll is read-only on the server (it cannot "
      "perturb what it measures), so a final snapshot is byte-identical to "
      "the role's --metrics-out file.");
  args.add_option("target", "host:port of a `ddnn serve` role", "")
      .add_option("interval-ms", "poll period in milliseconds", "500")
      .add_option("timeout", "seconds to wait for connect and each reply",
                  "5")
      .add_flag("once", "poll once, print, exit")
      .add_option("json-out",
                  "write the final snapshot's raw metrics JSON here", "")
      .add_option("stop-file",
                  "take one last snapshot and exit once this file exists "
                  "(lets scripts sequence `top` against a served run)",
                  "");
  if (!args.parse(argc, argv)) return 0;
  DDNN_CHECK(!args.get("target").empty(), "ddnn top needs --target host:port");

  const double timeout_s = args.get_double_greater_than("timeout", 0.0);
  const double interval_s =
      1e-3 * args.get_double_greater_than("interval-ms", 0.0);
  const auto conn = dist::connect_to(args.get("target"), timeout_s);
  DDNN_CHECK(conn != nullptr, "cannot reach " << args.get("target"));

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t seq = 0;
  std::string last;
  while (true) {
    const bool stop = !args.get("stop-file").empty() &&
                      std::ifstream(args.get("stop-file")).good();
    last = poll_json(*conn, dist::FrameKind::kStats, ++seq, timeout_s);
    print_stats(last, static_cast<int>(seq),
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
    if (args.has_flag("once") || stop) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
  if (!args.get("json-out").empty()) {
    write_text(args.get("json-out"), last, "final snapshot");
  }
  return 0;
}

int cmd_health(int argc, const char* const* argv) {
  ArgParser args(
      "ddnn health",
      "Deterministic SLO health check. Replays a synthetic outcome pool "
      "through the fleet queueing network on the simulated clock, runs the "
      "multi-window burn-rate SLO engine over it and reports per-objective "
      "and per-tier health — byte-identical across reruns and any "
      "DDNN_THREADS. With --connect, polls a live `ddnn serve` role's "
      "Health channel instead (snapshot health computed from its metrics "
      "registry).");
  args.add_option("seed", "outcome-pool + arrival-process seed", "42")
      .add_option("pool", "synthetic outcome-pool size", "1000")
      .add_option("stream", "open-loop arrivals to replay", "100000")
      .add_option("arrival-hz",
                  "whole-fleet Poisson arrival rate (samples/s)", "2000")
      .add_option("latency-slo-ms",
                  "latency objective: per-sample threshold (ms)", "100")
      .add_option("latency-target",
                  "latency objective: fraction that must meet the "
                  "threshold",
                  "0.99")
      .add_option("availability-target",
                  "availability objective: fraction that must complete "
                  "(not shed, not dead)",
                  "0.999")
      .add_option("json-out",
                  "write the SLO engine state as JSON (byte-identical "
                  "across reruns)",
                  "")
      .add_option("connect",
                  "host:port of a `ddnn serve` role to poll instead of "
                  "simulating",
                  "")
      .add_option("timeout",
                  "seconds to wait for connect and reply (--connect)", "5");
  if (!args.parse(argc, argv)) return 0;

  if (!args.get("connect").empty()) {
    const double timeout_s = args.get_double_greater_than("timeout", 0.0);
    const auto conn = dist::connect_to(args.get("connect"), timeout_s);
    DDNN_CHECK(conn != nullptr, "cannot reach " << args.get("connect"));
    const std::string health =
        poll_json(*conn, dist::FrameKind::kHealth, 1, timeout_s);
    std::printf("%s", health.c_str());
    if (!args.get("json-out").empty()) {
      write_text(args.get("json-out"), health, "health snapshot");
    }
    return 0;
  }

  // Synthetic outcome pool: a fixed local/edge/cloud/dead mix with
  // seed-derived latencies and trace ids. No training and no dataset — the
  // health pipeline itself (queueing -> HDR tail -> SLO engine) is what
  // this command exercises, so it stays fast enough for CI gates.
  const auto pool = args.get_int_at_least("pool", 1);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
  std::vector<dist::InferenceTrace> traces;
  traces.reserve(static_cast<std::size_t>(pool));
  for (std::int64_t i = 0; i < pool; ++i) {
    dist::InferenceTrace t;
    t.trace_id = dist::trace_id_of(i);
    const std::int64_t r = i % 100;
    if (r < 60) {  // local exit: answered on the device
      t.exit_taken = 0;
      t.latency_s = 1e-3 * rng.uniform(0.5, 3.0);
    } else if (r < 85) {  // edge exit: queued + batched at an edge station
      t.exit_taken = 1;
      t.latency_s = 1e-3 * rng.uniform(2.0, 12.0);
    } else if (r < 98) {  // cloud exit: rides the edge->cloud hop
      t.exit_taken = 2;
      t.latency_s = 1e-3 * rng.uniform(5.0, 30.0);
    } else {  // dead: nothing reached a classifier
      t.exit_taken = -1;
      t.dead = true;
    }
    traces.push_back(t);
  }

  dist::FleetConfig fleet;
  fleet.num_devices = 120;
  fleet.num_edges = 4;
  fleet.edge_servers = 1;
  fleet.cloud_servers = 10;
  fleet.arrival_rate_hz = args.get_double_greater_than("arrival-hz", 0.0);
  fleet.first_cloud_exit = 2;
  fleet.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  fleet.slo_latency_ms = args.get_double_greater_than("latency-slo-ms", 0.0);
  fleet.slo_latency_target = args.get_double("latency-target");
  fleet.slo_availability_target = args.get_double("availability-target");

  obs::MetricsRegistry registry;
  obs::SloEngine slo;
  const auto stats =
      dist::simulate_fleet(traces, fleet, args.get_int_at_least("stream", 1),
                           nullptr, &registry, &slo);
  std::printf(
      "replayed %lld arrivals over %.1f s: p99 %.2f ms, p99.9 %.2f ms, "
      "max %.2f ms; shed %lld, dead %lld\n\n",
      static_cast<long long>(stats.arrivals), stats.horizon_s,
      1e3 * stats.p99_latency_s, 1e3 * stats.p999_latency_s,
      1e3 * stats.max_latency_s, static_cast<long long>(stats.shed),
      static_cast<long long>(stats.dead));
  std::printf("%s", slo.to_table().to_string().c_str());
  for (const auto& tier : slo.tier_health()) {
    std::printf("tier %-8s %s\n", tier.tier.c_str(),
                obs::to_string(tier.state));
  }
  std::printf("overall: %s\n", obs::to_string(slo.overall()));
  if (!args.get("json-out").empty()) {
    write_text(args.get("json-out"), slo.to_json(), "SLO state");
  }
  return 0;
}

int cmd_report(int argc, const char* const* argv) {
  ArgParser args("ddnn report",
                 "Render the run ledger, series exports and result CSVs "
                 "into one self-contained HTML dashboard.");
  args.add_option("results-dir",
                  "results directory (default $DDNN_RESULTS_DIR, else "
                  "'results')",
                  "")
      .add_option("out", "output HTML file (default <results-dir>/report.html)",
                  "")
      .add_option("title", "report title", "DDNN run report");
  if (!args.parse(argc, argv)) return 0;

  obs::ReportOptions opts;
  opts.results_dir =
      args.get("results-dir").empty() ? results_dir() : args.get("results-dir");
  opts.title = args.get("title");
  std::string out = args.get("out");
  if (out.empty()) {
    DDNN_CHECK(!opts.results_dir.empty(),
               "results are disabled (DDNN_RESULTS_DIR=off); pass --out");
    out = opts.results_dir + "/report.html";
  }
  obs::write_report_html(opts, out);
  std::printf("wrote report to %s\n", out.c_str());
  return 0;
}

int cmd_dataset(int argc, const char* const* argv) {
  ArgParser args("ddnn dataset",
                 "Inspect SynthMVMC: distribution table and PPM exports.");
  args.add_option("seed", "dataset seed", "42")
      .add_option("out-dir", "directory for PPM exports (empty = none)", "")
      .add_option("samples", "number of samples to export", "2");
  if (!args.parse(argc, argv)) return 0;

  data::MvmcConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto dataset = data::MvmcDataset::generate(cfg);
  std::printf("%s", dataset.distribution_table().to_string().c_str());

  const std::string out_dir = args.get("out-dir");
  if (!out_dir.empty()) {
    const auto n = std::min<std::size_t>(
        static_cast<std::size_t>(args.get_int("samples")),
        dataset.test().size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& sample = dataset.test()[i];
      const std::string prefix = out_dir + "/sample" + std::to_string(i) +
                                 "_" + data::class_name(sample.label);
      data::write_sample_views(sample, prefix);
      std::printf("wrote %s_dev[1-%zu].ppm\n", prefix.c_str(),
                  sample.views.size());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: ddnn "
      "<train|eval|simulate|serve|trace-merge|top|health|dataset|report> "
      "[options]\nrun `ddnn <command> --help` for command options\n";
  if (argc < 2) {
    std::printf("%s", usage.c_str());
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "train") return cmd_train(argc - 1, argv + 1);
    if (command == "eval") return cmd_eval(argc - 1, argv + 1);
    if (command == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (command == "serve") return cmd_serve(argc - 1, argv + 1);
    if (command == "trace-merge") return cmd_trace_merge(argc - 1, argv + 1);
    if (command == "top") return cmd_top(argc - 1, argv + 1);
    if (command == "health") return cmd_health(argc - 1, argv + 1);
    if (command == "dataset") return cmd_dataset(argc - 1, argv + 1);
    if (command == "report") return cmd_report(argc - 1, argv + 1);
    std::printf("unknown command '%s'\n%s", command.c_str(), usage.c_str());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
