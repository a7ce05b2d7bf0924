// Fleet-scale queueing: one million classify() outcomes replayed through a
// deterministic multi-server queueing network — 120 end devices fanned out
// over 4 edge pools feeding a shared cloud pool (the horizontal-scaling
// story of paper Section IV, pushed to serving-system scale).
//
// The trained three-exit hierarchy (devices -> edge -> cloud) classifies
// the test set once; the resulting traces (exit taken, device-side latency,
// dead flags from the fault layer) seed an open-loop Poisson arrival
// process. Escalated samples queue at their edge (batched dispatch), final
// exits continue over the edge->cloud hop into the cloud pool. The sweep
// compares the edge-selection policies; the nearest-policy run also emits a
// windowed time series (throughput, latency percentiles, queue depth) and
// a "fleet_sim" ledger record gated by bench/baselines/fleet_sim.json.
//
// Everything is event-driven on a simulated clock: reruns are byte
// identical, under any DDNN_THREADS.
//
//   $ ./build/examples/fleet_sim
#include <cstdio>
#include <string>
#include <vector>

#include "core/cache.hpp"
#include "core/trainer.hpp"
#include "dist/queueing.hpp"
#include "dist/runtime.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "util/env.hpp"
#include "util/results.hpp"
#include "util/table.hpp"

using namespace ddnn;

int main() {
  const int epochs = static_cast<int>(env_int("DDNN_EPOCHS", 30));
  const auto seed = static_cast<std::uint64_t>(env_int("DDNN_SEED", 42));
  const auto stream = env_int("DDNN_FLEET_STREAM", 1'000'000);
  const std::vector<int> devices{0, 1, 2, 3, 4, 5};

  data::MvmcConfig data_cfg;
  data_cfg.seed = seed;
  const auto dataset = data::MvmcDataset::generate(data_cfg);

  const auto cfg =
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesEdgeCloud);
  core::DdnnModel model(cfg);
  core::TrainConfig train_cfg;
  train_cfg.epochs = epochs;
  core::train_or_load(model, "example_fleet_sim_ep" + std::to_string(epochs),
                      [&] {
                        std::printf("training %d epochs...\n", epochs);
                        core::train_ddnn(model, dataset.train(), devices,
                                         train_cfg);
                      });
  model.set_training(false);

  // Classify the test set once under a mildly hostile network (lossy links
  // plus one permanently dead device) so the trace pool carries every
  // outcome the fleet has to route: local exits, edge exits, cloud exits,
  // degraded paths and dead samples.
  dist::HierarchyRuntime runtime(model, {0.5, 0.8}, devices);
  dist::FaultPlan plan;
  plan.seed = 1234;
  plan.link_drop_prob = 0.1;
  plan.devices.push_back({.permanent_fail_at = 0});
  runtime.set_fault_plan(plan);
  std::vector<dist::InferenceTrace> traces;
  traces.reserve(dataset.test().size());
  for (const auto& sample : dataset.test()) {
    traces.push_back(runtime.classify(sample));
  }

  dist::FleetConfig fleet;
  fleet.num_devices = 120;
  fleet.num_edges = 4;
  fleet.edge_servers = 1;
  // Sized for the worst case (an unconfident model escalating everything):
  // 10 cloud servers at 4 ms serve 2500 Hz, above the 2000 Hz offered load,
  // so the network stays stable even when every sample rides to the top.
  fleet.cloud_servers = 10;
  fleet.arrival_rate_hz = 2000.0;
  fleet.first_cloud_exit = cfg.num_exits() - 1;
  fleet.seed = seed;

  std::printf(
      "\nreplaying %lld arrivals over %d devices x %d edge pools "
      "(Poisson %.0f Hz)\n",
      static_cast<long long>(stream), fleet.num_devices, fleet.num_edges,
      fleet.arrival_rate_hz);

  Table table({"Policy", "Completed", "Shed", "Dead", "Thrpt (Hz)",
               "p50 (ms)", "p95 (ms)", "Edge util (%)", "Cloud util (%)"});
  dist::FleetStats nearest_stats;
  obs::WindowedSeries series(5.0, "t");
  obs::MetricsRegistry registry;
  obs::SloEngine slo;
  for (const auto policy :
       {dist::EdgePolicy::kNearest, dist::EdgePolicy::kLeastLoaded,
        dist::EdgePolicy::kRoundRobin}) {
    dist::FleetConfig run_cfg = fleet;
    run_cfg.policy = policy;
    const bool keep = policy == dist::EdgePolicy::kNearest;
    const auto stats =
        dist::simulate_fleet(traces, run_cfg, stream, keep ? &series : nullptr,
                             keep ? &registry : nullptr, keep ? &slo : nullptr);
    if (keep) nearest_stats = stats;
    table.add_row({to_string(policy), std::to_string(stats.completed),
                   std::to_string(stats.shed), std::to_string(stats.dead),
                   Table::num(stats.throughput_hz, 1),
                   Table::num(1e3 * stats.p50_latency_s, 2),
                   Table::num(1e3 * stats.p95_latency_s, 2),
                   Table::num(100.0 * stats.mean_edge_utilization(), 1),
                   Table::num(100.0 * stats.cloud.utilization, 1)});
  }
  std::printf("\n%s", table.to_string().c_str());
  write_results_csv(table, "example_fleet_sim_policies");

  std::printf("\nper-station load (nearest policy):\n%s",
              nearest_stats.station_table().to_string().c_str());

  // Latency tail from the HDR histogram: percentiles carry a <=1/128
  // (~0.78%) relative bucket error bound, the max is exact, and every line
  // names the trace exemplar (arrival index + distributed trace id) that
  // landed in the reported bucket.
  const auto exemplar_str = [](const obs::HdrExemplar& ex) {
    if (!ex.valid()) return std::string("-");
    return "#" + std::to_string(ex.sample) + " trace " +
           std::to_string(ex.trace_id);
  };
  std::printf(
      "\nlatency tail (nearest policy, HDR buckets, rel. err <= %.2f%%):\n",
      100.0 * obs::HdrHistogram::relative_error_bound());
  Table tail({"Quantile", "Latency (ms)", "Exemplar"});
  tail.add_row({"p99", Table::num(1e3 * nearest_stats.p99_latency_s, 3),
                exemplar_str(nearest_stats.p99_exemplar)});
  tail.add_row({"p99.9", Table::num(1e3 * nearest_stats.p999_latency_s, 3),
                exemplar_str(nearest_stats.p999_exemplar)});
  tail.add_row({"max (exact)", Table::num(1e3 * nearest_stats.max_latency_s, 3),
                exemplar_str(nearest_stats.max_exemplar)});
  std::printf("%s", tail.to_string().c_str());

  std::printf("\nSLO health (nearest policy):\n%s",
              slo.to_table().to_string().c_str());

  const std::string dir = results_dir();
  if (!dir.empty()) {
    const std::string series_path = dir + "/example_fleet_sim_series.csv";
    series.write_csv(series_path);
    std::printf("\nwindowed series (%zu windows of %.0f s) -> %s\n",
                series.window_count(), series.width(), series_path.c_str());

    obs::LedgerRecord record;
    record.command = "fleet_sim";
    record.add_info("policy", to_string(dist::EdgePolicy::kNearest));
    record.add_info("devices", std::to_string(fleet.num_devices));
    record.add_info("edges", std::to_string(fleet.num_edges));
    record.add_info("series", series_path);
    dist::add_ledger_metrics(record, nearest_stats, &slo);
    obs::append_record(record);

    // Full registry snapshot (HDR buckets, exemplar trace ids, per-station
    // counters) for offline drill-down next to the series CSV.
    registry.write_json(dir + "/example_fleet_sim_metrics.json");
  }

  std::printf(
      "\nDead traces are counted, never queued; overload sheds instead of "
      "crashing.\nSame seed => byte-identical series and ledger, any "
      "DDNN_THREADS.\n");
  return 0;
}
