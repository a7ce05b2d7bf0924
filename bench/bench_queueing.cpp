// Queueing study: response time under streaming load (extension of the
// paper's latency claims, Sections I and V).
//
// Per-sample traces from the simulated hierarchy are replayed as a Poisson
// arrival stream through simulate_fleet's single-queue configuration:
// escalated samples contend for a single cloud server. At
// low thresholds (everything offloaded) the cloud saturates as the arrival
// rate approaches 1/service_time and tail latency explodes; at the paper's
// operating threshold most samples never touch the shared queue.
#include "dist/queueing.hpp"

#include "bench_common.hpp"

using namespace ddnn;
using namespace ddnn::bench;

int main() {
  print_header("Queueing study — tail latency under streaming load",
               "Teerapittayanon et al., ICDCS'17, Sections I and V "
               "(load extension)");
  const BenchEnv env = BenchEnv::load();
  const auto dataset = standard_dataset(env);
  const std::vector<int> devices{0, 1, 2, 3, 4, 5};

  const auto cfg = core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud);
  const auto model = trained_ddnn(cfg, devices, dataset, env);

  Table table({"T", "Local Exit (%)", "Arrivals (Hz)", "Cloud util. (%)",
               "Mean (ms)", "p95 (ms)", "Max (ms)"});
  for (const double t : {0.0, 0.8, 1.0}) {
    dist::HierarchyRuntime runtime(*model, {t}, devices);
    std::vector<dist::InferenceTrace> traces;
    traces.reserve(dataset.test().size());
    for (const auto& sample : dataset.test()) {
      traces.push_back(runtime.classify(sample));
    }
    const double local_pct =
        100.0 * static_cast<double>(runtime.metrics().exit_counts[0]) /
        static_cast<double>(runtime.metrics().samples);
    for (const double hz : {20.0, 60.0, 90.0}) {
      constexpr std::int64_t kStream = 2000;
      const auto stats = dist::simulate_fleet(
          traces, dist::single_queue_config(hz, 10e-3, env.seed, kStream),
          kStream);
      table.add_row({Table::num(t, 1), Table::num(local_pct, 1),
                     Table::num(hz, 0),
                     Table::num(100.0 * stats.cloud.utilization, 1),
                     Table::num(1e3 * stats.mean_latency_s, 1),
                     Table::num(1e3 * stats.p95_latency_s, 1),
                     Table::num(1e3 * stats.max_latency_s, 1)});
    }
  }
  maybe_write_csv(table, "queueing");
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected shape: at T=0 the cloud approaches saturation as arrivals "
      "near 1/service\n(10 ms -> 100 Hz) and p95 explodes; at the operating "
      "threshold most samples bypass the\nshared queue and latency stays "
      "flat; at T=1 load has no effect at all.\n");
  return 0;
}
