// The benchmark workloads. Each runs one caller in a closed loop: the
// next op starts when the previous one returns.
//
// The classify and train workloads use a seeded, untrained preset-e model
// (6 devices -> 1 edge -> cloud, f = 4). Binary kernels cost the same
// whatever the weights, and both entropy thresholds at -1 pin every sample
// to the cloud exit, so each classify op runs every section, link and
// feature codec: one code path per op.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "data/mvmc.hpp"
#include "deployment.hpp"
#include "dist/queueing.hpp"
#include "dist/runtime.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Preset e with seeded initial weights.
ddnn::core::DdnnConfig bench_config(std::uint64_t seed);
/// Model branch -> dataset device id.
std::vector<int> device_map();
/// SynthMVMC generated from the workload seed.
std::unique_ptr<ddnn::data::MvmcDataset> make_dataset(std::uint64_t seed);
/// Exit thresholds that send every sample to the cloud exit.
std::vector<double> all_cloud_thresholds();

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything the timed loop needs, warm-up pass included. May be
  /// called again; each call replaces the previous state.
  virtual void setup() = 0;
  /// Run ops for `seconds` of wall time. `spans` is non-null in traced
  /// runs only.
  virtual Loop run(double seconds, ddnn::obs::SpanTracer* spans) = 0;
  /// Correctness gate over everything setup() and run() produced.
  virtual void check(Result& result) = 0;
  /// Peak resident set of every process doing the work, MB.
  virtual double peak_rss_mb() const;
  /// Hash of the reference outputs, so runs with equal seeds can be
  /// compared; empty when the workload has none.
  virtual std::string output_digest() const { return ""; }
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options);

/// HierarchyRuntime::classify at batch 1 with a MetricsRegistry and a
/// WindowedSeries bound (as `ddnn simulate --metrics-out --series-out`).
class InprocClassify : public Workload {
 public:
  explicit InprocClassify(const Options& options) : options_(options) {}
  void setup() override;
  Loop run(double seconds, ddnn::obs::SpanTracer* spans) override;
  void check(Result& result) override;
  std::string output_digest() const override;

 private:
  const Options& options_;
  std::unique_ptr<ddnn::data::MvmcDataset> data_;
  std::unique_ptr<ddnn::core::DdnnModel> model_;
  std::unique_ptr<ddnn::obs::MetricsRegistry> registry_;
  std::unique_ptr<ddnn::obs::WindowedSeries> series_;
  std::unique_ptr<ddnn::dist::HierarchyRuntime> runtime_;
  ddnn::obs::SpanTracer tracer_;
  /// Decision for test sample k, from the warm-up pass.
  std::vector<ddnn::dist::InferenceTrace> reference_;
  std::int64_t disagreements_ = 0;  // timed ops differing from reference_
  std::int64_t setup_disagreements_ = 0;  // vs the previous set-up's
};

/// The same model, samples and thresholds over the loopback deployment.
class ServedClassify : public Workload {
 public:
  explicit ServedClassify(const Options& options) : options_(options) {}
  void setup() override;
  Loop run(double seconds, ddnn::obs::SpanTracer* spans) override;
  void check(Result& result) override;
  double peak_rss_mb() const override { return peak_rss_mb_; }

  /// What the last run() measured on each side of the wire.
  struct Sides {
    double edge_peak_rss_mb = 0.0;
    double cloud_peak_rss_mb = 0.0;
    double edge_cpu_s = 0.0;
    double cloud_cpu_s = 0.0;
  };
  const Sides& sides() const { return sides_; }
  ddnn::core::DdnnModel& model() { return *model_; }
  const ddnn::data::MvmcDataset& data() const { return *data_; }
  const ddnn::core::ReliabilityCounters& reliability() const {
    return reliability_;
  }

 private:
  const Options& options_;
  std::unique_ptr<ddnn::data::MvmcDataset> data_;
  std::unique_ptr<ddnn::core::DdnnModel> model_;
  std::unique_ptr<Deployment> deployment_;
  ddnn::obs::SpanTracer tracer_;
  /// Every served decision (warm-up included) in order: entry i is test
  /// sample i mod |test|.
  std::vector<ddnn::dist::InferenceTrace> served_;
  ddnn::core::ReliabilityCounters reliability_;
  Sides sides_;
  double peak_rss_mb_ = 0.0;
};

/// Many fixed-size simulate_fleet calls over a seeded trace pool that the
/// runtime classified under faults, with series, registry and SloEngine
/// bound (as examples/fleet_sim).
class FleetSim : public Workload {
 public:
  /// Arrivals per call: small enough that a run holds thousands of calls,
  /// so the per-call p90 and p99 rest on many calls.
  static constexpr std::int64_t kArrivals = 5000;
  /// Call i uses fleet seed i mod kSeeds, so results repeat and can be
  /// compared across calls.
  static constexpr int kSeeds = 16;

  explicit FleetSim(const Options& options) : options_(options) {}
  void setup() override;
  Loop run(double seconds, ddnn::obs::SpanTracer* spans) override;
  void check(Result& result) override;
  std::string output_digest() const override;

  /// One call with fleet seed index `s`, observability bound or not.
  ddnn::dist::FleetStats call(int s, bool observed) const;

 private:
  const Options& options_;
  std::vector<ddnn::dist::InferenceTrace> pool_;
  ddnn::dist::FleetConfig config_;
  std::array<std::string, kSeeds> reference_;  // stats digest per seed
  std::int64_t disagreements_ = 0;
  std::int64_t setup_disagreements_ = 0;  // seeds a repeated set-up changed
  std::int64_t unbalanced_ = 0;  // calls with arrivals != done+shed+dead
};

/// Joint training at batch 32: the loop train_ddnn runs (shuffled epoch
/// schedule, forward + per-exit loss, backward, Adam step), timed per batch
/// from outside through the same public calls.
class Train : public Workload {
 public:
  explicit Train(const Options& options);
  ~Train() override;
  void setup() override;
  Loop run(double seconds, ddnn::obs::SpanTracer* spans) override;
  void check(Result& result) override;

 private:
  struct State;
  /// One training batch; returns its size (0 for a skipped batch) and
  /// sets `loss`.
  std::int64_t step(State& s, ddnn::obs::SpanTracer* spans, double* loss);

  const Options& options_;
  std::unique_ptr<ddnn::data::MvmcDataset> data_;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench
