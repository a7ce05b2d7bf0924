// Per-layer split for traced runs, measured from outside: every number
// times calls into one module's public functions, on the shapes and
// samples the workloads use. All probes run at one compute thread so the
// numbers compare across workloads whatever their own DDNN_THREADS.
#include "layers.hpp"

#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "autograd/grad_mode.hpp"
#include "dist/message.hpp"
#include "dist/node.hpp"
#include "dist/transport.hpp"
#include "infer/planner.hpp"
#include "obs/hdr.hpp"
#include "tensor/bitgemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ddnn;

namespace {

constexpr double kUs = 1e6;

/// Median wall time of one fn() call over at least 0.1 s and at least 21
/// calls.
double median_call_s(const std::function<void()>& fn) {
  std::vector<double> t;
  const double end = now_s() + 0.1;
  while (now_s() < end || t.size() < 21) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

Tensor pm1_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.span()) v = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  return t;
}

/// Sections, codecs, classify with and without telemetry bound, and the
/// inference arena peaks, on the test samples.
void probe_model(const Options& o, obs::SpanTracer& spans, Result& r) {
  double t0 = now_s();
  const auto data = make_dataset(o.seed);
  spans.add("data.generate", "bench", 0, t0, now_s() - t0);
  r.set("data.generate_s", now_s() - t0, "s");

  core::DdnnModel model(bench_config(o.seed));
  model.set_training(false);
  const auto& cfg = model.config();
  const std::size_t n_dev = static_cast<std::size_t>(cfg.num_devices);
  const Shape dev_shape = dist::device_feature_shape(cfg);
  const Shape edge_shape = dist::edge_feature_shape(cfg);
  const std::vector<bool> all_dev(n_dev, true);
  infer::reset_plan_stats();

  // Classify with a registry + series bound (the classify_inproc setting)
  // and unbound, on the same sample right after its section breakdown, so
  // a shift in host speed hits every part of the comparison alike.
  obs::MetricsRegistry registry;
  obs::WindowedSeries series(0.5, "t");
  dist::HierarchyRuntime bound(model, all_cloud_thresholds(), device_map());
  bound.bind_metrics(&registry);
  bound.bind_series(&series);
  dist::HierarchyRuntime plain(model, all_cloud_thresholds(), device_map());

  std::vector<double> dev_s, agg_s, edge_s, cloud_s, enc_s, dec_s;
  std::vector<double> bound_s, plain_s, unattributed;
  const double end = now_s() + 1.5;
  for (int pass = 0; pass < 2 || now_s() < end; ++pass) {
    for (const auto& sample : data->test()) {
      double parts = 0.0;
      const auto timed = [&](const char* name, std::vector<double>& out,
                             const auto& fn) {
        const double start = now_s();
        fn();
        const double dur = now_s() - start;
        spans.add(name, "bench", 0, start, dur);
        out.push_back(dur);
        parts += dur;
      };
      {
        const Scope root(&spans, "probe.sample");
        autograd::NoGradGuard no_grad;
        std::vector<core::Variable> feats(n_dev), logits(n_dev), decoded(n_dev);
        std::vector<dist::Message> msgs(n_dev);
        timed("core.device_sections", dev_s, [&] {
          for (std::size_t d = 0; d < n_dev; ++d) {
            const Tensor& view = sample.views[d];
            const core::Variable in(
                view.reshape(Shape{1, view.dim(0), view.dim(1), view.dim(2)}));
            feats[d] = model.device_section_features(static_cast<int>(d), in);
            logits[d] = model.device_section_logits(static_cast<int>(d), feats[d]);
          }
        });
        timed("core.local_aggregate", agg_s,
              [&] { model.local_aggregate(logits, all_dev); });
        // Codec entries: the six device feature maps, then the edge's.
        timed("dist.feature_encode", enc_s, [&] {
          for (std::size_t d = 0; d < n_dev; ++d) {
            msgs[d] = dist::encode_binary_feature_map(feats[d].value());
          }
        });
        timed("dist.feature_decode", dec_s, [&] {
          for (std::size_t d = 0; d < n_dev; ++d) {
            decoded[d] = core::Variable(
                dist::decode_binary_feature_map(msgs[d], dev_shape));
          }
        });
        std::optional<core::DdnnModel::EdgeResult> edge;
        timed("core.edge_section", edge_s,
              [&] { edge = model.edge_section(0, decoded, all_dev); });
        dist::Message edge_msg;
        core::Variable edge_in;
        timed("dist.feature_encode", enc_s, [&] {
          edge_msg = dist::encode_binary_feature_map(edge->features.value());
        });
        timed("dist.feature_decode", dec_s, [&] {
          edge_in = core::Variable(
              dist::decode_binary_feature_map(edge_msg, edge_shape));
        });
        timed("core.cloud_section", cloud_s,
              [&] { model.cloud_section({edge_in}, {true}); });
      }
      t0 = now_s();
      bound.classify(sample);
      bound_s.push_back(now_s() - t0);
      spans.add("runtime.classify_bound", "bench", 0, t0, bound_s.back());
      t0 = now_s();
      plain.classify(sample);
      plain_s.push_back(now_s() - t0);
      spans.add("runtime.classify", "bench", 0, t0, plain_s.back());
      unattributed.push_back(1.0 - parts / bound_s.back());
    }
  }
  const auto pair_sums = [](const std::vector<double>& v) {
    std::vector<double> sums;
    for (std::size_t i = 0; i + 1 < v.size(); i += 2) sums.push_back(v[i] + v[i + 1]);
    return sums;
  };
  r.set("core.device_sections_us", kUs * median(dev_s), "us");
  r.set("core.local_aggregate_us", kUs * median(agg_s), "us");
  r.set("core.edge_section_us", kUs * median(edge_s), "us");
  r.set("core.cloud_section_us", kUs * median(cloud_s), "us");
  r.set("dist.feature_encode_us", kUs * median(pair_sums(enc_s)), "us");
  r.set("dist.feature_decode_us", kUs * median(pair_sums(dec_s)), "us");
  r.set("runtime.unattributed_frac", median(unattributed), "frac");
  r.set("obs.runtime_bookkeeping_us", kUs * (median(bound_s) - median(plain_s)), "us");
  const infer::PlanStats peaks = infer::plan_stats();
  r.set("infer.arena_peak_bytes.device", static_cast<double>(peaks.device_peak_bytes), "bytes");
  r.set("infer.arena_peak_bytes.edge", static_cast<double>(peaks.edge_peak_bytes), "bytes");
  r.set("infer.arena_peak_bytes.cloud", static_cast<double>(peaks.cloud_peak_bytes), "bytes");
  const auto& m = plain.metrics();
  r.set("runtime.bytes_per_sample",
        static_cast<double>(m.total_bytes) / static_cast<double>(m.samples), "bytes");
}

/// Binary kernels at the model's batch-1 layer shapes, summed over every
/// call one classify makes; the frame codec at the device feature-frame
/// size; the float kernels at the edge convolution's training shape.
void probe_kernels(const Options& o, obs::SpanTracer& spans, Result& r) {
  const auto cfg = bench_config(o.seed);
  Rng rng(o.seed ^ 0xBE7Cull);
  const auto probe = [&](const char* name, const std::function<void()>& fn) {
    const double t0 = now_s();
    const double s = median_call_s(fn);
    spans.add(name, "bench", 0, t0, now_s() - t0);
    return s;
  };
  const auto packed = [&](std::int64_t rows, std::int64_t cols) {
    const Tensor w = pm1_tensor(Shape{rows, cols}, rng);
    return bitgemm::pack_signs_matrix(w.data(), rows, cols);
  };
  const auto geometry = [](std::int64_t c, std::int64_t s) {
    Conv2dGeometry g;
    g.in_channels = c;
    g.in_h = s;
    g.in_w = s;
    return g;
  };

  // Device trunk: float image -> f filters (sign-accumulate), per device.
  double sign_conv = 0.0;
  {
    const auto g = geometry(cfg.input_channels, cfg.input_size);
    const Tensor x = Tensor::rand_uniform(
        Shape{1, cfg.input_channels, cfg.input_size, cfg.input_size}, rng, 0.0f, 1.0f);
    const auto w = packed(cfg.device_filters, g.patch_size());
    Tensor out(Shape{1, cfg.device_filters, g.out_h(), g.out_w()});
    sign_conv = cfg.num_devices *
                probe("tensor.sign_conv2d", [&] { bitgemm::sign_conv2d(x, g, w, out); });
  }
  // Edge trunk and the cloud chain: +-1 input (XNOR-popcount).
  double xnor_conv = 0.0;
  {
    std::vector<std::pair<std::int64_t, std::int64_t>> convs;  // (in ch, size)
    std::vector<std::int64_t> filters;
    convs.emplace_back(cfg.num_devices * cfg.device_filters, cfg.device_out_size());
    filters.push_back(cfg.edge_filters);
    std::int64_t ch = cfg.edge_filters, size = cfg.edge_out_size();
    for (const int f : cfg.cloud_filters) {
      convs.emplace_back(ch, size);
      filters.push_back(f);
      ch = f;
      size /= 2;
    }
    for (std::size_t i = 0; i < convs.size(); ++i) {
      const auto g = geometry(convs[i].first, convs[i].second);
      const Tensor x = pm1_tensor(Shape{1, g.in_channels, g.in_h, g.in_w}, rng);
      const auto w = packed(filters[i], g.patch_size());
      Tensor out(Shape{1, filters[i], g.out_h(), g.out_w()});
      xnor_conv += probe("tensor.xnor_conv2d",
                         [&] { bitgemm::xnor_conv2d(x, g, w.bits, out); });
    }
  }
  // Exit heads (one per device, the edge head, the cloud head) and the
  // cloud FC block.
  double xnor_lin = 0.0;
  {
    const std::int64_t dev_k = cfg.device_filters * cfg.device_out_size() * cfg.device_out_size();
    const std::int64_t edge_k = cfg.edge_filters * cfg.edge_out_size() * cfg.edge_out_size();
    std::int64_t cloud_size = cfg.edge_out_size();
    for (std::size_t i = 0; i < cfg.cloud_filters.size(); ++i) cloud_size /= 2;
    const std::int64_t cloud_k = cfg.cloud_filters.back() * cloud_size * cloud_size;
    const std::vector<std::tuple<std::int64_t, std::int64_t, int>> fcs{
        {dev_k, cfg.num_classes, cfg.num_devices},
        {edge_k, cfg.num_classes, 1},
        {cloud_k, cfg.cloud_fc_nodes, 1},
        {cfg.cloud_fc_nodes, cfg.num_classes, 1}};
    for (const auto& [k, n, calls] : fcs) {
      const Tensor x = pm1_tensor(Shape{1, k}, rng);
      const auto w = packed(n, k);
      Tensor out(Shape{1, n});
      xnor_lin += calls * probe("tensor.xnor_linear",
                                [&] { bitgemm::xnor_linear(x, w.bits, out); });
    }
  }
  r.set("tensor.sign_conv2d_us", kUs * sign_conv, "us");
  r.set("tensor.xnor_conv2d_us", kUs * xnor_conv, "us");
  r.set("tensor.xnor_linear_us", kUs * xnor_lin, "us");

  {
    const dist::Message msg =
        dist::encode_binary_feature_map(pm1_tensor(dist::device_feature_shape(cfg), rng));
    const dist::Frame frame = dist::make_message_frame(msg, 7, 3);
    std::vector<std::uint8_t> wire = dist::encode_frame(frame);
    const double enc = probe("transport.frame_encode", [&] { wire = dist::encode_frame(frame); });
    const double dec = probe("transport.frame_decode", [&] {
      const dist::Frame back = dist::decode_frame(wire.data(), wire.size());
      if (back.payload.size() != frame.payload.size()) throw std::runtime_error("frame");
    });
    r.set("transport.frame_encode_us", kUs * enc, "us");
    r.set("transport.frame_decode_us", kUs * dec, "us");
  }
  {
    const std::int64_t batch = 32;
    const auto g = geometry(cfg.num_devices * cfg.device_filters, cfg.device_out_size());
    const Tensor x = Tensor::randn(Shape{batch, g.in_channels, g.in_h, g.in_w}, rng);
    const Tensor cols = im2col(x, g);
    const Tensor w = Tensor::randn(Shape{g.patch_size(), cfg.edge_filters}, rng);
    const double i2c = probe("tensor.im2col", [&] { im2col(x, g); });
    const double mm = probe("tensor.matmul", [&] { ops::matmul(cols, w); });
    r.set("tensor.im2col_us", kUs * i2c, "us");
    r.set("tensor.matmul_us", kUs * mm, "us");
  }
}

void probe_obs(const Options& o, obs::SpanTracer& spans, Result& r) {
  constexpr std::size_t kN = 1 << 18;
  Rng rng(o.seed ^ 0x0B5ull);
  std::vector<double> latency_ms(kN);
  for (auto& v : latency_ms) v = std::exp(rng.normal(2.5, 0.8));
  std::vector<double> hdr_ns, series_ns;
  const double t_start = now_s();
  for (int rep = 0; rep < 5; ++rep) {
    obs::HdrHistogram hdr(1e-3, 3.6e6);
    double t0 = now_s();
    for (std::size_t i = 0; i < kN; ++i) hdr.record(latency_ms[i]);
    hdr_ns.push_back(1e9 * (now_s() - t0) / kN);
    if (hdr.count() != static_cast<std::int64_t>(kN)) throw std::runtime_error("hdr count");

    obs::WindowedSeries series(0.5, "t");
    const int col = series.add_counter("c");
    t0 = now_s();
    for (std::size_t i = 0; i < kN; ++i) {
      series.record(col, 1e-4 * static_cast<double>(i), 1.0);
    }
    series_ns.push_back(1e9 * (now_s() - t0) / kN);
  }
  spans.add("probe.obs", "bench", 0, t_start, now_s() - t_start);
  r.set("obs.hdr_record_ns", median(hdr_ns), "ns");
  r.set("obs.series_record_ns", median(series_ns), "ns");
}

void probe_fleet(const Options& o, obs::SpanTracer& spans, Result& r) {
  FleetSim fleet(o);
  fleet.setup();
  std::vector<double> bare_s, obs_s;
  const double end = now_s() + 1.0;
  for (int i = 0; i < 20 || now_s() < end; ++i) {
    const bool observed = i % 2 == 1;
    const double t0 = now_s();
    fleet.call((i / 2) % FleetSim::kSeeds, observed);
    (observed ? obs_s : bare_s).push_back(now_s() - t0);
    spans.add(observed ? "fleet.call_observed" : "fleet.call_bare", "bench", 0,
              t0, now_s() - t0);
  }
  r.set("fleet.bare_call_ms", 1e3 * median(bare_s), "ms");
  r.set("fleet.obs_overhead_frac", median(obs_s) / median(bare_s) - 1.0, "frac");
  // Heap events: one entry per arrival, one station arrival per job or
  // shed at a station, one server-free per dispatch, one done per
  // completion.
  const dist::FleetStats s = fleet.call(0, false);
  std::int64_t events = s.arrivals + s.completed + s.cloud.served + s.cloud.shed +
                        s.cloud.batches;
  for (const auto& st : s.edges) events += st.served + st.shed + st.batches;
  r.set("fleet.events_per_arrival",
        static_cast<double>(events) / static_cast<double>(s.arrivals), "count");
}

void probe_served(const Options& o, obs::SpanTracer& spans, Result& r) {
  const double t_start = now_s();
  ServedClassify served(o);
  served.setup();
  // Served sessions alternate with in-process passes over the same
  // samples, so the wire estimate compares like with like.
  dist::HierarchyRuntime inproc(served.model(), all_cloud_thresholds(), device_map());
  std::vector<double> served_s, inproc_s;
  double edge_cpu_s = 0.0, cloud_cpu_s = 0.0, samples = 0.0;
  const double end = now_s() + 1.5;
  do {
    const Loop session = served.run(0.0, nullptr);
    served_s.insert(served_s.end(), session.op_s.begin(), session.op_s.end());
    edge_cpu_s += served.sides().edge_cpu_s;
    cloud_cpu_s += served.sides().cloud_cpu_s;
    samples += static_cast<double>(session.units);
    for (const auto& sample : served.data().test()) {
      const double t0 = now_s();
      inproc.classify(sample);
      inproc_s.push_back(now_s() - t0);
    }
  } while (now_s() < end);
  served.check(r);
  spans.add("probe.served", "bench", 0, t_start, now_s() - t_start);
  const auto& sides = served.sides();
  const auto& rel = served.reliability();
  r.set("served.wire_us_per_sample", kUs * (median(served_s) - median(inproc_s)), "us");
  r.set("served.retries", static_cast<double>(rel.retries), "count");
  r.set("served.timeouts", static_cast<double>(rel.timeouts), "count");
  r.set("served.degraded", static_cast<double>(rel.degraded_exits), "count");
  r.set("served.edge_peak_rss_mb", sides.edge_peak_rss_mb, "MB");
  r.set("served.cloud_peak_rss_mb", sides.cloud_peak_rss_mb, "MB");
  r.set("served.edge_cpu_us_per_sample", kUs * edge_cpu_s / samples, "us");
  r.set("served.cloud_cpu_us_per_sample", kUs * cloud_cpu_s / samples, "us");
}

void probe_train(const Options& o, obs::SpanTracer& spans, Result& r) {
  const double t0 = now_s();
  Train train(o);
  train.setup();
  // A log of its own: in the train workload's traced run the main log
  // already holds batches run at that workload's thread count.
  obs::SpanTracer local;
  train.run(1.5, &local);
  spans.add("probe.train", "bench", 0, t0, now_s() - t0);
  // Every batch records all four spans, so the i-th of each belong together.
  const auto batch = durations(local, "train.batch");
  const auto fwd = durations(local, "train.forward");
  const auto bwd = durations(local, "train.backward");
  const auto step = durations(local, "train.step");
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    unattributed.push_back(1.0 - (fwd[i] + bwd[i] + step[i]) / batch[i]);
  }
  r.set("train.forward_ms", 1e3 * median(fwd), "ms");
  r.set("train.backward_ms", 1e3 * median(bwd), "ms");
  r.set("train.step_ms", 1e3 * median(step), "ms");
  r.set("train.unattributed_frac", median(unattributed), "frac");
}

}  // namespace

void probe_layers(const Options& options, obs::SpanTracer& spans, Result& result) {
  const int threads = ThreadPool::instance().size();
  ThreadPool::set_size(1);
  probe_model(options, spans, result);
  probe_kernels(options, spans, result);
  probe_obs(options, spans, result);
  probe_fleet(options, spans, result);
  probe_served(options, spans, result);
  probe_train(options, spans, result);
  ThreadPool::set_size(threads);
}

}  // namespace perfbench
