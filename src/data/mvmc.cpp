#include "data/mvmc.hpp"

#include <utility>

#include "util/error.hpp"

namespace ddnn::data {

std::vector<DeviceProfile> default_profiles(int num_devices) {
  // Quality increases with device index: device 0 is the weakest camera
  // (rarely sees the object, oblique, noisy), the last device has a clear
  // frontal view — mirroring the paper's Figure 8, where individual
  // accuracies spread from under 40% to over 70%.
  const std::vector<DeviceProfile> six = {
      {.presence_prob = 0.38,
       .noise_sigma = 0.50,
       .occlusion_prob = 0.55,
       .brightness_jitter = 0.25,
       .viewpoint = {.x_stretch = 0.50f,
                     .mirrored = true,
                     .background = {0.30f, 0.33f, 0.31f}}},
      {.presence_prob = 0.48,
       .noise_sigma = 0.40,
       .occlusion_prob = 0.45,
       .brightness_jitter = 0.20,
       .viewpoint = {.x_stretch = 0.62f,
                     .mirrored = false,
                     .background = {0.38f, 0.36f, 0.33f}}},
      {.presence_prob = 0.56,
       .noise_sigma = 0.32,
       .occlusion_prob = 0.36,
       .brightness_jitter = 0.15,
       .viewpoint = {.x_stretch = 0.72f,
                     .mirrored = true,
                     .background = {0.33f, 0.38f, 0.36f}}},
      {.presence_prob = 0.64,
       .noise_sigma = 0.25,
       .occlusion_prob = 0.28,
       .brightness_jitter = 0.12,
       .viewpoint = {.x_stretch = 0.85f,
                     .mirrored = false,
                     .background = {0.36f, 0.35f, 0.38f}}},
      {.presence_prob = 0.74,
       .noise_sigma = 0.18,
       .occlusion_prob = 0.18,
       .brightness_jitter = 0.10,
       .viewpoint = {.x_stretch = 0.92f,
                     .mirrored = true,
                     .background = {0.34f, 0.37f, 0.34f}}},
      {.presence_prob = 0.85,
       .noise_sigma = 0.12,
       .occlusion_prob = 0.10,
       .brightness_jitter = 0.06,
       .viewpoint = {.x_stretch = 1.00f,
                     .mirrored = false,
                     .background = {0.35f, 0.38f, 0.35f}}},
  };
  DDNN_CHECK(num_devices >= 1, "need at least one device");
  std::vector<DeviceProfile> out;
  for (int i = 0; i < num_devices; ++i) {
    out.push_back(six[static_cast<std::size_t>(i) % six.size()]);
  }
  return out;
}

namespace {

int sample_class(const std::vector<double>& prior, Rng& rng) {
  const double u = rng.uniform();
  double acc = 0.0;
  for (std::size_t c = 0; c < prior.size(); ++c) {
    acc += prior[c];
    if (u < acc) return static_cast<int>(c);
  }
  return static_cast<int>(prior.size()) - 1;
}

MvmcSample make_sample(const MvmcConfig& config,
                       const std::vector<DeviceProfile>& profiles,
                       const Tensor& blank, Rng& rng) {
  MvmcSample sample;
  sample.label = sample_class(config.class_prior, rng);
  const auto cls = static_cast<ObjectClass>(sample.label);
  const auto n = static_cast<std::size_t>(config.num_devices);

  // Presence per device; re-draw until at least one device sees the object
  // (the dataset is built from annotated bounding boxes, so every sample is
  // visible somewhere).
  sample.present.assign(n, false);
  bool any = false;
  while (!any) {
    for (std::size_t d = 0; d < n; ++d) {
      sample.present[d] = rng.bernoulli(profiles[d].presence_prob);
      any = any || sample.present[d];
    }
  }

  // One shared object scale and paint colour: all devices look at the same
  // physical object. Colour is random per object, so class identity is
  // carried by geometry rather than hue.
  const auto scale = static_cast<float>(rng.uniform(0.8, 1.25));
  const Color body{static_cast<float>(rng.uniform(0.25, 0.95)),
                   static_cast<float>(rng.uniform(0.25, 0.95)),
                   static_cast<float>(rng.uniform(0.25, 0.95))};

  sample.views.reserve(n);
  for (std::size_t d = 0; d < n; ++d) {
    const DeviceProfile& p = profiles[d];
    if (!sample.present[d]) {
      sample.views.push_back(blank);
      continue;
    }
    Canvas canvas(config.image_size);
    render_background(canvas, p.viewpoint, rng);
    render_object(canvas, cls, p.viewpoint, scale, body, rng);
    if (rng.bernoulli(p.occlusion_prob)) render_occlusion(canvas, rng);
    canvas.scale_brightness(static_cast<float>(
        rng.uniform(1.0 - p.brightness_jitter, 1.0 + p.brightness_jitter)));
    canvas.add_noise(rng, static_cast<float>(p.noise_sigma));
    canvas.clip();
    sample.views.push_back(std::move(canvas).take());
  }
  return sample;
}

}  // namespace

MvmcDataset MvmcDataset::generate(const MvmcConfig& config) {
  DDNN_CHECK(config.num_devices >= 1, "num_devices must be >= 1");
  DDNN_CHECK(config.num_classes == 3,
             "SynthMVMC renders exactly the paper's 3 classes");
  DDNN_CHECK(static_cast<int>(config.class_prior.size()) == config.num_classes,
             "class_prior size mismatch");

  MvmcDataset ds;
  ds.config_ = config;
  if (ds.config_.profiles.empty()) {
    ds.config_.profiles = default_profiles(config.num_devices);
  }
  DDNN_CHECK(static_cast<int>(ds.config_.profiles.size()) ==
                 config.num_devices,
             "profiles size mismatch");

  // Every absent view shares this one read-only frame.
  const Tensor blank = blank_frame(config.image_size);
  Rng root(config.seed);
  // Each sample gets a forked sub-stream: inserting/removing samples or
  // changing one sample's content never perturbs the others.
  ds.train_.reserve(static_cast<std::size_t>(config.train_samples));
  for (int i = 0; i < config.train_samples; ++i) {
    Rng sub = root.fork();
    ds.train_.push_back(
        make_sample(ds.config_, ds.config_.profiles, blank, sub));
  }
  ds.test_.reserve(static_cast<std::size_t>(config.test_samples));
  for (int i = 0; i < config.test_samples; ++i) {
    Rng sub = root.fork();
    ds.test_.push_back(
        make_sample(ds.config_, ds.config_.profiles, blank, sub));
  }
  return ds;
}

Table MvmcDataset::distribution_table() const {
  Table table({"Device", "Car", "Bus", "Person", "Not-present", "Total"});
  for (int d = 0; d < config_.num_devices; ++d) {
    std::vector<std::int64_t> counts(
        static_cast<std::size_t>(config_.num_classes), 0);
    std::int64_t absent = 0;
    for (const auto& s : train_) {
      if (s.present[static_cast<std::size_t>(d)]) {
        ++counts[static_cast<std::size_t>(s.label)];
      } else {
        ++absent;
      }
    }
    table.add_row({std::to_string(d + 1), std::to_string(counts[0]),
                   std::to_string(counts[1]), std::to_string(counts[2]),
                   std::to_string(absent),
                   std::to_string(static_cast<std::int64_t>(train_.size()))});
  }
  return table;
}

std::string class_name(int label) {
  switch (label) {
    case 0: return "car";
    case 1: return "bus";
    case 2: return "person";
    default: return "unknown";
  }
}

}  // namespace ddnn::data
