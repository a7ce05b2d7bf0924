#include "core/model.hpp"

#include "autograd/grad_mode.hpp"
#include "autograd/ops.hpp"
#include "infer/engine.hpp"
#include "obs/profile.hpp"
#include "infer/workspace.hpp"
#include "util/error.hpp"

namespace ddnn::core {

namespace {

/// True when a section should run on the inference engine: the plan engine
/// is selected, the module is in eval mode, and no caller expects a tape.
/// Training or NoGradGuard-less callers always get the autograd path, so
/// gradients can never silently vanish.
bool plan_engine_active(const nn::Module& m) {
  return infer::engine_kind() == infer::EngineKind::kPlan && !m.training() &&
         !autograd::grad_enabled();
}

/// [N, ...] -> [N, prod] view (engine counterpart of autograd::flatten2d).
Tensor flatten2d_view(const Tensor& t) {
  const std::int64_t n = t.dim(0);
  return t.reshape(Shape{n, t.numel() / n});
}

/// Activity mask as a plan signature ("1011"): masked sections get their
/// own cached memory plan per active subset.
std::string mask_sig(const std::vector<bool>& active) {
  std::string s;
  s.reserve(active.size());
  for (bool a : active) s += a ? '1' : '0';
  return s;
}

std::vector<Tensor> values_of(const std::vector<nn::Variable>& vars) {
  std::vector<Tensor> out;
  out.reserve(vars.size());
  for (const auto& v : vars) out.push_back(v.value());
  return out;
}

}  // namespace

DdnnModel::DdnnModel(DdnnConfig config) : config_(std::move(config)) {
  config_.validate();
  Rng rng(config_.init_seed);
  const int n_dev = config_.num_devices;

  // ---------------------------------------------------------- device tier
  std::int64_t dev_channels = config_.input_channels;
  for (int d = 0; d < n_dev; ++d) {
    auto trunk = std::make_unique<nn::Sequential>();
    std::int64_t ch = config_.input_channels;
    for (int b = 0; b < config_.device_conv_blocks; ++b) {
      if (config_.float_devices) {
        trunk->emplace<nn::FloatConvPBlock>(ch, config_.device_filters, rng);
      } else {
        trunk->emplace<nn::ConvPBlock>(ch, config_.device_filters, rng);
      }
      ch = config_.device_filters;
    }
    dev_channels = ch;
    add_child("device" + std::to_string(d), trunk.get());
    device_trunks_.push_back(std::move(trunk));
    device_trunk_ids_.push_back(infer::next_section_id());
  }

  if (config_.has_local_exit) {
    const std::int64_t s = config_.device_out_size();
    const std::int64_t head_in = config_.device_filters * s * s;
    for (int d = 0; d < n_dev; ++d) {
      auto head = std::make_unique<nn::Sequential>();
      if (config_.float_devices) {
        head->emplace<nn::FloatFCBlock>(head_in, config_.num_classes, rng,
                                        /*relu_output=*/false);
      } else {
        head->emplace<nn::FCBlock>(head_in, config_.num_classes, rng,
                                   /*binary_output=*/false);
      }
      add_child("device_head" + std::to_string(d), head.get());
      device_heads_.push_back(std::move(head));
      device_head_ids_.push_back(infer::next_section_id());
    }
    local_agg_ = std::make_unique<VectorAggregator>(
        config_.local_agg, n_dev, config_.num_classes, rng);
    add_child("local_agg", local_agg_.get());
    local_agg_id_ = infer::next_section_id();
  }

  // ------------------------------------------------------------ edge tier
  std::int64_t cloud_in_channels = dev_channels;
  std::int64_t cloud_in_size = config_.device_out_size();
  if (config_.has_edge()) {
    for (std::size_t g = 0; g < config_.edge_groups.size(); ++g) {
      const auto members = static_cast<int>(config_.edge_groups[g].size());
      auto in_agg = std::make_unique<FeatureMapAggregator>(
          config_.edge_agg, members, dev_channels, rng);
      add_child("edge_in_agg" + std::to_string(g), in_agg.get());
      edge_in_aggs_.push_back(std::move(in_agg));

      auto trunk = std::make_unique<nn::Sequential>();
      std::int64_t ch = dev_channels;
      for (int b = 0; b < config_.edge_conv_blocks; ++b) {
        trunk->emplace<nn::ConvPBlock>(ch, config_.edge_filters, rng);
        ch = config_.edge_filters;
      }
      add_child("edge" + std::to_string(g), trunk.get());
      edge_trunks_.push_back(std::move(trunk));

      const std::int64_t s = config_.edge_out_size();
      auto head = std::make_unique<nn::FCBlock>(
          config_.edge_filters * s * s, config_.num_classes, rng,
          /*binary_output=*/false);
      add_child("edge_head" + std::to_string(g), head.get());
      edge_heads_.push_back(std::move(head));
      edge_ids_.push_back(infer::next_section_id());
    }
    if (config_.edge_groups.size() > 1) {
      edge_exit_agg_ = std::make_unique<VectorAggregator>(
          config_.local_agg, static_cast<int>(config_.edge_groups.size()),
          config_.num_classes, rng);
      add_child("edge_exit_agg", edge_exit_agg_.get());
      edge_exit_id_ = infer::next_section_id();
    }
    cloud_in_channels = config_.edge_filters;
    cloud_in_size = config_.edge_out_size();
  }

  // ----------------------------------------------------------- cloud tier
  const int cloud_branches = config_.has_edge()
                                 ? static_cast<int>(config_.edge_groups.size())
                                 : n_dev;
  cloud_agg_ = std::make_unique<FeatureMapAggregator>(
      config_.cloud_agg, cloud_branches, cloud_in_channels, rng);
  add_child("cloud_agg", cloud_agg_.get());

  // The cloud section is one pipeline: ConvP chain -> flatten -> optional
  // hidden FC block -> exit head. All blocks are binary by default; with
  // config.float_cloud they are full-precision (the paper's mixed-precision
  // future-work variant) while the device/edge tiers stay binary.
  cloud_trunk_ = std::make_unique<nn::Sequential>();
  std::int64_t ch = cloud_in_channels;
  std::int64_t spatial = cloud_in_size;
  for (int f : config_.cloud_filters) {
    if (config_.float_cloud) {
      cloud_trunk_->emplace<nn::FloatConvPBlock>(ch, f, rng);
    } else {
      cloud_trunk_->emplace<nn::ConvPBlock>(ch, f, rng);
    }
    ch = f;
    spatial /= 2;
  }
  cloud_trunk_->emplace<nn::Flatten>();
  std::int64_t head_in = ch * spatial * spatial;
  if (config_.cloud_fc_nodes > 0) {
    if (config_.float_cloud) {
      cloud_trunk_->emplace<nn::FloatFCBlock>(head_in, config_.cloud_fc_nodes,
                                              rng, /*relu_output=*/true);
    } else {
      cloud_trunk_->emplace<nn::FCBlock>(head_in, config_.cloud_fc_nodes, rng,
                                         /*binary_output=*/true);
    }
    head_in = config_.cloud_fc_nodes;
  }
  if (config_.float_cloud) {
    cloud_trunk_->emplace<nn::FloatFCBlock>(head_in, config_.num_classes, rng,
                                            /*relu_output=*/false);
  } else {
    cloud_trunk_->emplace<nn::FCBlock>(head_in, config_.num_classes, rng,
                                       /*binary_output=*/false);
  }
  add_child("cloud", cloud_trunk_.get());
  cloud_id_ = infer::next_section_id();
}

DdnnModel::~DdnnModel() {
  std::vector<int> ids = device_trunk_ids_;
  ids.insert(ids.end(), device_head_ids_.begin(), device_head_ids_.end());
  ids.insert(ids.end(), edge_ids_.begin(), edge_ids_.end());
  ids.insert(ids.end(), {local_agg_id_, edge_exit_id_, cloud_id_});
  infer::retire_section_ids(ids);
}

DdnnOutputs DdnnModel::forward(const std::vector<Variable>& views) {
  return forward(views, std::vector<bool>(views.size(), true));
}

DdnnOutputs DdnnModel::forward(const std::vector<Variable>& views,
                               const std::vector<bool>& active) {
  const auto n_dev = static_cast<std::size_t>(config_.num_devices);
  DDNN_CHECK(views.size() == n_dev, "expected " << n_dev << " views, got "
                                                << views.size());
  DDNN_CHECK(active.size() == n_dev, "activity mask size mismatch");

  DdnnOutputs out;

  // Device sections run on every active device; an inactive (failed) device
  // contributes nothing anywhere.
  out.device_features.resize(n_dev);
  for (std::size_t d = 0; d < n_dev; ++d) {
    if (!active[d]) continue;
    out.device_features[d] =
        device_section_features(static_cast<int>(d), views[d]);
  }
  // Inactive devices still need placeholder tensors of the right shape for
  // the aggregators' zero-fill path; use the first active device's shape.
  Shape feature_shape;
  for (std::size_t d = 0; d < n_dev; ++d) {
    if (out.device_features[d].defined()) {
      feature_shape = out.device_features[d].shape();
      break;
    }
  }
  DDNN_CHECK(feature_shape.ndim() == 4, "all devices inactive");
  for (std::size_t d = 0; d < n_dev; ++d) {
    if (!out.device_features[d].defined()) {
      out.device_features[d] = Variable(Tensor::zeros(feature_shape));
    }
  }

  // Local exit: per-device class scores fused by the local aggregator.
  if (config_.has_local_exit) {
    out.device_logits.resize(n_dev);
    for (std::size_t d = 0; d < n_dev; ++d) {
      out.device_logits[d] =
          device_section_logits(static_cast<int>(d), out.device_features[d]);
    }
    out.exit_logits.push_back(local_aggregate(out.device_logits, active));
  }

  // Edge tier.
  std::vector<Variable> cloud_branches;
  std::vector<bool> cloud_active;
  if (config_.has_edge()) {
    std::vector<Variable> edge_logits;
    std::vector<bool> edge_active;
    for (std::size_t g = 0; g < config_.edge_groups.size(); ++g) {
      const auto& members = config_.edge_groups[g];
      std::vector<Variable> feats;
      std::vector<bool> mask;
      bool any = false;
      for (int d : members) {
        feats.push_back(out.device_features[static_cast<std::size_t>(d)]);
        mask.push_back(active[static_cast<std::size_t>(d)]);
        any = any || active[static_cast<std::size_t>(d)];
      }
      edge_active.push_back(any);
      if (!any) {
        // Whole group down: placeholder features/logits, masked out below.
        const std::int64_t s = config_.edge_out_size();
        edge_logits.push_back(Variable(Tensor::zeros(
            Shape{feature_shape[0], config_.num_classes})));
        out.edge_features.push_back(Variable(Tensor::zeros(
            Shape{feature_shape[0], config_.edge_filters, s, s})));
        continue;
      }
      const EdgeResult edge = edge_section(g, feats, mask);
      out.edge_features.push_back(edge.features);
      edge_logits.push_back(edge.logits);
    }
    out.exit_logits.push_back(edge_exit_aggregate(edge_logits, edge_active));
    cloud_branches = out.edge_features;
    cloud_active = edge_active;
  } else {
    cloud_branches = out.device_features;
    cloud_active = active;
  }

  // Cloud tier.
  out.exit_logits.push_back(cloud_section(cloud_branches, cloud_active));

  DDNN_CHECK(static_cast<int>(out.exit_logits.size()) == config_.num_exits(),
             "exit count mismatch");
  return out;
}

Variable DdnnModel::device_section_features(int device, const Variable& view) {
  DDNN_PROF_SCOPE("device_section");
  DDNN_CHECK(device >= 0 && device < config_.num_devices,
             "device index out of range");
  DDNN_CHECK(view.value().ndim() == 4 &&
                 view.dim(1) == config_.input_channels &&
                 view.dim(2) == config_.input_size &&
                 view.dim(3) == config_.input_size,
             "bad view shape for device " << device << ": "
                                          << view.shape().to_string());
  auto& trunk = *device_trunks_[static_cast<std::size_t>(device)];
  if (plan_engine_active(*this)) {
    auto outs = infer::run_section(
        {infer::SectionTier::kDevice,
         device_trunk_ids_[static_cast<std::size_t>(device)], "device_trunk"},
        {view.value()}, /*extra_sig=*/"",
        [&](const std::vector<Tensor>& in, infer::Workspace& ws) {
          return std::vector<Tensor>{trunk.infer(in[0], ws)};
        });
    return Variable(std::move(outs[0]));
  }
  return trunk.forward(view);
}

Variable DdnnModel::device_section_logits(int device,
                                          const Variable& features) {
  DDNN_PROF_SCOPE("local_exit_head");
  DDNN_CHECK(config_.has_local_exit, "model has no local exit");
  DDNN_CHECK(device >= 0 && device < config_.num_devices,
             "device index out of range");
  auto& head = *device_heads_[static_cast<std::size_t>(device)];
  if (plan_engine_active(*this)) {
    auto outs = infer::run_section(
        {infer::SectionTier::kDevice,
         device_head_ids_[static_cast<std::size_t>(device)], "device_head"},
        {features.value()}, /*extra_sig=*/"",
        [&](const std::vector<Tensor>& in, infer::Workspace& ws) {
          return std::vector<Tensor>{head.infer(flatten2d_view(in[0]), ws)};
        });
    return Variable(std::move(outs[0]));
  }
  return head.forward(autograd::flatten2d(features));
}

Variable DdnnModel::local_aggregate(const std::vector<Variable>& device_logits,
                                    const std::vector<bool>& active) {
  DDNN_CHECK(config_.has_local_exit, "model has no local exit");
  if (plan_engine_active(*this)) {
    auto outs = infer::run_section(
        {infer::SectionTier::kDevice, local_agg_id_, "local_agg"},
        values_of(device_logits), mask_sig(active),
        [&](const std::vector<Tensor>& in, infer::Workspace& ws) {
          return std::vector<Tensor>{local_agg_->infer(in, active, ws)};
        });
    return Variable(std::move(outs[0]));
  }
  return local_agg_->forward(device_logits, active);
}

DdnnModel::EdgeResult DdnnModel::edge_section(
    std::size_t group, const std::vector<Variable>& member_features,
    const std::vector<bool>& member_active) {
  DDNN_PROF_SCOPE("edge_section");
  DDNN_CHECK(group < config_.edge_groups.size(), "edge group out of range");
  if (plan_engine_active(*this)) {
    auto outs = infer::run_section(
        {infer::SectionTier::kEdge, edge_ids_[group], "edge_section"},
        values_of(member_features), mask_sig(member_active),
        [&](const std::vector<Tensor>& in, infer::Workspace& ws) {
          const Tensor fused =
              edge_in_aggs_[group]->infer(in, member_active, ws);
          const Tensor features = edge_trunks_[group]->infer(fused, ws);
          const Tensor logits =
              edge_heads_[group]->infer(flatten2d_view(features), ws);
          return std::vector<Tensor>{features, logits};
        });
    return {Variable(std::move(outs[0])), Variable(std::move(outs[1]))};
  }
  const Variable fused =
      edge_in_aggs_[group]->forward(member_features, member_active);
  const Variable features = edge_trunks_[group]->forward(fused);
  const Variable logits =
      edge_heads_[group]->forward(autograd::flatten2d(features));
  return {features, logits};
}

Variable DdnnModel::edge_exit_aggregate(
    const std::vector<Variable>& edge_logits,
    const std::vector<bool>& edge_active) {
  DDNN_CHECK(config_.has_edge(), "model has no edge tier");
  if (edge_exit_agg_) {
    if (plan_engine_active(*this)) {
      auto outs = infer::run_section(
          {infer::SectionTier::kEdge, edge_exit_id_, "edge_exit_agg"},
          values_of(edge_logits), mask_sig(edge_active),
          [&](const std::vector<Tensor>& in, infer::Workspace& ws) {
            return std::vector<Tensor>{
                edge_exit_agg_->infer(in, edge_active, ws)};
          });
      return Variable(std::move(outs[0]));
    }
    return edge_exit_agg_->forward(edge_logits, edge_active);
  }
  DDNN_CHECK(edge_logits.size() == 1 && edge_active[0],
             "single edge group entirely failed");
  return edge_logits[0];
}

Variable DdnnModel::cloud_section(const std::vector<Variable>& branches,
                                  const std::vector<bool>& active) {
  DDNN_PROF_SCOPE("cloud_section");
  if (plan_engine_active(*this)) {
    auto outs = infer::run_section(
        {infer::SectionTier::kCloud, cloud_id_, "cloud_section"},
        values_of(branches), mask_sig(active),
        [&](const std::vector<Tensor>& in, infer::Workspace& ws) {
          const Tensor fused = cloud_agg_->infer(in, active, ws);
          return std::vector<Tensor>{cloud_trunk_->infer(fused, ws)};
        });
    return Variable(std::move(outs[0]));
  }
  return cloud_trunk_->forward(cloud_agg_->forward(branches, active));
}

std::vector<std::string> DdnnModel::exit_names() const {
  std::vector<std::string> names;
  if (config_.has_local_exit) names.push_back("local");
  if (config_.has_edge()) names.push_back("edge");
  names.push_back("cloud");
  return names;
}

std::int64_t DdnnModel::device_memory_bytes() const {
  if (config_.device_conv_blocks == 0) return 0;
  std::int64_t bytes = 0;
  // All devices are structurally identical; report device 0.
  // ConvP blocks: binary conv weights + batch-norm floats.
  std::int64_t ch = config_.input_channels;
  for (int b = 0; b < config_.device_conv_blocks; ++b) {
    const std::int64_t weights = config_.device_filters * ch * 3 * 3;
    bytes += (weights + 7) / 8 + 4 * 4 * config_.device_filters;
    ch = config_.device_filters;
  }
  if (config_.has_local_exit) {
    const std::int64_t s = config_.device_out_size();
    const std::int64_t weights =
        config_.device_filters * s * s * config_.num_classes;
    bytes += (weights + 7) / 8 + 4 * 4 * config_.num_classes;
  }
  return bytes;
}

IndividualModel::IndividualModel(std::int64_t input_channels,
                                 std::int64_t input_size, int filters,
                                 int num_classes, std::uint64_t init_seed) {
  Rng rng(init_seed);
  conv_ = std::make_unique<nn::ConvPBlock>(input_channels, filters, rng);
  const std::int64_t s = input_size / 2;
  head_ = std::make_unique<nn::FCBlock>(filters * s * s, num_classes, rng,
                                        /*binary_output=*/false);
  add_child("conv", conv_.get());
  add_child("head", head_.get());
  section_id_ = infer::next_section_id();
}

IndividualModel::~IndividualModel() {
  infer::retire_section_ids({section_id_});
}

Variable IndividualModel::forward(const Variable& views) {
  if (plan_engine_active(*this)) {
    auto outs = infer::run_section(
        {infer::SectionTier::kDevice, section_id_, "individual_model"},
        {views.value()}, /*extra_sig=*/"",
        [&](const std::vector<Tensor>& in, infer::Workspace& ws) {
          const Tensor features = conv_->infer(in[0], ws);
          return std::vector<Tensor>{head_->infer(flatten2d_view(features), ws)};
        });
    return Variable(std::move(outs[0]));
  }
  return head_->forward(autograd::flatten2d(conv_->forward(views)));
}

std::int64_t IndividualModel::memory_bytes() const {
  return conv_->inference_memory_bytes() + head_->inference_memory_bytes();
}

}  // namespace ddnn::core
