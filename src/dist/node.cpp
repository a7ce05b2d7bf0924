#include "dist/node.hpp"

#include "autograd/grad_mode.hpp"
#include "util/error.hpp"

namespace ddnn::dist {

using core::DdnnConfig;
using core::Variable;

/// Shape of a single-sample device feature tensor under `cfg`.
Shape device_feature_shape(const DdnnConfig& cfg) {
  if (cfg.device_conv_blocks == 0) {
    return Shape{1, cfg.input_channels, cfg.input_size, cfg.input_size};
  }
  const std::int64_t s = cfg.device_out_size();
  return Shape{1, cfg.device_filters, s, s};
}

Shape edge_feature_shape(const DdnnConfig& cfg) {
  const std::int64_t s = cfg.edge_out_size();
  return Shape{1, cfg.edge_filters, s, s};
}

DeviceNode::DeviceNode(int id, core::DdnnModel& model, int branch)
    : id_(id), model_(model), branch_(branch) {
  DDNN_CHECK(branch >= 0 && branch < model.config().num_devices,
             "branch out of range");
}

void DeviceNode::set_failed(bool failed) {
  failed_ = failed;
  if (failed_) {
    // Drop cached state so a later recovery cannot serve pre-failure data:
    // the accessors DDNN_CHECK on undefined tensors until the next sense().
    view_ = Tensor();
    features_ = Variable();
  }
}

void DeviceNode::sense(const Tensor& view) {
  if (failed_) return;
  DDNN_CHECK(view.ndim() == 3, "sense expects a single [C, S, S] view");
  autograd::NoGradGuard no_grad;
  view_ = view;
  const Variable input(view.reshape(
      Shape{1, view.dim(0), view.dim(1), view.dim(2)}));
  if (model_.config().device_conv_blocks == 0) {
    features_ = input;  // raw offload: no on-device NN blocks
  } else {
    features_ = model_.device_section_features(branch_, input);
  }
}

Message DeviceNode::scores_message() {
  DDNN_CHECK(!failed_, "failed device asked for scores");
  DDNN_CHECK(features_.defined(), "scores_message before sense()");
  autograd::NoGradGuard no_grad;
  const Variable logits = model_.device_section_logits(branch_, features_);
  return encode_class_scores(logits.value());
}

Message DeviceNode::feature_message() const {
  DDNN_CHECK(!failed_, "failed device asked for features");
  DDNN_CHECK(features_.defined(), "feature_message before sense()");
  if (model_.config().device_conv_blocks == 0) {
    return encode_raw_image(view_);
  }
  return encode_binary_feature_map(features_.value());
}

Message DeviceNode::raw_image_message() const {
  DDNN_CHECK(!failed_, "failed device asked for its raw view");
  DDNN_CHECK(view_.defined(), "raw_image_message before sense()");
  return encode_raw_image(view_);
}

SectionInputs decode_inputs(const Messages& msgs, const Shape& shape) {
  SectionInputs in;
  for (const auto& msg : msgs) {
    in.values.emplace_back(msg.has_value() ? decode_features(*msg, shape)
                                           : Tensor::zeros(shape));
    in.active.push_back(msg.has_value());
  }
  return in;
}

EdgeNode::EdgeNode(std::size_t group, core::DdnnModel& model)
    : group_(group), model_(model) {
  DDNN_CHECK(model.config().has_edge(), "edge node without an edge tier");
  DDNN_CHECK(group < model.config().edge_groups.size(),
             "edge group out of range");
}

Message EdgeNode::process(const Messages& member_features,
                          std::int64_t batch) {
  DDNN_CHECK(batch == 1, "the simulated runtime classifies one sample at a time");
  autograd::NoGradGuard no_grad;
  const auto in =
      decode_inputs(member_features, device_feature_shape(model_.config()));
  const auto result = model_.edge_section(group_, in.values, in.active);
  features_ = result.features;
  return encode_class_scores(result.logits.value());
}

Message EdgeNode::feature_message() const {
  DDNN_CHECK(features_.defined(), "feature_message before process()");
  return encode_binary_feature_map(features_.value());
}

}  // namespace ddnn::dist
