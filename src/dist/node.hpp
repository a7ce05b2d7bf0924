// The stateful hierarchy nodes — devices and edges, which cache their
// features for a later escalation — and the decoding every tier shares.
//
// Every tier executes its partition of the jointly-trained DDNN by calling
// the model's section API (core::DdnnModel::device_section_*, edge_section,
// cloud_section; the gateway and the cloud are stateless, so the runtime
// calls theirs directly), so the distributed execution is the SAME
// computation as the centralized forward pass — with the intermediate
// tensors round-tripped through the wire format in between (lossless for
// binarized features).
#pragma once

#include <optional>

#include "core/model.hpp"
#include "dist/message.hpp"

namespace ddnn::dist {

/// Shape of a single-sample device feature tensor under `cfg` (the raw view
/// shape when the device runs no NN blocks). Out-of-band wire knowledge:
/// both endpoints of a feature message derive it from the shared config.
Shape device_feature_shape(const core::DdnnConfig& cfg);
/// Shape of a single-sample edge feature tensor under `cfg`.
Shape edge_feature_shape(const core::DdnnConfig& cfg);

/// Section inputs decoded from per-branch messages of one shape: a missing
/// message is a zero tensor, masked out of the section's fusion.
struct SectionInputs {
  std::vector<core::Variable> values;
  std::vector<bool> active;
};
SectionInputs decode_inputs(const Messages& msgs, const Shape& shape);

/// An end device: senses one view, runs its trunk + local exit head.
class DeviceNode {
 public:
  /// `branch` is the model input branch this device drives.
  DeviceNode(int id, core::DdnnModel& model, int branch);

  int id() const { return id_; }
  bool failed() const { return failed_; }

  /// Marking a device failed clears its cached view and features: a device
  /// that comes back must sense() again before it can serve messages, so a
  /// failure can never silently serve pre-failure state.
  void set_failed(bool failed);

  /// Run the device NN section on a sensed view ([3, S, S]); caches the
  /// features for a later escalation. No-op when failed.
  void sense(const Tensor& view);

  /// Class-score message for the local aggregator (requires a local exit
  /// and a prior sense()).
  Message scores_message();

  /// Feature message for the tier above: bit-packed binary features, or the
  /// quantized raw image when the device runs no NN blocks (config (a)).
  Message feature_message() const;

  /// Quantized raw view for the graceful-degradation fallback: when no
  /// higher tier can be fed features, alive devices offload their raw
  /// images and the cloud runs the whole network (traditional offloading).
  Message raw_image_message() const;

 private:
  int id_;
  core::DdnnModel& model_;
  int branch_;
  bool failed_ = false;
  Tensor view_;                    // last sensed input (config (a) path)
  core::Variable features_;        // cached trunk output
};

/// An edge server handling one device group.
class EdgeNode {
 public:
  EdgeNode(std::size_t group, core::DdnnModel& model);

  /// Decode member feature messages, run the edge section. Caches features.
  /// Returns this edge's exit-score message.
  Message process(const Messages& member_features, std::int64_t batch);

  /// Bit-packed edge features for the cloud (requires a prior process()).
  Message feature_message() const;

 private:
  std::size_t group_;
  core::DdnnModel& model_;
  core::Variable features_;
};

}  // namespace ddnn::dist
