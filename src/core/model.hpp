// The DDNN model: one DNN with per-device sections, optional per-edge
// sections, a cloud section, aggregators at each physical boundary, and an
// exit point per tier (paper Figures 2 and 4).
//
// Device section  (per device):  ConvP blocks (binary)  -> feature map
// Local exit      (per device):  flatten -> FC block    -> class scores,
//                                fused by the local aggregator
// Edge section    (per edge):    aggregate member device features ->
//                                ConvP blocks -> edge exit head + features
// Cloud section:                 aggregate device/edge features ->
//                                ConvP chain -> FC block(s) -> cloud exit
//
// The same module is used for training (joint multi-exit loss) and for
// centralized inference; src/dist runs the identical partitions on simulated
// nodes and must produce bit-identical results (tested).
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "nn/blocks.hpp"

namespace ddnn::core {

using nn::Variable;

/// Everything a forward pass produces, exposed for inference, the
/// distributed runtime and tests.
struct DdnnOutputs {
  /// Per-device class scores feeding the local aggregator ([B, C] each);
  /// empty when the config has no local exit.
  std::vector<Variable> device_logits;
  /// Per-device output feature maps ([B, f, s, s]); raw input views when the
  /// device runs no NN blocks (configuration (a)).
  std::vector<Variable> device_features;
  /// Per-edge output feature maps (empty without an edge tier).
  std::vector<Variable> edge_features;
  /// Logits at each exit point, ordered local -> edge -> cloud. The last
  /// entry is always the cloud exit.
  std::vector<Variable> exit_logits;
};

class DdnnModel : public nn::Module {
 public:
  explicit DdnnModel(DdnnConfig config);
  /// Retires this model's section ids: each thread frees their plan
  /// arenas at its next plan miss.
  ~DdnnModel() override;

  /// Forward with all devices healthy.
  DdnnOutputs forward(const std::vector<Variable>& views);

  /// Forward with an activity mask (failed devices are dropped at every
  /// aggregation point; at least one device must be active).
  DdnnOutputs forward(const std::vector<Variable>& views,
                      const std::vector<bool>& active);

  const DdnnConfig& config() const { return config_; }

  /// Names of the exit points in exit_logits order ("local", "edge",
  /// "cloud").
  std::vector<std::string> exit_names() const;

  // ---------------------------------------------------------------------
  // Partition-execution API. The distributed runtime (src/dist) executes
  // each hierarchy tier on its own simulated node by calling these section
  // methods; forward() is implemented in terms of them, so centralized and
  // distributed inference run identical code paths.
  // ---------------------------------------------------------------------

  /// Device d's trunk: view [B, C_in, S, S] -> feature map (identity when
  /// the device runs no NN blocks, configuration (a)).
  Variable device_section_features(int device, const Variable& view);

  /// Device d's local-exit head: feature map -> class scores [B, C].
  /// Requires has_local_exit.
  Variable device_section_logits(int device, const Variable& features);

  /// Local aggregator over per-device class scores.
  Variable local_aggregate(const std::vector<Variable>& device_logits,
                           const std::vector<bool>& active);

  struct EdgeResult {
    Variable features;  // forwarded to the cloud
    Variable logits;    // this edge's exit scores
  };

  /// Edge group g: aggregate member-device features, run the edge trunk and
  /// exit head. `member_features` / `member_active` are in edge_groups[g]
  /// order.
  EdgeResult edge_section(std::size_t group,
                          const std::vector<Variable>& member_features,
                          const std::vector<bool>& member_active);

  /// Fuse per-edge exit scores into the edge-exit decision (identity for a
  /// single edge group).
  Variable edge_exit_aggregate(const std::vector<Variable>& edge_logits,
                               const std::vector<bool>& edge_active);

  /// Cloud: aggregate incoming branches (device features, or edge features
  /// when an edge tier exists), run the cloud trunk and exit head.
  Variable cloud_section(const std::vector<Variable>& branches,
                         const std::vector<bool>& active);

  /// Inference-time memory footprint of one device's NN section in bytes
  /// (bit-packed binary weights + batch-norm floats). The paper reports
  /// "under 2 KB" for all evaluated filter counts (Section IV-F).
  std::int64_t device_memory_bytes() const;

 private:
  DdnnConfig config_;

  // Per-device trunk + local exit head.
  std::vector<std::unique_ptr<nn::Sequential>> device_trunks_;
  // Heads are single-stage Sequentials so binary (FCBlock) and float
  // (FloatFCBlock) exit heads share one type.
  std::vector<std::unique_ptr<nn::Sequential>> device_heads_;
  std::unique_ptr<VectorAggregator> local_agg_;

  // Per-edge-group sections.
  std::vector<std::unique_ptr<FeatureMapAggregator>> edge_in_aggs_;
  std::vector<std::unique_ptr<nn::Sequential>> edge_trunks_;
  std::vector<std::unique_ptr<nn::FCBlock>> edge_heads_;
  std::unique_ptr<VectorAggregator> edge_exit_agg_;  // >1 edge groups only

  // Cloud section: ConvP chain -> flatten -> optional FC block -> exit head
  // (binary by default, float with config.float_cloud).
  std::unique_ptr<FeatureMapAggregator> cloud_agg_;
  std::unique_ptr<nn::Sequential> cloud_trunk_;

  // Process-unique plan-engine section ids (infer::next_section_id); each
  // keys that section's memory-plan cache in the per-thread workspaces and
  // is retired by the destructor. A scalar id stays -1 when its section
  // is absent.
  std::vector<int> device_trunk_ids_;
  std::vector<int> device_head_ids_;
  int local_agg_id_ = -1;
  std::vector<int> edge_ids_;
  int edge_exit_id_ = -1;
  int cloud_id_ = -1;
};

/// Standalone single-device model for the paper's "Individual Accuracy"
/// baseline (Section III-F): one ConvP block followed by an FC block,
/// trained separately from the DDNN on that device's visible samples only.
class IndividualModel : public nn::Module {
 public:
  IndividualModel(std::int64_t input_channels, std::int64_t input_size,
                  int filters, int num_classes, std::uint64_t init_seed);
  ~IndividualModel() override;

  /// Class scores [B, C] for views [B, C_in, S, S].
  Variable forward(const Variable& views);

  std::int64_t memory_bytes() const;

 private:
  std::unique_ptr<nn::ConvPBlock> conv_;
  std::unique_ptr<nn::FCBlock> head_;
  int section_id_ = -1;
};

}  // namespace ddnn::core
