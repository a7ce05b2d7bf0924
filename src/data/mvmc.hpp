// SynthMVMC: procedural stand-in for the paper's multi-view multi-camera
// dataset (Roig et al. [18]; processed version distributed as MVMC.npz).
//
// The real dataset is offline-unavailable; this generator reproduces the
// properties the DDNN evaluation depends on (see DESIGN.md §1):
//   * six devices observe the SAME object instance from different viewpoints,
//   * devices differ in visibility (presence probability) and quality (noise,
//     occlusion), producing the paper's wide spread of individual accuracies,
//   * absent objects are an all-grey frame, labelled "not present" (-1 in the
//     paper; a `present` flag here), excluded from individual-model training,
//   * 3 classes (car / bus / person) with an imbalanced distribution,
//   * 680 training and 171 test samples of 3x32x32 RGB per device.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/renderer.hpp"
#include "tensor/tensor.hpp"
#include "util/table.hpp"

namespace ddnn::data {

/// Per-device acquisition characteristics. Together these determine the
/// device's standalone ("individual") accuracy: low presence and high
/// noise/occlusion -> weak device.
struct DeviceProfile {
  /// P(object appears in this device's frame).
  double presence_prob = 0.7;
  /// Additive Gaussian pixel noise.
  double noise_sigma = 0.1;
  /// P(a grey occluder covers part of the frame).
  double occlusion_prob = 0.2;
  /// Brightness jitter half-range (multiplicative, around 1).
  double brightness_jitter = 0.1;
  Viewpoint viewpoint{};
};

struct MvmcConfig {
  int num_devices = 6;
  int num_classes = 3;
  std::int64_t image_size = 32;
  int train_samples = 680;  // split used by the paper (Section IV-B)
  int test_samples = 171;
  std::uint64_t seed = 42;
  /// Class prior over {car, bus, person}; the paper's dataset is imbalanced.
  std::vector<double> class_prior{0.30, 0.20, 0.50};
  /// One per device; when empty, default_profiles(num_devices) is used.
  std::vector<DeviceProfile> profiles{};
};

/// One synchronized multi-view sample: the same object seen by all devices.
struct MvmcSample {
  /// Per device: [3, size, size]. Every absent view of a dataset shares
  /// one blank frame's storage, so views are read-only.
  std::vector<Tensor> views;
  std::vector<bool> present;  // per device: object visible in that frame?
  int label = 0;              // 0 = car, 1 = bus, 2 = person
};

/// Default device profiles, ordered roughly worst to best so the paper's
/// Figure 8 ordering (devices sorted by individual accuracy) is natural.
std::vector<DeviceProfile> default_profiles(int num_devices);

class MvmcDataset {
 public:
  /// Deterministically generate the dataset for `config` (same config ->
  /// bit-identical samples).
  static MvmcDataset generate(const MvmcConfig& config);

  const MvmcConfig& config() const { return config_; }
  int num_devices() const { return config_.num_devices; }
  int num_classes() const { return config_.num_classes; }

  const std::vector<MvmcSample>& train() const { return train_; }
  const std::vector<MvmcSample>& test() const { return test_; }

  /// Per-device class distribution of the training split (paper Figure 6):
  /// columns Person / Bus / Car / Not-present.
  Table distribution_table() const;

 private:
  MvmcConfig config_;
  std::vector<MvmcSample> train_;
  std::vector<MvmcSample> test_;
};

/// Human-readable class name ("car" / "bus" / "person").
std::string class_name(int label);

}  // namespace ddnn::data
