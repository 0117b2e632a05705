// Loader for the original CIFAR-10 / CIFAR-100 binary format
// (https://www.cs.toronto.edu/~kriz/cifar.html). When the binary files are
// present on disk the experiment drivers use the real data; otherwise they
// fall back to SyntheticCifar (see data/synthetic_cifar.h).
//
// CIFAR-10 record:  <1 x label><3072 x pixel>      (6 files x 10000 records)
// CIFAR-100 record: <1 x coarse><1 x fine><3072 x pixel>
#pragma once

#include <string>
#include <vector>

#include "data/dataset.h"

namespace fitact::data {

class CifarBinary final : public Dataset {
 public:
  /// Load from explicit .bin file paths. `fine_labels` selects the
  /// CIFAR-100 record layout. Pixel values are scaled to [0,1] and
  /// standardised per channel with the canonical CIFAR statistics.
  CifarBinary(const std::vector<std::string>& files, std::int64_t num_classes,
              bool fine_labels);

  [[nodiscard]] std::int64_t size() const override {
    return static_cast<std::int64_t>(labels_.size());
  }
  [[nodiscard]] std::int64_t num_classes() const override {
    return num_classes_;
  }

  void image_into(std::int64_t i, float* out) const override;
  [[nodiscard]] std::int64_t label(std::int64_t i) const override {
    return labels_[static_cast<std::size_t>(i)];
  }

  /// True if the canonical directory layout for the dataset exists under
  /// `root` (cifar-10-batches-bin/ or cifar-100-binary/).
  static bool available(const std::string& root, std::int64_t num_classes);

  /// Load train or test split from the canonical layout under `root`.
  static CifarBinary open(const std::string& root, std::int64_t num_classes,
                          bool train);

 private:
  std::int64_t num_classes_;
  std::vector<float> pixels_;  // size() * kImageNumel, standardised CHW
  std::vector<std::int64_t> labels_;
};

}  // namespace fitact::data
