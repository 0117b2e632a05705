// Dataset abstraction: indexed access to (image, label) pairs with CIFAR
// geometry (3x32x32 float images, integer labels).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fitact::data {

inline constexpr std::int64_t kImageChannels = 3;
inline constexpr std::int64_t kImageHeight = 32;
inline constexpr std::int64_t kImageWidth = 32;
inline constexpr std::int64_t kImageNumel =
    kImageChannels * kImageHeight * kImageWidth;

class Dataset {
 public:
  virtual ~Dataset() = default;

  [[nodiscard]] virtual std::int64_t size() const = 0;
  [[nodiscard]] virtual std::int64_t num_classes() const = 0;

  /// Copy sample i's image into `out` (kImageNumel floats, CHW layout).
  /// Must be safe to call concurrently: batch and gather generate their
  /// images on the thread pool.
  virtual void image_into(std::int64_t i, float* out) const = 0;
  [[nodiscard]] virtual std::int64_t label(std::int64_t i) const = 0;

  /// Materialise samples [begin, begin+count) into a batch tensor
  /// [count, 3, 32, 32] plus labels.
  [[nodiscard]] Tensor batch(std::int64_t begin, std::int64_t count,
                             std::vector<std::int64_t>* labels_out) const;

  /// Materialise an arbitrary index list. The images are generated on the
  /// thread pool, each from its own index, so the result does not depend
  /// on the pool's width; an exception from image_into is rethrown here.
  [[nodiscard]] Tensor gather(const std::vector<std::size_t>& indices,
                              std::vector<std::int64_t>* labels_out) const;
};

}  // namespace fitact::data
