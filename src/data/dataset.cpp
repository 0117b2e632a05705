#include "data/dataset.h"

#include <numeric>
#include <stdexcept>

#include "util/thread_pool.h"

namespace fitact::data {

Tensor Dataset::batch(std::int64_t begin, std::int64_t count,
                      std::vector<std::int64_t>* labels_out) const {
  if (begin < 0 || count < 0 || begin + count > size()) {
    throw std::out_of_range("Dataset::batch range");
  }
  std::vector<std::size_t> indices(static_cast<std::size_t>(count));
  std::iota(indices.begin(), indices.end(), static_cast<std::size_t>(begin));
  return gather(indices, labels_out);
}

Tensor Dataset::gather(const std::vector<std::size_t>& indices,
                       std::vector<std::int64_t>* labels_out) const {
  for (const std::size_t idx : indices) {
    if (static_cast<std::int64_t>(idx) >= size()) {
      throw std::out_of_range("Dataset::gather index");
    }
  }
  Tensor out(Shape{static_cast<std::int64_t>(indices.size()), kImageChannels,
                   kImageHeight, kImageWidth});
  // Each image depends only on its index, so they are generated over the
  // pool; the labels stay in order.
  float* dst = out.data();
  ut::parallel_for(0, indices.size(), [&](std::size_t first, std::size_t end) {
    for (std::size_t i = first; i < end; ++i) {
      image_into(static_cast<std::int64_t>(indices[i]),
                 dst + static_cast<std::int64_t>(i) * kImageNumel);
    }
  });
  if (labels_out != nullptr) {
    labels_out->clear();
    labels_out->reserve(indices.size());
    for (const std::size_t idx : indices) {
      labels_out->push_back(label(static_cast<std::int64_t>(idx)));
    }
  }
  return out;
}

}  // namespace fitact::data
