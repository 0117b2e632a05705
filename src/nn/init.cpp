#include "nn/init.h"

#include <cmath>

namespace fitact::nn {

void kaiming_normal(Tensor& w, std::int64_t fan_in, ut::Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (auto& v : w.span()) v = rng.normal(0.0f, stddev);
}

void kaiming_uniform(Tensor& w, std::int64_t fan_in, ut::Rng& rng) {
  const float b = std::sqrt(6.0f / static_cast<float>(fan_in));
  for (auto& v : w.span()) v = rng.uniform(-b, b);
}

}  // namespace fitact::nn
