#include "models/vgg.h"

#include <array>

#include "util/rng.h"

namespace fitact::models {

std::shared_ptr<nn::Module> make_vgg16(const ModelConfig& config) {
  ut::Rng rng(config.seed);
  const nn::InitMode init =
      config.skip_init ? nn::InitMode::deferred : nn::InitMode::random;
  const auto w = [&](std::int64_t c) { return scaled(c, config.width_mult); };
  const auto act = [&] {
    return std::make_shared<core::BoundedActivation>(config.activation);
  };

  // Configuration D, without normalisation (the paper's wide per-layer
  // activation ranges depend on that); -1 marks a max-pool.
  constexpr std::array<std::int64_t, 18> kPlan = {
      64, 64, -1, 128, 128, -1, 256, 256, 256, -1,
      512, 512, 512, -1, 512, 512, 512, -1};

  auto net = std::make_shared<nn::Sequential>();
  std::int64_t in_c = 3;
  for (const auto entry : kPlan) {
    if (entry < 0) {
      net->add(std::make_shared<nn::MaxPool2d>(2));
      continue;
    }
    const std::int64_t out_c = w(entry);
    net->add(std::make_shared<nn::Conv2d>(in_c, out_c, 3, 1, 1, true, rng,
                                          init));
    net->add(act());
    in_c = out_c;
  }
  net->add(std::make_shared<nn::Flatten>());  // [B, w(512)] after 5 pools
  net->add(std::make_shared<nn::Linear>(w(512), w(512), true, rng, init));
  net->add(act());
  net->add(std::make_shared<nn::Linear>(w(512), config.num_classes, true, rng,
                                        init));
  return net;
}

}  // namespace fitact::models
