#include "models/alexnet.h"

#include "util/rng.h"

namespace fitact::models {

std::shared_ptr<nn::Module> make_alexnet(const ModelConfig& config) {
  ut::Rng rng(config.seed);
  const nn::InitMode init =
      config.skip_init ? nn::InitMode::deferred : nn::InitMode::random;
  const auto w = [&](std::int64_t c) { return scaled(c, config.width_mult); };
  const auto act = [&] {
    return std::make_shared<core::BoundedActivation>(config.activation);
  };

  auto net = std::make_shared<nn::Sequential>();
  // Feature extractor: 32 -> 16 -> 8 -> 4.
  net->add(std::make_shared<nn::Conv2d>(3, w(64), 3, 1, 1, true, rng, init));
  net->add(act());
  net->add(std::make_shared<nn::MaxPool2d>(2));
  net->add(std::make_shared<nn::Conv2d>(w(64), w(192), 3, 1, 1, true, rng,
                                        init));
  net->add(act());
  net->add(std::make_shared<nn::MaxPool2d>(2));
  net->add(std::make_shared<nn::Conv2d>(w(192), w(384), 3, 1, 1, true, rng,
                                        init));
  net->add(act());
  net->add(std::make_shared<nn::Conv2d>(w(384), w(256), 3, 1, 1, true, rng,
                                        init));
  net->add(act());
  net->add(std::make_shared<nn::Conv2d>(w(256), w(256), 3, 1, 1, true, rng,
                                        init));
  net->add(act());
  net->add(std::make_shared<nn::MaxPool2d>(2));
  // Classifier, without the original's dropout: the scaled training
  // budgets are too small for heavy regularisation.
  net->add(std::make_shared<nn::Flatten>());
  net->add(std::make_shared<nn::Linear>(w(256) * 4 * 4, w(1024), true, rng,
                                        init));
  net->add(act());
  net->add(std::make_shared<nn::Linear>(w(1024), w(512), true, rng, init));
  net->add(act());
  net->add(std::make_shared<nn::Linear>(w(512), config.num_classes, true, rng,
                                        init));
  return net;
}

}  // namespace fitact::models
