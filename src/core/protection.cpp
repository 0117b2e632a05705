#include "core/protection.h"

#include <stdexcept>
#include <string>

namespace fitact::core {

ProtectionOptions default_options(Scheme scheme) {
  ProtectionOptions o;
  switch (scheme) {
    case Scheme::clip_act:
    case Scheme::ranger:
      o.granularity = Granularity::per_layer;
      break;
    case Scheme::fitrelu:
    case Scheme::fitrelu_naive:
    case Scheme::relu:
      o.granularity = Granularity::per_neuron;
      break;
  }
  return o;
}

void apply_protection(nn::Module& model, Scheme scheme,
                      const ProtectionOptions& options) {
  for (const auto& act : collect_activations(model)) {
    act->set_scheme(scheme);
    act->set_steepness(options.k);
    if (scheme == Scheme::relu) continue;
    act->set_granularity(options.granularity);
    act->init_bounds_from_profile(options.margin);
  }
}

void replicate_protection(const nn::Module& src, nn::Module& dst) {
  const auto src_acts = collect_activations(src);
  const auto dst_acts = collect_activations(dst);
  if (src_acts.size() != dst_acts.size()) {
    throw std::invalid_argument(
        "replicate_protection: activation-site count mismatch (" +
        std::to_string(src_acts.size()) + " vs " +
        std::to_string(dst_acts.size()) + ")");
  }
  for (std::size_t i = 0; i < src_acts.size(); ++i) {
    const auto& s = *src_acts[i];
    auto& d = *dst_acts[i];
    if (s.has_input_corruptor()) {
      // A corruptor is an arbitrary, possibly stateful closure; sharing it
      // across replicas would race and cloning it is impossible. Refuse
      // loudly rather than hand back replicas that silently evaluate
      // fault-free (activation-fault sweeps must stay on the one model).
      throw std::invalid_argument(
          "replicate_protection: source activation site has an input "
          "corruptor installed; clear it before replicating");
    }
    d.set_scheme(s.scheme());
    d.set_granularity(s.granularity());
    d.set_steepness(s.steepness());
    d.set_profiling(s.profiling());
    if (s.has_bounds()) {
      d.set_bounds(s.bounds().value(), s.bounds().requires_grad());
    }
  }
}

}  // namespace fitact::core
