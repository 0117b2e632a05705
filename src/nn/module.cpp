#include "nn/module.h"

#include <cassert>
#include <typeinfo>

#include "nn/plan.h"

namespace fitact::nn {

PlanValueId Module::record(PlanBuilder& builder, PlanValueId /*input*/) {
  builder.fail(std::string("module type '") + typeid(*this).name() +
               "' has no record() override and cannot run under planned "
               "execution");
}

void Module::set_training(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->set_training(training);
}

bool Module::subtree_pending_init() const noexcept {
  if (pending_init_) return true;
  for (const auto& [name, child] : children_) {
    if (child->subtree_pending_init()) return true;
  }
  return false;
}

void Module::clear_pending_init() noexcept {
  pending_init_ = false;
  for (auto& [name, child] : children_) child->clear_pending_init();
}

void Module::assert_initialized() const noexcept {
  assert(!pending_init_ &&
         "layer built with InitMode::deferred evaluated before "
         "copy_state/load_state installed its parameters");
}

std::vector<NamedParam> Module::named_parameters() const {
  std::vector<NamedParam> out;
  collect_parameters("", out);
  return out;
}

std::vector<Variable> Module::parameters() const {
  std::vector<Variable> out;
  for (auto& np : named_parameters()) out.push_back(np.var);
  return out;
}

std::vector<NamedBuffer> Module::named_buffers() const {
  std::vector<NamedBuffer> out;
  collect_buffers("", out);
  return out;
}

void Module::zero_grad() {
  for (auto& p : named_parameters()) p.var.zero_grad();
}

std::int64_t Module::parameter_count() const {
  std::int64_t n = 0;
  for (const auto& p : named_parameters()) n += p.var.numel();
  return n;
}

Variable& Module::register_parameter(const std::string& name, Variable v) {
  params_.emplace_back(name, std::move(v));
  return params_.back().second;
}

Variable& Module::register_or_replace_parameter(const std::string& name,
                                                Variable v) {
  for (auto& [existing, var] : params_) {
    if (existing == name) {
      var = std::move(v);
      return var;
    }
  }
  return register_parameter(name, std::move(v));
}

Tensor& Module::register_buffer(const std::string& name, Tensor t) {
  buffers_.emplace_back(name, std::move(t));
  return buffers_.back().second;
}

void Module::collect_parameters(const std::string& prefix,
                                std::vector<NamedParam>& out) const {
  for (const auto& [name, var] : params_) {
    out.push_back({prefix.empty() ? name : prefix + "." + name, var});
  }
  for (const auto& [name, child] : children_) {
    child->collect_parameters(prefix.empty() ? name : prefix + "." + name,
                              out);
  }
}

void Module::collect_buffers(const std::string& prefix,
                             std::vector<NamedBuffer>& out) const {
  for (const auto& [name, tensor] : buffers_) {
    out.push_back({prefix.empty() ? name : prefix + "." + name, tensor});
  }
  for (const auto& [name, child] : children_) {
    child->collect_buffers(prefix.empty() ? name : prefix + "." + name, out);
  }
}

}  // namespace fitact::nn
