// Module: base class for layers and models.
//
// A module owns named parameters (trainable Variables), named buffers
// (non-trainable Tensors such as BatchNorm running statistics), and named
// child modules. named_parameters()/named_buffers() walk the tree and return
// dotted paths ("features.3.weight"), which the serializer, the optimizers,
// and the fault injector use as stable parameter identities.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace fitact::nn {

class PlanBuilder;

/// Identifier of a value (an intermediate activation) inside an
/// InferencePlan under construction. See nn/plan.h.
using PlanValueId = std::int32_t;

struct NamedParam {
  std::string name;
  Variable var;
};

struct NamedBuffer {
  std::string name;
  Tensor tensor;
};

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual Variable forward(const Variable& x) = 0;

  /// Append this module's inference-time ops to a plan under construction
  /// (see nn/plan.h) and return the output value id. The base implementation
  /// throws PlanError naming the module — a type without an override cannot
  /// run under planned execution, so ev::make_server refuses to serve it.
  /// Overrides must record exactly the arithmetic their eval-mode forward
  /// performs, so planned and eager outputs stay bit-identical.
  virtual PlanValueId record(PlanBuilder& builder, PlanValueId input);

  /// Training vs evaluation mode (affects BatchNorm); recursive.
  void set_training(bool training);
  [[nodiscard]] bool is_training() const noexcept { return training_; }

  /// True when this module (not its children) was built with
  /// InitMode::deferred and its parameters have not been overwritten since:
  /// forwarding it would compute on uninitialised memory. Cleared by
  /// clear_pending_init(), which copy_state/load_state call after filling
  /// the tree.
  [[nodiscard]] bool pending_init() const noexcept { return pending_init_; }

  /// Whether any module in the subtree is still pending-init.
  [[nodiscard]] bool subtree_pending_init() const noexcept;

  /// Mark the whole subtree as initialised (parameters now hold real
  /// values). Called by copy_state/load_state; also callable directly by
  /// code that fills parameters through other means.
  void clear_pending_init() noexcept;

  /// All parameters in the subtree, with dotted path names.
  [[nodiscard]] std::vector<NamedParam> named_parameters() const;
  [[nodiscard]] std::vector<Variable> parameters() const;

  /// All buffers (running statistics etc.) in the subtree.
  [[nodiscard]] std::vector<NamedBuffer> named_buffers() const;

  /// Zero every parameter gradient in the subtree.
  void zero_grad();

  /// Total parameter element count in the subtree.
  [[nodiscard]] std::int64_t parameter_count() const;

  /// Direct children, in registration order.
  [[nodiscard]] const std::vector<std::pair<std::string,
                                            std::shared_ptr<Module>>>&
  children() const noexcept {
    return children_;
  }

 protected:
  /// Register a trainable parameter; returns a reference to the stored
  /// Variable (which shares its impl with the caller's copy).
  Variable& register_parameter(const std::string& name, Variable v);

  /// Register, or overwrite an existing registration slot of the same name.
  /// Used by activation sites whose bound extent can change when a model is
  /// re-protected at a different granularity.
  Variable& register_or_replace_parameter(const std::string& name, Variable v);

  /// Register a non-trainable buffer; the stored Tensor shares storage with
  /// the caller's copy, so in-place updates are visible both ways.
  Tensor& register_buffer(const std::string& name, Tensor t);

  /// Register a child module; returns the argument for chaining.
  template <typename M>
  std::shared_ptr<M> register_module(const std::string& name,
                                     std::shared_ptr<M> m) {
    children_.emplace_back(name, m);
    return m;
  }

  /// Called by layer constructors that honoured InitMode::deferred and left
  /// their parameters unfilled.
  void mark_pending_init() noexcept { pending_init_ = true; }

  /// Debug-build guard for forward paths of layers that support deferred
  /// init: trips when the layer is evaluated before copy_state/load_state
  /// installed real parameter values. Compiles to nothing under NDEBUG.
  void assert_initialized() const noexcept;

 private:
  void collect_parameters(const std::string& prefix,
                          std::vector<NamedParam>& out) const;
  void collect_buffers(const std::string& prefix,
                       std::vector<NamedBuffer>& out) const;

  bool training_ = true;
  bool pending_init_ = false;
  std::vector<std::pair<std::string, Variable>> params_;
  std::vector<std::pair<std::string, Tensor>> buffers_;
  std::vector<std::pair<std::string, std::shared_ptr<Module>>> children_;
};

}  // namespace fitact::nn
