// Clean-prefix reuse for fault-campaign trials.
//
// A campaign trial's faults are bit flips in stored parameters only
// (fault/injector.h), so every top-level child of a Sequential model before
// the first child that owns a changed word computes exactly what the clean
// model computes. CleanPrefix forwards the campaign's eval subset through
// the clean model once and keeps:
//   - the clean top-1, which a trial that changed no word returns with no
//     forward at all;
//   - the clean input of a few top-level children ("cuts"). A trial resumes
//     from the deepest cut at or before the child owning its lowest changed
//     word and forwards only the children from there on.
//
// Cut candidates are the children whose per-sample input is smaller than
// the model input and every earlier child's input (vgg16: the child after
// each pool). Candidates are taken deepest first while their bytes over the
// whole subset stay within one lane's parameter-image bytes (the image's
// byte_count()); the rest are dropped.
//
// The clean forward that records the cuts and every resumed forward run
// through one chunk loop, in the same batch_size chunks as
// evaluate_accuracy. Eager forwards do not depend on batch composition, so
// a resumed forward's logits and top-1 are bit-identical to a full forward
// of the same faulted model. Models that are not a top-level nn::Sequential
// get no cuts: their faulted trials forward in full.
//
// Thread safety: immutable after construction. Lanes share one instance
// read-only, each forwarding its own model replica.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "eval/metrics.h"
#include "nn/module.h"
#include "quant/param_image.h"
#include "tensor/tensor.h"

namespace fitact::ev {

class CleanPrefix {
 public:
  /// dirty_child() of a trial that changed no word.
  static constexpr std::size_t kClean = std::numeric_limits<std::size_t>::max();

  /// Forward `subset` through `clean`, which holds the parameters a
  /// zero-flip trial evaluates, in `ec.batch_size` chunks. `image` is an
  /// image over `clean` whose word layout every lane's image shares; it
  /// maps words to the top-level children that own them, and its
  /// byte_count() bounds the cuts' bytes.
  CleanPrefix(nn::Module& clean, const quant::ParamImage& image,
              std::shared_ptr<const EvalBatch> subset, const EvalConfig& ec);

  /// First top-level child whose parameters may differ from the clean ones
  /// when `lowest_word` is the lowest changed word of the image; kClean when
  /// it is past the image (fault::Injector::lowest_word's "none").
  [[nodiscard]] std::size_t dirty_child(std::uint64_t lowest_word) const;

  /// Top-1 on the subset of `model` (an architecture-identical replica
  /// whose top-level children before `dirty_child` hold the clean
  /// parameters): the clean top-1 for kClean, else a forward resumed from
  /// the deepest cut at or before `dirty_child`.
  [[nodiscard]] double top1(nn::Module& model, std::size_t dirty_child) const;

  /// The subset's logits [N, classes] from the same resumed forward (kClean
  /// resumes from the deepest cut).
  [[nodiscard]] Tensor logits(nn::Module& model, std::size_t dirty_child) const;

  [[nodiscard]] double clean_top1() const noexcept { return clean_top1_; }

  /// Top-level children whose clean inputs are kept, ascending.
  [[nodiscard]] std::vector<std::size_t> cut_children() const;

 private:
  struct Cut {
    std::size_t child = 0;
    Tensor input;  ///< the child's clean input over the whole subset
  };

  /// Forward every batch_size chunk of the subset from the deepest cut at
  /// or before `dirty_child`, handing before_child(child, first_row,
  /// chunk_input) each top-level child's input and fn(first_row,
  /// chunk_logits) each chunk's output.
  template <class BeforeChild, class Fn>
  void forward_chunks(nn::Module& model, std::size_t dirty_child,
                      BeforeChild before_child, Fn fn) const;

  /// Top-1 of the same forward.
  template <class BeforeChild>
  double forward_top1(nn::Module& model, std::size_t dirty_child,
                      BeforeChild before_child) const;

  std::shared_ptr<const EvalBatch> subset_;
  std::int64_t batch_size_ = 64;
  std::vector<Cut> cuts_;  ///< ascending child
  /// Per image segment: its end word, and the lowest top-level child owning
  /// it or any later segment.
  std::vector<std::size_t> segment_end_;
  std::vector<std::size_t> first_child_from_;
  double clean_top1_ = 0.0;
};

}  // namespace fitact::ev
