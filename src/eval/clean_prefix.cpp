#include "eval/clean_prefix.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "autograd/variable.h"
#include "nn/layers.h"
#include "tensor/tensor_ops.h"

namespace fitact::ev {
namespace {

/// Rows [begin, begin + count) of a [N, ...] tensor, as a non-owning view:
/// forwards only read it, and the clean forward fills a cut's rows with it.
Tensor rows(const Tensor& t, std::int64_t begin, std::int64_t count) {
  std::vector<std::int64_t> dims = t.shape().dims();
  const std::int64_t row = t.numel() / dims[0];
  dims[0] = count;
  return Tensor::view(Shape(std::move(dims)),
                      const_cast<float*>(t.data()) + begin * row);
}

/// before_child of a forward that only needs the logits.
void no_hook(std::size_t /*child*/, std::int64_t /*first*/,
             const Tensor& /*input*/) {}

}  // namespace

template <class BeforeChild, class Fn>
void CleanPrefix::forward_chunks(nn::Module& model, std::size_t dirty_child,
                                 BeforeChild before_child, Fn fn) const {
  const NoGradGuard no_grad;
  model.set_training(false);
  const Cut* from = nullptr;
  for (const Cut& cut : cuts_) {
    if (cut.child <= dirty_child) from = &cut;
  }
  const auto* seq = dynamic_cast<const nn::Sequential*>(&model);
  const Tensor& input = from != nullptr ? from->input : subset_->images;
  const auto total = static_cast<std::int64_t>(subset_->labels.size());
  for (std::int64_t done = 0; done < total;) {
    const std::int64_t count = std::min(batch_size_, total - done);
    Variable h(rows(input, done, count));
    if (seq != nullptr) {
      for (std::size_t i = from != nullptr ? from->child : 0; i < seq->size();
           ++i) {
        before_child(i, done, h.value());
        h = seq->at(i)->forward(h);
      }
    } else {
      h = model.forward(h);
    }
    fn(done, h.value());
    done += count;
  }
}

template <class BeforeChild>
double CleanPrefix::forward_top1(nn::Module& model, std::size_t dirty_child,
                                 BeforeChild before_child) const {
  std::int64_t correct = 0;
  forward_chunks(model, dirty_child, before_child,
                 [&](std::int64_t first, const Tensor& logits) {
                   correct += count_correct(logits,
                                            subset_->labels.data() + first);
                 });
  const auto total = static_cast<double>(subset_->labels.size());
  return total > 0 ? static_cast<double>(correct) / total : 0.0;
}

CleanPrefix::CleanPrefix(nn::Module& clean, const quant::ParamImage& image,
                         std::shared_ptr<const EvalBatch> subset,
                         const EvalConfig& ec)
    : subset_(std::move(subset)), batch_size_(ec.batch_size) {
  const auto* seq = dynamic_cast<const nn::Sequential*>(&clean);

  // Owning child of each segment; the suffix minimum makes the child of the
  // lowest changed word a safe resume bound for every higher word too.
  std::map<std::string, std::size_t> child_index;
  if (seq != nullptr) {
    for (std::size_t i = 0; i < seq->children().size(); ++i) {
      child_index.emplace(seq->children()[i].first, i);
    }
  }
  for (const auto& seg : image.segments()) {
    segment_end_.push_back(seg.offset +
                           static_cast<std::size_t>(seg.target.numel()));
    const auto it = child_index.find(seg.name.substr(0, seg.name.find('.')));
    first_child_from_.push_back(it == child_index.end() ? 0 : it->second);
  }
  for (std::size_t s = first_child_from_.size(); s > 1; --s) {
    first_child_from_[s - 2] =
        std::min(first_child_from_[s - 2], first_child_from_[s - 1]);
  }

  const auto total = static_cast<std::int64_t>(subset_->labels.size());
  if (seq != nullptr && seq->size() > 0 && total > 0) {
    // Each child's per-sample input shape, from a one-sample probe.
    const NoGradGuard no_grad;
    clean.set_training(false);
    std::vector<Shape> inputs;
    Variable h(rows(subset_->images, 0, 1));
    for (std::size_t i = 0; i < seq->size(); ++i) {
      inputs.push_back(h.shape());
      h = seq->at(i)->forward(h);
    }
    std::vector<std::size_t> candidates;
    std::int64_t smallest = inputs.front().numel();
    for (std::size_t i = 1; i < inputs.size(); ++i) {
      if (inputs[i].numel() < smallest) {
        candidates.push_back(i);
        smallest = inputs[i].numel();
      }
    }
    std::size_t bytes = 0;
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      std::vector<std::int64_t> dims = inputs[*it].dims();
      dims[0] = total;
      Shape shape(std::move(dims));
      const auto cut_bytes =
          static_cast<std::size_t>(shape.numel()) * sizeof(float);
      if (bytes + cut_bytes > image.byte_count()) break;
      bytes += cut_bytes;
      cuts_.insert(cuts_.begin(), Cut{*it, Tensor(std::move(shape))});
    }
  }

  // No cut sits at child 0, so this forward starts from the subset's images
  // and hands every cut child its clean input.
  clean_top1_ = forward_top1(
      clean, 0,
      [this](std::size_t child, std::int64_t first, const Tensor& input) {
        for (Cut& cut : cuts_) {
          if (cut.child != child) continue;
          std::copy_n(input.data(), input.numel(),
                      rows(cut.input, first, input.shape()[0]).data());
        }
      });
}

std::size_t CleanPrefix::dirty_child(std::uint64_t lowest_word) const {
  const auto it =
      std::upper_bound(segment_end_.begin(), segment_end_.end(), lowest_word);
  if (it == segment_end_.end()) return kClean;
  return first_child_from_[static_cast<std::size_t>(it -
                                                    segment_end_.begin())];
}

double CleanPrefix::top1(nn::Module& model, std::size_t dirty_child) const {
  return dirty_child == kClean ? clean_top1_
                               : forward_top1(model, dirty_child, no_hook);
}

Tensor CleanPrefix::logits(nn::Module& model, std::size_t dirty_child) const {
  Tensor out;
  forward_chunks(model, dirty_child, no_hook,
                 [&](std::int64_t first, const Tensor& chunk) {
                   const std::int64_t classes = chunk.shape()[1];
                   if (!out.defined()) {
                     out = Tensor(Shape{
                         static_cast<std::int64_t>(subset_->labels.size()),
                         classes});
                   }
                   std::copy_n(chunk.data(), chunk.numel(),
                               out.data() + first * classes);
                 });
  return out;
}

std::vector<std::size_t> CleanPrefix::cut_children() const {
  std::vector<std::size_t> children;
  for (const Cut& cut : cuts_) children.push_back(cut.child);
  return children;
}

}  // namespace fitact::ev
