#include "quant/param_image.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "quant/fixed_point.h"

namespace fitact::quant {

ParamImage::ParamImage(nn::Module& m, NameFilter filter)
    : module_(&m), filter_(std::move(filter)) {
  refresh();
}

void ParamImage::refresh() {
  ++generation_;
  segments_.clear();
  std::size_t words = 0;
  for (auto& p : module_->named_parameters()) {
    if (filter_ && !filter_(p.name)) continue;
    segments_.push_back({p.name, p.var.value(), words});
    words += static_cast<std::size_t>(p.var.numel());
  }
  clean_.assign(words, 0);
  for (const auto& seg : segments_) {
    encode_span(seg.target.span(),
                std::span<std::int32_t>(clean_.data() + seg.offset,
                                        static_cast<std::size_t>(
                                            seg.target.numel())));
  }
}

void ParamImage::restore() { write_back(clean_); }

void ParamImage::write_back(const std::vector<std::int32_t>& words) {
  if (words.size() != clean_.size()) {
    throw std::invalid_argument("ParamImage::write_back: size mismatch");
  }
  ++generation_;
  for (auto& seg : segments_) {
    decode_span(std::span<const std::int32_t>(
                    words.data() + seg.offset,
                    static_cast<std::size_t>(seg.target.numel())),
                seg.target.span());
  }
}

void ParamImage::write_word(std::size_t index, std::int32_t value) {
  if (index >= clean_.size()) {
    throw std::out_of_range("ParamImage::write_word: word index past the image");
  }
  ++generation_;
  // The last segment starting at or before `index` holds it.
  const auto seg = std::prev(std::upper_bound(
      segments_.begin(), segments_.end(), index,
      [](std::size_t i, const Segment& s) { return i < s.offset; }));
  seg->target.data()[index - seg->offset] = decode(value);
}

}  // namespace fitact::quant
