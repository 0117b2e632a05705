// ParamImage: the packed Q1.15.16 memory image of a module's stored
// parameters — the fault space of the paper's experiments ("the weights and
// biases of different layers, as well as parameters of activation
// functions").
//
// The image snapshots the module's parameters (and optionally its buffers,
// e.g. BatchNorm running statistics) at construction. restore() writes the
// decoded clean image back into the module; a fault injector writes the
// words it corrupts one by one (write_word) and later rewrites them clean.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/module.h"

namespace fitact::quant {

class ParamImage {
 public:
  /// Selects which named parameters join the fault space; nullptr = all.
  using NameFilter = std::function<bool(const std::string&)>;

  /// Snapshot the current parameter values of `m` into fixed point.
  /// include_buffers adds named buffers (BN running stats) to the image.
  /// `filter` restricts the image to matching parameter names (used by the
  /// Fig. 1 reproduction, which injects faults into specific layers only).
  explicit ParamImage(nn::Module& m, bool include_buffers = false,
                      NameFilter filter = nullptr);

  /// Total number of 32-bit words in the image.
  [[nodiscard]] std::size_t word_count() const noexcept {
    return clean_.size();
  }

  /// Total number of bits in the fault space.
  [[nodiscard]] std::uint64_t bit_count() const noexcept {
    return static_cast<std::uint64_t>(clean_.size()) * 32u;
  }

  /// Bytes of parameter storage (the Table I "memory" accounting).
  [[nodiscard]] std::size_t byte_count() const noexcept {
    return clean_.size() * sizeof(std::int32_t);
  }

  /// The clean snapshot (read-only).
  [[nodiscard]] const std::vector<std::int32_t>& clean_words() const noexcept {
    return clean_;
  }

  /// Write the *clean* image back into the module (also applies the
  /// quantisation round-trip, which models fixed-point parameter storage).
  void restore();

  /// Write an arbitrary word vector (same length) into the module.
  void write_back(const std::vector<std::int32_t>& words);

  /// Decode one word into the module: word `index` now holds `value`.
  void write_word(std::size_t index, std::int32_t value);

  /// Re-snapshot from the module (e.g. after post-training updated bounds).
  void refresh();

  /// Counts refresh() and every write into the module (restore,
  /// write_back, write_word). A sparse writer (fault::Injector) that finds
  /// it moved since its own last write cannot trust that only its words
  /// differ from the clean image.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// One named parameter (or buffer) tensor of the image, in the order
  /// named_parameters() lists them, buffers after.
  struct Segment {
    std::string name;
    Tensor target;       ///< shares storage with the module's tensor
    std::size_t offset;  ///< word offset into the image
  };
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }

 private:
  nn::Module* module_;
  bool include_buffers_;
  NameFilter filter_;
  std::vector<Segment> segments_;
  std::vector<std::int32_t> clean_;
  std::uint64_t generation_ = 0;
};

}  // namespace fitact::quant
