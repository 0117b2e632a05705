// Memory-fault injector (paper Section VI-A2).
//
// Fault model: random bit flips distributed uniformly over the bits of the
// stored model parameters — "the weights and biases of different layers, as
// well as parameters of activation functions, are considered as the fault
// space". Parameters are stored in Q1.15.16 fixed point (src/quant); each
// trial draws K ~ Binomial(total_bits, bit_error_rate) distinct bit
// positions, flips them in the clean words, and writes the decoded words it
// changed into the live model. restore() rewrites those words clean.
//
// The injector writes sparsely: it assumes that, outside the words it
// changed itself, the model holds the decoded clean image. Whenever the
// image's generation moved since the injector's own last write (the image
// was built, refresh()ed, restored or written by anyone else), the next
// inject or restore first rewrites the whole clean image. After every call
// the parameters are therefore exactly the decoded clean image with this
// trial's events applied (or without any, after restore()).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault_model.h"
#include "quant/param_image.h"
#include "util/rng.h"

namespace fitact::fault {

struct InjectionRecord {
  std::uint64_t fault_events = 0;  ///< sampled anchor positions this trial
};

class Injector {
 public:
  /// The image defines the fault space.
  explicit Injector(quant::ParamImage& image);

  /// Apply a binomial number of fault events under the given model and
  /// write the faulty parameters into the model. The event count is
  /// Binomial(eligible_bits, bit_error_rate) over the model's bit range.
  /// Throws std::invalid_argument, before any word is written, for a bit
  /// range outside [0, 31] or a bit_error_rate that is NaN or outside
  /// [0, 1].
  InjectionRecord inject(const FaultModel& model, ut::Rng& rng);

  /// The paper's model: uniform bit flips over the whole image.
  InjectionRecord inject(double bit_error_rate, ut::Rng& rng);

  /// Flip exactly `count` distinct, uniformly chosen bits (whole range);
  /// a count above bit_count() flips every bit. fault_events reports the
  /// bits flipped.
  InjectionRecord inject_exact(std::uint64_t count, ut::Rng& rng);

  /// Flip exactly `count` distinct uniformly chosen *words* at one fixed
  /// bit position (the bit-criticality sweep used by bench/bit_sensitivity);
  /// a count above word_count() flips the bit in every word. fault_events
  /// reports the words flipped.
  InjectionRecord inject_exact_at_bit(std::uint64_t count, int bit,
                                      ut::Rng& rng);

  /// Flip bit `bit` of word `word`: one fault at a chosen position.
  InjectionRecord inject_at(std::uint64_t word, int bit);

  /// Return the model to the clean image: rewrite the words the last
  /// inject changed.
  void restore();

  /// Lowest word the last inject changed, until restore(); word_count()
  /// after restore() or when the inject's events left every word clean.
  [[nodiscard]] std::uint64_t lowest_word() const noexcept {
    return changed_.empty() ? word_count() : changed_.front();
  }

  /// Lowest word that inject(model, rng) would put an event on, drawn from
  /// a copy of `rng`: word_count() when the draw has no events. Bit flips
  /// and bursts always change their words, so under them this is the
  /// lowest_word() that inject reports; under stuck-at faults it is a lower
  /// bound. Touches neither the image nor the model.
  [[nodiscard]] std::uint64_t lowest_drawn_word(const FaultModel& model,
                                                ut::Rng rng) const;

  [[nodiscard]] std::uint64_t bit_count() const noexcept {
    return image_->bit_count();
  }
  [[nodiscard]] std::uint64_t word_count() const noexcept {
    return image_->word_count();
  }

 private:
  /// inject(model, rng)'s event positions, ascending, as indices into the
  /// (word, bit-in-range) grid of range_width() bits per word.
  [[nodiscard]] std::vector<std::uint64_t> draw(const FaultModel& model,
                                                ut::Rng& rng) const;
  /// Restore, then start an empty trial.
  void begin_trial();
  /// Events arrive in ascending word order.
  void apply_event(std::uint64_t word, int bit, const FaultModel& model);
  InjectionRecord commit_trial(std::uint64_t events);

  quant::ParamImage* image_;
  /// The image's generation right after this injector's last write.
  std::uint64_t generation_;
  /// This trial's touched words (ascending) and their faulty values.
  std::vector<std::pair<std::uint64_t, std::int32_t>> trial_;
  /// Words the model holds faulty (ascending).
  std::vector<std::uint64_t> changed_;
};

}  // namespace fitact::fault
