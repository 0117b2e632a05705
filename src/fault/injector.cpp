#include "fault/injector.h"

#include <algorithm>
#include <stdexcept>

#include "quant/fixed_point.h"

namespace fitact::fault {

std::string to_string(FaultType t) {
  switch (t) {
    case FaultType::bit_flip:
      return "bit_flip";
    case FaultType::stuck_at_one:
      return "stuck_at_one";
    case FaultType::stuck_at_zero:
      return "stuck_at_zero";
    case FaultType::word_burst:
      return "word_burst";
  }
  return "?";
}

Injector::Injector(quant::ParamImage& image)
    : image_(&image), generation_(image.generation() - 1) {}

void Injector::begin_trial() {
  restore();
  trial_.clear();
}

void Injector::apply_event(std::uint64_t word, int bit,
                           const FaultModel& model) {
  if (trial_.empty() || trial_.back().first != word) {
    trial_.emplace_back(word,
                        image_->clean_words()[static_cast<std::size_t>(word)]);
  }
  auto& w = trial_.back().second;
  const auto u = static_cast<std::uint32_t>(w);
  switch (model.type) {
    case FaultType::bit_flip:
      w = quant::flip_bit(w, bit);
      break;
    case FaultType::stuck_at_one:
      w = static_cast<std::int32_t>(u | (1u << bit));
      break;
    case FaultType::stuck_at_zero:
      w = static_cast<std::int32_t>(u & ~(1u << bit));
      break;
    case FaultType::word_burst: {
      const int end = std::min(32, bit + std::max(1, model.burst_length));
      std::uint32_t mask = 0;
      for (int b = bit; b < end; ++b) mask |= (1u << b);
      w = static_cast<std::int32_t>(u ^ mask);
      break;
    }
  }
}

InjectionRecord Injector::commit_trial(std::uint64_t events) {
  const auto& clean = image_->clean_words();
  for (const auto& [word, value] : trial_) {
    if (value == clean[static_cast<std::size_t>(word)]) continue;
    image_->write_word(static_cast<std::size_t>(word), value);
    changed_.push_back(word);
  }
  generation_ = image_->generation();
  return InjectionRecord{events};
}

// Every draw below is sorted before its events apply: events commute (each
// toggles, sets or clears its own bits of one word), so word-ordered
// application gives the words the draw order would, and puts all events on
// one word next to each other.

std::vector<std::uint64_t> Injector::draw(const FaultModel& model,
                                          ut::Rng& rng) const {
  if (model.bit_lo < 0 || model.bit_hi > 31 || model.bit_lo > model.bit_hi) {
    throw std::invalid_argument("Injector: invalid fault-model bit range");
  }
  const std::uint64_t eligible =
      image_->word_count() * static_cast<std::uint64_t>(model.range_width());
  const std::uint64_t k = rng.binomial(eligible, model.bit_error_rate);
  // Positions are indices into the (word, bit-in-range) grid; distinct so
  // two events never cancel at the same anchor.
  auto positions = rng.sample_distinct(eligible, k);
  std::sort(positions.begin(), positions.end());
  return positions;
}

std::uint64_t Injector::lowest_drawn_word(const FaultModel& model,
                                          ut::Rng rng) const {
  const auto positions = draw(model, rng);
  return positions.empty()
             ? word_count()
             : positions.front() /
                   static_cast<std::uint64_t>(model.range_width());
}

InjectionRecord Injector::inject(const FaultModel& model, ut::Rng& rng) {
  const auto positions = draw(model, rng);
  const auto width = static_cast<std::uint64_t>(model.range_width());
  begin_trial();
  for (const auto pos : positions) {
    apply_event(pos / width, model.bit_lo + static_cast<int>(pos % width),
                model);
  }
  return commit_trial(positions.size());
}

InjectionRecord Injector::inject(double bit_error_rate, ut::Rng& rng) {
  FaultModel model;
  model.type = FaultType::bit_flip;
  model.bit_error_rate = bit_error_rate;
  return inject(model, rng);
}

InjectionRecord Injector::inject_exact(std::uint64_t count, ut::Rng& rng) {
  auto positions = rng.sample_distinct(image_->bit_count(), count);
  std::sort(positions.begin(), positions.end());
  begin_trial();
  const FaultModel flip;  // defaults: bit_flip over the whole word
  for (const auto pos : positions) {
    apply_event(pos / 32, static_cast<int>(pos % 32), flip);
  }
  return commit_trial(count);
}

InjectionRecord Injector::inject_exact_at_bit(std::uint64_t count, int bit,
                                              ut::Rng& rng) {
  if (bit < 0 || bit > 31) {
    throw std::invalid_argument("Injector: bit position out of range");
  }
  auto words = rng.sample_distinct(image_->word_count(), count);
  std::sort(words.begin(), words.end());
  begin_trial();
  const FaultModel flip;
  for (const auto word : words) apply_event(word, bit, flip);
  return commit_trial(count);
}

InjectionRecord Injector::inject_at(std::uint64_t word, int bit) {
  if (word >= image_->word_count() || bit < 0 || bit > 31) {
    throw std::invalid_argument("Injector: fault position out of range");
  }
  begin_trial();
  apply_event(word, bit, FaultModel{});
  return commit_trial(1);
}

void Injector::restore() {
  if (image_->generation() != generation_) {
    image_->restore();
  } else {
    const auto& clean = image_->clean_words();
    for (const auto word : changed_) {
      image_->write_word(static_cast<std::size_t>(word),
                         clean[static_cast<std::size_t>(word)]);
    }
  }
  changed_.clear();
  generation_ = image_->generation();
}

}  // namespace fitact::fault
