// Deterministic pseudo-random number generation for every stochastic
// component in the library (weight init, data synthesis, fault sampling).
//
// A single engine type (xoshiro256**) is used everywhere so that experiment
// results are reproducible bit-for-bit from a seed, independent of the
// standard library implementation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace fitact::ut {

/// xoshiro256** engine (Blackman & Vigna). Fast, 256-bit state, passes
/// BigCrush; seeded through SplitMix64 so that any 64-bit seed (including 0)
/// produces a well-mixed state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept;

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ull; }
  std::uint64_t operator()() noexcept { return next_u64(); }

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform float in [0, 1).
  float next_float() noexcept;

  /// Uniform integer in [0, n) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) noexcept;

  /// Standard normal via Box-Muller (cached second value).
  float normal() noexcept;

  /// Normal with given mean / standard deviation.
  float normal(float mean, float stddev) noexcept;

  /// Binomial(n, p) sample. Exact inversion for small n*p, normal
  /// approximation with continuity correction for large n*p. Suitable for
  /// fault-count sampling where n is the total bit count (possibly billions)
  /// and p is a small bit-error rate.
  std::uint64_t binomial(std::uint64_t n, double p) noexcept;

  /// k distinct values drawn uniformly from [0, n), k <= n. Uses Floyd's
  /// algorithm; O(k) expected time and memory.
  std::vector<std::uint64_t> sample_distinct(std::uint64_t n, std::uint64_t k);

  /// Fisher-Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& v) noexcept;

  /// Derive an independent child stream (for per-trial / per-thread use).
  Rng split() noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  float cached_normal_ = 0.0f;
  bool has_cached_normal_ = false;
};

}  // namespace fitact::ut
