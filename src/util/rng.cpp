#include "util/rng.h"

#include <cmath>
#include <unordered_set>

namespace fitact::ut {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() noexcept {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Rng::next_float() noexcept {
  return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
}

std::uint64_t Rng::next_below(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

float Rng::uniform(float lo, float hi) noexcept {
  return lo + (hi - lo) * next_float();
}

float Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  float u1 = next_float();
  if (u1 <= 0.0f) u1 = 0x1.0p-24f;
  const float u2 = next_float();
  const float r = std::sqrt(-2.0f * std::log(u1));
  const float theta = 6.28318530717958647692f * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

float Rng::normal(float mean, float stddev) noexcept {
  return mean + stddev * normal();
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) noexcept {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const double mean = static_cast<double>(n) * p;
  if (mean < 64.0) {
    // Inversion by sequential search over the CDF; O(mean) expected.
    const double q = 1.0 - p;
    double pmf = std::pow(q, static_cast<double>(n));
    if (pmf <= 0.0) {
      // Underflow guard for very large n with small mean: Poisson limit.
      double l = std::exp(-mean);
      std::uint64_t k = 0;
      double prod = next_double();
      while (prod > l && k < n) {
        prod *= next_double();
        ++k;
      }
      return k;
    }
    double cdf = pmf;
    const double u = next_double();
    std::uint64_t k = 0;
    while (u > cdf && k < n) {
      pmf *= (static_cast<double>(n - k) / static_cast<double>(k + 1)) * (p / q);
      cdf += pmf;
      ++k;
    }
    return k;
  }
  // Normal approximation with continuity correction; clamped to [0, n].
  const double sd = std::sqrt(mean * (1.0 - p));
  const double x = std::round(mean + sd * static_cast<double>(normal()));
  if (x < 0.0) return 0;
  if (x > static_cast<double>(n)) return n;
  return static_cast<std::uint64_t>(x);
}

std::vector<std::uint64_t> Rng::sample_distinct(std::uint64_t n, std::uint64_t k) {
  if (k > n) k = n;
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(static_cast<std::size_t>(k) * 2);
  // Floyd's algorithm: for j in [n-k, n), pick t in [0, j]; insert t or j.
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = next_below(j + 1);
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

void Rng::shuffle(std::vector<std::size_t>& v) noexcept {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(next_below(i));
    std::swap(v[i - 1], v[j]);
  }
}

Rng Rng::split() noexcept { return Rng(next_u64() ^ 0xA3EC647659359ACDull); }

}  // namespace fitact::ut
