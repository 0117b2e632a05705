// Q1.15.16 fixed-point codec: 1 sign bit, 15 integer bits, 16 fractional
// bits, two's complement — the parameter storage format of the paper's
// experimental setup ("32-bit fixed-point representation ... rather than
// floating-point").
//
// Parameters are *stored* in this format (and faults flip bits of the stored
// words); compute happens in float after decoding. A bit flip in a high
// integer bit turns a small weight into a value of magnitude up to 2^15,
// which is exactly the fault-propagation mechanism bounded activations
// suppress.
#pragma once

#include <cstdint>
#include <span>

namespace fitact::quant {

inline constexpr int kFractionalBits = 16;
inline constexpr float kScale = 65536.0f;  // 2^16
inline constexpr float kMaxRepresentable =
    2147483647.0f / kScale;  // ~32767.99998
inline constexpr float kMinRepresentable = -2147483648.0f / kScale;  // -32768
/// Quantisation step (resolution): 2^-16.
inline constexpr float kEpsilon = 1.0f / kScale;

/// Encode a float to the nearest representable Q1.15.16 value, saturating at
/// the representable range. NaN encodes to 0.
[[nodiscard]] std::int32_t encode(float x) noexcept;

/// Decode a Q1.15.16 word to float. Not exact for every word: float keeps
/// 24 significant bits, so a word above 2^24 in magnitude (one with a high
/// integer bit set, such as a flipped one) decodes rounded and does not
/// round-trip through encode. Every word encode produces does:
/// encode(decode(encode(x))) == encode(x) for every float x, so a model
/// restored from an image re-snapshots to the same clean words.
[[nodiscard]] constexpr float decode(std::int32_t q) noexcept {
  return static_cast<float>(q) / kScale;
}

/// Round-trip through the fixed-point representation.
[[nodiscard]] inline float quantize(float x) noexcept {
  return decode(encode(x));
}

/// Flip bit `bit` (0 = LSB of the fraction, 31 = sign) of a stored word.
[[nodiscard]] constexpr std::int32_t flip_bit(std::int32_t q,
                                              int bit) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(q) ^
                                   (1u << bit));
}

/// Vector encode/decode.
void encode_span(std::span<const float> src, std::span<std::int32_t> dst);
void decode_span(std::span<const std::int32_t> src, std::span<float> dst);

}  // namespace fitact::quant
