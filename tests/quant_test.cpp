// Unit and property tests for the Q1.15.16 fixed-point codec and the packed
// parameter image.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.h"
#include "quant/fixed_point.h"
#include "quant/param_image.h"
#include "util/rng.h"

namespace fitact::quant {
namespace {

TEST(FixedPoint, ExactValuesRoundTrip) {
  for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, -0.25f, 123.0f, -4096.5f}) {
    EXPECT_EQ(quantize(v), v);
  }
}

TEST(FixedPoint, ResolutionIsTwoToMinus16) {
  EXPECT_EQ(decode(1), kEpsilon);
  EXPECT_EQ(decode(encode(kEpsilon)), kEpsilon);
  // Half a step rounds to nearest.
  EXPECT_EQ(encode(kEpsilon * 0.49f), 0);
}

TEST(FixedPoint, SaturatesAtRangeEnds) {
  EXPECT_EQ(encode(1e9f), 2147483647);
  EXPECT_EQ(encode(-1e9f), -2147483648);
  EXPECT_NEAR(decode(encode(40000.0f)), kMaxRepresentable, 1e-3f);
}

TEST(FixedPoint, NanEncodesToZero) {
  EXPECT_EQ(encode(std::nanf("")), 0);
}

TEST(FixedPoint, RoundTripErrorBounded) {
  // Property: |quantize(x) - x| <= eps/2 over the representable range.
  ut::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const float x = rng.uniform(-1000.0f, 1000.0f);
    EXPECT_LE(std::abs(quantize(x) - x), kEpsilon * 0.5f + 1e-7f);
  }
}

TEST(FixedPoint, SignBitFlipNegates) {
  const std::int32_t q = encode(1.0f);
  const std::int32_t flipped = flip_bit(q, 31);
  // Two's complement: flipping the sign bit of 1.0 (0x00010000) yields
  // INT32_MIN + 0x10000 -> -32767.0.
  EXPECT_FLOAT_EQ(decode(flipped), 1.0f + kMinRepresentable);
}

TEST(FixedPoint, HighIntegerBitFlipIsLargeExcursion) {
  // This is the fault mode bounded activations protect against: a flip in
  // bit 30 changes the stored value by 2^14.
  const std::int32_t q = encode(0.01f);
  const float faulty = decode(flip_bit(q, 30));
  EXPECT_GT(std::abs(faulty), 16000.0f);
}

TEST(FixedPoint, LowFractionBitFlipIsTiny) {
  const std::int32_t q = encode(0.5f);
  const float faulty = decode(flip_bit(q, 0));
  EXPECT_NEAR(faulty, 0.5f, kEpsilon * 1.01f);
}

TEST(FixedPoint, DoubleFlipRestores) {
  ut::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const std::int32_t q = encode(rng.uniform(-100.0f, 100.0f));
    const int bit = static_cast<int>(rng.next_below(32));
    EXPECT_EQ(flip_bit(flip_bit(q, bit), bit), q);
  }
}

TEST(FixedPoint, SpanCodecsMatchScalar) {
  ut::Rng rng(3);
  std::vector<float> src(257);
  for (auto& v : src) v = rng.uniform(-50.0f, 50.0f);
  std::vector<std::int32_t> enc(src.size());
  std::vector<float> dec(src.size());
  encode_span(src, enc);
  decode_span(enc, dec);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(enc[i], encode(src[i]));
    EXPECT_EQ(dec[i], quantize(src[i]));
  }
}

TEST(ParamImage, CountsWordsAndBits) {
  ut::Rng rng(4);
  nn::Linear lin(8, 4, true, rng);
  ParamImage img(lin);
  EXPECT_EQ(img.word_count(), 8u * 4u + 4u);
  EXPECT_EQ(img.bit_count(), (8u * 4u + 4u) * 32u);
  EXPECT_EQ(img.byte_count(), (8u * 4u + 4u) * 4u);
}

TEST(ParamImage, RestoreAppliesQuantisationRoundTrip) {
  ut::Rng rng(5);
  nn::Linear lin(4, 2, true, rng);
  auto params = lin.named_parameters();
  const float original = params[0].var.value()[0];
  ParamImage img(lin);
  params[0].var.value()[0] = 777.0f;  // corrupt the live model
  img.restore();
  EXPECT_EQ(params[0].var.value()[0], quantize(original));
}

TEST(ParamImage, WriteBackChangesModel) {
  ut::Rng rng(6);
  nn::Linear lin(4, 2, true, rng);
  ParamImage img(lin);
  auto words = img.clean_words();
  words[0] = encode(42.0f);
  img.write_back(words);
  EXPECT_FLOAT_EQ(lin.named_parameters()[0].var.value()[0], 42.0f);
  img.restore();
  EXPECT_NE(lin.named_parameters()[0].var.value()[0], 42.0f);
}

TEST(ParamImage, WriteBackRejectsWrongSize) {
  ut::Rng rng(7);
  nn::Linear lin(4, 2, true, rng);
  ParamImage img(lin);
  std::vector<std::int32_t> wrong(3);
  EXPECT_THROW(img.write_back(wrong), std::invalid_argument);
}

TEST(ParamImage, FilterRestrictsFaultSpace) {
  ut::Rng rng(8);
  nn::Sequential net;
  net.add(std::make_shared<nn::Linear>(4, 4, true, rng));
  net.add(std::make_shared<nn::Linear>(4, 2, true, rng));
  ParamImage all(net);
  ParamImage first_only(net, [](const std::string& name) {
    return name.rfind("0.", 0) == 0;
  });
  EXPECT_EQ(all.word_count(), 4u * 4u + 4u + 4u * 2u + 2u);
  EXPECT_EQ(first_only.word_count(), 4u * 4u + 4u);
}

TEST(ParamImage, BatchNormImageHoldsGammaAndBeta) {
  nn::Sequential net;
  net.add(std::make_shared<nn::BatchNorm2d>(4));
  ParamImage img(net);
  EXPECT_EQ(img.word_count(), 8u);  // gamma + beta; running stats stay out
}

TEST(ParamImage, RefreshPicksUpNewValues) {
  ut::Rng rng(10);
  nn::Linear lin(2, 2, true, rng);
  ParamImage img(lin);
  lin.named_parameters()[0].var.value()[0] = 9.0f;
  img.refresh();
  img.restore();
  EXPECT_FLOAT_EQ(lin.named_parameters()[0].var.value()[0], 9.0f);
}

}  // namespace
}  // namespace fitact::quant
