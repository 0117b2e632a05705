// Unit tests for src/data: synthetic dataset determinism and learnability
// prerequisites, batching, and the loader.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

#include "data/data_loader.h"
#include "data/synthetic_cifar.h"
#include "util/thread_pool.h"

namespace fitact::data {
namespace {

SyntheticCifarConfig small_config() {
  SyntheticCifarConfig cfg;
  cfg.num_classes = 10;
  cfg.size = 100;
  cfg.seed = 5;
  return cfg;
}

TEST(SyntheticCifar, DeterministicPerIndex) {
  const SyntheticCifar a(small_config());
  const SyntheticCifar b(small_config());
  std::vector<float> img_a(kImageNumel);
  std::vector<float> img_b(kImageNumel);
  a.image_into(17, img_a.data());
  b.image_into(17, img_b.data());
  EXPECT_EQ(img_a, img_b);
}

TEST(SyntheticCifar, DifferentIndicesDiffer) {
  const SyntheticCifar ds(small_config());
  std::vector<float> x(kImageNumel);
  std::vector<float> y(kImageNumel);
  ds.image_into(0, x.data());
  ds.image_into(10, y.data());  // same class (10 classes, round-robin)
  EXPECT_NE(x, y);
}

TEST(SyntheticCifar, SplitsDiffer) {
  auto splits = make_synthetic_splits(10, 50, 50, 7);
  std::vector<float> tr(kImageNumel);
  std::vector<float> te(kImageNumel);
  splits.train.image_into(0, tr.data());
  splits.test.image_into(0, te.data());
  EXPECT_NE(tr, te);
}

TEST(SyntheticCifar, LabelsAreBalancedRoundRobin) {
  const SyntheticCifar ds(small_config());
  std::vector<int> counts(10, 0);
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    ++counts[static_cast<std::size_t>(ds.label(i))];
  }
  for (const int c : counts) EXPECT_EQ(c, 10);
}

TEST(SyntheticCifar, ClassMeansAreSeparated) {
  // The class-conditional structure must be present: per-class mean images
  // should differ far more between classes than within-class noise.
  SyntheticCifarConfig cfg = small_config();
  cfg.size = 400;
  const SyntheticCifar ds(cfg);
  std::vector<std::vector<double>> mean(2, std::vector<double>(kImageNumel, 0.0));
  std::vector<int> counts(2, 0);
  std::vector<float> img(kImageNumel);
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    const auto c = ds.label(i);
    if (c > 1) continue;
    ds.image_into(i, img.data());
    for (std::int64_t p = 0; p < kImageNumel; ++p) {
      mean[static_cast<std::size_t>(c)][static_cast<std::size_t>(p)] += img[p];
    }
    ++counts[static_cast<std::size_t>(c)];
  }
  double dist = 0.0;
  for (std::int64_t p = 0; p < kImageNumel; ++p) {
    const double d = mean[0][static_cast<std::size_t>(p)] / counts[0] -
                     mean[1][static_cast<std::size_t>(p)] / counts[1];
    dist += d * d;
  }
  EXPECT_GT(std::sqrt(dist / kImageNumel), 0.1);
}

TEST(SyntheticCifar, HundredClassVariant) {
  SyntheticCifarConfig cfg;
  cfg.num_classes = 100;
  cfg.size = 200;
  const SyntheticCifar ds(cfg);
  EXPECT_EQ(ds.num_classes(), 100);
  std::set<std::int64_t> seen;
  for (std::int64_t i = 0; i < ds.size(); ++i) seen.insert(ds.label(i));
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Dataset, BatchShapesAndLabels) {
  const SyntheticCifar ds(small_config());
  std::vector<std::int64_t> labels;
  const Tensor b = ds.batch(5, 8, &labels);
  EXPECT_EQ(b.shape(), Shape({8, 3, 32, 32}));
  ASSERT_EQ(labels.size(), 8u);
  EXPECT_EQ(labels[0], ds.label(5));
}

TEST(Dataset, BatchOutOfRangeThrows) {
  const SyntheticCifar ds(small_config());
  EXPECT_THROW(ds.batch(95, 10, nullptr), std::out_of_range);
}

TEST(Dataset, GatherArbitraryIndices) {
  const SyntheticCifar ds(small_config());
  std::vector<std::int64_t> labels;
  const Tensor g = ds.gather({3, 99, 0}, &labels);
  EXPECT_EQ(g.shape(), Shape({3, 3, 32, 32}));
  EXPECT_EQ(labels[1], ds.label(99));
}

/// Row i of images must equal image_into(indices[i]) bit for bit.
void expect_rows_are_images(const Dataset& ds, const Tensor& images,
                            const std::vector<std::int64_t>& indices) {
  ASSERT_EQ(images.shape()[0], static_cast<std::int64_t>(indices.size()));
  std::vector<float> img(kImageNumel);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    ds.image_into(indices[i], img.data());
    EXPECT_EQ(std::memcmp(images.data() + static_cast<std::int64_t>(i) *
                                              kImageNumel,
                          img.data(), sizeof(float) * kImageNumel),
              0)
        << "row " << i << " (sample " << indices[i] << ")";
  }
}

// batch and gather generate their images on the thread pool: each row must
// equal the per-index image, and labels keep the requested order.
TEST(Dataset, BatchAndGatherEqualPerIndexImages) {
  const SyntheticCifar ds(small_config());
  for (const bool inline_kernels : {false, true}) {
    std::optional<ut::InlineKernelScope> scope;
    if (inline_kernels) scope.emplace();
    std::vector<std::int64_t> labels;
    std::vector<std::int64_t> range(37);
    std::iota(range.begin(), range.end(), 5);
    const Tensor b = ds.batch(5, 37, &labels);
    expect_rows_are_images(ds, b, range);
    for (std::size_t i = 0; i < range.size(); ++i) {
      EXPECT_EQ(labels[i], ds.label(range[i]));
    }

    const std::vector<std::size_t> picks{99, 0, 42, 42, 7, 63, 1, 98, 13,
                                         50, 2, 77, 31, 0, 64, 11, 88};
    const Tensor g = ds.gather(picks, &labels);
    const std::vector<std::int64_t> idx(picks.begin(), picks.end());
    expect_rows_are_images(ds, g, idx);
    ASSERT_EQ(labels.size(), picks.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      EXPECT_EQ(labels[i], ds.label(idx[i]));
    }
  }
}

/// Synthetic split whose image_into throws for one index.
class ThrowingDataset : public Dataset {
 public:
  ThrowingDataset(const Dataset& inner, std::int64_t bad)
      : inner_(inner), bad_(bad) {}
  [[nodiscard]] std::int64_t size() const override { return inner_.size(); }
  [[nodiscard]] std::int64_t num_classes() const override {
    return inner_.num_classes();
  }
  void image_into(std::int64_t i, float* out) const override {
    if (i == bad_) throw std::runtime_error("unreadable image");
    inner_.image_into(i, out);
  }
  [[nodiscard]] std::int64_t label(std::int64_t i) const override {
    return inner_.label(i);
  }

 private:
  const Dataset& inner_;
  std::int64_t bad_;
};

TEST(Dataset, ImageIntoThrowSurfacesOnTheCaller) {
  const SyntheticCifar inner(small_config());
  const ThrowingDataset ds(inner, 50);
  EXPECT_THROW((void)ds.batch(0, 64, nullptr), std::runtime_error);
  EXPECT_THROW((void)ds.gather({1, 2, 50, 3}, nullptr), std::runtime_error);
  EXPECT_NO_THROW((void)ds.batch(0, 50, nullptr));
}

TEST(DataLoader, CoversEverySampleOncePerEpoch) {
  const SyntheticCifar ds(small_config());
  DataLoader loader(ds, 16, /*shuffle=*/true, 1);
  Batch batch;
  std::int64_t seen = 0;
  while (loader.next(batch)) {
    seen += static_cast<std::int64_t>(batch.labels.size());
  }
  EXPECT_EQ(seen, ds.size());
  EXPECT_EQ(loader.batches_per_epoch(), (100 + 15) / 16);
}

TEST(DataLoader, ShuffleChangesOrderBetweenEpochs) {
  const SyntheticCifar ds(small_config());
  DataLoader loader(ds, 100, /*shuffle=*/true, 2);
  Batch e1;
  loader.next(e1);
  loader.start_epoch();
  Batch e2;
  loader.next(e2);
  EXPECT_NE(e1.labels, e2.labels);
}

TEST(DataLoader, NoShuffleIsSequential) {
  const SyntheticCifar ds(small_config());
  DataLoader loader(ds, 10, /*shuffle=*/false, 3);
  Batch batch;
  loader.next(batch);
  for (std::size_t i = 0; i < batch.labels.size(); ++i) {
    EXPECT_EQ(batch.labels[i], ds.label(static_cast<std::int64_t>(i)));
  }
}

}  // namespace
}  // namespace fitact::data
