// Tests for the real-CIFAR binary loader, using synthetic fixture files in
// the canonical on-disk layout (no network access needed).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/cifar_binary.h"

namespace fitact::data {
namespace {

namespace fs = std::filesystem;

class CifarBinaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() / "fitact_cifar_fixture";
    fs::remove_all(root_);
    fs::create_directories(root_ / "cifar-10-batches-bin");
    fs::create_directories(root_ / "cifar-100-binary");
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Write `count` CIFAR-10 records; label = index % 10, pixel value =
  /// (record index) for every pixel of channel 0, 2*index for channel 1,
  /// 3*index for channel 2 (mod 256).
  void write_c10(const std::string& name, int count) {
    std::ofstream os(root_ / "cifar-10-batches-bin" / name,
                     std::ios::binary);
    for (int r = 0; r < count; ++r) {
      const unsigned char label = static_cast<unsigned char>(r % 10);
      os.put(static_cast<char>(label));
      for (int c = 0; c < 3; ++c) {
        for (int p = 0; p < 1024; ++p) {
          os.put(static_cast<char>((r * (c + 1)) % 256));
        }
      }
    }
  }

  void write_c100(const std::string& name, int count) {
    std::ofstream os(root_ / "cifar-100-binary" / name, std::ios::binary);
    for (int r = 0; r < count; ++r) {
      os.put(static_cast<char>(r % 20));   // coarse label
      os.put(static_cast<char>(r % 100));  // fine label
      for (int p = 0; p < 3072; ++p) os.put(static_cast<char>(r % 256));
    }
  }

  fs::path root_;
};

TEST_F(CifarBinaryTest, AvailabilityDetection) {
  EXPECT_FALSE(CifarBinary::available(root_.string(), 10));
  write_c10("data_batch_1.bin", 1);
  EXPECT_TRUE(CifarBinary::available(root_.string(), 10));
  EXPECT_FALSE(CifarBinary::available(root_.string(), 100));
  write_c100("train.bin", 1);
  EXPECT_TRUE(CifarBinary::available(root_.string(), 100));
}

TEST_F(CifarBinaryTest, LoadsCifar10TrainSplit) {
  for (int i = 1; i <= 5; ++i) {
    write_c10("data_batch_" + std::to_string(i) + ".bin", 4);
  }
  const CifarBinary ds = CifarBinary::open(root_.string(), 10, true);
  EXPECT_EQ(ds.size(), 20);
  EXPECT_EQ(ds.num_classes(), 10);
  EXPECT_EQ(ds.label(0), 0);
  EXPECT_EQ(ds.label(3), 3);
  EXPECT_EQ(ds.label(4), 0);  // second file starts over
}

TEST_F(CifarBinaryTest, LoadsCifar10TestSplit) {
  write_c10("test_batch.bin", 7);
  const CifarBinary ds = CifarBinary::open(root_.string(), 10, false);
  EXPECT_EQ(ds.size(), 7);
}

TEST_F(CifarBinaryTest, PixelStandardisationIsApplied) {
  write_c10("test_batch.bin", 2);
  const CifarBinary ds = CifarBinary::open(root_.string(), 10, false);
  std::vector<float> img(kImageNumel);
  ds.image_into(0, img.data());
  // Record 0 has all-zero pixels; channel 0 standardises to (0 - m)/s.
  EXPECT_NEAR(img[0], (0.0f - 0.4914f) / 0.2470f, 1e-4f);
  ds.image_into(1, img.data());
  // Record 1, channel 1 pixels are 2/255.
  EXPECT_NEAR(img[1024], (2.0f / 255.0f - 0.4822f) / 0.2435f, 1e-4f);
}

TEST_F(CifarBinaryTest, LoadsCifar100FineLabels) {
  write_c100("train.bin", 150);
  const CifarBinary ds = CifarBinary::open(root_.string(), 100, true);
  EXPECT_EQ(ds.size(), 150);
  EXPECT_EQ(ds.num_classes(), 100);
  EXPECT_EQ(ds.label(42), 42);
  EXPECT_EQ(ds.label(142), 42);  // fine label wraps at 100
}

TEST_F(CifarBinaryTest, RejectsTruncatedFile) {
  {
    std::ofstream os(root_ / "cifar-10-batches-bin" / "test_batch.bin",
                     std::ios::binary);
    os << "short";
  }
  EXPECT_THROW(CifarBinary::open(root_.string(), 10, false),
               std::runtime_error);
}

// A label byte outside the class range must fail the load, naming the file
// and the record: stored as it is, evaluation would score the sample as a
// miss without any error.
TEST_F(CifarBinaryTest, RejectsOutOfRangeLabel) {
  write_c10("test_batch.bin", 3);
  {
    // Relabel record 2 as class 10, one past CIFAR-10's last class.
    std::fstream os(root_ / "cifar-10-batches-bin" / "test_batch.bin",
                    std::ios::binary | std::ios::in | std::ios::out);
    os.seekp(2 * (1 + 3072));
    os.put(static_cast<char>(10));
  }
  try {
    (void)CifarBinary::open(root_.string(), 10, false);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_batch.bin"), std::string::npos) << what;
    EXPECT_NE(what.find("record 2"), std::string::npos) << what;
  }
}

TEST_F(CifarBinaryTest, MissingFileThrows) {
  EXPECT_THROW(CifarBinary::open(root_.string(), 10, false),
               std::runtime_error);
}

TEST_F(CifarBinaryTest, BatchInterfaceWorks) {
  write_c10("test_batch.bin", 10);
  const CifarBinary ds = CifarBinary::open(root_.string(), 10, false);
  std::vector<std::int64_t> labels;
  const Tensor batch = ds.batch(2, 4, &labels);
  EXPECT_EQ(batch.shape(), Shape({4, 3, 32, 32}));
  EXPECT_EQ(labels[0], 2);
}

}  // namespace
}  // namespace fitact::data
