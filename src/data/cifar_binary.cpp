#include "data/cifar_binary.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

namespace fitact::data {
namespace {

constexpr float kMean[3] = {0.4914f, 0.4822f, 0.4465f};
constexpr float kStd[3] = {0.2470f, 0.2435f, 0.2616f};

}  // namespace

CifarBinary::CifarBinary(const std::vector<std::string>& files,
                         std::int64_t num_classes, bool fine_labels)
    : num_classes_(num_classes) {
  const std::size_t label_bytes = fine_labels ? 2 : 1;
  const std::size_t record = label_bytes + 3072;
  std::vector<unsigned char> buf;
  for (const auto& file : files) {
    std::ifstream is(file, std::ios::binary | std::ios::ate);
    if (!is) throw std::runtime_error("CifarBinary: cannot open " + file);
    const auto bytes = static_cast<std::size_t>(is.tellg());
    if (bytes % record != 0) {
      throw std::runtime_error("CifarBinary: " + file +
                               " is not a whole number of records");
    }
    is.seekg(0);
    buf.resize(bytes);
    if (!is.read(reinterpret_cast<char*>(buf.data()),
                 static_cast<std::streamsize>(bytes))) {
      throw std::runtime_error(
          "CifarBinary: " + file + ": read failed in record " +
          std::to_string(static_cast<std::size_t>(is.gcount()) / record));
    }
    const std::size_t count = bytes / record;
    pixels_.reserve(pixels_.size() + count * kImageNumel);
    labels_.reserve(labels_.size() + count);
    for (std::size_t r = 0; r < count; ++r) {
      const unsigned char* rec = buf.data() + r * record;
      // CIFAR-100 uses <coarse><fine>; we want the fine label. A label
      // outside the class range (a corrupt record, or a CIFAR-100 file read
      // in the CIFAR-10 layout) would otherwise score as a silent miss.
      const auto label = static_cast<std::int64_t>(rec[label_bytes - 1]);
      if (label >= num_classes) {
        throw std::runtime_error(
            "CifarBinary: " + file + ": record " + std::to_string(r) +
            " has label " + std::to_string(label) + ", outside [0, " +
            std::to_string(num_classes) + ")");
      }
      labels_.push_back(label);
      const unsigned char* px = rec + label_bytes;
      for (std::int64_t c = 0; c < 3; ++c) {
        const float m = kMean[c];
        const float s = kStd[c];
        for (std::int64_t i = 0; i < 1024; ++i) {
          pixels_.push_back(
              (static_cast<float>(px[c * 1024 + i]) / 255.0f - m) / s);
        }
      }
    }
  }
}

void CifarBinary::image_into(std::int64_t i, float* out) const {
  std::memcpy(out, pixels_.data() + i * kImageNumel,
              kImageNumel * sizeof(float));
}

bool CifarBinary::available(const std::string& root,
                            std::int64_t num_classes) {
  namespace fs = std::filesystem;
  if (num_classes == 10) {
    return fs::exists(fs::path(root) / "cifar-10-batches-bin" /
                      "data_batch_1.bin");
  }
  return fs::exists(fs::path(root) / "cifar-100-binary" / "train.bin");
}

CifarBinary CifarBinary::open(const std::string& root,
                              std::int64_t num_classes, bool train) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  if (num_classes == 10) {
    const fs::path dir = fs::path(root) / "cifar-10-batches-bin";
    if (train) {
      for (int i = 1; i <= 5; ++i) {
        files.push_back((dir / ("data_batch_" + std::to_string(i) + ".bin"))
                            .string());
      }
    } else {
      files.push_back((dir / "test_batch.bin").string());
    }
    return CifarBinary(files, 10, /*fine_labels=*/false);
  }
  const fs::path dir = fs::path(root) / "cifar-100-binary";
  files.push_back((dir / (train ? "train.bin" : "test.bin")).string());
  return CifarBinary(files, 100, /*fine_labels=*/true);
}

}  // namespace fitact::data
