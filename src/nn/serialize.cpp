#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

namespace fitact::nn {
namespace {

constexpr std::uint32_t kMagic = 0xF17AC701;
constexpr std::uint32_t kVersion = 1;

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_entry(std::ostream& os, const std::string& name,
                 const Tensor& t) {
  write_u64(os, name.size());
  os.write(name.data(), static_cast<std::streamsize>(name.size()));
  const auto& dims = t.shape().dims();
  write_u32(os, static_cast<std::uint32_t>(dims.size()));
  for (const auto d : dims) write_u64(os, static_cast<std::uint64_t>(d));
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

/// Every writable state entry of `m`, by dotted name. The mapped Tensors
/// share storage with the module, so writing into them updates it.
std::map<std::string, Tensor> state_targets(const Module& m) {
  std::map<std::string, Tensor> targets;
  for (auto& p : m.named_parameters()) targets.emplace(p.name, p.var.value());
  for (auto& b : m.named_buffers()) targets.emplace(b.name, b.tensor);
  return targets;
}

/// Look up `name` in the target map and check it matches `shape`;
/// `context` prefixes error messages ("load_state: ...").
Tensor& find_target(std::map<std::string, Tensor>& targets,
                    const std::string& name, const Shape& shape,
                    const std::string& context) {
  const auto it = targets.find(name);
  if (it == targets.end()) {
    throw std::runtime_error(context + ": unknown entry '" + name + "'");
  }
  if (it->second.shape() != shape) {
    throw std::runtime_error(context + ": shape mismatch for '" + name +
                             "': source " + shape.str() + " vs module " +
                             it->second.shape().str());
  }
  return it->second;
}

}  // namespace

void save_state(const Module& m, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_state: cannot open " + path);
  const auto params = m.named_parameters();
  const auto buffers = m.named_buffers();
  write_u32(os, kMagic);
  write_u32(os, kVersion);
  write_u64(os, params.size() + buffers.size());
  for (const auto& p : params) write_entry(os, p.name, p.var.value());
  for (const auto& b : buffers) write_entry(os, b.name, b.tensor);
  if (!os) throw std::runtime_error("save_state: write failure on " + path);
}

bool load_state(Module& m, const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return false;
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0);
  if (read_u32(is) != kMagic) {
    throw std::runtime_error("load_state: bad magic in " + path);
  }
  if (read_u32(is) != kVersion) {
    throw std::runtime_error("load_state: unsupported version in " + path);
  }
  const std::uint64_t count = read_u64(is);

  const std::string context = "load_state(" + path + ")";
  // Bytes between the read position and the end of the file: a length
  // field larger than this is corrupt, and is refused before it sizes an
  // allocation.
  const auto check_fits = [&](std::uint64_t bytes, const char* field) {
    if (!is || bytes > file_size - static_cast<std::uint64_t>(is.tellg())) {
      throw std::runtime_error(context + ": " + field +
                               " runs past the end of the file");
    }
  };
  // Entries are staged and written into m only once the file has covered
  // every entry of m exactly once, so a failed load leaves m untouched.
  std::map<std::string, Tensor> targets = state_targets(m);
  std::map<std::string, std::pair<Tensor, Tensor>> staged;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = read_u64(is);
    check_fits(name_len, "entry name");
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    const std::uint32_t rank = read_u32(is);
    check_fits(std::uint64_t{rank} * sizeof(std::uint64_t), "entry rank");
    std::vector<std::int64_t> dims(rank);
    for (auto& d : dims) {
      d = static_cast<std::int64_t>(read_u64(is));
      if (d < 0) throw std::runtime_error(context + ": negative dimension");
    }
    const Tensor& target = find_target(targets, name, Shape{dims}, context);
    Tensor value(target.shape());
    is.read(reinterpret_cast<char*>(value.data()),
            static_cast<std::streamsize>(value.numel() * sizeof(float)));
    if (!is) {
      throw std::runtime_error("load_state: truncated file " + path);
    }
    if (!staged.emplace(name, std::pair{target, value}).second) {
      throw std::runtime_error(context + ": duplicate entry '" + name + "'");
    }
  }
  if (staged.size() != targets.size()) {
    throw std::runtime_error(context + ": the module has " +
                             std::to_string(targets.size()) +
                             " entries, the file covers " +
                             std::to_string(staged.size()));
  }
  for (auto& [name, entry] : staged) entry.first.copy_from(entry.second);
  m.clear_pending_init();
  return true;
}

void copy_state(const Module& src, Module& dst) {
  std::map<std::string, Tensor> targets = state_targets(dst);
  std::size_t copied = 0;
  for (const auto& [name, value] : state_targets(src)) {
    find_target(targets, name, value.shape(), "copy_state").copy_from(value);
    ++copied;
  }
  if (copied != targets.size()) {
    throw std::runtime_error(
        "copy_state: destination has entries the source lacks (" +
        std::to_string(targets.size()) + " vs " + std::to_string(copied) + ")");
  }
  // Every destination entry now holds real values; deferred-init layers
  // (InitMode::deferred replicas) are safe to evaluate.
  dst.clear_pending_init();
}

}  // namespace fitact::nn
