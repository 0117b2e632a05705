#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>

#include "quant/int8.h"
#include "tensor/gemm.h"
#include "tensor/kernels/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {

using namespace fitact;

void Report::info(const std::string& key, const std::string& value) {
  std::printf("info    %-34s %s\n", key.c_str(), value.c_str());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) {
    check("metric " + name + " is finite", false, "value is not finite");
    value = 0.0;
  }
  std::printf("metric  %-34s %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  # ", note.c_str());
  metrics_.push_back(Metric{name, value, unit});
}

void Report::check(const std::string& what, bool ok,
                   const std::string& detail) {
  std::printf("check   %-34s %s  %s\n", what.c_str(), ok ? "PASS" : "FAIL",
              detail.c_str());
  correct_ = correct_ && ok;
}

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::print_result() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

ev::ExperimentScale bench_scale() {
  ev::ExperimentScale scale = ev::ExperimentScale::scaled();
  scale.trials = 8;
  scale.campaign_threads = 4;
  return scale;
}

ev::PreparedModel load_warm(const std::string& model,
                            const std::string& cache_dir) {
  ev::PreparedModel pm =
      ev::prepare_model(model, kClasses, bench_scale(), cache_dir, kModelSeed);
  if (!pm.from_cache) {
    throw std::runtime_error("model cache miss for " + model + " in " +
                             cache_dir +
                             ": run the cache fill step first (set-up time "
                             "must not include training)");
  }
  return pm;
}

int fill_cache(const std::string& cache_dir) {
  for (const char* model : kModels) {
    const ev::PreparedModel pm = ev::prepare_model(
        model, kClasses, bench_scale(), cache_dir, kModelSeed);
    std::fprintf(stderr, "cache %s: %s (baseline top-1 %.4f)\n", model,
                 pm.from_cache ? "warm" : "trained", pm.baseline_accuracy);
  }
  // run.py skips this step while the stamp exists.
  std::FILE* stamp = std::fopen((cache_dir + "/READY").c_str(), "w");
  return stamp != nullptr && std::fclose(stamp) == 0 ? 0 : 1;
}

Footprint footprint() {
  Footprint f;
  const struct mallinfo2 heap = mallinfo2();
  f.heap_mb = static_cast<double>(heap.uordblks + heap.hblkhd) / 1048576.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  f.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  malloc_trim(0);
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::strncmp(line, "VmRSS:", 6) == 0) {
        f.rss_mb = std::atof(line + 6) / 1024.0;
      }
    }
    std::fclose(status);
  }
  return f;
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  char line[512];
  if (std::fgets(line, sizeof line, f) != nullptr &&
      std::strncmp(line, "cpu ", 4) == 0) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user.
    std::istringstream fields(line + 4);
    std::uint64_t v = 0;
    for (int i = 0; i < 8 && fields >> v; ++i) {
      t.total += v;
      if (i == 7) t.steal = v;
    }
  }
  std::fclose(f);
  return t;
}

double steal_fraction(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total || to.steal < from.steal) return 0.0;
  const double f = static_cast<double>(to.steal - from.steal) /
                   static_cast<double>(to.total - from.total);
  return std::min(f, 0.9);
}

void report_footprint(Report& report, const Footprint& f) {
  report.metric("heap_mb", f.heap_mb, "MB",
                "live heap after set-up: models, lanes, plans, images");
  report.metric("rss_mb", f.rss_mb, "MB", "resident after set-up");
  report.metric("peak_rss_mb", f.peak_rss_mb, "MB",
                "resident high-water mark through set-up");
}

double step_median(const StepTimes& times, const std::string& name) {
  const auto it = times.find(name);
  return it == times.end() || it->second.empty() ? 0.0 : median(it->second);
}

void report_bypassed(
    Report& report,
    std::initializer_list<std::pair<const char*, const char*>> metrics,
    const char* why) {
  for (const auto& [name, unit] : metrics) {
    report.metric(name, 0.0, unit, std::string("bypassed: ") + why);
  }
}

void report_trace(Report& report, const Tracer& tracer,
                  const std::string& path) {
  const std::vector<Span> spans = tracer.spans();
  if (!path.empty()) {
    report.check("trace file written", tracer.write(path), path);
  }
  for (const auto& [name, t] : totals_by_name(spans)) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "count %zu  total %.3f ms  self %.3f ms", t.count,
                  t.total_ms, t.self_ms);
    report.info("span " + name, line);
  }
}

std::vector<GemmShape> gemm_shapes(const nn::InferencePlan& plan,
                                   const nn::Module& model) {
  std::map<std::string, Shape> weights;
  for (const auto& p : model.named_parameters()) {
    weights[p.name] = p.var.value().shape();
  }
  std::vector<GemmShape> shapes;
  std::istringstream lines(plan.summary());
  std::string line;
  while (std::getline(lines, line)) {
    const bool conv = line.find("conv2d") != std::string::npos;
    const bool linear = line.find("linear") != std::string::npos;
    const auto arrow = line.find("-> [");
    const auto hash = line.find("# ");
    if ((!conv && !linear) || arrow == std::string::npos ||
        hash == std::string::npos) {
      continue;
    }
    // Fused ops label themselves "conv + bn + act"; the weight belongs to
    // the first module.
    std::string label = line.substr(hash + 2);
    label = label.substr(0, label.find(" + "));
    const auto w = weights.find(label + ".weight");
    if (w == weights.end()) {
      throw std::runtime_error("gemm_shapes: no weight for plan op '" + label +
                               "'");
    }
    std::vector<std::int64_t> out;
    std::istringstream dims(line.substr(arrow + 4));
    std::int64_t d = 0;
    char sep = 0;
    while (dims >> d) {
      out.push_back(d);
      dims >> sep;
      if (sep == ']') break;
    }
    GemmShape g;
    g.m = w->second[0];
    g.k = w->second.numel() / g.m;
    g.n = conv && out.size() == 3 ? out[1] * out[2] : 1;
    shapes.push_back(g);
  }
  if (shapes.empty()) throw std::runtime_error("gemm_shapes: plan has no GEMM");
  return shapes;
}

namespace {

double macs_per_sample(const std::vector<GemmShape>& shapes) {
  double macs = 0.0;
  for (const auto& g : shapes) {
    macs += static_cast<double>(g.m) * static_cast<double>(g.n) *
            static_cast<double>(g.k);
  }
  return macs;
}

// Runs `pass` (one sweep over every shape) until `budget_s` has elapsed and
// at least two sweeps ran; returns sweeps per second.
template <typename Fn>
double sweeps_per_s(double budget_s, const Fn& pass) {
  pass();  // first touch: pack buffers, page faults
  int sweeps = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  while (sweeps < 2 || static_cast<double>(t1 - t0) * 1e-9 < budget_s) {
    pass();
    ++sweeps;
    t1 = now_ns();
  }
  return sweeps / (static_cast<double>(t1 - t0) * 1e-9);
}

struct KernelRates {
  double sgemm_gflops = 0.0;
  double gemm_u8s8_gops = 0.0;
  double gemm_s8s8_gops = 0.0;
};

KernelRates measure_kernels(const std::vector<GemmShape>& shapes) {
  const ut::InlineKernelScope inline_kernels;  // one core, like a lane
  std::size_t max_a = 0;
  std::size_t max_b = 0;
  std::size_t max_c = 0;
  for (const auto& g : shapes) {
    const auto kp = static_cast<std::size_t>(quant::q8_padded(g.k));
    max_a = std::max(max_a, static_cast<std::size_t>(g.m) * kp);
    max_b = std::max(max_b, static_cast<std::size_t>(g.n) * kp);
    max_c = std::max(max_c, static_cast<std::size_t>(g.m * g.n));
  }
  ut::Rng rng(20220318);
  std::vector<float> af(max_a);
  std::vector<float> bf(max_b);
  std::vector<float> cf(max_c);
  std::vector<std::int8_t> a8(max_a);
  std::vector<std::int8_t> b8s(max_b);
  std::vector<std::int8_t> b8u(max_b);
  std::vector<std::int32_t> c32(max_c);
  for (auto& v : af) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : bf) v = rng.uniform(0.0f, 1.0f);
  for (auto& v : a8) v = static_cast<std::int8_t>(rng.next_int(-127, 127));
  for (auto& v : b8s) v = static_cast<std::int8_t>(rng.next_int(-127, 127));
  for (auto& v : b8u) v = static_cast<std::int8_t>(rng.next_int(0, 127));

  const double ops = 2.0 * macs_per_sample(shapes);
  KernelRates r;
  r.sgemm_gflops = ops * 1e-9 * sweeps_per_s(0.25, [&] {
    for (const auto& g : shapes) {
      sgemm(false, false, g.m, g.n, g.k, 1.0f, af.data(), g.k, bf.data(), g.n,
            0.0f, cf.data(), g.n);
    }
  });
  r.gemm_u8s8_gops = ops * 1e-9 * sweeps_per_s(0.25, [&] {
    for (const auto& g : shapes) {
      const std::int64_t kp = quant::q8_padded(g.k);
      kern::gemm_i8u8_dot(g.m, g.n, kp, a8.data(), kp, b8u.data(), kp,
                          c32.data(), g.n, /*a_unsigned=*/false);
    }
  });
  r.gemm_s8s8_gops = ops * 1e-9 * sweeps_per_s(0.25, [&] {
    for (const auto& g : shapes) {
      const std::int64_t kp = quant::q8_padded(g.k);
      kern::gemm_i8_dot(g.m, g.n, kp, a8.data(), kp, b8s.data(), kp,
                        c32.data(), g.n);
    }
  });
  return r;
}

}  // namespace

double plan_execute_us_per_sample(nn::InferencePlan& plan,
                                  const data::Dataset& test,
                                  std::int64_t batch) {
  const ut::InlineKernelScope inline_kernels;
  const Tensor x = test.batch(0, batch, nullptr);
  Tensor& in = plan.input_view(batch);
  std::memcpy(in.data(), x.data(),
              sizeof(float) * static_cast<std::size_t>(x.numel()));
  (void)plan.execute(batch);
  std::vector<double> per_sample;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    for (int it = 0; it < 3; ++it) (void)plan.execute(batch);
    per_sample.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                         (3.0 * static_cast<double>(batch)));
  }
  return median(per_sample);
}

void report_tensor_layer(Report& report, const std::vector<GemmShape>& shapes) {
  const KernelRates k = measure_kernels(shapes);
  report.metric("tensor.sgemm_gflops", k.sgemm_gflops, "GFLOP/s",
                "fitact::sgemm, one core, on the model's GEMM shapes");
  report.metric("tensor.gemm_u8s8_gops", k.gemm_u8s8_gops, "GOP/s",
                "kern::gemm_i8u8_dot on the same shapes");
  report.metric("tensor.gemm_s8s8_gops", k.gemm_s8s8_gops, "GOP/s",
                "kern::gemm_i8_dot on the same shapes");
  report.metric("tensor.macs_per_sample", macs_per_sample(shapes), "count",
                "computed from tensor shapes, not measured");
}

}  // namespace perfbench
