// Shared pieces of the benchmark's workloads: the run options, the metric
// report, the warm model cache, and the layer replays the traced runs use.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchlib.h"
#include "eval/experiment.h"
#include "nn/plan.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;
  std::string trace_out;  ///< span file written when tracing ("" = none)
};

/// Collects metrics and correctness checks, prints each as a text line when
/// it is added, and prints the one-line JSON result at the end.
class Report {
 public:
  void info(const std::string& key, const std::string& value);
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  void check(const std::string& what, bool ok, const std::string& detail);
  void count(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void print_result() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Every workload uses the scaled widths and the paper's scaled training
/// recipe (1024 samples, 14 epochs); campaigns run 8 trials per grid point
/// so 4 lanes each take two.
[[nodiscard]] fitact::ev::ExperimentScale bench_scale();

/// Models the workloads serve or inject into.
inline constexpr const char* kModels[] = {"resnet50", "vgg16"};
inline constexpr std::int64_t kClasses = 10;
inline constexpr std::uint64_t kModelSeed = 42;

/// Loads `model` from the benchmark's stage-1 cache. Throws when the cache
/// misses, so set-up time never includes cold training.
[[nodiscard]] fitact::ev::PreparedModel load_warm(const std::string& model,
                                                  const std::string& cache_dir);

/// Trains and caches every model in kModels that the cache lacks (the
/// untimed step before any measured run).
int fill_cache(const std::string& cache_dir);

/// Memory of this process, MB.
struct Footprint {
  double heap_mb = 0.0;  ///< live heap allocations (allocator's in-use bytes)
  double rss_mb = 0.0;   ///< resident now, after free heap pages are returned
  double peak_rss_mb = 0.0;  ///< resident high-water mark so far
};
[[nodiscard]] Footprint footprint();

/// Reports a footprint taken after set-up. heap_mb is the gated figure: RSS
/// also counts pages the allocator keeps cached for exited threads, which
/// varies run to run by several MB.
void report_footprint(Report& report, const Footprint& f);

/// Host CPU accounting from /proc/stat, in clock ticks summed over CPUs.
struct CpuTicks {
  std::uint64_t steal = 0;  ///< time the hypervisor ran something else
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Share of CPU time the hypervisor stole between two readings (0 when
/// the host reports none). On a shared VM host, timings are divided by
/// (1 - steal) so they measure the program, not its neighbours: the lanes
/// progressed only while their vCPUs ran.
[[nodiscard]] double steal_fraction(const CpuTicks& from, const CpuTicks& to);

/// Set-up runs this many times per run; setup_s and the set-up step
/// metrics are medians over the repetitions.
inline constexpr int kSetupReps = 3;

/// Seconds per named set-up step, one entry per repetition.
using StepTimes = std::map<std::string, std::vector<double>>;

/// Median of times[name]; 0 when the step never ran on this workload.
[[nodiscard]] double step_median(const StepTimes& times,
                                 const std::string& name);

/// A traced scope whose wall time also lands in a StepTimes entry, so
/// set-up steps are timed the same way with tracing on or off.
class TimedStep {
 public:
  TimedStep(Tracer& tracer, StepTimes& times, const char* name)
      : span_(tracer, name), times_(times), name_(name) {}
  ~TimedStep() { times_[name_].push_back(span_.elapsed_s()); }
  TimedStep(const TimedStep&) = delete;
  TimedStep& operator=(const TimedStep&) = delete;

 private:
  ScopedSpan span_;
  StepTimes& times_;
  const char* name_;
};

/// Reports each (name, unit) as 0: per-layer metrics of a layer the
/// workload never calls read 0, so every run prints the full list.
void report_bypassed(
    Report& report,
    std::initializer_list<std::pair<const char*, const char*>> metrics,
    const char* why);

/// Writes the spans to `path` (when set) and prints each span name's count,
/// total and self time.
void report_trace(Report& report, const Tracer& tracer,
                  const std::string& path);

/// Runs one workload; returns the process exit code.
int run_serve(const RunOptions& options);
int run_campaign(const RunOptions& options);

// ---- layer replays (traced runs only) --------------------------------------

/// One conv or linear GEMM of a model forward, per sample: C[m,n] += A[m,k]
/// B[k,n] (m = output channels, n = output pixels, k = input patch size).
struct GemmShape {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
};

/// The conv/linear GEMM shapes of `plan`'s model, read from the plan's op
/// listing (output shapes) and the model's weight tensors (patch sizes).
[[nodiscard]] std::vector<GemmShape> gemm_shapes(
    const fitact::nn::InferencePlan& plan, const fitact::nn::Module& model);

/// Median microseconds per sample of plan.execute(batch) over a staged
/// input of real samples.
[[nodiscard]] double plan_execute_us_per_sample(
    fitact::nn::InferencePlan& plan, const fitact::data::Dataset& test,
    std::int64_t batch);

/// Reports the tensor layer on the model's GEMM shapes: fitact::sgemm in
/// GFLOP/s and the two int8 kernels in GOP/s (2 ops per multiply-
/// accumulate), single-threaded like a serving or campaign lane, plus the
/// multiply-accumulates per sample computed from the shapes.
void report_tensor_layer(Report& report, const std::vector<GemmShape>& shapes);

}  // namespace perfbench
