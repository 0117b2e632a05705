// Measurement primitives of the repository benchmark: the span recorder
// behind traced runs, self time over a span tree, the tail percentile the
// reports use, and the seeded open-loop arrival schedule. Nothing here knows
// about the workloads; perfbench_test pins each piece.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide steady-clock epoch.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// The steady-clock instant `ns` nanoseconds after that epoch (for
/// sleep_until on a schedule expressed in now_ns() units).
[[nodiscard]] Clock::time_point clock_at(std::int64_t ns) noexcept;

/// One timed interval. `parent` indexes the span that caused it (-1 for a
/// root); spans of one request share `request` (0 = not request-scoped).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span store. Disabled tracers record nothing and hand out id -1,
/// which every call accepts, so instrumented code needs no branches of its
/// own. Thread-safe; spans are written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Turns recording on or off between phases (the tracing-overhead A/B).
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Opens a span at `start_ns` and returns its id. `parent` defaults to
  /// the innermost span this thread opened through ScopedSpan.
  std::int64_t open(const char* name, std::int64_t start_ns,
                    std::uint64_t request = 0, std::int64_t parent = -2);
  /// Closes span `id` at `end_ns` (no-op for id -1).
  void close(std::int64_t id, std::int64_t end_ns);
  /// Records a finished span in one call.
  std::int64_t record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t parent = -2,
                      std::uint64_t request = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes every span as JSON lines; returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span over the enclosing scope; nests through a per-thread stack so
/// calls made inside become its children.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Seconds since the span opened (measured even when tracing is off, so
  /// callers can time the same scope they trace).
  [[nodiscard]] double elapsed_s() const noexcept;

 private:
  Tracer& tracer_;
  std::int64_t id_;
  std::int64_t start_ns_;
};

/// Self time of every span, in ns: its duration minus the part of its
/// interval that its children cover (children are clipped to the parent and
/// overlapping children count once).
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// Per span name: count, total duration and total self time, in ms.
struct NameTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
[[nodiscard]] std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans);

/// A latency summary: p50, p90, and the highest whole percentile, capped at
/// p99, that has at least 10 samples beyond its rank (all ceil
/// nearest-rank). `tail_pct` is 0 when, with fewer than 20 samples, no
/// percentile qualifies; `tail` then holds the maximum.
struct TailStat {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  int tail_pct = 0;
  double tail = 0.0;
};
[[nodiscard]] TailStat tail_stat(std::vector<double> samples);

/// "p99 (n=4500)" / "max (n=12)".
[[nodiscard]] std::string describe(const TailStat& s);

/// Median of a non-empty vector (nearest-rank p50).
[[nodiscard]] double median(std::vector<double> v);

/// Send offsets, in seconds from the start, of a Poisson arrival process at
/// `rate_per_s` over `duration_s`. The same seed gives the same schedule.
[[nodiscard]] std::vector<double> poisson_schedule(double rate_per_s,
                                                   double duration_s,
                                                   std::uint64_t seed);

/// Geometric rate ladder lo, lo*step, ... up to hi (inclusive within
/// rounding). step must be in (1, 1.05].
[[nodiscard]] std::vector<double> rate_ladder(double lo, double hi,
                                              double step);

}  // namespace perfbench
