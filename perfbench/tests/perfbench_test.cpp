// Self-test of the benchmark's measurement code: arrival schedule, self
// time over a span tree, and the tail-percentile rule. Exits non-zero on
// the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "benchlib.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_test:%d: FAILED: %s\n", line, what);
    ++g_failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using perfbench::Span;

void poisson_schedule_is_seeded_and_on_rate() {
  const auto a = perfbench::poisson_schedule(1000.0, 20.0, 7);
  const auto b = perfbench::poisson_schedule(1000.0, 20.0, 7);
  const auto c = perfbench::poisson_schedule(1000.0, 20.0, 8);
  EXPECT(a == b);
  EXPECT(a != c);
  // 20000 expected arrivals: the count's standard deviation is ~0.7%.
  const double rate = static_cast<double>(a.size()) / 20.0;
  EXPECT(std::abs(rate - 1000.0) < 30.0);
  bool ordered = a.front() >= 0.0 && a.back() < 20.0;
  for (std::size_t i = 1; i < a.size(); ++i) ordered &= a[i] > a[i - 1];
  EXPECT(ordered);
  // Gaps are exponential: their mean and standard deviation both ~1/rate.
  double sum = 0.0;
  double sq = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double g = a[i] - a[i - 1];
    sum += g;
    sq += g * g;
  }
  const double n = static_cast<double>(a.size() - 1);
  const double mean = sum / n;
  const double sd = std::sqrt(sq / n - mean * mean);
  EXPECT(std::abs(mean - 1e-3) < 3e-5);
  EXPECT(std::abs(sd - 1e-3) < 5e-5);
}

void self_time_subtracts_covered_child_time() {
  // root [0,100]: children A [10,40] and B [30,60] overlap (covered once),
  // C [90,120] is clipped to the root's end; A has a child [15,20]. A
  // request span on another thread has no parent and keeps its duration.
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 0},   {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},       {"c", 90, 120, 0, 0},
      {"a.child", 15, 20, 1, 1}, {"request", 5, 50, -1, 1},
  };
  const auto self = perfbench::self_times(spans);
  EXPECT(self[0] == 100 - (50 + 10));
  EXPECT(self[1] == 30 - 5);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 5);
  EXPECT(self[5] == 45);
  const auto totals = perfbench::totals_by_name(spans);
  EXPECT(totals.at("a").count == 1);
  EXPECT(std::abs(totals.at("root").self_ms - 40e-6) < 1e-12);
}

void tracer_nests_scoped_spans() {
  perfbench::Tracer tracer(true);
  {
    const perfbench::ScopedSpan outer(tracer, "outer");
    const perfbench::ScopedSpan inner(tracer, "inner");
  }
  const auto spans = tracer.spans();
  EXPECT(spans.size() == 2);
  EXPECT(spans[1].parent == 0 && spans[0].parent == -1);
  EXPECT(spans[0].end_ns >= spans[1].end_ns);
  perfbench::Tracer off(false);
  EXPECT(off.record("x", 0, 1) == -1 && off.spans().empty());
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: tail_stat sorts
}

void tail_percentile_keeps_ten_samples_beyond() {
  // n = 1000: p99 is rank 990, with exactly 10 samples beyond it.
  auto s = perfbench::tail_stat(one_to(1000));
  EXPECT(s.tail_pct == 99 && s.tail == 990.0 && s.n == 1000);
  EXPECT(s.p50 == 500.0 && s.p90 == 900.0);
  // n = 999: p99 is rank 990 with 9 beyond, so p98 (rank 980) is reported.
  s = perfbench::tail_stat(one_to(999));
  EXPECT(s.tail_pct == 98 && s.tail == 980.0);
  // n = 100: p90 is rank 90 with 10 beyond; p91 would leave 9.
  s = perfbench::tail_stat(one_to(100));
  EXPECT(s.tail_pct == 90 && s.tail == 90.0);
  // n = 20: only the median has 10 beyond it.
  s = perfbench::tail_stat(one_to(20));
  EXPECT(s.tail_pct == 50 && s.tail == 10.0);
  // n = 19: no percentile qualifies; the maximum is reported as such.
  s = perfbench::tail_stat(one_to(19));
  EXPECT(s.tail_pct == 0 && s.tail == 19.0);
  EXPECT(perfbench::describe(perfbench::tail_stat(one_to(1000))) ==
         "p99 (n=1000)");
  EXPECT(perfbench::describe(s) == "max (n=19)");
}

void ladder_steps_at_most_five_percent() {
  const auto rungs = perfbench::rate_ladder(1000.0, 4000.0, 1.05);
  EXPECT(rungs.front() == 1000.0 && rungs.back() <= 4000.0);
  EXPECT(rungs.back() * 1.05 > 4000.0);
  bool steps = true;
  for (std::size_t i = 1; i < rungs.size(); ++i) {
    steps &= rungs[i] / rungs[i - 1] <= 1.05 + 1e-12;
  }
  EXPECT(steps);
}

}  // namespace

int main() {
  poisson_schedule_is_seeded_and_on_rate();
  self_time_subtracts_covered_child_time();
  tracer_nests_scoped_spans();
  tail_percentile_keeps_ten_samples_beyond();
  ladder_steps_at_most_five_percent();
  if (g_failures == 0) std::printf("perfbench_test: all expectations hold\n");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
