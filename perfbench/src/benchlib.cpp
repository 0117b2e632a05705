#include "benchlib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>

namespace perfbench {

namespace {

// Innermost ScopedSpan per thread, so nested scopes record their parent.
thread_local std::vector<std::int64_t> t_open_spans;

std::int64_t current_parent() {
  return t_open_spans.empty() ? -1 : t_open_spans.back();
}

Clock::time_point epoch() noexcept {
  static const Clock::time_point start = Clock::now();
  return start;
}

}  // namespace

std::int64_t now_ns() noexcept {
  const Clock::time_point start = epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

Clock::time_point clock_at(std::int64_t ns) noexcept {
  return epoch() + std::chrono::nanoseconds(ns);
}

std::int64_t Tracer::open(const char* name, std::int64_t start_ns,
                          std::uint64_t request, std::int64_t parent) {
  if (!enabled()) return -1;
  if (parent == -2) parent = current_parent();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_ns, start_ns, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t id, std::int64_t end_ns) {
  if (id < 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end_ns = end_ns;
}

std::int64_t Tracer::record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t parent,
                            std::uint64_t request) {
  const std::int64_t id = open(name, start_ns, request, parent);
  close(id, end_ns);
  return id;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name)
    : tracer_(tracer), start_ns_(now_ns()) {
  id_ = tracer_.open(name, start_ns_);
  t_open_spans.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  t_open_spans.pop_back();
  tracer_.close(id_, now_ns());
}

double ScopedSpan::elapsed_s() const noexcept {
  return static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(lo, spans[c].start_ns);
      const std::int64_t b = std::min(hi, spans[c].end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0;
    std::int64_t run_b = 0;
    bool open_run = false;
    for (const auto& [a, b] : cover) {
      if (open_run && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open_run) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open_run = true;
    }
    if (open_run) covered += run_b - run_a;
    self[i] = std::max<std::int64_t>(hi - lo, 0) - covered;
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) *
                  1e-6;
    t.self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  return out;
}

namespace {

// 1-based ceil nearest-rank of whole percentile `pct` over n samples, in
// integer arithmetic so the support rule below has no rounding edge.
std::size_t rank_of(int pct, std::size_t n) {
  const std::size_t r = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

TailStat tail_stat(std::vector<double> samples) {
  TailStat s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = samples[rank_of(50, s.n) - 1];
  s.p90 = samples[rank_of(90, s.n) - 1];
  s.tail = samples.back();
  for (int pct = 99; pct >= 50; --pct) {
    const std::size_t r = rank_of(pct, s.n);
    if (s.n - r >= 10) {
      s.tail_pct = pct;
      s.tail = samples[r - 1];
      break;
    }
  }
  return s;
}

std::string describe(const TailStat& s) {
  char buf[64];
  if (s.tail_pct > 0) {
    std::snprintf(buf, sizeof buf, "p%d (n=%zu)", s.tail_pct, s.n);
  } else {
    std::snprintf(buf, sizeof buf, "max (n=%zu)", s.n);
  }
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median: empty sample vector");
  std::sort(v.begin(), v.end());
  return v[rank_of(50, v.size()) - 1];
}

std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     std::uint64_t seed) {
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0)) {
    throw std::invalid_argument("poisson_schedule: rate and duration must be "
                                "positive");
  }
  // mt19937_64's output sequence is fixed by the standard, and the inverse
  // CDF below uses only its raw bits, so a seed reproduces on any toolchain.
  std::mt19937_64 rng(seed);
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.2) + 16);
  double at = 0.0;
  for (;;) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0,1)
    at += -std::log1p(-u) / rate_per_s;
    if (at >= duration_s) break;
    t.push_back(at);
  }
  return t;
}

std::vector<double> rate_ladder(double lo, double hi, double step) {
  if (!(lo > 0.0) || hi < lo || !(step > 1.0) || step > 1.05) {
    throw std::invalid_argument("rate_ladder: need 0 < lo <= hi and step in "
                                "(1, 1.05]");
  }
  std::vector<double> rungs;
  for (double r = lo; r <= hi * (1.0 + 1e-9); r *= step) rungs.push_back(r);
  return rungs;
}

}  // namespace perfbench
