// The two serving workloads: trained resnet50 under the paper's neuron-wise
// bounds (fitrelu_naive), served by ev::make_server over 3 lanes, max_batch
// 8 and a 200 us window.
//
//   serve_fp32         planned, fused fp32 path; no faults.
//   serve_int8_faults  the same traffic at nn::Precision::int8; every 8
//                      waves one seeded set of int8 weight-byte flips goes
//                      into every lane, and 4 waves later every lane is
//                      scrubbed. Identical flips in every lane keep the
//                      damage independent of which lane took which batch.
//
// Each run has three measured phases: a closed loop with lanes x max_batch
// requests in flight (throughput), an open loop of Poisson arrivals at one
// fixed absolute rate (latency, timed from each request's scheduled send),
// and a binary search over a fixed rate ladder for the highest rate whose
// tail latency meets the workload's limit without a growing backlog.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "core/bound_profiler.h"
#include "core/protection.h"
#include "eval/serving.h"
#include "quant/param_image.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {

using namespace fitact;

namespace {

struct ServeSpec {
  const char* name;
  nn::Precision precision;
  double offered_rps;  ///< open-loop rate of the latency phase
  double ladder_lo;    ///< rate ladder for max_rps_at_slo, 5% steps
  double ladder_hi;
  double slo_ms;  ///< tail-latency limit of the ladder
  bool faults;
};

// Offered rates sit near a third of each path's closed-loop capacity on a
// 4-core AVX-512 host, so the fixed-rate latencies measure service rather
// than queueing that swings with the host's speed; each ladder spans 4x
// from well below capacity.
constexpr ServeSpec kSpecs[] = {
    {"serve_fp32", nn::Precision::fp32, 600.0, 1000.0, 4000.0, 25.0, false},
    {"serve_int8_faults", nn::Precision::int8, 800.0, 1400.0, 5600.0, 25.0,
     true},
};

constexpr const char* kModel = "resnet50";
constexpr std::size_t kLanes = 3;
constexpr std::int64_t kMaxBatch = 8;
constexpr std::size_t kWave = kLanes * kMaxBatch;  // closed-loop depth
constexpr std::size_t kPool = 256;                 // distinct request samples
constexpr std::size_t kInjectEvery = 8 * kWave;    // requests between flips
constexpr std::size_t kScrubAfter = 4 * kWave;     // requests until scrub
// Bit 6 of an int8 weight is +/-64 of its +/-127 range: the loud corruption
// the clamp-rate detector exists for.
constexpr int kFlipsPerInjection = 24;
constexpr int kFlipBit = 6;
constexpr std::size_t kCollectors = 32;  // > kWave: every closed-loop
                                         // request has a waiting collector
constexpr double kLadderStep = 1.05;

ev::ServeOptions serve_options(const ServeSpec& spec) {
  ev::ServeOptions so;
  so.server.lanes = kLanes;
  so.server.max_batch = kMaxBatch;
  so.server.batch_window = std::chrono::microseconds(200);
  so.server.precision = spec.precision;
  return so;
}

// ---- set-up ----------------------------------------------------------------

struct Served {
  ev::PreparedModel pm;
  std::unique_ptr<serve::InferenceServer> server;
};

std::unique_ptr<Served> set_up(const ServeSpec& spec, const RunOptions& opt,
                               Tracer& tracer, StepTimes& times) {
  const ev::ExperimentScale scale = bench_scale();
  ev::ServeOptions so = serve_options(spec);
  TimedStep whole(tracer, times, "setup");
  auto s = std::make_unique<Served>();
  {
    TimedStep step(tracer, times, "eval.prepare");
    s->pm = load_warm(kModel, opt.cache_dir);
  }
  {
    // protect_model's own first step, run here so it gets its own span.
    TimedStep step(tracer, times, "core.profile");
    core::apply_protection(*s->pm.model, core::Scheme::relu);
    core::ProfileConfig pc;
    pc.max_samples = scale.profile_samples;
    (void)core::profile_bounds(*s->pm.model, *s->pm.train, pc);
    s->pm.profiled = true;
  }
  {
    TimedStep step(tracer, times, "eval.protect");
    (void)ev::protect_model(s->pm, core::Scheme::fitrelu_naive, scale);
  }
  {
    // make_server's calibration, run ahead of it with the same rule: round
    // trip the parameters through fixed point first, so calibration sees
    // the values the lanes serve.
    TimedStep step(tracer, times, "eval.calibrate");
    quant::ParamImage(*s->pm.model).restore();
    s->pm.touch();
    const double peak =
        ev::peak_clean_clamp_rate(s->pm, so.calibration_samples);
    so.server.clamp_rate_threshold =
        std::max(peak * so.calibration_margin, so.calibration_floor);
  }
  {
    TimedStep step(tracer, times, "eval.make_server");
    s->server = ev::make_server(s->pm, so);
  }
  return s;
}

// make_server's int8 input calibration: max |x| over the calibration
// samples. The int8 reference plan must quantize its input identically.
float int8_input_range(const ev::PreparedModel& pm) {
  const std::int64_t total = std::min<std::int64_t>(
      ev::ServeOptions{}.calibration_samples, pm.test->size());
  float range = -1.0f;
  for (std::int64_t i = 0; i < total; ++i) {
    const Tensor x = pm.test->batch(i, 1, nullptr);
    for (std::int64_t j = 0; j < x.numel(); ++j) {
      range = std::max(range, std::abs(x.data()[j]));
    }
  }
  return range;
}

Shape sample_shape(const ev::PreparedModel& pm) {
  const Shape s = pm.test->batch(0, 1, nullptr).shape();
  return Shape{s[1], s[2], s[3]};
}

std::shared_ptr<nn::InferencePlan> compile_like_lanes(
    const ServeSpec& spec, const ev::PreparedModel& pm,
    const std::shared_ptr<nn::Module>& replica, std::int64_t max_batch) {
  return nn::InferencePlan::compile(
      replica, sample_shape(pm), max_batch, /*fuse=*/true, spec.precision,
      spec.precision == nn::Precision::int8 ? int8_input_range(pm) : -1.0f);
}

// ---- traffic and reference ----------------------------------------------

struct Traffic {
  std::vector<Tensor> samples;       // kPool request images
  std::vector<std::int64_t> labels;  // their labels
  std::vector<float> ref_logits;     // reference plan, one sample at a time
  std::vector<std::int64_t> ref_pred;
  std::int64_t classes = 0;
};

Traffic make_traffic(const ServeSpec& spec, const ev::PreparedModel& pm,
                     std::uint64_t seed) {
  Traffic t;
  std::vector<std::size_t> order(static_cast<std::size_t>(pm.test->size()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  ut::Rng rng(seed ^ 0x5EEDF00Dull);
  rng.shuffle(order);
  std::vector<std::int64_t> label;
  for (std::size_t i = 0; i < kPool; ++i) {
    t.samples.push_back(
        pm.test->batch(static_cast<std::int64_t>(order[i]), 1, &label));
    t.labels.push_back(label.front());
  }
  // The server's output contract: each request's logits equal the sample
  // run alone through a plan of the lane model (bit for bit).
  const auto plan =
      compile_like_lanes(spec, pm, ev::replicate_model(pm), /*max_batch=*/1);
  for (const Tensor& x : t.samples) {
    std::memcpy(plan->input_view(1).data(), x.data(),
                sizeof(float) * static_cast<std::size_t>(x.numel()));
    const Tensor& out = plan->execute(1);
    t.classes = out.numel();
    t.ref_logits.insert(t.ref_logits.end(), out.data(),
                        out.data() + out.numel());
    t.ref_pred.push_back(argmax_rows(out).front());
  }
  return t;
}

// ---- per-request log -------------------------------------------------------

struct ReqLog {
  std::uint32_t sample = 0;
  std::int64_t sched_ns = 0;  // scheduled send (closed loop: actual send)
  std::int64_t submit_ns = 0;
  std::int64_t submitted_ns = 0;
  std::int64_t done_ns = 0;  // when the benchmark saw the result
  std::uint64_t batch_id = 0;
  std::uint32_t lane = 0;
  std::int32_t batch_size = 0;
  bool recovered = false;
  bool failed = false;
  bool logits_match = false;
  bool pred_match = false;
  bool label_match = false;
  std::int64_t span = -1;
};

struct FaultEvent {
  bool inject = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// ---- fault agent (serve_int8_faults) --------------------------------------

struct Flip {
  std::size_t op = 0;
  std::size_t byte = 0;
};

// Injection k's flip set, a function of (seed, k) only.
std::vector<Flip> flip_set(std::uint64_t seed, std::uint64_t k,
                           const std::vector<std::size_t>& spans) {
  std::size_t total = 0;
  for (const std::size_t s : spans) total += s;
  ut::Rng rng(seed * 0x9E3779B97F4A7C15ull + k + 1);
  std::vector<Flip> flips;
  for (int f = 0; f < kFlipsPerInjection; ++f) {
    std::size_t pos = rng.next_below(total);
    Flip flip;
    while (pos >= spans[flip.op]) pos -= spans[flip.op++];
    flip.byte = pos;
    flips.push_back(flip);
  }
  return flips;
}

// Applies flips and scrubs through InferenceServer::with_lane on its own
// thread, so neither load generator blocks on a busy lane.
class FaultAgent {
 public:
  FaultAgent(serve::InferenceServer& server, Tracer& tracer,
             std::uint64_t seed)
      : server_(server), tracer_(tracer), seed_(seed) {
    server_.with_lane(0, [&](serve::Lane& lane) {
      for (std::size_t op = 0; op < lane.plan->int8_op_count(); ++op) {
        spans_.push_back(lane.plan->int8_weight_span(op).second);
      }
    });
    thread_ = std::thread([this] { loop(); });
  }
  ~FaultAgent() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  FaultAgent(const FaultAgent&) = delete;
  FaultAgent& operator=(const FaultAgent&) = delete;

  /// Queues an injection (true) or a scrub (false) without blocking.
  void post(bool inject) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(inject);
    }
    cv_.notify_all();
  }

  /// Waits for queued work, then scrubs every lane on the calling thread.
  void settle() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return queue_.empty() && !busy_; });
    lock.unlock();
    apply(false);
  }

  [[nodiscard]] std::vector<FaultEvent> events() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;
      const bool inject = queue_.front();
      queue_.pop_front();
      busy_ = true;
      lock.unlock();
      apply(inject);
      lock.lock();
      busy_ = false;
      cv_.notify_all();
    }
  }

  void apply(bool inject) {
    FaultEvent ev;
    ev.inject = inject;
    ev.start_ns = now_ns();
    std::vector<Flip> flips;
    if (inject) {
      std::uint64_t k = 0;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        k = injected_++;
      }
      flips = flip_set(seed_, k, spans_);
    }
    for (std::size_t l = 0; l < server_.lane_count(); ++l) {
      const ScopedSpan call(tracer_, "serve.with_lane");
      server_.with_lane(l, [&](serve::Lane& lane) {
        if (inject) {
          const ScopedSpan span(tracer_, "fault.flip_int8");
          for (const Flip& f : flips) {
            lane.plan->int8_weight_span(f.op).first[f.byte] ^=
                static_cast<std::int8_t>(1u << kFlipBit);
          }
        } else {
          const ScopedSpan span(tracer_, "quant.scrub");
          lane.image->restore();
          lane.plan->restore_int8_weights();
        }
      });
    }
    ev.end_ns = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(ev);
  }

  serve::InferenceServer& server_;
  Tracer& tracer_;
  std::uint64_t seed_;
  std::vector<std::size_t> spans_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<bool> queue_;
  std::vector<FaultEvent> events_;
  std::uint64_t injected_ = 0;
  bool busy_ = false;
  bool stopping_ = false;
  std::thread thread_;  // last: started after every member it uses
};

// ---- load generation -------------------------------------------------------

// Everything the loops share: server, traffic, fault agent, and the
// request-sequence RNG (one stream across all phases).
struct Driver {
  Driver(serve::InferenceServer& s, const Traffic& t, Tracer& tr,
         FaultAgent* f, std::uint64_t seed)
      : server(s), traffic(t), tracer(tr), faults(f), sequence(seed) {}

  serve::InferenceServer& server;
  const Traffic& traffic;
  Tracer& tracer;
  FaultAgent* faults;  // null on fault-free workloads
  ut::Rng sequence;
  std::uint64_t sent = 0;  // requests submitted so far; generator thread only
  std::atomic<std::uint64_t> completed{0};
  std::mutex mutex;  // pairs with `slot_free` for the closed loop's wait
  std::condition_variable slot_free;

  // Blocks until at most `depth` requests are outstanding.
  void wait_until_at_most(std::uint64_t depth) {
    std::unique_lock<std::mutex> lock(mutex);
    slot_free.wait(lock, [&] { return sent - completed.load() <= depth; });
  }

  std::future<serve::RequestResult> submit(ReqLog& r, std::int64_t sched_ns) {
    r.sample = static_cast<std::uint32_t>(sequence.next_below(kPool));
    r.sched_ns = sched_ns;
    r.span = tracer.open("serve.request", sched_ns, sent + 1, -1);
    r.submit_ns = now_ns();
    auto future = server.submit(traffic.samples[r.sample]);
    r.submitted_ns = now_ns();
    tracer.record("serve.submit", r.submit_ns, r.submitted_ns, r.span,
                  sent + 1);
    ++sent;
    if (faults != nullptr) {
      if (sent % kInjectEvery == 0) faults->post(true);
      if (sent % kInjectEvery == kScrubAfter) faults->post(false);
    }
    return future;
  }

  void complete(ReqLog& r, std::future<serve::RequestResult>& f) {
    try {
      const serve::RequestResult res = f.get();
      r.done_ns = now_ns();
      r.batch_id = res.batch_id;
      r.lane = static_cast<std::uint32_t>(res.lane);
      r.batch_size = static_cast<std::int32_t>(res.batch_size);
      r.recovered = res.recovered;
      const float* ref =
          traffic.ref_logits.data() +
          static_cast<std::size_t>(r.sample) *
              static_cast<std::size_t>(traffic.classes);
      r.logits_match =
          res.logits.numel() == traffic.classes &&
          std::memcmp(res.logits.data(), ref,
                      sizeof(float) *
                          static_cast<std::size_t>(traffic.classes)) == 0;
      r.pred_match = res.predicted == traffic.ref_pred[r.sample];
      r.label_match = res.predicted == traffic.labels[r.sample];
    } catch (...) {
      r.done_ns = now_ns();
      r.failed = true;
    }
    tracer.close(r.span, r.done_ns);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      completed.fetch_add(1);
    }
    slot_free.notify_one();
  }

  // Drains the fault agent and leaves every lane clean between phases.
  void settle() {
    if (faults != nullptr) faults->settle();
  }
};

struct Phase {
  std::vector<ReqLog> reqs;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t backlog_at_end = 0;  // open loop: outstanding when sending ended
  double steal = 0.0;              // closed loop: host steal share meanwhile
};

// Claims outstanding requests in submission order and blocks on each, so a
// result is timed when it arrives as long as no more than kCollectors
// requests are outstanding.
class Collectors {
 public:
  Collectors(Driver& d, Phase& p) : driver_(d), phase_(p) {
    for (std::size_t i = 0; i < kCollectors; ++i) {
      threads_.emplace_back([this] { loop(); });
    }
  }
  ~Collectors() { finish(); }
  Collectors(const Collectors&) = delete;
  Collectors& operator=(const Collectors&) = delete;

  void push(std::size_t index, std::future<serve::RequestResult> f) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back(index, std::move(f));
    }
    cv_.notify_one();
  }

  /// No more requests: waits for every outstanding one and joins.
  void finish() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  void loop() {
    for (;;) {
      std::pair<std::size_t, std::future<serve::RequestResult>> item;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      driver_.complete(phase_.reqs[item.first], item.second);
    }
  }

  Driver& driver_;
  Phase& phase_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::size_t, std::future<serve::RequestResult>>> queue_;
  bool done_ = false;
  std::vector<std::thread> threads_;
};

// Closed loop for `seconds`: up to kWave requests in flight, refilled a
// max_batch at a time as soon as that many slots are free, so lanes take
// full batches instead of racing the window for single stragglers.
Phase closed_loop(Driver& d, double seconds) {
  Phase p;
  p.reqs.resize(static_cast<std::size_t>(seconds * 20000.0) + kWave);
  std::size_t next = 0;
  const CpuTicks ticks = cpu_ticks();
  {
    Collectors collectors(d, p);
    p.start_ns = now_ns();
    const auto stop_ns = p.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    while (next + kMaxBatch <= p.reqs.size() && now_ns() < stop_ns) {
      d.wait_until_at_most(kWave - kMaxBatch);
      for (std::int64_t i = 0; i < kMaxBatch; ++i, ++next) {
        collectors.push(next, d.submit(p.reqs[next], now_ns()));
      }
    }
    collectors.finish();
  }
  p.end_ns = now_ns();
  p.steal = steal_fraction(ticks, cpu_ticks());
  p.reqs.resize(next);
  d.settle();
  return p;
}

// Open loop: Poisson arrivals at `rate`; one generator thread sleeps until
// each scheduled send.
Phase open_loop(Driver& d, double rate, double seconds, std::uint64_t seed) {
  const std::vector<double> schedule = poisson_schedule(rate, seconds, seed);
  Phase p;
  p.reqs.resize(schedule.size());
  const std::uint64_t completed_before = d.completed.load();
  {
    Collectors collectors(d, p);
    p.start_ns = now_ns() + 2'000'000;  // 2 ms lead for the first sleep
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const auto sched =
          p.start_ns + static_cast<std::int64_t>(schedule[i] * 1e9);
      std::this_thread::sleep_until(clock_at(sched));
      collectors.push(i, d.submit(p.reqs[i], sched));
    }
    p.backlog_at_end =
        schedule.size() - (d.completed.load() - completed_before);
    collectors.finish();
  }
  p.end_ns = now_ns();
  d.settle();
  return p;
}

std::vector<double> latencies_ms(const Phase& p) {
  std::vector<double> out;
  out.reserve(p.reqs.size());
  for (const ReqLog& r : p.reqs) {
    // A failed request misses every latency limit.
    const double ms = static_cast<double>(r.done_ns - r.sched_ns) * 1e-6;
    out.push_back(r.failed ? 1e9 : ms);
  }
  return out;
}

bool meets_slo(const ServeSpec& spec, const Phase& p) {
  return tail_stat(latencies_ms(p)).tail <= spec.slo_ms &&
         p.backlog_at_end <= 2 * kWave;
}

// Closed loop plus open loop at the fixed rate plus the ladder search.
struct Measured {
  std::vector<Phase> closed;  // closed-loop slices
  std::vector<bool> closed_traced;
  Phase open;                 // fixed-rate open loop
  std::vector<Phase> probes;  // ladder probes
  std::vector<std::pair<double, bool>> probe_results;
  double max_rps_at_slo = 0.0;
};

constexpr int kClosedSlices = 8;

}  // namespace

int run_serve(const RunOptions& opt) {
  const ServeSpec* found = nullptr;
  for (const ServeSpec& s : kSpecs) {
    if (opt.workload == s.name) found = &s;
  }
  if (found == nullptr) return 2;
  const ServeSpec& spec = *found;
  Report report;
  Tracer tracer(opt.trace);

  char line[256];
  std::snprintf(line, sizeof line,
                "%s %s, %zu lanes, max_batch %lld, window 200 us, "
                "closed-loop depth %zu",
                kModel, spec.precision == nn::Precision::int8 ? "int8" : "fp32",
                kLanes, static_cast<long long>(kMaxBatch), kWave);
  report.info("workload", line);
  std::snprintf(line, sizeof line, "%.0f req/s (Poisson)", spec.offered_rps);
  report.info("offered_rate", line);
  std::snprintf(line, sizeof line, "%.0f..%.0f req/s, x%.2f per step",
                spec.ladder_lo, spec.ladder_hi, kLadderStep);
  report.info("rate_ladder", line);
  std::snprintf(line, sizeof line, "tail <= %.1f ms", spec.slo_ms);
  report.info("latency_limit", line);

  // Set-up, kSetupReps times; the last server stays up for the run.
  StepTimes times;
  std::vector<double> setup_s;  // steal-corrected, per repetition
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served.reset();
    const CpuTicks ticks = cpu_ticks();
    served = set_up(spec, opt, tracer, times);
    setup_s.push_back(times["setup"].back() *
                      (1.0 - steal_fraction(ticks, cpu_ticks())));
  }
  // Memory is read before traffic so the load generator's own buffers and
  // threads stay out of it.
  const Footprint setup_memory = footprint();
  ev::PreparedModel& pm = served->pm;
  serve::InferenceServer& server = *served->server;

  const Traffic traffic = make_traffic(spec, pm, opt.seed);
  std::unique_ptr<FaultAgent> agent;
  if (spec.faults) {
    agent = std::make_unique<FaultAgent>(server, tracer, opt.seed);
  }
  Driver d(server, traffic, tracer, agent.get(), opt.seed);

  // Warm-up: lazy per-thread buffers and the first batches of every lane.
  const bool tracing = tracer.enabled();
  tracer.set_enabled(false);
  (void)closed_loop(d, 0.3);
  tracer.set_enabled(tracing);
  const serve::ServerStats stats0 = server.stats();

  // Phase budget: 50% closed loop, 30% fixed-rate open loop, 20% ladder.
  // Throughput is the median over slices, so a transient stall on a shared
  // host moves one slice, not the result.
  Measured m;
  for (int slice = 0; slice < kClosedSlices; ++slice) {
    // Traced runs alternate traced and untraced slices: the throughput gap
    // between them is the tracing overhead.
    const bool traced = tracing && slice % 2 == 0;
    tracer.set_enabled(traced);
    m.closed.push_back(closed_loop(d, 0.50 * opt.seconds / kClosedSlices));
    m.closed_traced.push_back(traced);
  }
  tracer.set_enabled(tracing);
  m.open = open_loop(d, spec.offered_rps, 0.30 * opt.seconds, opt.seed * 7919);
  const std::vector<double> ladder =
      rate_ladder(spec.ladder_lo, spec.ladder_hi, kLadderStep);
  {
    int lo = -1;
    int hi = static_cast<int>(ladder.size());
    int probes = 0;
    for (int span = hi + 1; span > 1; span = (span + 1) / 2) ++probes;
    const double probe_s = 0.20 * opt.seconds / std::max(probes, 1);
    std::uint64_t probe_seed = opt.seed * 104729 + 3;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double rate = ladder[static_cast<std::size_t>(mid)];
      m.probes.push_back(open_loop(d, rate, probe_s, probe_seed++));
      const bool ok = meets_slo(spec, m.probes.back());
      m.probe_results.emplace_back(rate, ok);
      (ok ? lo : hi) = mid;
    }
    m.max_rps_at_slo = lo >= 0 ? ladder[static_cast<std::size_t>(lo)] : 0.0;
  }
  const serve::ServerStats stats1 = server.stats();

  // ---- correctness and end-to-end metrics ---------------------------------
  std::vector<const Phase*> phases;
  phases.push_back(&m.open);
  for (const auto* group : {&m.closed, &m.probes}) {
    for (const Phase& p : *group) phases.push_back(&p);
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t sdc = 0;
  std::uint64_t label_hits = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  const std::vector<FaultEvent> events =
      agent ? agent->events() : std::vector<FaultEvent>{};
  // Possibly-faulty intervals: from an injection's start to the end of the
  // next scrub. A request is checked against the reference only when its
  // [submit, done] interval misses all of them.
  std::vector<std::pair<std::int64_t, std::int64_t>> faulty;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!events[i].inject) continue;
    std::int64_t until = INT64_MAX;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (!events[j].inject) {
        until = events[j].end_ns;
        break;
      }
    }
    faulty.emplace_back(events[i].start_ns, until);
  }
  const auto clean = [&](const ReqLog& r) {
    for (const auto& [a, b] : faulty) {
      if (r.submit_ns <= b && r.done_ns >= a) return false;
    }
    return true;
  };
  for (const Phase* p : phases) {
    for (const ReqLog& r : p->reqs) {
      ++attempted;
      if (r.failed) {
        ++failed;
        continue;
      }
      sdc += r.pred_match ? 0 : 1;
      label_hits += r.label_match ? 1 : 0;
      if (clean(r)) {
        ++checked;
        mismatched += r.logits_match ? 0 : 1;
      }
    }
  }
  report.count(attempted, failed);
  std::snprintf(line, sizeof line,
                "%llu of %llu fault-free requests differ from the reference "
                "plan",
                static_cast<unsigned long long>(mismatched),
                static_cast<unsigned long long>(checked));
  report.check(spec.faults ? "int8 clean-wave logits == int8 reference"
                           : "served logits == reference plan (bitwise)",
               mismatched == 0 && checked > 0, line);
  if (!spec.faults) {
    report.check("no injections, no detections", stats1.detections == 0,
                 std::to_string(stats1.detections) + " detections");
  }
  report.check("no failed requests", failed == 0,
               std::to_string(failed) + " failed");

  std::vector<double> untraced_rps;  // steal-corrected
  std::vector<double> traced_rps;
  std::vector<double> raw_rps;
  std::vector<double> steal;
  for (std::size_t i = 0; i < m.closed.size(); ++i) {
    const Phase& p = m.closed[i];
    const double rps = static_cast<double>(p.reqs.size()) /
                       (static_cast<double>(p.end_ns - p.start_ns) * 1e-9);
    (m.closed_traced[i] ? traced_rps : untraced_rps)
        .push_back(rps / (1.0 - p.steal));
    if (!m.closed_traced[i]) raw_rps.push_back(rps);
    steal.push_back(p.steal);
  }
  const double throughput = median(untraced_rps);
  const TailStat lat = tail_stat(latencies_ms(m.open));
  const double served_n = static_cast<double>(attempted - failed);

  if (!opt.trace) {
    report.metric("throughput_rps", throughput, "1/s",
                  "closed loop, " + std::to_string(kWave) +
                      " in flight, median of " +
                      std::to_string(kClosedSlices) +
                      " slices, each divided by (1 - host steal share)");
    report.metric("throughput_raw_rps", median(raw_rps), "1/s",
                  "the same slices, wall clock only; median steal share " +
                      std::to_string(median(steal)));
    report.metric("latency_p50_ms", lat.p50, "ms",
                  "open loop at the offered rate, n=" + std::to_string(lat.n));
    report.metric("latency_p90_ms", lat.p90, "ms",
                  "n=" + std::to_string(lat.n));
    report.metric("latency_tail_ms", lat.tail, "ms", describe(lat));
    std::string ladder_note;
    for (const auto& [rate, ok] : m.probe_results) {
      std::snprintf(line, sizeof line, "%s%.0f:%s",
                    ladder_note.empty() ? "" : " ", rate, ok ? "ok" : "miss");
      ladder_note += line;
    }
    report.metric("max_rps_at_slo", m.max_rps_at_slo, "1/s",
                  "probes " + ladder_note);
    report.metric("top1_accuracy", static_cast<double>(label_hits) / served_n,
                  "fraction", "served predictions vs labels");
    report.metric("error_rate",
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  "fraction", "failed or refused / attempted");
    report.metric("sdc_rate", static_cast<double>(sdc) / served_n, "fraction",
                  "served predictions != clean reference");
    if (spec.faults) {
      // An injection is detected on a lane when that lane serves a
      // recovered batch before the next injection.
      std::uint64_t lane_hits = 0;
      std::uint64_t injections = 0;
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (!events[i].inject) continue;
        ++injections;
        std::int64_t until = INT64_MAX;
        for (std::size_t j = i + 1; j < events.size(); ++j) {
          if (events[j].inject) {
            until = events[j].start_ns;
            break;
          }
        }
        std::set<std::uint32_t> lanes;
        for (const Phase* p : phases) {
          for (const ReqLog& r : p->reqs) {
            if (r.recovered && r.done_ns >= events[i].start_ns &&
                r.done_ns < until) {
              lanes.insert(r.lane);
            }
          }
        }
        lane_hits += lanes.size();
      }
      report.metric("detection_coverage",
                    injections == 0 ? 0.0
                                    : static_cast<double>(lane_hits) /
                                          static_cast<double>(injections *
                                                              kLanes),
                    "fraction",
                    std::to_string(injections) + " injections x " +
                        std::to_string(kLanes) + " lanes");
    } else {
      report.info("detection_coverage", "n/a (no injections on this workload)");
    }
    report.info("trials_per_s", "n/a (no fault trials on this workload)");
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(kSetupReps) +
                      " set-ups, each times (1 - host steal share); wall "
                      "clock " +
                      std::to_string(step_median(times, "setup")) + " s");
    report_footprint(report, setup_memory);
  } else {
    // ---- per-layer metrics (traced run) -----------------------------------
    // serve: from the requests' own results and the server's counters.
    std::set<std::uint64_t> batches;
    double batch_rows = 0.0;
    for (const Phase& p : m.closed) {
      for (const ReqLog& r : p.reqs) {
        if (!r.failed && batches.insert(r.batch_id).second) {
          batch_rows += r.batch_size;
        }
      }
    }
    report.metric("serve.batch_size_mean",
                  batch_rows / static_cast<double>(batches.size()), "count",
                  "closed loop, per distinct batch_id");

    auto replica = ev::replicate_model(pm);
    std::shared_ptr<nn::InferencePlan> plan;
    std::vector<double> compile_ms;
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t t0 = now_ns();
      plan = compile_like_lanes(spec, pm, replica, kMaxBatch);
      compile_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    std::vector<double> exec_ms(kMaxBatch + 1, 0.0);
    for (std::int64_t b = 1; b <= kMaxBatch; ++b) {
      exec_ms[static_cast<std::size_t>(b)] =
          plan_execute_us_per_sample(*plan, *pm.test, b) * 1e-3 *
          static_cast<double>(b);
    }
    std::vector<double> overhead;
    std::vector<double> submit_us;
    std::vector<double> lag_ms;
    std::map<std::uint32_t, std::set<std::uint64_t>> lane_batches;
    for (const ReqLog& r : m.open.reqs) {
      if (r.failed) continue;
      overhead.push_back(static_cast<double>(r.done_ns - r.sched_ns) * 1e-6 -
                         exec_ms[static_cast<std::size_t>(r.batch_size)]);
      submit_us.push_back(static_cast<double>(r.submitted_ns - r.submit_ns) *
                          1e-3);
      lag_ms.push_back(static_cast<double>(r.submit_ns - r.sched_ns) * 1e-6);
      lane_batches[r.lane].insert(r.batch_id);
    }
    std::size_t all_batches = 0;
    std::size_t max_lane = 0;
    for (const auto& [lane, ids] : lane_batches) {
      all_batches += ids.size();
      max_lane = std::max(max_lane, ids.size());
    }
    report.metric("serve.overhead_ms_p50", median(overhead), "ms",
                  "open-loop latency minus replayed execute at its batch size");
    report.metric("serve.submit_us_p50", median(submit_us), "us");
    report.metric(
        "serve.lane_batches_max_share",
        static_cast<double>(max_lane) /
            static_cast<double>(std::max<std::size_t>(all_batches, 1)),
        "fraction", "open loop");
    const serve::ServerStats delta{
        stats1.requests - stats0.requests,
        stats1.batches - stats0.batches,
        stats1.forwards - stats0.forwards,
        stats1.detections - stats0.detections,
        stats1.recoveries - stats0.recoveries,
        stats1.post_recovery_alarms - stats0.post_recovery_alarms};
    report.metric("serve.forwards_per_batch",
                  static_cast<double>(delta.forwards) /
                      static_cast<double>(
                          std::max<std::uint64_t>(delta.batches, 1)),
                  "ratio", "1.0 = no wasted re-runs");
    report.metric("serve.detections", static_cast<double>(delta.detections),
                  "count");
    report.metric("serve.recoveries", static_cast<double>(delta.recoveries),
                  "count");
    report.metric("serve.post_recovery_alarms",
                  static_cast<double>(delta.post_recovery_alarms), "count");
    const auto totals = totals_by_name(tracer.spans());
    const auto wl = totals.find("serve.with_lane");
    report.metric(
        "serve.with_lane_wait_ms",
        wl == totals.end()
            ? 0.0
            : wl->second.self_ms / static_cast<double>(wl->second.count),
        "ms", "mean self time of with_lane: waiting for the lane");
    report.metric("gen.lag_ms_p99", tail_stat(lag_ms).tail, "ms",
                  describe(tail_stat(lag_ms)) + " of send lateness");

    // nn: replays on a plan compiled with the lanes' options.
    report.metric("nn.plan_execute_us_per_sample.b1", exec_ms[1] * 1e3, "us");
    report.metric("nn.plan_execute_us_per_sample.b8",
                  exec_ms[kMaxBatch] * 1e3 / static_cast<double>(kMaxBatch),
                  "us");
    report.metric("nn.plan_compile_ms", median(compile_ms), "ms");
    report.metric("nn.plan_arena_bytes",
                  static_cast<double>(plan->arena_bytes()), "bytes");
    report.metric("nn.plan_ops", static_cast<double>(plan->op_count()),
                  "count");
    report.metric("nn.plan_fused_ops",
                  static_cast<double>(plan->fused_op_count()), "count");
    report.metric("nn.plan_int8_ops",
                  static_cast<double>(plan->int8_op_count()), "count");
    report_tensor_layer(report, gemm_shapes(*plan, *replica));

    // quant: the lane image and the int8 scrub, replayed on the replica.
    quant::ParamImage image(*replica);
    std::vector<double> restore_us;
    std::vector<double> int8_us;
    for (int rep = 0; rep < 21; ++rep) {
      std::int64_t t0 = now_ns();
      image.restore();
      restore_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      t0 = now_ns();
      plan->restore_int8_weights();
      int8_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    report.metric("quant.param_image_restore_us",
                  spec.faults ? median(restore_us) : 0.0, "us",
                  spec.faults ? "scrub path" : "bypassed: no scrubs");
    report.metric("quant.int8_restore_us", spec.faults ? median(int8_us) : 0.0,
                  "us", spec.faults ? "scrub path" : "bypassed: fp32 plans");
    report.metric("quant.image_bytes", static_cast<double>(image.byte_count()),
                  "bytes", "one lane's clean image");

    report_bypassed(report,
                    {{"nn.eager_forward_ms_per_batch", "ms"},
                     {"fault.inject_us.1e-07", "us"},
                     {"fault.inject_us.1e-06", "us"},
                     {"fault.inject_us.3e-06", "us"},
                     {"fault.inject_us.1e-05", "us"},
                     {"fault.inject_us.3e-05", "us"},
                     {"fault.flips_per_trial.1e-07", "count"},
                     {"fault.flips_per_trial.1e-06", "count"},
                     {"fault.flips_per_trial.3e-06", "count"},
                     {"fault.flips_per_trial.1e-05", "count"},
                     {"fault.flips_per_trial.3e-05", "count"},
                     {"fault.evaluate_ms_per_trial", "ms"},
                     {"fault.lane_busy_frac", "fraction"},
                     {"core.post_train_s", "s"}},
                    "lanes serve through plans; no campaign, no post-training");

    report.metric("core.profile_s", step_median(times, "core.profile"), "s");
    report.metric("eval.prepare_s", step_median(times, "eval.prepare"), "s");
    report.metric("eval.calibrate_s", step_median(times, "eval.calibrate"),
                  "s");
    report.metric("eval.make_server_s", step_median(times, "eval.make_server"),
                  "s");

    const double traced_tp = median(traced_rps);
    report.metric("trace.overhead_pct",
                  (throughput - traced_tp) / throughput * 100.0, "%",
                  "closed-loop throughput, untraced vs traced slices");
    report_trace(report, tracer, opt.trace_out);
  }
  report.print_result();
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench
