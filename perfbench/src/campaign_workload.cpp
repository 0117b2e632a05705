// campaign_fitact: the paper's Fig. 5 loop. vgg16 under FitAct (fitrelu,
// post-trained), a CampaignSession sweeping the paper's fault-rate grid
// {1e-7 .. 3e-5} over 4 lanes, 8 trials per grid point. It exercises fault
// inject/restore, eager Module::forward and sgemm, and bypasses the server
// and the plan entirely.
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>

#include "autograd/variable.h"
#include "core/bound_profiler.h"
#include "core/post_training.h"
#include "core/protection.h"
#include "fault/campaign.h"
#include "fault/injector.h"
#include "quant/param_image.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {

using namespace fitact;

namespace {

constexpr const char* kModel = "vgg16";

// One grid point: a campaign of scale.trials trials at one rate.
using PointFn = std::function<fault::CampaignResult(double, std::uint64_t)>;

struct Campaign {
  ev::PreparedModel pm;
  std::unique_ptr<ev::CampaignSession> session;  // untraced runs
  std::unique_ptr<fault::CampaignSession> traced;  // traced runs
  std::atomic<std::int64_t> point_span{-1};  // parent of evaluate spans
  PointFn run;
};

std::unique_ptr<Campaign> set_up(const RunOptions& opt, Tracer& tracer,
                                 StepTimes& times) {
  const ev::ExperimentScale scale = bench_scale();
  TimedStep whole(tracer, times, "setup");
  auto c = std::make_unique<Campaign>();
  {
    TimedStep step(tracer, times, "eval.prepare");
    c->pm = load_warm(kModel, opt.cache_dir);
  }
  {
    TimedStep step(tracer, times, "core.profile");
    core::apply_protection(*c->pm.model, core::Scheme::relu);
    core::ProfileConfig pc;
    pc.max_samples = scale.profile_samples;
    (void)core::profile_bounds(*c->pm.model, *c->pm.train, pc);
    c->pm.profiled = true;
  }
  {
    TimedStep step(tracer, times, "eval.protect");
    (void)ev::protect_model(c->pm, core::Scheme::fitrelu, scale,
                            /*skip_post_training=*/true);
  }
  {
    // protect_model's post-training stage, run here so it gets its own span.
    TimedStep step(tracer, times, "core.post_train");
    (void)core::post_train_bounds(*c->pm.model, *c->pm.train, *c->pm.test,
                                  c->pm.baseline_accuracy, scale.post);
    c->pm.touch();
  }
  {
    TimedStep step(tracer, times, "eval.campaign_session");
    if (!opt.trace) {
      c->session = std::make_unique<ev::CampaignSession>(c->pm, scale);
      c->run = [s = c->session.get()](double rate, std::uint64_t seed) {
        return s->run(rate, seed);
      };
    } else {
      // The same engine ev::CampaignSession wraps, with every worker's
      // evaluate wrapped in a span.
      ev::EvalConfig ec;
      ec.max_samples = scale.eval_samples;
      Campaign* self = c.get();
      c->traced = std::make_unique<fault::CampaignSession>(
          [base = ev::make_campaign_worker_factory(c->pm, ec), self,
           &tracer](std::size_t lane) {
            fault::CampaignWorker w = base(lane);
            w.evaluate = [inner = w.evaluate, self, &tracer] {
              const std::int64_t id = tracer.open(
                  "fault.evaluate", now_ns(), 0, self->point_span.load());
              const double acc = inner();
              tracer.close(id, now_ns());
              return acc;
            };
            return w;
          });
      c->run = [self, scale](double rate, std::uint64_t seed) {
        fault::CampaignConfig cc;
        cc.bit_error_rate = rate;
        cc.trials = scale.trials;
        cc.seed = seed;
        cc.threads = scale.campaign_threads;
        return self->traced->run(cc);
      };
    }
    // The first run builds the lanes' replicas: lazy set-up, paid here.
    (void)c->run(ev::paper_fault_rates().front(), 0);
  }
  return c;
}

struct Point {
  double rate = 0.0;
  std::uint64_t seed = 0;
  double ms = 0.0;
  double steal = 0.0;  // host steal share over this point's sweep
  bool traced = false;
  fault::CampaignResult result;
};

}  // namespace

int run_campaign(const RunOptions& opt) {
  const ev::ExperimentScale scale = bench_scale();
  const std::vector<double> grid = ev::paper_fault_rates();
  Report report;
  Tracer tracer(opt.trace);

  char line[256];
  std::snprintf(line, sizeof line,
                "%s fitrelu (post-trained), %zu lanes, %lld trials per grid "
                "point, %lld eval samples per trial",
                kModel, scale.campaign_threads,
                static_cast<long long>(scale.trials),
                static_cast<long long>(scale.eval_samples));
  report.info("workload", line);
  std::string rates;
  for (const double r : grid) {
    std::snprintf(line, sizeof line, "%s%g", rates.empty() ? "" : " ", r);
    rates += line;
  }
  report.info("rate_grid", rates);
  report.info("offered_rate", "n/a (closed loop: one grid point at a time)");

  StepTimes times;
  std::vector<double> setup_s;  // steal-corrected, per repetition
  std::unique_ptr<Campaign> c;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    c.reset();
    const CpuTicks ticks = cpu_ticks();
    c = set_up(opt, tracer, times);
    setup_s.push_back(times["setup"].back() *
                      (1.0 - steal_fraction(ticks, cpu_ticks())));
  }
  // Memory is read before traffic so the load generator's own buffers and
  // threads stay out of it.
  const Footprint setup_memory = footprint();
  const double clean = ev::clean_subset_accuracy(c->pm, scale);

  // Whole sweeps over the grid until the budget is spent, so every rate is
  // weighted equally. Traced runs alternate traced and untraced sweeps.
  const bool tracing = tracer.enabled();
  std::vector<Point> points;
  const std::int64_t t_start = now_ns();
  for (int sweep = 0;
       sweep < 2 ||
       static_cast<double>(now_ns() - t_start) * 1e-9 < opt.seconds;
       ++sweep) {
    const bool traced = tracing && sweep % 2 == 0;
    tracer.set_enabled(traced);
    const CpuTicks ticks = cpu_ticks();
    const std::size_t first = points.size();
    for (const double rate : grid) {
      Point p;
      p.rate = rate;
      p.seed = opt.seed * 1000003ull + points.size();
      p.traced = traced;
      const std::int64_t t0 = now_ns();
      const std::int64_t span = tracer.open("fault.campaign_point", t0);
      c->point_span.store(span);
      p.result = c->run(rate, p.seed);
      const std::int64_t t1 = now_ns();
      tracer.close(span, t1);
      p.ms = static_cast<double>(t1 - t0) * 1e-6;
      points.push_back(std::move(p));
    }
    const double steal = steal_fraction(ticks, cpu_ticks());
    for (std::size_t i = first; i < points.size(); ++i) points[i].steal = steal;
  }
  tracer.set_enabled(tracing);

  // ---- correctness --------------------------------------------------------
  report.check("clean top-1 of the protected model", clean >= 0.9,
               "top-1 " + std::to_string(clean));
  {
    // Results must not depend on the lane count: rerun one grid point with
    // threads = 1 and compare trial by trial.
    const Point& probe = points.at(3);
    ev::ExperimentScale serial_scale = scale;
    serial_scale.campaign_threads = 1;
    ev::CampaignSession serial(c->pm, serial_scale);
    const fault::CampaignResult again = serial.run(probe.rate, probe.seed);
    std::snprintf(line, sizeof line, "rate %g, %zu trials", probe.rate,
                  again.accuracies.size());
    report.check("4-lane accuracies == threads=1 rerun",
                 again.accuracies == probe.result.accuracies &&
                     again.flip_counts == probe.result.flip_counts,
                 line);
  }

  // Throughput is the median over sweeps of each sweep's trials per second,
  // so one slow stretch of a shared host moves one sweep, not the result.
  std::uint64_t trials = 0;
  std::uint64_t traced_trials = 0;
  double acc_sum = 0.0;
  double traced_ms = 0.0;
  std::vector<double> point_ms;
  std::vector<double> sweep_tps;  // steal-corrected
  std::vector<double> traced_sweep_tps;
  std::vector<double> raw_sweep_tps;
  std::map<double, std::vector<const Point*>> by_rate;
  for (std::size_t i = 0; i < points.size(); i += grid.size()) {
    double ms = 0.0;
    std::size_t n = 0;
    for (std::size_t j = i; j < i + grid.size(); ++j) {
      const Point& p = points[j];
      by_rate[p.rate].push_back(&p);
      ms += p.ms;
      n += p.result.accuracies.size();
      if (!p.traced) {
        point_ms.push_back(p.ms);
        for (const double a : p.result.accuracies) acc_sum += a;
      }
    }
    const bool traced = points[i].traced;
    const double tps = static_cast<double>(n) / (ms * 1e-3);
    (traced ? traced_sweep_tps : sweep_tps)
        .push_back(tps / (1.0 - points[i].steal));
    if (!traced) raw_sweep_tps.push_back(tps);
    (traced ? traced_trials : trials) += n;
    if (traced) traced_ms += ms;
  }
  report.count(trials + traced_trials, 0);
  const double trials_per_s = median(sweep_tps);

  if (!opt.trace) {
    const TailStat lat = tail_stat(point_ms);
    report.metric("throughput_rps", trials_per_s, "1/s",
                  "campaign: fault trials per second, median of " +
                      std::to_string(sweep_tps.size()) +
                      " sweeps, each divided by (1 - host steal share)");
    report.metric("trials_per_s", median(raw_sweep_tps), "1/s",
                  "the same sweeps, wall clock only");
    report.metric("latency_p50_ms", lat.p50, "ms",
                  "one grid point (" + std::to_string(scale.trials) +
                      " trials), n=" + std::to_string(lat.n));
    report.metric("latency_p90_ms", lat.p90, "ms",
                  "n=" + std::to_string(lat.n));
    report.metric("latency_tail_ms", lat.tail, "ms", describe(lat));
    report.metric("top1_accuracy", acc_sum / static_cast<double>(trials),
                  "fraction", "mean over every trial of the grid");
    report.metric("error_rate", 0.0, "fraction", "failed trials / attempted");
    for (const auto& [rate, ps] : by_rate) {
      double sum = 0.0;
      std::size_t n = 0;
      for (const Point* p : ps) {
        for (const double a : p->result.accuracies) sum += a;
        n += p->result.accuracies.size();
      }
      std::snprintf(line, sizeof line, "mean top-1 %.4f over %zu trials",
                    sum / static_cast<double>(n), n);
      char key[64];
      std::snprintf(key, sizeof key, "accuracy_at_rate %g", rate);
      report.info(key, line);
    }
    report.info("max_rps_at_slo", "n/a (no arrival process on this workload)");
    report.info("sdc_rate", "n/a (trials report accuracy, above)");
    report.info("detection_coverage", "n/a (campaigns run no detector)");
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(kSetupReps) +
                      " set-ups (post-training included), each times (1 - "
                      "host steal share); wall clock " +
                      std::to_string(step_median(times, "setup")) + " s");
    report_footprint(report, setup_memory);
  } else {
    report_bypassed(report,
                    {{"serve.batch_size_mean", "count"},
                     {"serve.overhead_ms_p50", "ms"},
                     {"serve.submit_us_p50", "us"},
                     {"serve.lane_batches_max_share", "fraction"},
                     {"serve.forwards_per_batch", "ratio"},
                     {"serve.detections", "count"},
                     {"serve.recoveries", "count"},
                     {"serve.post_recovery_alarms", "count"},
                     {"serve.with_lane_wait_ms", "ms"},
                     {"gen.lag_ms_p99", "ms"},
                     {"nn.plan_execute_us_per_sample.b1", "us"},
                     {"nn.plan_execute_us_per_sample.b8", "us"},
                     {"nn.plan_compile_ms", "ms"},
                     {"nn.plan_arena_bytes", "bytes"},
                     {"nn.plan_ops", "count"},
                     {"nn.plan_fused_ops", "count"},
                     {"nn.plan_int8_ops", "count"},
                     {"quant.int8_restore_us", "us"},
                     {"eval.calibrate_s", "s"},
                     {"eval.make_server_s", "s"}},
                    "campaigns use no server and no plan");

    auto replica = ev::replicate_model(c->pm);
    {
      // Eager forward of one evaluation batch, as a campaign lane runs it.
      const ut::InlineKernelScope inline_kernels;
      const NoGradGuard no_grad;
      const Tensor x = c->pm.test->batch(0, scale.eval_samples, nullptr);
      (void)replica->forward(Variable(x));
      std::vector<double> ms;
      for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t t0 = now_ns();
        (void)replica->forward(Variable(x));
        ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      }
      report.metric("nn.eager_forward_ms_per_batch", median(ms), "ms",
                    "batch of " + std::to_string(scale.eval_samples) +
                        ", one core");
    }
    const Shape s = c->pm.test->batch(0, 1, nullptr).shape();
    const auto shape_plan =
        nn::InferencePlan::compile(replica, Shape{s[1], s[2], s[3]}, 1);
    report_tensor_layer(report, gemm_shapes(*shape_plan, *replica));

    quant::ParamImage image(*replica);
    fault::Injector injector(image);
    std::vector<double> restore_us;
    for (int rep = 0; rep < 21; ++rep) {
      const std::int64_t t0 = now_ns();
      image.restore();
      restore_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    report.metric("quant.param_image_restore_us", median(restore_us), "us",
                  "after every trial");
    report.metric("quant.image_bytes", static_cast<double>(image.byte_count()),
                  "bytes", "one lane's clean image");

    ut::Rng rng(opt.seed);
    for (const double rate : grid) {
      std::vector<double> us;
      for (int rep = 0; rep < 15; ++rep) {
        const std::int64_t t0 = now_ns();
        (void)injector.inject(rate, rng);
        us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        injector.restore();
      }
      double flips = 0.0;
      std::size_t n = 0;
      for (const Point* p : by_rate[rate]) {
        for (const auto f : p->result.flip_counts) {
          flips += static_cast<double>(f);
        }
        n += p->result.flip_counts.size();
      }
      std::snprintf(line, sizeof line, "%g", rate);
      report.metric(std::string("fault.inject_us.") + line, median(us), "us");
      report.metric(std::string("fault.flips_per_trial.") + line,
                    flips / static_cast<double>(n), "count");
    }
    const auto totals = totals_by_name(tracer.spans());
    const auto ev_it = totals.find("fault.evaluate");
    const double eval_ms = ev_it == totals.end() ? 0.0 : ev_it->second.total_ms;
    const double eval_n =
        ev_it == totals.end() ? 1.0 : static_cast<double>(ev_it->second.count);
    report.metric("fault.evaluate_ms_per_trial", eval_ms / eval_n, "ms");
    report.metric("fault.lane_busy_frac",
                  eval_ms / (traced_ms *
                             static_cast<double>(scale.campaign_threads)),
                  "fraction", "evaluate time / (wall x lanes)");

    report.metric("core.profile_s", step_median(times, "core.profile"), "s");
    report.metric("core.post_train_s", step_median(times, "core.post_train"),
                  "s");
    report.metric("eval.prepare_s", step_median(times, "eval.prepare"), "s");

    const double traced_tps = median(traced_sweep_tps);
    report.metric("trace.overhead_pct",
                  (trials_per_s - traced_tps) / trials_per_s * 100.0, "%",
                  "trials per second, untraced vs traced sweeps");
    report_trace(report, tracer, opt.trace_out);
  }
  report.print_result();
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench
