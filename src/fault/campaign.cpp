#include "fault/campaign.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

namespace fitact::fault {

void aggregate(CampaignResult& result) {
  if (result.accuracies.empty()) {
    result.mean_accuracy = 0.0;
    result.min_accuracy = 0.0;
    result.max_accuracy = 0.0;
    return;
  }
  double sum = 0.0;
  double lo = result.accuracies.front();
  double hi = lo;
  for (const double a : result.accuracies) {
    sum += a;
    lo = std::min(lo, a);
    hi = std::max(hi, a);
  }
  result.mean_accuracy = sum / static_cast<double>(result.accuracies.size());
  result.min_accuracy = lo;
  result.max_accuracy = hi;
}

namespace {

/// Lane count for a run: resolve the 0 = auto setting and clamp to the
/// trial count (a lane beyond it would pull no trial). `trials` > 0.
std::size_t lane_count_for(const CampaignConfig& config, std::size_t trials) {
  const std::size_t lanes =
      config.threads == 0 ? ut::default_thread_count() : config.threads;
  return std::clamp<std::size_t>(lanes, 1, trials);
}

/// CampaignSession's trial loop: runs `trials` trials on the first `lanes`
/// entries of `workers`, on `pool` (at least lanes - 1 workers) when
/// lanes > 1. Every worker must already be built. Trial t always consumes
/// stream t and writes slot t, so the result is bit-identical for any lane
/// count and hand-out order. Lock-free by construction: `streams`, `order`
/// and both result vectors are fully sized before the fan-out, the atomic
/// counter hands each trial to exactly one lane, every trial touches
/// disjoint elements, and parallel_for's join publishes the results (see
/// the contract note in campaign.h).
CampaignResult run_trials(std::vector<CampaignWorker>& workers,
                          std::size_t lanes, ut::ThreadPool* pool,
                          const CampaignConfig& config, std::size_t trials) {
  CampaignResult result;
  result.accuracies.assign(trials, 0.0);
  result.flip_counts.assign(trials, 0);

  // Pre-split every trial's stream from the root in serial order: trial t
  // always sees the same stream no matter which lane runs it.
  ut::Rng root(config.seed);
  std::vector<ut::Rng> streams;
  streams.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) streams.push_back(root.split());

  FaultModel model = config.fault_model;
  model.bit_error_rate = config.bit_error_rate;

  // Costliest first: a trial whose lowest word is lower resumes from an
  // earlier clean prefix. Ties keep trial order, and trials without events
  // (word_count()) come last. A single lane needs no order and skips the
  // draws.
  std::vector<std::size_t> order(trials);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (lanes > 1) {
    std::vector<std::uint64_t> lowest(trials);
    for (std::size_t t = 0; t < trials; ++t) {
      lowest[t] = workers[0].injector->lowest_drawn_word(model, streams[t]);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return lowest[a] < lowest[b];
                     });
  }

  std::atomic<std::size_t> next{0};
  const auto run_lane = [&](std::size_t lane) {
    CampaignWorker& w = workers[lane];
    for (std::size_t i = next++; i < trials; i = next++) {
      const std::size_t t = order[i];
      const InjectionRecord rec = w.injector->inject(model, streams[t]);
      try {
        result.accuracies[t] = w.evaluate();
      } catch (...) {
        // Keep the restore contract even when evaluate throws: the lane's
        // model (for lane 0, the caller's model) must not stay corrupted.
        w.injector->restore();
        throw;
      }
      w.injector->restore();
      result.flip_counts[t] = rec.fault_events;
    }
  };

  if (lanes <= 1) {
    run_lane(0);
  } else {
    // One chunk per lane: the calling thread runs lane 0 and each pool
    // worker one other lane (a chunk spans several lanes only when
    // parallel_for runs inline). A lane that throws surfaces here:
    // parallel_for finishes the other lanes and rethrows the first
    // exception on this thread.
    pool->parallel_for(0, lanes, [&](std::size_t begin, std::size_t end) {
      for (std::size_t lane = begin; lane < end; ++lane) run_lane(lane);
    });
  }
  aggregate(result);
  return result;
}

}  // namespace

CampaignResult run_campaign(const WorkerFactory& make_worker,
                            const CampaignConfig& config) {
  return CampaignSession(make_worker).run(config);
}

CampaignResult run_campaign(Injector& injector,
                            const std::function<double()>& evaluate,
                            const CampaignConfig& config) {
  CampaignConfig serial = config;
  serial.threads = 1;
  return run_campaign(
      [&](std::size_t) {
        CampaignWorker w;
        w.injector = &injector;
        w.evaluate = evaluate;
        return w;
      },
      serial);
}

CampaignSession::CampaignSession(WorkerFactory make_worker)
    : make_worker_(std::move(make_worker)) {
  if (!make_worker_) {
    throw std::invalid_argument("CampaignSession: null worker factory");
  }
}

CampaignResult CampaignSession::run(const CampaignConfig& config) {
  const std::size_t trials =
      config.trials > 0 ? static_cast<std::size_t>(config.trials) : 0;
  if (trials == 0) {
    CampaignResult empty;
    aggregate(empty);
    return empty;
  }
  const std::size_t lanes = lane_count_for(config, trials);

  // Every lane is built on the calling thread before the first trial runs:
  // replica lanes typically clone the lane-0 model, which the trials are
  // about to corrupt. After invalidate(), rebuild every cached lane (not
  // only the ones this run uses — a lane skipped now must not carry stale
  // bounds into a later, wider run), in lane order so that lane 0 is
  // rebuilt before the replicas clone it.
  if (stale_) {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      workers_[i] = make_worker_(i);
    }
    stale_ = false;
  }
  // Grow the lane set if this run needs more lanes than any earlier one.
  // New lanes clone the source as it stands now, exactly like a fresh run.
  workers_.reserve(lanes);
  for (std::size_t i = workers_.size(); i < lanes; ++i) {
    workers_.push_back(make_worker_(i));
  }
  if (lanes > 1 && (!pool_ || pool_->size() < lanes - 1)) {
    pool_.reset();  // join the old workers before starting the new ones
    pool_ = std::make_unique<ut::ThreadPool>(lanes - 1);
  }
  return run_trials(workers_, lanes, pool_.get(), config, trials);
}

}  // namespace fitact::fault
