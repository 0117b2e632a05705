// Fault-injection campaign: repeated inject -> evaluate -> restore trials at
// a fixed bit error rate, producing the accuracy distribution behind the
// paper's Fig. 5 (box plots) and Fig. 6 (means).
//
// The engine fans trials out over worker lanes, each operating on its own
// model replica. Per-trial RNG streams are pre-split from the campaign seed
// in serial order and trial t writes its results into slot t, so a
// campaign's CampaignResult is bit-identical for any `threads` setting
// (including the serial threads = 1 path) and any hand-out order.
//
// Hand-out: a run with more than one lane orders its trials costliest
// first — by the lowest word each trial's draw touches
// (Injector::lowest_drawn_word), ascending, ties by trial index, trials
// without events last — and every lane pulls the next trial of that order
// from one shared counter until none is left. A trial that changes a lower
// word resumes its forward from an earlier clean prefix, so pulling the
// expensive trials first lets the lanes finish together.
//
// Threads: a CampaignSession owns one ut::ThreadPool of lanes - 1 workers
// for its lifetime (rebuilt only when a run needs more lanes); the calling
// thread runs lane 0 and each pool worker one other lane. run_campaign is a
// one-run session.
//
// Concurrency contract: the engine holds no locks of its own. Cross-thread
// isolation comes from structure — trial t writes only result slot t and
// reads only stream t (both sized before the fan-out, so no reallocation
// races), the hand-out counter is the only shared mutable state, and each
// lane runs on one thread at a time via ut::ThreadPool::parallel_for over
// the lane indices, whose join publishes every lane's writes to the calling
// thread and rethrows the first exception a lane raised once every lane
// has stopped. Lanes are built on the calling thread before the fan-out,
// and a reused lane is untouched between runs. The locking that backs this
// lives in the pool and is annotated there (util/thread_annotations.h); the
// TSan CI lane checks the disjointness claim dynamically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/injector.h"
#include "util/thread_pool.h"

namespace fitact::fault {

struct CampaignConfig {
  double bit_error_rate = 1e-6;
  std::int64_t trials = 16;
  std::uint64_t seed = 1234;
  /// Worker lanes for the parallel engine: 1 runs serially on the calling
  /// thread, 0 uses one lane per hardware thread. Only runs over a worker
  /// factory (CampaignSession, the factory overload of run_campaign) can use
  /// more than one lane (each lane needs its own model replica); results
  /// are bit-identical for every value.
  ///
  /// Utilization note: inside a lane, nested kernel parallelism (GEMM /
  /// conv parallel_for) runs inline, while at threads = 1 evaluate() fans
  /// kernels over the global pool. An intermediate setting (e.g. 2 lanes
  /// on an 8-core host) therefore caps total concurrency at the lane
  /// count and can be *slower* than serial; use 0 (or >= the core count)
  /// to saturate the machine.
  std::size_t threads = 1;
  /// Fault class and bit-range; bit_error_rate above overrides the model's
  /// own rate field. Defaults to the paper's uniform transient bit flips.
  FaultModel fault_model;
};

struct CampaignResult {
  std::vector<double> accuracies;       ///< one entry per trial
  std::vector<std::uint64_t> flip_counts;
  double mean_accuracy = 0.0;
  double min_accuracy = 0.0;
  double max_accuracy = 0.0;
};

/// Recompute mean/min/max from `accuracies` (zeros when empty).
void aggregate(CampaignResult& result);

/// Everything one worker lane needs: an injector over the lane's own
/// parameter image and an `evaluate` bound to the same replica. `evaluate`
/// measures model accuracy on the (faulty) replica and must not mutate its
/// parameters; the engine restores the clean image after every trial.
/// `keepalive` owns whatever the lane's pointers reference (replica model,
/// image, injector) for the duration of the campaign.
struct CampaignWorker {
  std::shared_ptr<void> keepalive;
  Injector* injector = nullptr;
  std::function<double()> evaluate;
};

/// Builds the worker for one lane (0-based). Lane 0 may wrap the original
/// model; every other lane must return an independent replica so trials can
/// run concurrently. The engine builds every lane on the calling thread
/// before any trial runs (replicas typically clone the lane-0 model, which
/// the trials then corrupt).
using WorkerFactory = std::function<CampaignWorker(std::size_t lane)>;

/// Runs the campaign over `config.threads` lanes built by `make_worker`:
/// CampaignSession(make_worker).run(config). Each lane's model is restored
/// to its clean image after every trial and at the end.
CampaignResult run_campaign(const WorkerFactory& make_worker,
                            const CampaignConfig& config);

/// Single-model convenience entry point. The engine cannot replicate the
/// model behind `injector`, so this overload always runs serially on the
/// calling thread regardless of `config.threads`.
CampaignResult run_campaign(Injector& injector,
                            const std::function<double()>& evaluate,
                            const CampaignConfig& config);

/// Persistent campaign engine for sweeps: owns the worker lanes (replica
/// models, parameter images, injectors) and the threads that run them
/// across every run() of a rate grid instead of rebuilding them per rate,
/// which removes replica construction and thread start-up from the
/// per-rate cost. A cached lane has one lifecycle: the factory builds it,
/// its injector restores it after every trial, and the factory rebuilds it
/// after invalidate(). Results are bit-identical to calling run_campaign
/// with the same factory and config at every thread count: the trial-stream
/// and slot contracts are unchanged, and a reused lane holds exactly the
/// clean image a fresh one would (every clean word round-trips through
/// quant::decode, so its restored model re-encodes to the same words).
///
/// Call invalidate() whenever the source model the factory replicates from
/// changes (re-protection, post-training). Not thread-safe; drive one
/// session from one thread.
class CampaignSession {
 public:
  explicit CampaignSession(WorkerFactory make_worker);

  /// Run one campaign over the cached lanes, growing the lane set if this
  /// config needs more than any earlier run.
  CampaignResult run(const CampaignConfig& config);

  /// Mark the cached lanes stale: the next run() first rebuilds every
  /// cached lane from the factory, in lane order, on the calling thread.
  void invalidate() noexcept { stale_ = true; }

  /// Lanes currently cached (0 before the first run).
  [[nodiscard]] std::size_t lane_count() const noexcept {
    return workers_.size();
  }

 private:
  WorkerFactory make_worker_;
  std::vector<CampaignWorker> workers_;
  /// One worker per lane beyond lane 0 (which runs on the calling thread);
  /// null until a run needs a second lane.
  std::unique_ptr<ut::ThreadPool> pool_;
  bool stale_ = false;
};

}  // namespace fitact::fault
