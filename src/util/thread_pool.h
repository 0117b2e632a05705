// Minimal fixed-size thread pool with a blocking parallel_for.
//
// The process-wide pool (global_pool) serves the GEMM kernel and the eager
// conv2d's sample loop; it avoids repeated thread creation, defaults to
// the hardware concurrency, and can be capped via set_global_threads
// before first use. The fault-injection campaign engine runs its lanes on
// a pool of its own instead: a fault::CampaignSession keeps one ThreadPool
// of lanes - 1 workers for its lifetime (fault::run_campaign is a one-run
// session), one lane per model replica; nested kernel parallel_for calls
// from inside those lanes run inline (see tl_in_worker in thread_pool.cpp).
//
// Locking discipline (machine-checked under clang -Wthread-safety, see
// util/thread_annotations.h): the task queue and the stop flag are guarded
// by mutex_; workers_ is immutable once the constructor returns and needs
// no lock.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace fitact::ut {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Run fn(begin..end) partitioned into roughly equal contiguous chunks,
  /// one per worker (plus the calling thread). Blocks until all chunks
  /// complete. fn receives a half-open index range [chunk_begin, chunk_end).
  /// If fn throws, every other chunk still runs to completion and the first
  /// exception is rethrown on the calling thread afterwards: exceptions
  /// never unwind a pool worker, and the call never returns while a chunk
  /// still runs. (A call made inside a chunk runs inline as one chunk, so
  /// its exception simply propagates into the enclosing chunk.)
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Run fn once per index in [begin, end), dynamically load-balanced in
  /// blocks of `grain`. Use for heterogeneous per-item costs. Exceptions as
  /// for parallel_for, per index: every other index still runs, then the
  /// first exception is rethrown on the calling thread.
  void parallel_for_each(std::size_t begin, std::size_t end, std::size_t grain,
                         const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void enqueue(std::function<void()> task) FITACT_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;  ///< immutable after construction
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::function<void()>> tasks_ FITACT_GUARDED_BY(mutex_);
  bool stop_ FITACT_GUARDED_BY(mutex_) = false;
};

/// RAII: run every nested parallel_for / parallel_for_each on the current
/// thread, inline and allocation-free, for the lifetime of the scope — the
/// same mechanism pool workers use so nested kernels never re-enter a pool.
/// Serving lanes executing a recorded nn::InferencePlan wrap each batch in
/// one of these: the lane threads already saturate the hardware threads, so
/// fanning kernel work over the global pool would only oversubscribe cores
/// and heap-allocate task state on the hot path.
class InlineKernelScope {
 public:
  InlineKernelScope() noexcept;
  ~InlineKernelScope();
  InlineKernelScope(const InlineKernelScope&) = delete;
  InlineKernelScope& operator=(const InlineKernelScope&) = delete;

 private:
  bool previous_;
};

/// Default worker count for "use every hardware thread" requests: the
/// hardware concurrency, or 2 when the runtime cannot report it.
[[nodiscard]] std::size_t default_thread_count() noexcept;

/// Process-wide pool, created on first use.
ThreadPool& global_pool();

/// Cap the global pool size; must be called before the first global_pool()
/// use to take effect. Returns the size that will be used.
std::size_t set_global_threads(std::size_t n);

/// True while the current thread must run kernels inline — it is a pool
/// worker or inside an InlineKernelScope.
[[nodiscard]] bool kernels_inline() noexcept;

/// Convenience wrapper over global_pool(). A template (not a
/// std::function parameter) so the inline path calls fn directly: type
/// erasure heap-allocates for capturing lambdas, which would put one
/// allocation per kernel launch on the zero-allocation planned-serving
/// hot path (nn/plan.h).
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, const Fn& fn) {
  if (begin >= end) return;
  if (kernels_inline()) {
    fn(begin, end);
    return;
  }
  global_pool().parallel_for(begin, end, fn);
}

}  // namespace fitact::ut
