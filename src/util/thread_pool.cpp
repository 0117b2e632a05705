#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace fitact::ut {
namespace {
// Set while a pool worker executes a task — and while the calling thread
// executes its own chunk of a parallel_for. Nested parallel_for calls from
// either run inline instead of re-entering a pool: with a small pool,
// workers waiting on sub-tasks that only other (equally blocked) workers
// could run would stall the process, and a calling-thread chunk fanning
// nested kernels over the global pool would oversubscribe the cores its
// sibling chunks are already using.
thread_local bool tl_in_worker = false;

// RAII: mark the current thread as executing pool work.
struct InWorkerScope {
  InWorkerScope() noexcept { tl_in_worker = true; }
  ~InWorkerScope() { tl_in_worker = false; }
  InWorkerScope(const InWorkerScope&) = delete;
  InWorkerScope& operator=(const InWorkerScope&) = delete;
};

// Join-point shared by the fan-out entry points: chunks decrement pending
// under m and the calling thread blocks until it reaches zero. Chunks run
// through run(), which records the first exception instead of letting it
// unwind: on a pool worker it would escape worker_loop and terminate the
// process, and on the calling thread it would return while enqueued chunks
// still reference the caller's frame. wait_all rethrows it once every chunk
// has finished. Guarded members are initialised in the constructor (which
// the thread-safety analysis exempts) before the struct is shared with any
// worker.
struct Sync {
  explicit Sync(std::size_t p) : pending(p) {}
  Mutex m;
  CondVar done;
  std::size_t pending FITACT_GUARDED_BY(m);
  std::exception_ptr error FITACT_GUARDED_BY(m);

  template <typename Fn>
  void run(const Fn& fn) FITACT_EXCLUDES(m) {
    try {
      fn();
    } catch (...) {
      const LockGuard lock(m);
      if (!error) error = std::current_exception();
    }
  }
  void finish_one() FITACT_EXCLUDES(m) {
    {
      const LockGuard lock(m);
      --pending;
    }
    done.notify_one();
  }
  void wait_all() FITACT_EXCLUDES(m) {
    std::exception_ptr first;
    {
      const LockGuard lock(m);
      while (pending != 0) done.wait(m);
      first = error;
    }
    if (first) std::rethrow_exception(first);
  }
};
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      const LockGuard lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_.wait(mutex_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    const InWorkerScope scope;
    task();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    const LockGuard lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  if (tl_in_worker) {
    fn(begin, end);
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t num_chunks = std::min(n, workers_.size() + 1);
  if (num_chunks <= 1) {
    fn(begin, end);
    return;
  }
  const std::size_t chunk = (n + num_chunks - 1) / num_chunks;

  auto sync = std::make_shared<Sync>(num_chunks - 1);
  for (std::size_t c = 1; c < num_chunks; ++c) {
    const std::size_t b = begin + c * chunk;
    const std::size_t e = std::min(end, b + chunk);
    if (b >= e) {
      sync->finish_one();
      continue;
    }
    enqueue([fn, b, e, sync] {
      sync->run([&] { fn(b, e); });
      sync->finish_one();
    });
  }
  // The calling thread executes the first chunk itself, flagged as pool
  // work so nested kernel parallel_for calls run inline like they do on
  // the worker-thread chunks.
  {
    const InWorkerScope scope;
    sync->run([&] { fn(begin, std::min(end, begin + chunk)); });
  }
  sync->wait_all();
}

void ThreadPool::parallel_for_each(std::size_t begin, std::size_t end,
                                   std::size_t grain,
                                   const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  if (tl_in_worker) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  if (grain == 0) grain = 1;
  const std::size_t helpers =
      std::min(workers_.size(), (end - begin + grain - 1) / grain);
  auto sync = std::make_shared<Sync>(helpers);
  auto next = std::make_shared<std::atomic<std::size_t>>(begin);
  // Each index runs under its own run(), so a throwing index skips no other.
  const auto worker = [next, end, grain, &fn, sync] {
    for (;;) {
      const std::size_t b = next->fetch_add(grain);
      if (b >= end) return;
      const std::size_t e = std::min(end, b + grain);
      for (std::size_t i = b; i < e; ++i) sync->run([&] { fn(i); });
    }
  };

  for (std::size_t c = 0; c < helpers; ++c) {
    enqueue([worker, sync] {
      worker();
      sync->finish_one();
    });
  }
  {
    const InWorkerScope scope;
    worker();
  }
  sync->wait_all();
}

InlineKernelScope::InlineKernelScope() noexcept : previous_(tl_in_worker) {
  tl_in_worker = true;
}

InlineKernelScope::~InlineKernelScope() { tl_in_worker = previous_; }

namespace {
// Atomic for TSan hygiene: a misuse that calls set_global_threads while
// another thread races global_pool() is still a logic error (the setting
// may be ignored), but must not read as a data race.
std::atomic<std::size_t>& global_threads_setting() {
  static std::atomic<std::size_t> n{0};  // 0 = auto
  return n;
}
}  // namespace

std::size_t default_thread_count() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 2 : static_cast<std::size_t>(hc);
}

std::size_t set_global_threads(std::size_t n) {
  global_threads_setting().store(n, std::memory_order_relaxed);
  return n == 0 ? default_thread_count() : n;
}

ThreadPool& global_pool() {
  static ThreadPool pool([] {
    const std::size_t n =
        global_threads_setting().load(std::memory_order_relaxed);
    return n > 0 ? n : default_thread_count();
  }());
  return pool;
}

bool kernels_inline() noexcept { return tl_in_worker; }

}  // namespace fitact::ut
