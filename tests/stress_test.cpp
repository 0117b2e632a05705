// Stress tests for ut::ThreadPool: exception capture under parallel_for and
// parallel_for_each when many chunks throw at once (repeatedly, so a stuck
// worker or a call that returns before its chunks finish surfaces), and
// nested in-worker parallel_for staying inline — never fanning back into
// the pool and oversubscribing it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace fitact::ut {
namespace {

TEST(ThreadPoolStress, CapturesManyThrowingChunks) {
  // A 16-worker pool chunks a large range into up to 17 concurrently
  // running chunks; every one of them throws, on every iteration. The
  // contract: each chunk is still driven to completion (full coverage),
  // exactly one exception is rethrown on the calling thread, and the pool
  // survives to serve the next iteration.
  ThreadPool pool(16);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::atomic<int>> hits(513);
    bool caught = false;
    try {
      pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        throw std::runtime_error("chunk failure");
      });
    } catch (const std::runtime_error&) {
      caught = true;
    }
    EXPECT_TRUE(caught) << "iteration " << iter;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1)
          << "iteration " << iter << " index " << i
          << ": a throwing sibling kept this chunk from running";
    }
  }
  // The pool must still be fully functional after 50 all-throwing rounds.
  std::atomic<int> total{0};
  pool.parallel_for(0, 1000, [&](std::size_t b, std::size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPoolStress, MixedThrowersStillCoverEverything) {
  // Only some chunks throw (first exception wins); coverage and reusability
  // must hold regardless of which chunk failed.
  ThreadPool pool(8);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<std::atomic<int>> hits(256);
    std::atomic<int> throwers{0};
    try {
      pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        if (b % 2 == static_cast<std::size_t>(iter % 2)) {
          throwers.fetch_add(1);
          throw std::logic_error("selective failure");
        }
      });
    } catch (const std::logic_error&) {
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "iteration " << iter << " index " << i;
    }
  }
}

TEST(ThreadPoolStress, ParallelForEachRunsEveryIndexThenRethrows) {
  // Every index throws, on workers and on the calling thread alike. No
  // throw may escape a worker's loop (that terminates the process) or
  // return the call while workers still run fn, which references this
  // frame: every index runs exactly once, then one exception surfaces.
  ThreadPool pool(8);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<std::atomic<int>> hits(301);
    bool caught = false;
    try {
      pool.parallel_for_each(0, hits.size(), 3, [&](std::size_t i) {
        hits[i].fetch_add(1);
        throw std::runtime_error("index failure");
      });
    } catch (const std::runtime_error&) {
      caught = true;
    }
    EXPECT_TRUE(caught) << "iteration " << iter;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "iteration " << iter << " index " << i;
    }
  }
  std::atomic<int> total{0};
  pool.parallel_for_each(0, 100, 7, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolStress, NestedParallelForRunsInlineWithoutOversubscription) {
  // Every nested parallel_for issued from inside a chunk must execute on
  // the thread that issued it (inline), so the set of threads doing nested
  // work can never exceed the pool's execution contexts (workers + caller).
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> nested_threads;
  std::atomic<int> nested_total{0};
  std::atomic<int> mismatches{0};
  pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e) {
    const std::thread::id outer = std::this_thread::get_id();
    for (std::size_t i = b; i < e; ++i) {
      pool.parallel_for(0, 16, [&](std::size_t nb, std::size_t ne) {
        if (std::this_thread::get_id() != outer) mismatches.fetch_add(1);
        nested_total.fetch_add(static_cast<int>(ne - nb));
        {
          const std::lock_guard<std::mutex> lock(mutex);
          nested_threads.insert(std::this_thread::get_id());
        }
      });
    }
  });
  EXPECT_EQ(mismatches.load(), 0)
      << "a nested parallel_for escaped its issuing thread";
  EXPECT_EQ(nested_total.load(), 64 * 16);
  EXPECT_LE(nested_threads.size(), pool.size() + 1);
}

TEST(ThreadPoolStress, ThrowFromNestedInlineCallPropagatesThroughOuterChunk) {
  // An exception raised inside a nested (inline) parallel_for unwinds into
  // the outer chunk, which the outer parallel_for captures and rethrows on
  // the calling thread — never into a pool worker's loop.
  ThreadPool pool(4);
  std::atomic<int> chunks_run{0};
  bool caught = false;
  try {
    pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e) {
      chunks_run.fetch_add(1);
      pool.parallel_for(b, e, [&](std::size_t nb, std::size_t /*ne*/) {
        if (nb % 2 == 0) throw std::runtime_error("nested failure");
      });
    });
  } catch (const std::runtime_error&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(chunks_run.load(), static_cast<int>(
                                   std::min<std::size_t>(64, pool.size() + 1)));
  // Still alive.
  std::atomic<int> total{0};
  pool.parallel_for_each(0, 100, 7,
                         [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 100);
}

}  // namespace
}  // namespace fitact::ut
