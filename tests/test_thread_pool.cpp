#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace hs::util {
namespace {

TEST(ThreadPool, SerialModeRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<int> hits(10, 0);
  pool.parallel_for(10, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleIterationRunsInline) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, MoreIterationsThanThreads) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 100u * 99u / 2u);
}

TEST(ThreadPool, FewerIterationsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [&](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(4, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, SequentialCallsCompose) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(16, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 320);
}

// ---- concurrency stress ----------------------------------------------------

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Every worker is occupied by an outer iteration that itself calls
  // parallel_for on the same pool; helping waits must execute the inner
  // work instead of deadlocking.
  ThreadPool pool(4);
  std::atomic<int> inner{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 64);
}

TEST(ThreadPool, SubmitRunsQueuedWorkBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
    // Destructor must drain the queue: nothing may be dropped.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, SerialPoolDrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(0);
    for (int i = 0; i < 5; ++i) pool.submit([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 5);
}

TEST(ThreadPool, SubmitSwallowsTaskExceptions) {
  ThreadPool pool(2);
  std::atomic<int> after{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([] { throw std::runtime_error("fire and forget"); });
    pool.submit([&] { after.fetch_add(1); });
  }
  // Pool must stay functional; wait for the queue via a tracked batch.
  pool.parallel_for(4, [](std::size_t) {});
  TaskGroup group(pool);
  group.submit([] {});
  group.wait();
  EXPECT_EQ(after.load(), 20);
}

TEST(TaskGroup, WaitsForAllTasks) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    group.submit([&] { done.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(TaskGroup, NestedSubmitFromInsideTasks) {
  // Tasks submit further tasks into the same group while it is waited on.
  ThreadPool pool(3);
  TaskGroup group(pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    group.submit([&] {
      done.fetch_add(1);
      group.submit([&] { done.fetch_add(1); });
    });
  }
  group.wait();
  EXPECT_EQ(done.load(), 32);
}

TEST(TaskGroup, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.submit([i] {
      if (i % 2 == 0) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // Reusable after the error was consumed.
  std::atomic<int> done{0};
  group.submit([&] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 1);
}

TEST(TaskGroup, SerialPoolRunsInline) {
  ThreadPool pool(0);
  TaskGroup group(pool);
  int done = 0;
  group.submit([&] { ++done; });
  EXPECT_EQ(done, 1);  // ran inline, before wait
  group.wait();
  EXPECT_EQ(done, 1);
}

TEST(TaskGroup, DestructorWaitsAndSwallows) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 32; ++i) {
      group.submit([&] {
        done.fetch_add(1);
        if (done.load() % 3 == 0) throw std::runtime_error("ignored");
      });
    }
    // No wait(): the destructor must block until all 32 ran and must not
    // let the stored exception escape.
  }
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, HammerMixedSubmitAndParallelFor) {
  // Interleave every API from multiple client threads at once.
  ThreadPool pool(4);
  ThreadPool clients(4);
  std::atomic<std::uint64_t> work{0};
  clients.parallel_for(4, [&](std::size_t client) {
    for (int round = 0; round < 25; ++round) {
      if (client % 2 == 0) {
        pool.parallel_for(16, [&](std::size_t) { work.fetch_add(1); });
      } else {
        TaskGroup group(pool);
        for (int i = 0; i < 16; ++i) {
          group.submit([&] { work.fetch_add(1); });
        }
        group.wait();
      }
    }
  });
  EXPECT_EQ(work.load(), 4u * 25u * 16u);
}

}  // namespace
}  // namespace hs::util
