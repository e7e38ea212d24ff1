// Fixed-size thread pool with a blocking parallel_for and waitable task
// groups.
//
// The chunk scheduler (stream/scheduler.hpp) runs whole pipeline chunks
// on this pool. Functional results never depend on its size: work is
// split by *logical* index, and a smaller pool simply multiplexes indices
// onto fewer OS threads.
//
// Every blocking wait in this file *helps*: while waiting for its own work
// to finish, the waiter pops and executes queued tasks. That makes nested
// use safe -- a task may call parallel_for or TaskGroup::wait on the same
// pool without deadlocking even when every worker thread is occupied --
// and it removes the wakeup round-trip when the pool is saturated (on a
// single-core host the caller typically executes its own blocks inline).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hs::util {

class ThreadPool {
 public:
  /// Creates `threads` worker threads. `threads == 0` means "serial":
  /// submitted work runs inline on the calling thread, which keeps
  /// single-core containers and deterministic debugging cheap.
  explicit ThreadPool(std::size_t threads);

  /// Drains every queued task (queued work still runs; nothing is
  /// dropped), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// iterations finished. Iterations are distributed in contiguous blocks,
  /// one block per logical worker, so callers can reason about locality.
  /// The caller helps execute blocks while waiting. Exceptions thrown by
  /// fn are rethrown (first one wins) on the caller; the pool stays usable
  /// afterwards. Safe to call from inside a task running on this pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Fire-and-forget: enqueues `task` with no completion tracking (use
  /// TaskGroup when you need to wait). Tasks still queued when the pool is
  /// destroyed run during destruction. `task` must not throw -- an escaped
  /// exception is caught and logged, never propagated.
  void submit(std::function<void()> task);

 private:
  friend class TaskGroup;

  void worker_loop();
  /// Enqueues without notifying; callers notify once per batch.
  void enqueue_locked(std::function<void()> task);
  /// Executes queued tasks until done() holds, sleeping only when the
  /// queue is empty. done() is evaluated under the pool mutex, so it may
  /// read state published under that mutex or atomics.
  void help_until(const std::function<bool()>& done);
  /// Wakes every waiter (workers and helpers); called by completion
  /// bookkeeping after a tracked batch finishes.
  void notify_completion();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  /// Signaled when tasks arrive, on stop, and on batch completion (helpers
  /// wait on completion predicates evaluated under mutex_).
  std::condition_variable cv_;
  bool stop_ = false;
};

/// A waitable batch of tasks on a ThreadPool.
///
/// submit() may be called from any thread, including from inside a task
/// already running on the pool (nested submission). wait() blocks until
/// every submitted task completed, helping execute queued work meanwhile
/// (nested waits therefore cannot deadlock), and rethrows the first
/// exception any task threw. The group is reusable after wait().
///
/// The group must not outlive its pool, and wait() must be called (or the
/// group destroyed, which waits and swallows errors) before any state the
/// tasks reference goes out of scope.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(&pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void submit(std::function<void()> fn);

  /// Blocks (helping) until all submitted tasks finished; rethrows the
  /// first stored exception.
  void wait();

 private:
  ThreadPool* pool_;
  std::atomic<std::size_t> pending_{0};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace hs::util
