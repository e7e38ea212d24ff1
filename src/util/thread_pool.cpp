#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace hs::util {

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  // With no workers (serial pool) nothing drains the queue; finish any
  // fire-and-forget tasks that were queued, preserving the "queued work
  // still runs" destructor contract.
  while (!tasks_.empty()) {
    auto task = std::move(tasks_.front());
    tasks_.pop();
    task();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stop_) return;
        continue;  // woken by a batch-completion broadcast
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::enqueue_locked(std::function<void()> task) {
  HS_ASSERT_MSG(!stop_, "task submitted to a stopped pool");
  tasks_.push(std::move(task));
}

void ThreadPool::notify_completion() {
  // Lock-then-notify so a helper that just evaluated its predicate as
  // false under mutex_ cannot miss the wakeup.
  std::lock_guard<std::mutex> lock(mutex_);
  cv_.notify_all();
}

void ThreadPool::help_until(const std::function<bool()>& done) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (done()) return;
      if (tasks_.empty()) {
        cv_.wait(lock, [&] { return done() || !tasks_.empty(); });
        if (done()) return;
        if (tasks_.empty()) continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // One block per worker plus one for the helping caller.
  const std::size_t blocks = std::min(n, workers_.size() + 1);
  const std::size_t chunk = (n + blocks - 1) / blocks;

  std::atomic<std::size_t> remaining{blocks};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t lo = b * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      enqueue_locked([&, lo, hi] {
        try {
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> elock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        if (remaining.fetch_sub(1) == 1) notify_completion();
      });
    }
  }
  cv_.notify_all();

  help_until([&] { return remaining.load() == 0; });

  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::submit(std::function<void()> task) {
  auto guarded = [t = std::move(task)] {
    try {
      t();
    } catch (...) {
      HS_LOG_WARN("thread_pool: exception escaped a fire-and-forget task");
    }
  };
  if (workers_.empty()) {
    guarded();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    enqueue_locked(std::move(guarded));
  }
  cv_.notify_one();
}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destructors must not throw; callers who care about task errors call
    // wait() themselves.
  }
}

void TaskGroup::submit(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  // After the pending_ decrement a concurrent wait() may return and the
  // group be destroyed, so the completion wakeup must go through a local
  // pool pointer, never through `this`.
  ThreadPool* pool = pool_;
  auto tracked = [this, pool, f = std::move(fn)] {
    try {
      f();
    } catch (...) {
      std::lock_guard<std::mutex> elock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    if (pending_.fetch_sub(1) == 1) pool->notify_completion();
  };
  if (pool_->workers_.empty()) {
    tracked();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pool_->mutex_);
    pool_->enqueue_locked(std::move(tracked));
  }
  pool_->cv_.notify_one();
}

void TaskGroup::wait() {
  pool_->help_until([this] { return pending_.load() == 0; });
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> elock(error_mutex_);
    err = std::exchange(first_error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace hs::util
