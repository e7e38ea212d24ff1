#include "stream/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/histogram.hpp"

namespace hs::stream {

std::size_t resolve_workers(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void run_chunks(std::size_t workers, std::size_t chunks,
                const std::function<void(std::size_t worker, std::size_t chunk)>& job) {
  const std::size_t threads = std::min(std::max<std::size_t>(1, workers), chunks);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  const auto work = [&](std::size_t worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      try {
        const auto begin = std::chrono::steady_clock::now();
        job(worker, c);
        // Chunk service time: one chunk's full pipeline pass through a
        // worker, the unit the workers load-balance.
        trace::histogram("stream.chunk_service_s")
            .record(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - begin)
                        .count());
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> helpers;
  try {
    for (std::size_t w = 1; w < threads; ++w) helpers.emplace_back(work, w);
  } catch (...) {
    // A thread could not start: stop the started ones before they take
    // another chunk, and join them so none is destroyed joinable.
    failed.store(true, std::memory_order_relaxed);
    for (std::thread& t : helpers) t.join();
    throw;
  }
  work(0);
  for (std::thread& t : helpers) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace hs::stream
