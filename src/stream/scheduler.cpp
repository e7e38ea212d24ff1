#include "stream/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "trace/histogram.hpp"

namespace hs::stream {

namespace {

/// Chunk service time: one chunk's full pipeline pass through a worker,
/// the unit the scheduler load-balances. Shared by both run() paths so
/// the distribution is comparable across worker counts.
void record_chunk_service(std::chrono::steady_clock::time_point begin) {
  trace::histogram("stream.chunk_service_s")
      .record(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - begin)
                  .count());
}

}  // namespace

std::size_t resolve_workers(std::size_t requested) {
  if (requested > 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ChunkScheduler::ChunkScheduler(std::size_t workers)
    : workers_(std::max<std::size_t>(1, workers)),
      pool_(workers_ > 1 ? workers_ : 0) {}

void ChunkScheduler::run(
    std::size_t chunks,
    const std::function<void(std::size_t worker, std::size_t chunk)>& job) {
  if (chunks == 0) return;
  if (workers_ == 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto begin = std::chrono::steady_clock::now();
      job(0, c);
      record_chunk_service(begin);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  pool_.parallel_for(workers_, [&](std::size_t worker) {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      try {
        const auto begin = std::chrono::steady_clock::now();
        job(worker, c);
        record_chunk_service(begin);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;  // parallel_for keeps the first exception and rethrows it
      }
    }
  });
}

}  // namespace hs::stream
