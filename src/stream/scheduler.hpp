// Chunk-parallel execution across a pool of simulated devices.
//
// The paper's chunking scheme (Section 3.2) splits an oversize scene into
// independent spatial tiles of whole pixel vectors; nothing in the stream
// model couples one chunk to another. ChunkScheduler exploits that: it
// drives chunk jobs across `workers` OS threads, each bound to one worker
// slot so a job can keep worker-local state (its own gpusim::Device) with
// no sharing beyond read-only program text and the input cube.
//
// Determinism contract (see DESIGN.md "Chunk-parallel execution"): a chunk
// job must depend only on its chunk index and read-only shared inputs, and
// must write only chunk-exclusive outputs. Under that contract every
// worker count -- including the sequential workers=1 baseline -- produces
// bit-identical results; callers make aggregate *statistics* deterministic
// too by capturing them per chunk and reducing in chunk-index order.
#pragma once

#include <cstddef>
#include <functional>

#include "util/thread_pool.hpp"

namespace hs::stream {

/// Resolves a worker-count request: 0 = auto (one per hardware thread),
/// anything else is taken literally. Always >= 1.
std::size_t resolve_workers(std::size_t requested);

class ChunkScheduler {
 public:
  /// `workers` >= 1. One worker runs every job inline on the calling
  /// thread -- the exact sequential baseline, no extra threads.
  explicit ChunkScheduler(std::size_t workers);

  std::size_t workers() const { return workers_; }

  /// Runs job(worker, chunk) for every chunk index in [0, chunks). Chunks
  /// are handed out dynamically in index order; each worker slot in
  /// [0, workers) is used by at most one OS thread at a time, so jobs may
  /// use per-slot mutable state without locks. Blocks until every job
  /// finished. If a job throws, no further chunks are started, in-flight
  /// jobs drain, and the first exception is rethrown.
  void run(std::size_t chunks,
           const std::function<void(std::size_t worker, std::size_t chunk)>& job);

 private:
  std::size_t workers_;
  util::ThreadPool pool_;
};

}  // namespace hs::stream
