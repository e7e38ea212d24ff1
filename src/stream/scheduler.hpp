// Chunk-parallel execution across simulated devices.
//
// The paper's chunking scheme (Section 3.2) splits an oversize scene into
// independent spatial tiles of whole pixel vectors; nothing in the stream
// model couples one chunk to another. run_chunks exploits that: N workers
// pull chunk indices from one counter, in index order. Worker 0 is the
// calling thread; workers 1..N-1 are plain threads started for the run and
// joined before it returns. Each worker slot belongs to one thread, so a
// job can keep worker-local state (its own gpusim::Device) with no sharing
// beyond read-only program text and the input cube.
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

namespace hs::stream {

/// Resolves a worker-count request: 0 = auto (one per hardware thread),
/// anything else is taken literally. Always >= 1.
std::size_t resolve_workers(std::size_t requested);

/// Runs job(worker, chunk) exactly once for every chunk index in
/// [0, chunks) on min(workers, chunks) workers, at least one. Chunks are
/// handed out in index order; jobs may keep per-worker mutable state
/// without locks. Returns once every started thread is joined. If a job
/// throws, no further chunk starts, in-flight chunks finish, and the first
/// exception is rethrown.
void run_chunks(std::size_t workers, std::size_t chunks,
                const std::function<void(std::size_t worker, std::size_t chunk)>& job);

}  // namespace hs::stream
