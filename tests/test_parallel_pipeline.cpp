// Chunk-parallel determinism suite: the workers may execute chunks in
// any order on any worker, yet every functional output, counter and
// modeled time must be bit-identical to the sequential (workers = 1) run.
// Worker counts include 7 -- deliberately not a divisor of the chunk
// count -- so ragged final waves are covered.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/amc.hpp"
#include "core/amc_gpu.hpp"
#include "core/unmix_gpu.hpp"
#include "stream/scheduler.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace hs::core {
namespace {

hsi::HyperCube random_cube(int w, int h, int n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  hsi::HyperCube cube(w, h, n);
  for (auto& v : cube.raw()) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return cube;
}

/// Fast simulated device, forced into many chunks so the scheduler has
/// real parallelism to exploit (and 7 workers get a ragged last wave).
AmcGpuOptions chunked_options(std::size_t workers) {
  AmcGpuOptions opt;
  opt.profile = gpusim::geforce_7800_gtx();
  opt.profile.fragment_pipes = 4;
  opt.chunk_texel_budget = 20 * 8;
  opt.workers = workers;
  return opt;
}

void expect_same_morph(const MorphOutputs& a, const MorphOutputs& b) {
  ASSERT_EQ(a.mei.size(), b.mei.size());
  for (std::size_t i = 0; i < a.mei.size(); ++i) {
    ASSERT_EQ(a.mei[i], b.mei[i]) << "mei at " << i;
    ASSERT_EQ(a.db[i], b.db[i]) << "db at " << i;
    ASSERT_EQ(a.erosion_index[i], b.erosion_index[i]) << "erosion at " << i;
    ASSERT_EQ(a.dilation_index[i], b.dilation_index[i]) << "dilation at " << i;
  }
}

void expect_same_totals(const gpusim::DeviceTotals& a,
                        const gpusim::DeviceTotals& b) {
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.fragments, b.fragments);
  EXPECT_EQ(a.exec.alu_instructions, b.exec.alu_instructions);
  EXPECT_EQ(a.exec.tex_fetches, b.exec.tex_fetches);
  EXPECT_EQ(a.exec.tex_fetch_bytes, b.exec.tex_fetch_bytes);
  EXPECT_EQ(a.cache.accesses, b.cache.accesses);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.transfer.upload_bytes, b.transfer.upload_bytes);
  EXPECT_EQ(a.transfer.download_bytes, b.transfer.download_bytes);
  EXPECT_EQ(a.transfer.uploads, b.transfer.uploads);
  EXPECT_EQ(a.transfer.downloads, b.transfer.downloads);
  // Bit-equality of the double sums, not just closeness: per-chunk totals
  // start from zero and merge in chunk-index order for every worker count.
  EXPECT_EQ(a.modeled_pass_seconds, b.modeled_pass_seconds);
  EXPECT_EQ(a.transfer.modeled_upload_seconds, b.transfer.modeled_upload_seconds);
  EXPECT_EQ(a.transfer.modeled_download_seconds,
            b.transfer.modeled_download_seconds);
  EXPECT_EQ(a.modeled_total_seconds(), b.modeled_total_seconds());
}

TEST(ParallelPipeline, MorphologyBitIdenticalAcrossWorkerCounts) {
  const auto cube = random_cube(24, 18, 8, 11);
  const StructuringElement se = StructuringElement::square(1);

  const AmcGpuReport base = morphology_gpu(cube, se, chunked_options(1));
  ASSERT_GE(base.chunk_count, 5u) << "scene must split into several chunks";
  EXPECT_EQ(base.workers_used, 1u);

  for (std::size_t workers : {2u, 4u, 7u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const AmcGpuReport par = morphology_gpu(cube, se, chunked_options(workers));
    EXPECT_EQ(par.workers_used, std::min(workers, base.chunk_count));
    EXPECT_EQ(par.chunk_count, base.chunk_count);

    expect_same_morph(base.morph, par.morph);
    expect_same_totals(base.totals, par.totals);
    EXPECT_EQ(base.modeled_seconds, par.modeled_seconds);

    // Stage table: same stages in the same pipeline order with identical
    // aggregates, including the modeled double sums.
    ASSERT_EQ(base.stages.size(), par.stages.size());
    for (std::size_t s = 0; s < base.stages.size(); ++s) {
      EXPECT_EQ(base.stages[s].first, par.stages[s].first);
      EXPECT_EQ(base.stages[s].second.passes, par.stages[s].second.passes);
      EXPECT_EQ(base.stages[s].second.fragments, par.stages[s].second.fragments);
      EXPECT_EQ(base.stages[s].second.alu_instructions,
                par.stages[s].second.alu_instructions);
      EXPECT_EQ(base.stages[s].second.tex_fetches,
                par.stages[s].second.tex_fetches);
      EXPECT_EQ(base.stages[s].second.bytes_written,
                par.stages[s].second.bytes_written);
      EXPECT_EQ(base.stages[s].second.modeled_seconds,
                par.stages[s].second.modeled_seconds);
    }

    // Per-chunk costs line up chunk for chunk.
    ASSERT_EQ(base.chunk_costs.size(), par.chunk_costs.size());
    for (std::size_t ci = 0; ci < base.chunk_costs.size(); ++ci) {
      EXPECT_EQ(base.chunk_costs[ci].upload_seconds,
                par.chunk_costs[ci].upload_seconds);
      EXPECT_EQ(base.chunk_costs[ci].pass_seconds,
                par.chunk_costs[ci].pass_seconds);
      EXPECT_EQ(base.chunk_costs[ci].download_seconds,
                par.chunk_costs[ci].download_seconds);
    }
  }
}

TEST(ParallelPipeline, IndexStreamIdenticalAcrossWorkers) {
  const auto cube = random_cube(20, 16, 6, 12);
  const StructuringElement se = StructuringElement::square(1);
  AmcGpuOptions seq = chunked_options(1);
  seq.emit_index_stream = true;
  AmcGpuOptions par = chunked_options(4);
  par.emit_index_stream = true;
  const AmcGpuReport a = morphology_gpu(cube, se, seq);
  const AmcGpuReport b = morphology_gpu(cube, se, par);
  ASSERT_GT(a.chunk_count, 1u);
  ASSERT_EQ(a.index_stream.size(), b.index_stream.size());
  for (std::size_t i = 0; i < a.index_stream.size(); ++i) {
    ASSERT_EQ(a.index_stream[i], b.index_stream[i]) << i;
  }
}

TEST(ParallelPipeline, HalfPrecisionIdenticalAcrossWorkers) {
  const auto cube = random_cube(20, 16, 6, 13);
  const StructuringElement se = StructuringElement::square(1);
  AmcGpuOptions seq = chunked_options(1);
  seq.half_precision = true;
  AmcGpuOptions par = chunked_options(4);
  par.half_precision = true;
  const AmcGpuReport a = morphology_gpu(cube, se, seq);
  const AmcGpuReport b = morphology_gpu(cube, se, par);
  expect_same_morph(a.morph, b.morph);
  expect_same_totals(a.totals, b.totals);
}

TEST(ParallelPipeline, FullAmcClassificationIdenticalAcrossWorkers) {
  // End to end through run_amc: endmember extraction and the GPU-resident
  // classification both consume the parallel morphology output.
  const auto cube = random_cube(24, 18, 8, 14);
  AmcConfig config;
  config.backend = Backend::GpuStream;
  config.num_classes = 4;
  config.endmember_min_separation = 2;
  config.gpu = chunked_options(1);
  config.gpu_classification = true;
  const AmcResult base = run_amc(cube, config);

  for (std::size_t workers : {2u, 4u, 7u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AmcConfig par_config = config;
    par_config.gpu = chunked_options(workers);
    const AmcResult par = run_amc(cube, par_config);

    // Endmember sets: same pixels in the same order, same raw spectra.
    ASSERT_EQ(base.endmember_pixels, par.endmember_pixels);
    ASSERT_EQ(base.endmember_spectra.size(), par.endmember_spectra.size());
    for (std::size_t k = 0; k < base.endmember_spectra.size(); ++k) {
      ASSERT_EQ(base.endmember_spectra[k], par.endmember_spectra[k]) << k;
    }
    // Classification map stitch.
    ASSERT_EQ(base.labels, par.labels);
    // MEI texture.
    expect_same_morph(base.morph, par.morph);
    // Aggregated GPU telemetry.
    ASSERT_TRUE(base.gpu.has_value());
    ASSERT_TRUE(par.gpu.has_value());
    expect_same_totals(base.gpu->totals, par.gpu->totals);
    EXPECT_EQ(base.gpu->modeled_seconds, par.gpu->modeled_seconds);
    EXPECT_EQ(base.gpu->classification_modeled_seconds,
              par.gpu->classification_modeled_seconds);
  }
}

TEST(ParallelPipeline, UnmixBitIdenticalAcrossWorkerCounts) {
  const auto cube = random_cube(22, 16, 8, 15);
  std::vector<std::vector<float>> endmembers;
  for (int k = 0; k < 5; ++k) {
    const auto spectrum = random_cube(1, 1, 8, 100 + static_cast<std::uint64_t>(k));
    endmembers.emplace_back(spectrum.raw().begin(), spectrum.raw().end());
  }
  const GpuUnmixReport base =
      unmix_gpu(cube, endmembers, chunked_options(1), /*download_abundances=*/true);
  ASSERT_GT(base.chunk_count, 1u);

  for (std::size_t workers : {2u, 4u, 7u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const GpuUnmixReport par = unmix_gpu(cube, endmembers,
                                         chunked_options(workers),
                                         /*download_abundances=*/true);
    ASSERT_EQ(base.labels, par.labels);
    ASSERT_EQ(base.abundances, par.abundances);
    expect_same_totals(base.totals, par.totals);
    EXPECT_EQ(base.modeled_seconds, par.modeled_seconds);
    ASSERT_EQ(base.chunk_costs.size(), par.chunk_costs.size());
  }
}

/// The sequential reference-engine run the SoA tests compare against.
AmcGpuOptions interpreter_options() {
  AmcGpuOptions opt = chunked_options(1);
  opt.sim.exec_engine = gpusim::ExecEngine::Interpreter;
  return opt;
}

TEST(ParallelPipeline, SoaEngineBitIdenticalAcrossWorkerCounts) {
  // The SoA engine must reproduce the sequential interpreter bit for bit
  // at every worker count: engine choice and chunk parallelism are both
  // invisible to outputs, counters, cache statistics and modeled time.
  // workers = 1 pins the sequential SoA run itself to the interpreter
  // baseline; 7 covers the ragged final wave.
  const auto cube = random_cube(24, 18, 8, 11);
  const StructuringElement se = StructuringElement::square(1);

  const AmcGpuReport base = morphology_gpu(cube, se, interpreter_options());
  ASSERT_GE(base.chunk_count, 5u) << "scene must split into several chunks";

  for (std::size_t workers : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AmcGpuOptions opt = chunked_options(workers);
    opt.sim.exec_engine = gpusim::ExecEngine::Soa;
    const AmcGpuReport soa = morphology_gpu(cube, se, opt);
    EXPECT_EQ(soa.chunk_count, base.chunk_count);
    expect_same_morph(base.morph, soa.morph);
    expect_same_totals(base.totals, soa.totals);
    EXPECT_EQ(base.modeled_seconds, soa.modeled_seconds);
  }
}

TEST(ParallelPipeline, SoaUnmixBitIdenticalAcrossWorkerCounts) {
  const auto cube = random_cube(22, 16, 8, 15);
  std::vector<std::vector<float>> endmembers;
  for (int k = 0; k < 5; ++k) {
    const auto spectrum = random_cube(1, 1, 8, 100 + static_cast<std::uint64_t>(k));
    endmembers.emplace_back(spectrum.raw().begin(), spectrum.raw().end());
  }
  const GpuUnmixReport base = unmix_gpu(cube, endmembers, interpreter_options(),
                                       /*download_abundances=*/true);
  ASSERT_GT(base.chunk_count, 1u);

  for (std::size_t workers : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    AmcGpuOptions opt = chunked_options(workers);
    opt.sim.exec_engine = gpusim::ExecEngine::Soa;
    const GpuUnmixReport soa = unmix_gpu(cube, endmembers, opt,
                                         /*download_abundances=*/true);
    ASSERT_EQ(base.labels, soa.labels);
    ASSERT_EQ(base.abundances, soa.abundances);
    expect_same_totals(base.totals, soa.totals);
    EXPECT_EQ(base.modeled_seconds, soa.modeled_seconds);
  }
}

// Reads the process-global trace counter registry, which the HS_TRACE=OFF
// configuration compiles down to inert stubs.
#if HS_TRACE_ENABLED

TEST(ParallelPipeline, ExecutorPassCounterInvariantAcrossWorkers) {
  // The process-global stream.executor.passes counter must advance by the
  // same amount whatever the worker count: passes are counted per chunk
  // and chunks are invariant.
  const auto cube = random_cube(20, 16, 6, 16);
  const StructuringElement se = StructuringElement::square(1);
  trace::Counter& passes = trace::counter("stream.executor.passes");

  const std::int64_t before_seq = passes.value();
  morphology_gpu(cube, se, chunked_options(1));
  const std::int64_t seq_delta = passes.value() - before_seq;
  EXPECT_GT(seq_delta, 0);

  const std::int64_t before_par = passes.value();
  morphology_gpu(cube, se, chunked_options(4));
  const std::int64_t par_delta = passes.value() - before_par;
  EXPECT_EQ(seq_delta, par_delta);
}

#endif  // HS_TRACE_ENABLED

TEST(ParallelPipeline, ModeledParallelScheduleProperties) {
  const auto cube = random_cube(24, 18, 8, 17);
  const StructuringElement se = StructuringElement::square(1);
  const AmcGpuReport report = morphology_gpu(cube, se, chunked_options(1));
  ASSERT_GE(report.chunk_count, 5u);

  // workers = 1 is exactly the serialized modeled time (same bits).
  EXPECT_EQ(report.modeled_parallel_seconds(1), report.modeled_seconds);

  // More workers never slow the schedule down, and the serialized bus plus
  // the single slowest chunk bound it from below.
  double bus = 0, max_pass = 0;
  for (const ChunkCost& c : report.chunk_costs) {
    bus += c.upload_seconds + c.download_seconds;
    max_pass = std::max(max_pass, c.pass_seconds);
  }
  double prev = report.modeled_parallel_seconds(1);
  for (std::size_t w = 2; w <= report.chunk_count + 1; ++w) {
    const double t = report.modeled_parallel_seconds(w);
    EXPECT_LE(t, prev) << "workers=" << w;
    EXPECT_GE(t, bus + max_pass) << "workers=" << w;
    prev = t;
  }
  // With >= 5 similar chunks, 4 devices genuinely shrink compute.
  EXPECT_LT(report.modeled_parallel_seconds(4), report.modeled_seconds);
  // Beyond one device per chunk nothing is left to parallelize.
  EXPECT_EQ(report.modeled_parallel_seconds(report.chunk_count),
            report.modeled_parallel_seconds(report.chunk_count + 10));
}

// Needs the span recorder, stubbed out under HS_TRACE=OFF.
#if HS_TRACE_ENABLED

TEST(ParallelPipeline, TraceSpansCompleteUnderParallelRun) {
  // gtest_discover_tests runs each TEST in its own process, so enabling
  // tracing here cannot leak into other tests.
  trace::set_enabled(true);
  trace::reset();
  const auto cube = random_cube(24, 18, 6, 18);
  const StructuringElement se = StructuringElement::square(1);
  const AmcGpuReport report = morphology_gpu(cube, se, chunked_options(4));
  ASSERT_GT(report.chunk_count, 1u);

  std::size_t pipeline_spans = 0, chunk_spans = 0;
  std::size_t stage_spans = 0, stage_pass_spans = 0;
  for (const auto& ev : trace::snapshot()) {
    if (ev.cat == "pipeline") ++pipeline_spans;
    if (ev.cat == "chunk") ++chunk_spans;
    if (ev.cat == "stage") ++stage_spans;
    if (ev.cat == "stage_pass") ++stage_pass_spans;
  }
  EXPECT_EQ(pipeline_spans, 1u);
  EXPECT_EQ(chunk_spans, report.chunk_count);
  // Six stage spans per chunk, none lost or duplicated under concurrency.
  EXPECT_EQ(stage_spans, 6 * report.chunk_count);
  EXPECT_EQ(stage_pass_spans, report.totals.passes);
  trace::set_enabled(false);
}

#endif  // HS_TRACE_ENABLED

TEST(ParallelPipeline, WorkersClampAndAutoResolve) {
  // A single-chunk scene cannot use more than one worker.
  const auto cube = random_cube(12, 10, 6, 19);
  const StructuringElement se = StructuringElement::square(1);
  AmcGpuOptions opt;
  opt.profile = gpusim::geforce_7800_gtx();
  opt.profile.fragment_pipes = 4;
  opt.workers = 7;
  const AmcGpuReport report = morphology_gpu(cube, se, opt);
  EXPECT_EQ(report.chunk_count, 1u);
  EXPECT_EQ(report.workers_used, 1u);

  EXPECT_GE(stream::resolve_workers(0), 1u);
  EXPECT_EQ(stream::resolve_workers(3), 3u);
}

// ---- scheduler unit behavior ----------------------------------------------

TEST(ChunkScheduler, RunsEveryChunkExactlyOnceWithValidWorkerIds) {
  constexpr std::size_t kChunks = 103;
  std::vector<std::atomic<int>> seen(kChunks);
  stream::run_chunks(4, kChunks, [&](std::size_t worker, std::size_t chunk) {
    ASSERT_LT(worker, 4u);
    ASSERT_LT(chunk, kChunks);
    seen[chunk].fetch_add(1);
  });
  for (std::size_t i = 0; i < kChunks; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "chunk " << i;
  }
}

TEST(ChunkScheduler, SingleWorkerRunsInIndexOrderInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  stream::run_chunks(1, 9, [&](std::size_t worker, std::size_t chunk) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(chunk);
  });
  ASSERT_EQ(order.size(), 9u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ChunkScheduler, PropagatesJobExceptionAndStopsIssuingChunks) {
  std::atomic<int> started{0};
  std::atomic<bool> throwing{false};
  EXPECT_THROW(
      stream::run_chunks(3, 1000,
                         [&](std::size_t, std::size_t chunk) {
                           started.fetch_add(1);
                           if (chunk == 5) {
                             throwing.store(true);
                             throw std::runtime_error("chunk blew up");
                           }
                           // Later chunks wait for the throw and then hold
                           // for a millisecond. To issue every chunk, the
                           // other two workers would need chunk 5's worker
                           // descheduled for about half a second between
                           // its throw and the failure flag.
                           if (chunk > 5) {
                             while (!throwing.load()) std::this_thread::yield();
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(1));
                           }
                         }),
      std::runtime_error);
  // The failure flag stops new chunks; far fewer than all 1000 ran.
  EXPECT_LT(started.load(), 1000);
}

TEST(ChunkScheduler, ZeroChunksIsANoOp) {
  bool ran = false;
  stream::run_chunks(4, 0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ChunkScheduler, MoreWorkersThanChunks) {
  std::vector<std::atomic<int>> seen(3);
  stream::run_chunks(8, 3, [&](std::size_t worker, std::size_t chunk) {
    ASSERT_LT(worker, 3u) << "one thread per chunk at most";
    seen[chunk].fetch_add(1);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ChunkScheduler, ZeroChunksIsANoOpForEveryWorkerCount) {
  for (std::size_t workers : {0u, 1u, 2u, 16u}) {
    bool ran = false;
    stream::run_chunks(workers, 0, [&](std::size_t, std::size_t) { ran = true; });
    EXPECT_FALSE(ran) << workers << " workers";
  }
}

TEST(ChunkScheduler, ReusableAcrossRunsIncludingAfterAnException) {
  std::atomic<int> count{0};
  stream::run_chunks(3, 5, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);

  EXPECT_THROW(stream::run_chunks(3, 4,
                                  [&](std::size_t, std::size_t chunk) {
                                    if (chunk == 0) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);

  // A failed run leaves nothing behind: the next run still covers every
  // chunk.
  count.store(0);
  stream::run_chunks(3, 7, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 7);
}

TEST(ChunkScheduler, WorkersFarBeyondHardwareStillCoverEveryChunkOnce) {
  // More workers than any host has cores: a run starts one thread per
  // chunk, beyond the core count, yet slot-exclusivity (one thread per
  // worker id) and exactly-once chunk coverage must hold.
  constexpr std::size_t kChunks = 19;
  std::vector<std::atomic<int>> seen(kChunks);
  std::vector<std::atomic<int>> active(32);
  stream::run_chunks(32, kChunks, [&](std::size_t worker, std::size_t chunk) {
    EXPECT_EQ(active[worker].fetch_add(1), 0) << "worker slot shared";
    seen[chunk].fetch_add(1);
    active[worker].fetch_sub(1);
  });
  for (std::size_t i = 0; i < kChunks; ++i) EXPECT_EQ(seen[i].load(), 1);
}

std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Polls until `done()` holds or ten seconds pass, so a condition that
/// never comes true fails the test instead of hanging it.
template <typename Done>
void wait_until(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

TEST(ChunkScheduler, StartsOneThreadPerExtraWorker) {
  // Worker 0 is the caller; each further worker is one thread, started for
  // the run and joined before it returns. A sanitizer runtime (TSan) starts
  // a background thread of its own at the first thread creation, so start
  // and join one thread (and let the kernel reap it) before taking the
  // baseline.
  pid_t warm_tid = 0;
  std::thread([&warm_tid] { warm_tid = ::gettid(); }).join();
  const std::string warm_task = "/proc/self/task/" + std::to_string(warm_tid);
  wait_until([&] { return !std::filesystem::exists(warm_task); });
  const std::size_t before = live_threads();
  ASSERT_GE(before, 1u);
  const std::thread::id caller = std::this_thread::get_id();

  constexpr std::size_t kWorkers = 4;
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> counted{0};
  std::mutex mutex;
  std::vector<std::size_t> counts;
  std::set<std::thread::id> ids;
  stream::run_chunks(kWorkers, kWorkers, [&](std::size_t, std::size_t) {
    // Every job counts while all four are running, and none finishes (so
    // none of the threads exits) before all have counted.
    started.fetch_add(1);
    wait_until([&] { return started.load() == kWorkers; });
    const std::size_t n = live_threads();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      counts.push_back(n);
      ids.insert(std::this_thread::get_id());
    }
    counted.fetch_add(1);
    wait_until([&] { return counted.load() == kWorkers; });
  });
  ASSERT_EQ(counts.size(), kWorkers);
  for (const std::size_t n : counts) EXPECT_EQ(n, before + kWorkers - 1);
  EXPECT_EQ(ids.size(), kWorkers);
  EXPECT_EQ(ids.count(caller), 1u);
  // A joined thread can stay listed for a moment while the kernel reaps it.
  wait_until([&] { return live_threads() <= before; });
  EXPECT_EQ(live_threads(), before);

  // One worker starts no thread: the caller runs every chunk.
  stream::run_chunks(1, kWorkers, [&](std::size_t, std::size_t) {
    EXPECT_EQ(live_threads(), before);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelPipeline, MoreWorkersThanChunksBitIdenticalToSequential) {
  // Multi-chunk scene (not the single-chunk clamp case above) with a
  // worker request far above the chunk count: workers are clamped to the
  // chunks and the outputs still bit-equal the sequential run.
  const auto cube = random_cube(20, 18, 8, 23);
  const StructuringElement se = StructuringElement::square(1);
  const AmcGpuReport base = morphology_gpu(cube, se, chunked_options(1));
  ASSERT_GT(base.chunk_count, 1u);

  AmcGpuOptions opt = chunked_options(base.chunk_count + 13);
  const AmcGpuReport report = morphology_gpu(cube, se, opt);
  EXPECT_EQ(report.workers_used, base.chunk_count);
  expect_same_morph(base.morph, report.morph);
  expect_same_totals(base.totals, report.totals);
  EXPECT_EQ(base.modeled_seconds, report.modeled_seconds);
}

}  // namespace
}  // namespace hs::core
