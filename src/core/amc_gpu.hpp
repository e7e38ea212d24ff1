// GPU stream implementation of AMC step 2 (the paper's Section 3.2).
//
// Executes the six-stage pipeline of Figure 4 on the simulated GPU:
// upload -> normalization -> cumulative distance -> max/min -> SID -> download,
// with the image split into halo-padded spatial chunks when it exceeds
// video memory. Functional outputs are bit-identical to
// morphology_vectorized (the CPU mirror of the kernels) when the default
// options are used; the report carries the modeled timing breakdown.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/morphology.hpp"
#include "gpusim/device_profile.hpp"
#include "gpusim/gpu_device.hpp"
#include "stream/executor.hpp"
#include "hsi/cube.hpp"

namespace hs::core {

/// Thrown by the GPU pipelines when an options.cancel_check callback asks
/// for a cooperative abort (deadline expiry, job cancellation). The run
/// stops at the next chunk boundary; partial outputs must be discarded.
class PipelineCancelled : public std::runtime_error {
 public:
  explicit PipelineCancelled(const std::string& what)
      : std::runtime_error(what) {}
};

struct AmcGpuOptions {
  gpusim::DeviceProfile profile = gpusim::geforce_7800_gtx();
  /// Simulator knobs. `sim.exec_engine` picks the fragment engine
  /// (the SoA SIMD engine by default, or the interpreter reference);
  /// results, counters and modeled times are bit-identical either way.
  gpusim::SimConfig sim;

  /// true: one cumulative-distance pass per band group covering all SE
  /// neighbors (fewer passes, the tuned layout). false: one pass per
  /// (neighbor, band group) pair -- the paper's literal "one cumulative
  /// stream per neighbor" formulation; same results up to float
  /// accumulation order.
  bool fuse_neighbors = true;

  /// true: materialize the log-probability stream once (extra stage,
  /// fewer LG2 ops downstream). false: recompute logs inside the
  /// cumulative-distance kernels. Outputs are bit-identical either way.
  bool precompute_log = true;

  /// Run the stream textures (band stacks and scalar accumulators) in
  /// half-float formats -- the NV3x-era speed/precision trade. Halves the
  /// texture memory and traffic; MEI values pick up fp16 quantization
  /// error (quantified by bench/ablate_half_precision).
  bool half_precision = false;

  /// Maximum padded texels per chunk; 0 derives it from free video memory.
  std::uint64_t chunk_texel_budget = 0;

  /// Also run the paper's index-stream variant of the max/min stage
  /// (Figure 4 describes "the index of the neighbors with maximum and
  /// minimum cumulative distance") and download it; the report's
  /// `index_stream` then holds (min_idx, max_idx) per pixel. The offsets
  /// variant still drives the MEI stage either way.
  bool emit_index_stream = false;

  /// Chunk-level parallelism: number of worker threads, each driving its
  /// own simulated device over independent chunks (0 = one per host
  /// hardware thread, clamped to the chunk count). Functional outputs,
  /// counters and modeled times are bit-identical for every value — see
  /// DESIGN.md "Chunk-parallel execution" for the determinism contract.
  std::size_t workers = 1;

  /// Cooperative cancellation hook, polled once per chunk immediately
  /// before that chunk starts. Returning true aborts the run by throwing
  /// PipelineCancelled (no further chunks start; in-flight chunks on other
  /// workers drain first). Must be thread-safe when workers > 1; leave
  /// empty for an uncancellable run. Completed runs are unaffected by the
  /// hook, so results stay bit-identical to a run without one.
  std::function<bool()> cancel_check;
};

/// Stage names used in reports, in pipeline order.
extern const char* const kStageUpload;
extern const char* const kStageNormalization;
extern const char* const kStageCumulativeDistance;
extern const char* const kStageMaxMin;
extern const char* const kStageSid;
extern const char* const kStageDownload;

/// Modeled cost of one chunk's trip through the pipeline.
struct ChunkCost {
  double upload_seconds = 0;
  double pass_seconds = 0;
  double download_seconds = 0;
};

/// Modeled seconds for `workers` devices processing `costs` concurrently:
/// compute runs in index-order waves of `workers` chunks (a wave costs the
/// max of its members' pass time) while the shared host bus serializes
/// every upload and download. With workers == 1 this regroups nothing and
/// bit-equals the serialized total (pass + upload + download sums in chunk
/// order), preserving the single-device Table 4/5 numbers.
double modeled_parallel_schedule_seconds(const std::vector<ChunkCost>& costs,
                                         std::size_t workers);

struct AmcGpuReport {
  MorphOutputs morph;
  /// Per-stage aggregates in pipeline order.
  std::vector<std::pair<std::string, stream::StageStats>> stages;
  gpusim::DeviceTotals totals;
  std::size_t chunk_count = 0;
  std::vector<ChunkCost> chunk_costs;
  /// Modeled end-to-end seconds, fully serialized (upload, compute and
  /// download of every chunk back to back -- the paper-era baseline).
  double modeled_seconds = 0;
  /// (min_idx, max_idx) pairs per pixel when emit_index_stream is set.
  std::vector<std::pair<std::uint8_t, std::uint8_t>> index_stream;

  /// Modeled seconds with double-buffered transfers: chunk k+1 uploads
  /// while chunk k computes and chunk k-1 downloads (the classic
  /// three-stage software pipeline an onboard system would use). Equals
  /// modeled_seconds for a single chunk.
  double modeled_overlapped_seconds() const;

  /// Worker count the run actually used (requested workers clamped to the
  /// chunk count; 1 for a sequential run).
  std::size_t workers_used = 1;

  /// Modeled seconds when `workers` devices process chunks concurrently:
  /// chunks execute in index-order waves of `workers`, each wave costing
  /// the max of its members' pass time, while the shared host bus
  /// serializes every upload and download. modeled_parallel_seconds(1)
  /// bit-equals modeled_seconds, preserving the Table 4/5 single-device
  /// numbers as the workers=1 case.
  double modeled_parallel_seconds(std::size_t workers) const;
};

AmcGpuReport morphology_gpu(const hsi::HyperCube& cube,
                            const StructuringElement& se,
                            const AmcGpuOptions& options);

}  // namespace hs::core
