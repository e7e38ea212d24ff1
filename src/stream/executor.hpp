// Stage-labeled pass execution.
//
// The paper's Figure 4 organizes the GPU algorithm into named stages, each
// comprising one or more kernels ("every stage ... comprises at least one
// kernel, although in most cases the stage is implemented using more than
// one"). StreamExecutor wraps Device::draw with a stage label and keeps a
// per-stage aggregate, which the stage-breakdown bench prints.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gpusim/gpu_device.hpp"
#include "trace/trace.hpp"

namespace hs::stream {

struct StageStats {
  std::uint64_t passes = 0;
  std::uint64_t fragments = 0;
  std::uint64_t alu_instructions = 0;
  std::uint64_t tex_fetches = 0;
  std::uint64_t cache_miss_bytes = 0;
  std::uint64_t unique_tile_bytes = 0;
  std::uint64_t bytes_written = 0;
  double modeled_seconds = 0;

  /// Component-wise merge (chunk-parallel runs reduce per-chunk stage
  /// stats in chunk-index order; see DeviceTotals::operator+=).
  StageStats& operator+=(const StageStats& o) {
    passes += o.passes;
    fragments += o.fragments;
    alu_instructions += o.alu_instructions;
    tex_fetches += o.tex_fetches;
    cache_miss_bytes += o.cache_miss_bytes;
    unique_tile_bytes += o.unique_tile_bytes;
    bytes_written += o.bytes_written;
    modeled_seconds += o.modeled_seconds;
    return *this;
  }
};

/// Stage accounting is thread-safe: run() and add_stage_time() may be
/// called for the same (or different) stage names from multiple threads
/// concurrently -- the per-stage aggregate is guarded, so no update is
/// lost. Note the underlying Device is NOT itself thread-safe; concurrent
/// callers must target distinct devices or serialize draws themselves.
/// The aggregates cover the executor's whole life; the chunked pipelines
/// build a fresh executor per chunk.
class StreamExecutor {
 public:
  explicit StreamExecutor(gpusim::Device& device)
      : device_(&device),
        passes_counter_(&trace::counter("stream.executor.passes")),
        stage_seconds_gauge_(&trace::gauge("stream.executor.stage_seconds")) {}

  /// Runs one pass attributed to `stage`. Emits a `stage_pass` trace span
  /// wrapping the device draw, carrying the stage attribution.
  gpusim::PassStats run(const std::string& stage,
                        const gpusim::FragmentProgram& program,
                        std::span<const gpusim::TextureHandle> inputs,
                        std::span<const gpusim::float4> constants,
                        std::span<const gpusim::TextureHandle> outputs);

  /// Attributes host-side (non-pass) modeled time to a stage, e.g. the
  /// upload/download stages whose cost comes from the bus model.
  void add_stage_time(const std::string& stage, double seconds);

  /// Snapshot accessors. Do not call concurrently with run() /
  /// add_stage_time(): the returned references alias guarded state.
  const std::map<std::string, StageStats>& stages() const { return stages_; }
  /// Stage names in first-use order (std::map iteration is alphabetical).
  const std::vector<std::string>& stage_order() const { return order_; }

 private:
  StageStats& stage_locked(const std::string& name);

  gpusim::Device* device_;
  mutable std::mutex mutex_;  ///< guards stages_ and order_
  std::map<std::string, StageStats> stages_;
  std::vector<std::string> order_;
  trace::Counter* passes_counter_;
  trace::Gauge* stage_seconds_gauge_;
};

}  // namespace hs::stream
