// The simulated GPU device: video-memory management, host transfers, and
// multi-pass quad rendering.
//
// A Device owns textures (counted against the profile's video memory, as
// the paper's chunking strategy depends on that limit), executes fragment
// programs over full-viewport quads ("draw passes") across its simulated
// fragment pipes, and accumulates both functional statistics and modeled
// time. It enforces the stream-model rules the paper relies on:
//
//   * a pass's outputs cannot also be bound as its inputs (no feedback
//     within a pass -- ping-pong between passes instead);
//   * all outputs of a pass have identical dimensions (the viewport);
//   * fragments are independent -- the device may execute them in any
//     order across pipes, so kernels must not depend on output order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/compiled_program.hpp"
#include "gpusim/device_profile.hpp"
#include "gpusim/fragment_ir.hpp"
#include "gpusim/interpreter.hpp"
#include "gpusim/soa_program.hpp"
#include "gpusim/texture.hpp"
#include "gpusim/texture_cache.hpp"
#include "gpusim/timing_model.hpp"
#include "trace/trace.hpp"

namespace hs::gpusim {

/// Thrown when a texture allocation would exceed the device's video memory.
class GpuOutOfMemory : public std::runtime_error {
 public:
  explicit GpuOutOfMemory(const std::string& what) : std::runtime_error(what) {}
};

/// Opaque texture identifier. 0 is never a valid handle.
using TextureHandle = std::uint32_t;

/// Fragment-program execution engine. Both engines produce bit-identical
/// outputs, counters, cache statistics and modeled times (see
/// soa_program.hpp for the exactness guarantee); the interpreter is the
/// simple reference, the SoA engine the default fast path.
enum class ExecEngine : std::uint8_t {
  Interpreter,  ///< decode every operand per fragment (reference)
  Soa,          ///< lowered once, tile-batched SIMD lane loops
};

/// Parses "interpreter" / "soa" (exact, lowercase); returns false and
/// leaves `out` untouched on anything else.
bool parse_exec_engine(std::string_view name, ExecEngine& out);

/// The canonical CLI name of an engine (inverse of parse_exec_engine).
const char* exec_engine_name(ExecEngine engine);

struct SimConfig {
  /// Simulate the per-pipe texture cache (stats + timing). Off = every
  /// fetch is modeled as full-texel memory traffic.
  bool texture_cache = true;
  /// Enforce the profile's video-memory capacity on texture creation.
  bool enforce_memory_limit = true;
  /// Engine used by draw().
  ExecEngine exec_engine = ExecEngine::Soa;
  /// Entries in the device's lowered-program LRU cache (clamped to >= 1).
  /// Size it to the working set of distinct (program, constants,
  /// texture-shape) combinations the workload re-draws.
  std::size_t program_cache_capacity = 32;
  /// Optional cross-device lowered-program store backing local cache
  /// misses (null = each device lowers its own programs). clone_blank
  /// copies the config, so chunk-parallel worker clones share the store
  /// automatically; results stay bit-identical (see SharedProgramStore).
  std::shared_ptr<SharedProgramStore> shared_programs;
};

struct PassStats {
  std::string program;
  int width = 0;
  int height = 0;
  std::uint64_t fragments = 0;
  ExecCounters exec;
  TextureCacheStats cache;
  std::uint64_t cache_miss_bytes = 0;
  std::uint64_t unique_tile_bytes = 0;  ///< compulsory DRAM texture traffic
  std::uint64_t bytes_written = 0;
  double modeled_seconds = 0;
};

struct TransferStats {
  std::uint64_t upload_bytes = 0;
  std::uint64_t download_bytes = 0;
  std::uint64_t uploads = 0;
  std::uint64_t downloads = 0;
  double modeled_upload_seconds = 0;
  double modeled_download_seconds = 0;

  TransferStats& operator+=(const TransferStats& o) {
    upload_bytes += o.upload_bytes;
    download_bytes += o.download_bytes;
    uploads += o.uploads;
    downloads += o.downloads;
    modeled_upload_seconds += o.modeled_upload_seconds;
    modeled_download_seconds += o.modeled_download_seconds;
    return *this;
  }
};

struct DeviceTotals {
  std::uint64_t passes = 0;
  std::uint64_t fragments = 0;
  ExecCounters exec;
  TextureCacheStats cache;
  std::uint64_t bytes_written = 0;
  double modeled_pass_seconds = 0;
  TransferStats transfer;

  /// Modeled end-to-end time: all passes plus all transfers.
  double modeled_total_seconds() const {
    return modeled_pass_seconds + transfer.modeled_upload_seconds +
           transfer.modeled_download_seconds;
  }

  /// Component-wise merge, used by chunk-parallel runs to reduce
  /// per-chunk totals in chunk-index order. Because each chunk's totals
  /// are accumulated from a zeroed state, merging them in a fixed order
  /// reproduces the sequential run's sums bit-for-bit (integer counters
  /// trivially; double sums because the addition order is identical).
  DeviceTotals& operator+=(const DeviceTotals& o) {
    passes += o.passes;
    fragments += o.fragments;
    exec += o.exec;
    cache += o.cache;
    bytes_written += o.bytes_written;
    modeled_pass_seconds += o.modeled_pass_seconds;
    transfer += o.transfer;
    return *this;
  }
};

class Device {
 public:
  explicit Device(DeviceProfile profile, SimConfig config = {});

  const DeviceProfile& profile() const { return profile_; }
  const SimConfig& config() const { return config_; }

  /// A fresh device with the same profile, the given simulation config,
  /// no textures, empty caches and zeroed totals -- what a chunk-parallel
  /// worker needs: the hardware model is shared (profiles are value
  /// types), the mutable state is private.
  std::unique_ptr<Device> clone_blank(const SimConfig& config) const {
    return std::make_unique<Device>(profile_, config);
  }

  // -- video memory ---------------------------------------------------------

  /// Allocates a texture; throws std::invalid_argument when a side exceeds
  /// kMaxTextureDim, and GpuOutOfMemory when the profile's video memory
  /// would be exceeded (and enforcement is on).
  TextureHandle create_texture(int width, int height, TextureFormat format,
                               AddressMode address = AddressMode::ClampToEdge);
  void destroy_texture(TextureHandle handle);

  /// The mutable overload counts as a write: it renews the texture's
  /// generation (see draw()), so hold the reference only as long as the
  /// writes it makes. Read through the const overload.
  Texture2D& texture(TextureHandle handle);
  const Texture2D& texture(TextureHandle handle) const;

  std::uint64_t video_memory_used() const { return memory_used_; }
  std::uint64_t video_memory_free() const;

  // -- host transfers (counted against the bus model) ------------------------

  /// Uploads row-major texel data; size must match width*height.
  void upload(TextureHandle handle, std::span<const float4> texels);
  void upload(TextureHandle handle, std::span<const float> scalars);
  /// Uploads `channels` strided float channels into the four-channel
  /// textures `handles`, all of one size: channel c of texel (x, y) is
  /// origin[x * x_stride + y * y_stride + c * channel_stride] and lands in
  /// component c % 4 of handles[c / 4]; components past the last channel
  /// are 0. One pixel-major pass writes texture storage directly, and each
  /// texture counts as one upload.
  void upload(std::span<const TextureHandle> handles, const float* origin,
              std::ptrdiff_t x_stride, std::ptrdiff_t y_stride,
              std::ptrdiff_t channel_stride, int channels);
  std::vector<float4> download(TextureHandle handle);
  std::vector<float> download_scalar(TextureHandle handle);

  // -- rendering --------------------------------------------------------------

  /// Executes one full-viewport pass of `program`: for every texel of the
  /// output(s), runs the fragment program with texcoord[0] = texel center,
  /// textures bound to `inputs` (unit i = inputs[i]), constants c[i] =
  /// constants[i], writing result.color[k] to outputs[k].
  ///
  /// Every texture carries a write generation, drawn from one device-wide
  /// counter and renewed on create, upload, use as a render target and
  /// each call to the mutable texture(). A pass whose dynamic fetch
  /// coordinates come from texels keys its replay memo on the generations
  /// of those textures, so it replays the cache model again only after
  /// one of them was written.
  ///
  /// The pass runs on the calling thread. A pass that replays runs as
  /// one slice per logical pipe, in pipe order, since each pipe's cache
  /// and tile tracker see only its own rows. A pass that replays nothing
  /// (a memo hit, or the cache model off) runs as one slice of all rows.
  PassStats draw(const FragmentProgram& program,
                 std::span<const TextureHandle> inputs,
                 std::span<const float4> constants,
                 std::span<const TextureHandle> outputs);

  const DeviceTotals& totals() const { return totals_; }
  void reset_totals() { totals_ = {}; }

  /// The lowered-program cache (hit/miss statistics for tests and tools).
  const ProgramCache& program_cache() const { return program_cache_; }

  /// The device's recorded replays (for tests and tools). See ReplayMemo.
  const ReplayMemo& replay_memo() const { return replay_memo_; }
  /// Replay-memo lookups by memo-eligible draw() passes: a hit reused
  /// recorded cache totals instead of replaying, a miss replayed and
  /// recorded them.
  std::uint64_t replay_memo_hits() const { return replay_memo_hits_; }
  std::uint64_t replay_memo_misses() const { return replay_memo_misses_; }

 private:
  struct Slot {
    std::unique_ptr<Texture2D> texture;
    std::uint64_t generation = 0;  ///< renewed on every write
  };

  /// A pass's validated bindings.
  struct BoundPass {
    int width = 0;
    int height = 0;
    std::vector<Texture2D*> targets;
    std::vector<const Texture2D*> inputs;
    std::vector<std::uint32_t> input_ids;
  };

  BoundPass bind_pass(const FragmentProgram& program,
                      std::span<const TextureHandle> inputs,
                      std::span<const float4> constants,
                      std::span<const TextureHandle> outputs);
  std::vector<TileTouchTracker> make_tile_trackers(const BoundPass& bound) const;
  SoaBindings soa_bindings(const BoundPass& bound, std::size_t pipe,
                           std::span<TileTouchTracker> pipe_tiles);
  PassCacheTotals collect_cache_totals(
      const BoundPass& bound, std::span<const TileTouchTracker> pipe_tiles);
  /// Counts one upload of `bytes` against the bus model; returns its
  /// modeled seconds.
  double count_upload(std::uint64_t bytes);
  PassStats finalize_pass(const FragmentProgram& program, const BoundPass& bound,
                          std::uint64_t fragments,
                          const ExecCounters& exec,
                          const PassCacheTotals& cache);

  Texture2D& slot(TextureHandle handle) const;

  DeviceProfile profile_;
  SimConfig config_;
  std::vector<Slot> slots_;  // index = handle - 1
  std::uint64_t generations_ = 0;  // last generation handed out
  std::uint64_t memory_used_ = 0;
  std::vector<TextureCache> pipe_caches_;  // one per logical pipe
  ProgramCache program_cache_;
  ReplayMemo replay_memo_;
  std::uint64_t replay_memo_hits_ = 0;
  std::uint64_t replay_memo_misses_ = 0;
  // Process-global trace counters, like ProgramCache's.
  trace::Counter* trace_memo_hits_;
  trace::Counter* trace_memo_misses_;
  DeviceTotals totals_;
};

}  // namespace hs::gpusim
