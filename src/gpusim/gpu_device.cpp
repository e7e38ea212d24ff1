#include "gpusim/gpu_device.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace hs::gpusim {

namespace {
/// Attaches the pass statistics to its trace span: the modeled time next
/// to the span's own wall duration, the work counters, both DRAM traffic
/// estimates (cache-miss bytes and compulsory unique-tile bytes) and, with
/// the cache model on, how the cache totals were obtained (`replay`:
/// "full" replay or reused from the "memo") and in how many slices the
/// pass ran (`slices`: the logical pipes when it replays, else 1).
void annotate_pass_span(trace::Span& span, const PassStats& stats,
                        const char* replay, std::size_t slices) {
  if (!span.active()) return;
  if (replay != nullptr) span.arg("replay", replay);
  span.arg("slices", static_cast<double>(slices));
  span.arg("width", stats.width);
  span.arg("height", stats.height);
  span.arg("fragments", static_cast<double>(stats.fragments));
  span.arg("alu_instructions", static_cast<double>(stats.exec.alu_instructions));
  span.arg("tex_fetches", static_cast<double>(stats.exec.tex_fetches));
  span.arg("cache_hits", static_cast<double>(stats.cache.hits));
  span.arg("cache_misses", static_cast<double>(stats.cache.misses));
  span.arg("cache_miss_bytes", static_cast<double>(stats.cache_miss_bytes));
  span.arg("dram_tile_bytes", static_cast<double>(stats.unique_tile_bytes));
  span.arg("bytes_written", static_cast<double>(stats.bytes_written));
  span.arg("modeled_us", stats.modeled_seconds * 1e6);
}

/// Attaches which SoA path ran the pass: fetch slots by class
/// (`fetch_static`, `fetch_dynamic`, `fetch_uniform`) and the instructions
/// that ran fused (`fused`, 0 when the bound textures fail the fusion
/// check). Interpreter passes carry none of these.
void annotate_engine_path(trace::Span& span, const SoaProgram* soa,
                          std::span<const Texture2D* const> textures) {
  if (!span.active() || soa == nullptr) return;
  using Mode = SoaFetchPlan::Mode;
  double fetches[3] = {0, 0, 0};  // indexed by Mode
  for (const SoaFetchPlan& plan : soa->fetch) {
    ++fetches[static_cast<std::size_t>(plan.mode)];
  }
  span.arg("fetch_static", fetches[static_cast<std::size_t>(Mode::Static)]);
  span.arg("fetch_dynamic", fetches[static_cast<std::size_t>(Mode::Dynamic)]);
  span.arg("fetch_uniform", fetches[static_cast<std::size_t>(Mode::Uniform)]);
  span.arg("fused", static_cast<double>(soa_active_fusions(*soa, textures)));
}

/// Texel storage of `outs` (four floats per texel, row-major) from a
/// strided float source, one source pixel at a time: channel c of texel
/// (x, y) is origin[x * x_stride + y * y_stride + c * channel_stride] and
/// goes to component c % 4 of outs[c / 4]; components past the last
/// channel are 0.
template <bool kHalf>
void write_pixel_major(std::span<float* const> outs, const float* origin,
                       std::ptrdiff_t x_stride, std::ptrdiff_t y_stride,
                       std::ptrdiff_t channel_stride, int channels, int width,
                       int height) {
  const auto store = [channel_stride](float* dst, const float* src, int lanes) {
    for (int c = 0; c < 4; ++c) {
      const float v = c < lanes ? src[c * channel_stride] : 0.f;
      dst[c] = kHalf ? quantize_half(v) : v;
    }
  };
  const std::size_t full = static_cast<std::size_t>(channels / 4);
  const int tail = channels % 4;
  const std::ptrdiff_t group_stride = 4 * channel_stride;
  std::size_t i = 0;  // float offset of texel (x, y) in every texture
  for (int y = 0; y < height; ++y) {
    const float* row = origin + static_cast<std::ptrdiff_t>(y) * y_stride;
    for (int x = 0; x < width; ++x, i += 4) {
      const float* texel = row + static_cast<std::ptrdiff_t>(x) * x_stride;
      for (std::size_t g = 0; g < full; ++g) {
        store(outs[g] + i, texel + static_cast<std::ptrdiff_t>(g) * group_stride, 4);
      }
      if (tail > 0) {
        store(outs[full] + i, texel + static_cast<std::ptrdiff_t>(full) * group_stride,
              tail);
      }
    }
  }
}

}  // namespace

bool parse_exec_engine(std::string_view name, ExecEngine& out) {
  if (name == "interpreter") {
    out = ExecEngine::Interpreter;
  } else if (name == "soa") {
    out = ExecEngine::Soa;
  } else {
    return false;
  }
  return true;
}

const char* exec_engine_name(ExecEngine engine) {
  switch (engine) {
    case ExecEngine::Interpreter: return "interpreter";
    case ExecEngine::Soa: return "soa";
  }
  return "?";
}

Device::Device(DeviceProfile profile, SimConfig config)
    : profile_(std::move(profile)),
      config_(config),
      program_cache_(config.program_cache_capacity),
      trace_memo_hits_(&trace::counter("gpusim.replay_memo.hit")),
      trace_memo_misses_(&trace::counter("gpusim.replay_memo.miss")) {
  HS_ASSERT(profile_.fragment_pipes > 0);
  program_cache_.set_shared_store(config_.shared_programs);
  TextureCacheConfig cache_config;
  cache_config.total_bytes = profile_.tex_cache_bytes_per_pipe;
  pipe_caches_.reserve(static_cast<std::size_t>(profile_.fragment_pipes));
  for (int p = 0; p < profile_.fragment_pipes; ++p) {
    pipe_caches_.emplace_back(cache_config);
  }
}

TextureHandle Device::create_texture(int width, int height, TextureFormat format,
                                     AddressMode address) {
  if (width > kMaxTextureDim || height > kMaxTextureDim) {
    throw std::invalid_argument(
        "texture of " + std::to_string(width) + "x" + std::to_string(height) +
        " texels exceeds the " + std::to_string(kMaxTextureDim) + "x" +
        std::to_string(kMaxTextureDim) + " texture limit");
  }
  auto tex = std::make_unique<Texture2D>(width, height, format, address);
  const std::uint64_t bytes = tex->size_bytes();
  if (config_.enforce_memory_limit &&
      memory_used_ + bytes > profile_.video_memory_bytes) {
    throw GpuOutOfMemory("allocation of " + std::to_string(bytes) +
                         " bytes exceeds video memory (" +
                         std::to_string(profile_.video_memory_bytes - memory_used_) +
                         " free)");
  }
  memory_used_ += bytes;

  // Reuse a free slot if any; otherwise append.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].texture) {
      slots_[i] = Slot{std::move(tex), ++generations_};
      return static_cast<TextureHandle>(i + 1);
    }
  }
  slots_.push_back(Slot{std::move(tex), ++generations_});
  return static_cast<TextureHandle>(slots_.size());
}

void Device::destroy_texture(TextureHandle handle) {
  Texture2D& tex = slot(handle);
  memory_used_ -= tex.size_bytes();
  slots_[handle - 1].texture.reset();
}

Texture2D& Device::slot(TextureHandle handle) const {
  HS_ASSERT_MSG(handle != 0 && handle <= slots_.size(), "invalid texture handle");
  auto& ptr = const_cast<Slot&>(slots_[handle - 1]).texture;
  HS_ASSERT_MSG(ptr != nullptr, "texture handle already destroyed");
  return *ptr;
}

Texture2D& Device::texture(TextureHandle handle) {
  Texture2D& tex = slot(handle);
  slots_[handle - 1].generation = ++generations_;
  return tex;
}
const Texture2D& Device::texture(TextureHandle handle) const { return slot(handle); }

std::uint64_t Device::video_memory_free() const {
  return profile_.video_memory_bytes > memory_used_
             ? profile_.video_memory_bytes - memory_used_
             : 0;
}

void Device::upload(TextureHandle handle, std::span<const float4> texels) {
  trace::Span span("upload", "xfer");
  Texture2D& tex = texture(handle);
  HS_ASSERT(channels_of(tex.format()) == 4);
  HS_ASSERT(texels.size() == static_cast<std::size_t>(tex.width()) *
                                 static_cast<std::size_t>(tex.height()));
  float* out = tex.raw().data();
  if (is_half_format(tex.format())) {
    for (std::size_t i = 0; i < texels.size(); ++i) {
      const float4 v = texels[i];
      out[i * 4 + 0] = quantize_half(v.x);
      out[i * 4 + 1] = quantize_half(v.y);
      out[i * 4 + 2] = quantize_half(v.z);
      out[i * 4 + 3] = quantize_half(v.w);
    }
  } else {
    // float4 is four contiguous floats; full-precision upload is one copy.
    static_assert(sizeof(float4) == 4 * sizeof(float));
    std::memcpy(out, texels.data(), texels.size() * sizeof(float4));
  }
  const std::uint64_t bytes = tex.size_bytes();
  const double modeled = count_upload(bytes);
  span.arg("bytes", static_cast<double>(bytes));
  span.arg("modeled_us", modeled * 1e6);
}

void Device::upload(TextureHandle handle, std::span<const float> scalars) {
  trace::Span span("upload", "xfer");
  Texture2D& tex = texture(handle);
  HS_ASSERT(channels_of(tex.format()) == 1);
  HS_ASSERT(scalars.size() == static_cast<std::size_t>(tex.width()) *
                                  static_cast<std::size_t>(tex.height()));
  if (is_half_format(tex.format())) {
    for (std::size_t i = 0; i < scalars.size(); ++i) {
      tex.raw()[i] = quantize_half(scalars[i]);
    }
  } else {
    std::copy(scalars.begin(), scalars.end(), tex.raw().begin());
  }
  const std::uint64_t bytes = tex.size_bytes();
  const double modeled = count_upload(bytes);
  span.arg("bytes", static_cast<double>(bytes));
  span.arg("modeled_us", modeled * 1e6);
}

void Device::upload(std::span<const TextureHandle> handles, const float* origin,
                    std::ptrdiff_t x_stride, std::ptrdiff_t y_stride,
                    std::ptrdiff_t channel_stride, int channels) {
  trace::Span span("upload", "xfer");
  HS_ASSERT(!handles.empty() &&
            channels > 4 * (static_cast<int>(handles.size()) - 1) &&
            channels <= 4 * static_cast<int>(handles.size()));
  std::vector<float*> outs;
  outs.reserve(handles.size());
  const Texture2D& first = slot(handles.front());
  for (TextureHandle handle : handles) {
    Texture2D& tex = texture(handle);
    HS_ASSERT(channels_of(tex.format()) == 4 &&
              tex.format() == first.format() &&
              tex.width() == first.width() && tex.height() == first.height());
    outs.push_back(tex.raw().data());
  }
  if (is_half_format(first.format())) {
    write_pixel_major<true>(outs, origin, x_stride, y_stride, channel_stride,
                            channels, first.width(), first.height());
  } else {
    write_pixel_major<false>(outs, origin, x_stride, y_stride, channel_stride,
                             channels, first.width(), first.height());
  }
  double modeled = 0;
  for (std::size_t t = 0; t < handles.size(); ++t) {
    modeled += count_upload(first.size_bytes());
  }
  span.arg("bytes", static_cast<double>(first.size_bytes() * handles.size()));
  span.arg("modeled_us", modeled * 1e6);
}

double Device::count_upload(std::uint64_t bytes) {
  const double modeled = model_upload_time(profile_.bus, bytes);
  totals_.transfer.upload_bytes += bytes;
  totals_.transfer.uploads += 1;
  totals_.transfer.modeled_upload_seconds += modeled;
  return modeled;
}

std::vector<float4> Device::download(TextureHandle handle) {
  trace::Span span("download", "xfer");
  Texture2D& tex = slot(handle);
  HS_ASSERT(channels_of(tex.format()) == 4);
  const std::size_t n = static_cast<std::size_t>(tex.width()) *
                        static_cast<std::size_t>(tex.height());
  std::vector<float4> out(n);
  static_assert(sizeof(float4) == 4 * sizeof(float));
  std::memcpy(static_cast<void*>(out.data()), tex.raw().data(),
              n * sizeof(float4));
  const std::uint64_t bytes = tex.size_bytes();
  const double modeled = model_download_time(profile_.bus, bytes);
  totals_.transfer.download_bytes += bytes;
  totals_.transfer.downloads += 1;
  totals_.transfer.modeled_download_seconds += modeled;
  span.arg("bytes", static_cast<double>(bytes));
  span.arg("modeled_us", modeled * 1e6);
  return out;
}

std::vector<float> Device::download_scalar(TextureHandle handle) {
  trace::Span span("download", "xfer");
  Texture2D& tex = slot(handle);
  HS_ASSERT(channels_of(tex.format()) == 1);
  std::vector<float> out(tex.raw().begin(), tex.raw().end());
  const std::uint64_t bytes = tex.size_bytes();
  const double modeled = model_download_time(profile_.bus, bytes);
  totals_.transfer.download_bytes += bytes;
  totals_.transfer.downloads += 1;
  totals_.transfer.modeled_download_seconds += modeled;
  span.arg("bytes", static_cast<double>(bytes));
  span.arg("modeled_us", modeled * 1e6);
  return out;
}

Device::BoundPass Device::bind_pass(const FragmentProgram& program,
                                    std::span<const TextureHandle> inputs,
                                    std::span<const float4> constants,
                                    std::span<const TextureHandle> outputs) {
  HS_ASSERT_MSG(!outputs.empty(), "draw requires at least one output");
  HS_ASSERT_MSG(program.max_tex_unit() < static_cast<int>(inputs.size()),
                "program samples an unbound texture unit");
  HS_ASSERT_MSG(program.max_constant() < static_cast<int>(constants.size()),
                "program reads an unbound constant");
  HS_ASSERT_MSG(program.max_output() < static_cast<int>(outputs.size()),
                "program writes an unbound render target");

  // Stream-model feedback rule: a pass may not sample its own targets.
  for (TextureHandle out : outputs) {
    for (TextureHandle in : inputs) {
      HS_ASSERT_MSG(out != in,
                    "render target is also bound as input (ping-pong required)");
    }
  }

  BoundPass bound;
  Texture2D& target0 = slot(outputs[0]);
  bound.width = target0.width();
  bound.height = target0.height();
  bound.targets.reserve(outputs.size());
  for (TextureHandle out : outputs) {
    Texture2D& t = texture(out);
    HS_ASSERT_MSG(t.width() == bound.width && t.height() == bound.height,
                  "all render targets must share dimensions");
    bound.targets.push_back(&t);
  }
  bound.inputs.reserve(inputs.size());
  for (TextureHandle in : inputs) {
    bound.inputs.push_back(&slot(in));
    bound.input_ids.push_back(in);
  }
  return bound;
}

namespace {
/// Tile-touch tracker edge, texels. The SoA executor's marks assume 4 and
/// assert it.
constexpr int kTrackerTile = 4;
}

std::vector<TileTouchTracker> Device::make_tile_trackers(
    const BoundPass& bound) const {
  std::vector<TileTouchTracker> pipe_tiles(
      static_cast<std::size_t>(profile_.fragment_pipes));
  for (auto& tracker : pipe_tiles) {
    tracker.tile_size = kTrackerTile;
    tracker.units.resize(bound.inputs.size());
    tracker.tiles_x.resize(bound.inputs.size());
    for (std::size_t u = 0; u < bound.inputs.size(); ++u) {
      const int tx = (bound.inputs[u]->width() + kTrackerTile - 1) / kTrackerTile;
      const int ty = (bound.inputs[u]->height() + kTrackerTile - 1) / kTrackerTile;
      tracker.tiles_x[u] = tx;
      tracker.units[u].assign(
          static_cast<std::size_t>(tx) * static_cast<std::size_t>(ty), 0);
    }
  }
  return pipe_tiles;
}

SoaBindings Device::soa_bindings(const BoundPass& bound, std::size_t pipe,
                                 std::span<TileTouchTracker> pipe_tiles) {
  SoaBindings b;
  b.textures = bound.inputs;
  b.texture_ids = bound.input_ids;
  b.targets = bound.targets;
  // No trackers means no replay this pass: the cache model is off, or
  // draw() reuses memoized totals.
  b.cache = pipe_tiles.empty() ? nullptr : &pipe_caches_[pipe];
  b.tiles = pipe_tiles.empty() ? nullptr : &pipe_tiles[pipe];
  return b;
}

PassCacheTotals Device::collect_cache_totals(
    const BoundPass& bound, std::span<const TileTouchTracker> pipe_tiles) {
  PassCacheTotals totals;
  const int pipes = profile_.fragment_pipes;
  for (TextureCache& cache : pipe_caches_) {
    totals.cache += cache.stats();
    totals.miss_bytes += cache.stats().miss_bytes(cache.config());
    cache.reset_stats();
  }

  // Merge the per-pipe tile bitmaps: a tile streams from DRAM once per pass
  // no matter how many pipes touched it.
  for (std::size_t u = 0; u < bound.inputs.size(); ++u) {
    const std::uint64_t tile_bytes =
        static_cast<std::uint64_t>(kTrackerTile) * kTrackerTile *
        bytes_per_texel(bound.inputs[u]->format());
    // OR the bitmaps one pipe at a time (contiguous byte streams the
    // compiler vectorizes) instead of probing every pipe per tile.
    std::vector<std::uint8_t> merged = pipe_tiles.front().units[u];
    for (int p = 1; p < pipes; ++p) {
      const auto& bits = pipe_tiles[static_cast<std::size_t>(p)].units[u];
      for (std::size_t i = 0; i < merged.size(); ++i) merged[i] |= bits[i];
    }
    const std::uint64_t touched = static_cast<std::uint64_t>(
        std::count(merged.begin(), merged.end(), std::uint8_t{1}));
    totals.unique_tile_bytes += touched * tile_bytes;
  }
  return totals;
}

PassStats Device::finalize_pass(const FragmentProgram& program,
                                const BoundPass& bound, std::uint64_t fragments,
                                const ExecCounters& exec,
                                const PassCacheTotals& cache) {
  PassStats stats;
  stats.program = program.name;
  stats.width = bound.width;
  stats.height = bound.height;
  stats.fragments = fragments;
  stats.exec = exec;
  stats.cache = cache.cache;
  stats.cache_miss_bytes = cache.miss_bytes;
  stats.unique_tile_bytes = cache.unique_tile_bytes;
  for (const Texture2D* t : bound.targets) {
    stats.bytes_written += stats.fragments * bytes_per_texel(t->format());
  }

  PassCounts counts;
  counts.fragments = stats.fragments;
  counts.alu_instructions = stats.exec.alu_instructions;
  counts.tex_fetches = stats.exec.tex_fetches;
  counts.tex_fetch_bytes = stats.exec.tex_fetch_bytes;
  counts.cache_miss_bytes = stats.cache_miss_bytes;
  counts.unique_tile_bytes = stats.unique_tile_bytes;
  counts.bytes_written = stats.bytes_written;
  counts.cache_enabled = config_.texture_cache;
  stats.modeled_seconds = model_pass_time(profile_, counts);

  totals_.passes += 1;
  totals_.fragments += stats.fragments;
  totals_.exec += stats.exec;
  totals_.cache += stats.cache;
  totals_.bytes_written += stats.bytes_written;
  totals_.modeled_pass_seconds += stats.modeled_seconds;

  HS_LOG_DEBUG("pass %s: %dx%d, %llu fragments, %llu alu, %llu tex, modeled %.3f us",
               program.name.c_str(), bound.width, bound.height,
               static_cast<unsigned long long>(stats.fragments),
               static_cast<unsigned long long>(stats.exec.alu_instructions),
               static_cast<unsigned long long>(stats.exec.tex_fetches),
               stats.modeled_seconds * 1e6);
  return stats;
}

PassStats Device::draw(const FragmentProgram& program,
                       std::span<const TextureHandle> inputs,
                       std::span<const float4> constants,
                       std::span<const TextureHandle> outputs) {
  trace::Span span(program.name, "pass");
  const BoundPass bound = bind_pass(program, inputs, constants, outputs);
  const int width = bound.width;
  const int height = bound.height;
  const int pipes = profile_.fragment_pipes;

  // Lower (or fetch from the cache) once per pass, outside the slice loop.
  std::shared_ptr<const SoaProgram> soa;
  if (config_.exec_engine == ExecEngine::Soa) {
    soa = program_cache_.get(program, constants, bound.inputs);
  }

  // Replay memo. Every pass starts from flushed caches, and the
  // per-device cache geometry and pipe partition are fixed, so a pass's
  // cache totals depend only on what ReplayMemo::Key holds. Replay the
  // first draw of a key and reuse its totals on later ones.
  const bool memoizable = soa != nullptr && config_.texture_cache &&
                          pipe_caches_.front().set_index_ignores_texture_id();
  ReplayMemo::Key memo_key;
  const PassCacheTotals* memoized = nullptr;
  if (memoizable) {
    std::array<std::uint64_t, kMaxTexUnits> coord_gens{};
    std::size_t n_coord = 0;
    for (std::size_t u = 0; u < inputs.size() && u < kMaxTexUnits; ++u) {
      if (soa->coord_units & (1u << u)) {
        coord_gens[n_coord++] = slots_[inputs[u] - 1].generation;
      }
    }
    memo_key = ReplayMemo::key(soa, width, height, bound.inputs,
                               bound.input_ids,
                               std::span(coord_gens.data(), n_coord));
    memoized = replay_memo_.find(memo_key);
    if (memoized != nullptr) {
      ++replay_memo_hits_;
      trace_memo_hits_->increment();
    } else {
      ++replay_memo_misses_;
      trace_memo_misses_->increment();
    }
  }
  const bool replays = config_.texture_cache && memoized == nullptr;
  std::vector<TileTouchTracker> pipe_tiles;
  if (replays) {
    pipe_tiles = make_tile_trackers(bound);
    for (auto& cache : pipe_caches_) cache.flush();
  }

  // The pass runs on this thread. A replaying pass runs one contiguous
  // row block per logical pipe, in pipe order: deterministic partitioning,
  // so cache statistics and modeled times are reproducible everywhere.
  // Blocks are aligned to the texture-cache tile height, mirroring real
  // rasterizers' screen-space tiling -- otherwise tiles straddling two
  // pipes would be fetched into both L1s and the modeled memory traffic
  // would be inflated. A pass that replays nothing has no per-pipe state,
  // and its outputs and analytic counters do not depend on the partition:
  // it runs all rows as one slice.
  const std::size_t slices = replays ? static_cast<std::size_t>(pipes) : 1;
  ExecCounters counters;
  const int tile_rows = (height + kTrackerTile - 1) / kTrackerTile;
  const auto first_row = [&](std::size_t s) {
    const int i = static_cast<int>(s);
    return replays ? std::min(height, kTrackerTile * (i * tile_rows / pipes))
                   : i * height;
  };
  for (std::size_t s = 0; s < slices; ++s) {
    const int y_begin = first_row(s);
    const int y_end = first_row(s + 1);
    if (soa != nullptr) {
      run_soa_rows(*soa, soa_bindings(bound, s, pipe_tiles), width, y_begin,
                   y_end, counters);
      continue;
    }
    FragmentContext ctx;
    ctx.constants = constants;
    ctx.textures = bound.inputs;
    ctx.texture_ids = bound.input_ids;
    ctx.cache = replays ? &pipe_caches_[s] : nullptr;
    ctx.tiles = replays ? &pipe_tiles[s] : nullptr;
    for (int y = y_begin; y < y_end; ++y) {
      for (int x = 0; x < width; ++x) {
        ctx.texcoord[0] = {static_cast<float>(x) + 0.5f,
                           static_cast<float>(y) + 0.5f, 0.f, 1.f};
        const FragmentResult r = execute_fragment(program, ctx, counters);
        for (std::size_t k = 0; k < bound.targets.size(); ++k) {
          if (r.outputs_written & (1u << k)) {
            bound.targets[k]->store(x, y, r.color[k]);
          }
        }
      }
    }
  }

  PassCacheTotals cache_totals;
  if (memoized != nullptr) {
    cache_totals = *memoized;
  } else if (replays) {
    cache_totals = collect_cache_totals(bound, pipe_tiles);
    if (memoizable) replay_memo_.record(std::move(memo_key), cache_totals);
  }
  const PassStats stats = finalize_pass(
      program, bound,
      static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height),
      counters, cache_totals);
  const char* replay = nullptr;
  if (config_.texture_cache) replay = memoized != nullptr ? "memo" : "full";
  annotate_pass_span(span, stats, replay, slices);
  annotate_engine_path(span, soa.get(), bound.inputs);
  return stats;
}

}  // namespace hs::gpusim
