#include "core/amc_gpu.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <span>

#include "core/shaders.hpp"
#include "gpusim/assembler.hpp"
#include "stream/chunker.hpp"
#include "stream/scheduler.hpp"
#include "stream/stream.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace hs::core {

using gpusim::float4;
using gpusim::FragmentProgram;
using gpusim::TextureFormat;
using gpusim::TextureHandle;

double AmcGpuReport::modeled_overlapped_seconds() const {
  // Three-stage software pipeline (upload / compute / download) with one
  // chunk in flight per stage: standard tandem-queue completion recurrence.
  double u_done = 0, c_done = 0, d_done = 0;
  for (const ChunkCost& chunk : chunk_costs) {
    u_done += chunk.upload_seconds;
    c_done = std::max(u_done, c_done) + chunk.pass_seconds;
    d_done = std::max(c_done, d_done) + chunk.download_seconds;
  }
  return d_done;
}

double modeled_parallel_schedule_seconds(const std::vector<ChunkCost>& costs,
                                         std::size_t workers) {
  const std::size_t w = std::max<std::size_t>(1, workers);
  // Compute proceeds in index-order waves of w chunks, one per device;
  // a wave finishes when its slowest member does. The host bus is shared,
  // so transfers stay fully serialized. Streams are accumulated separately
  // and added last so that w == 1 regroups nothing: compute is then the
  // plain chunk-order pass sum and the result bit-equals the serialized
  // modeled total.
  double compute = 0;
  for (std::size_t base = 0; base < costs.size(); base += w) {
    double wave = 0;
    const std::size_t end = std::min(costs.size(), base + w);
    for (std::size_t i = base; i < end; ++i) {
      wave = std::max(wave, costs[i].pass_seconds);
    }
    compute += wave;
  }
  double upload = 0;
  double download = 0;
  for (const ChunkCost& chunk : costs) {
    upload += chunk.upload_seconds;
    download += chunk.download_seconds;
  }
  return compute + upload + download;
}

double AmcGpuReport::modeled_parallel_seconds(std::size_t workers) const {
  return modeled_parallel_schedule_seconds(chunk_costs, workers);
}

const char* const kStageUpload = "stream_upload";
const char* const kStageNormalization = "normalization";
const char* const kStageCumulativeDistance = "cumulative_distance";
const char* const kStageMaxMin = "maximum_minimum";
const char* const kStageSid = "compute_sid";
const char* const kStageDownload = "stream_download";

namespace {

/// Captures the device transfer totals so upload/download deltas can be
/// attributed to the corresponding pipeline stages.
struct TransferMark {
  double upload_s;
  double download_s;
  explicit TransferMark(const gpusim::Device& device)
      : upload_s(device.totals().transfer.modeled_upload_seconds),
        download_s(device.totals().transfer.modeled_download_seconds) {}
};

std::uint64_t auto_texel_budget(const gpusim::Device& device, int groups,
                                bool precompute_log) {
  const std::uint64_t stacks = static_cast<std::uint64_t>(groups) *
                               (precompute_log ? 3u : 2u);
  // Bytes per padded texel: RGBA stacks + offsets texture + six R32F
  // scalar textures (sum/DB/MEI ping-pongs).
  const std::uint64_t per_texel = stacks * 16 + 16 + 6 * 4;
  const std::uint64_t usable =
      static_cast<std::uint64_t>(0.9 * static_cast<double>(device.video_memory_free()));
  return std::max<std::uint64_t>(1024, usable / per_texel);
}

/// Everything one chunk contributes to the aggregate report. Captured
/// per chunk (each chunk runs against zeroed device totals and a fresh
/// executor) and reduced in chunk-index order afterwards, so the merged
/// numbers are bit-identical for every worker count.
struct ChunkOutcome {
  std::vector<std::pair<std::string, stream::StageStats>> stages;
  gpusim::DeviceTotals totals;
  ChunkCost cost;
};

}  // namespace

AmcGpuReport morphology_gpu(const hsi::HyperCube& cube,
                            const StructuringElement& se,
                            const AmcGpuOptions& options) {
  const int w = cube.width();
  const int h = cube.height();
  const int bands = cube.bands();
  const int groups = stream::band_group_count(bands);
  const int nb = se.size();
  HS_ASSERT(nb >= 1);

  trace::Span pipeline_span("amc_gpu", "pipeline");
  if (pipeline_span.active()) {
    pipeline_span.arg("width", w);
    pipeline_span.arg("height", h);
    pipeline_span.arg("bands", bands);
    pipeline_span.arg("se_size", nb);
  }

  // The cumulative-distance shader is specialized per (dx, dy) constant
  // pair by the SoA engine's lowering, so the device's program cache must
  // hold the fixed programs plus one entry per SE neighbor or the
  // per-chunk redraw loop would thrash it.
  gpusim::SimConfig sim = options.sim;
  sim.program_cache_capacity = std::max(
      sim.program_cache_capacity, static_cast<std::size_t>(16 + nb));

  // ---- programs (assembled once; shared read-only by all workers) ----------
  const FragmentProgram prog_clear =
      gpusim::assemble_or_die("clear", shaders::clear_source());
  const FragmentProgram prog_sum =
      gpusim::assemble_or_die("band_sum", shaders::band_sum_source());
  const FragmentProgram prog_norm =
      gpusim::assemble_or_die("normalize", shaders::normalize_source());
  const FragmentProgram prog_log =
      gpusim::assemble_or_die("log", shaders::log_source());
  const FragmentProgram prog_cumdist_fused = gpusim::assemble_or_die(
      "cumdist_fused", options.precompute_log
                           ? shaders::cumulative_distance_fused_source(nb)
                           : shaders::cumulative_distance_inline_log_source(nb));
  const FragmentProgram prog_cumdist_single = gpusim::assemble_or_die(
      "cumdist_single", options.precompute_log
                            ? shaders::cumulative_distance_fused_source(1)
                            : shaders::cumulative_distance_inline_log_source(1));
  const FragmentProgram prog_minmax = gpusim::assemble_or_die(
      "minmax_offsets", shaders::minmax_offsets_source(nb));
  const FragmentProgram prog_minmax_idx = gpusim::assemble_or_die(
      "minmax_indices", shaders::minmax_indices_source(nb));
  const FragmentProgram prog_mei =
      gpusim::assemble_or_die("mei", shaders::mei_source());

  // ---- constants -----------------------------------------------------------
  std::vector<float4> cumdist_consts;     // (dx, dy, 0, 0)
  std::vector<float4> minmax_consts;      // (dx, dy, dx, dy)
  std::vector<float4> minmax_idx_consts;  // (dx, dy, d, 0)
  cumdist_consts.reserve(static_cast<std::size_t>(nb));
  minmax_consts.reserve(static_cast<std::size_t>(nb));
  minmax_idx_consts.reserve(static_cast<std::size_t>(nb));
  std::map<std::pair<int, int>, std::uint8_t> offset_to_index;
  for (int d = 0; d < nb; ++d) {
    const auto [dx, dy] = se.offsets[static_cast<std::size_t>(d)];
    cumdist_consts.push_back({static_cast<float>(dx), static_cast<float>(dy), 0.f, 0.f});
    minmax_consts.push_back({static_cast<float>(dx), static_cast<float>(dy),
                             static_cast<float>(dx), static_cast<float>(dy)});
    minmax_idx_consts.push_back({static_cast<float>(dx), static_cast<float>(dy),
                                 static_cast<float>(d), 0.f});
    offset_to_index.emplace(std::make_pair(dx, dy), static_cast<std::uint8_t>(d));
  }

  // ---- chunk plan ----------------------------------------------------------
  // The planning device never draws; it exists so the auto budget sees
  // the profile's full video memory -- exactly what every (fresh) worker
  // device will have.
  gpusim::Device planner(options.profile, sim);
  const int halo = 2 * se.radius;
  const std::uint64_t budget =
      options.chunk_texel_budget > 0
          ? options.chunk_texel_budget
          : auto_texel_budget(planner, groups, options.precompute_log);
  const stream::ChunkPlan plan = stream::plan_chunks(w, h, halo, budget);

  AmcGpuReport report;
  report.morph.width = w;
  report.morph.height = h;
  const std::size_t px = cube.pixel_count();
  report.morph.db.assign(px, 0.f);
  report.morph.erosion_index.assign(px, 0);
  report.morph.dilation_index.assign(px, 0);
  report.morph.mei.assign(px, 0.f);
  report.chunk_count = plan.chunks.size();
  if (options.emit_index_stream) {
    report.index_stream.assign(px, {0, 0});
  }

  const TextureFormat stack_fmt = options.half_precision
                                      ? TextureFormat::RGBA16F
                                      : TextureFormat::RGBA32F;
  const TextureFormat scalar_fmt =
      options.half_precision ? TextureFormat::R16F : TextureFormat::R32F;

  // ---- worker devices ------------------------------------------------------
  const std::size_t workers = std::min<std::size_t>(
      std::max<std::size_t>(1, plan.chunks.size()),
      stream::resolve_workers(options.workers));
  gpusim::SimConfig worker_sim = sim;
  if (workers > 1 && !worker_sim.shared_programs) {
    // Worker clones re-draw the same few programs; share one lowering.
    worker_sim.shared_programs = std::make_shared<gpusim::SharedProgramStore>();
  }
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  devices.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    devices.push_back(planner.clone_blank(worker_sim));
  }
  report.workers_used = workers;
  if (pipeline_span.active()) {
    pipeline_span.arg("workers", static_cast<double>(workers));
    pipeline_span.arg("chunks", static_cast<double>(plan.chunks.size()));
  }

  std::vector<ChunkOutcome> outcomes(plan.chunks.size());

  // One chunk end to end on one worker's device. Reads only shared
  // read-only state (cube, programs, constants, plan); writes only its
  // ChunkOutcome and its disjoint interior of the full-image outputs, so
  // chunks need no locks and any execution order yields identical bits.
  auto run_chunk = [&](gpusim::Device& device, std::size_t chunk_index) {
    const stream::ChunkRect& chunk = plan.chunks[chunk_index];
    const int cw = chunk.pwidth;
    const int ch = chunk.pheight;

    // Zeroed totals + fresh executor: this chunk's statistics accumulate
    // from scratch, independent of whatever the device ran before, which
    // is what makes the chunk-order reduction worker-count-invariant.
    device.reset_totals();
    stream::StreamExecutor exec(device);

    trace::Span chunk_span("chunk", "chunk");
    if (chunk_span.active()) {
      chunk_span.arg("index", static_cast<double>(chunk_index));
      chunk_span.arg("x0", chunk.x0);
      chunk_span.arg("y0", chunk.y0);
      chunk_span.arg("width", chunk.width);
      chunk_span.arg("height", chunk.height);
      chunk_span.arg("padded_width", cw);
      chunk_span.arg("padded_height", ch);
    }

    // -- stage 1: stream uploading ------------------------------------------
    trace::Span upload_span(kStageUpload, "stage");
    TransferMark upload_mark(device);
    stream::BandStack raw(device, cw, ch, bands,
                          gpusim::AddressMode::ClampToEdge, stack_fmt);
    const hsi::HyperCube::Strides strides = cube.strides();
    raw.upload(cube.raw().data() + cube.index(chunk.px0, chunk.py0, 0),
               strides.x, strides.y, strides.band);
    const double upload_delta =
        device.totals().transfer.modeled_upload_seconds - upload_mark.upload_s;
    exec.add_stage_time(kStageUpload, upload_delta);
    upload_span.arg("modeled_us", upload_delta * 1e6);
    upload_span.end();

    stream::BandStack norm(device, cw, ch, bands,
                           gpusim::AddressMode::ClampToEdge, stack_fmt);
    // The log stack is only materialized when precomputing logs; otherwise
    // allocate nothing for it.
    std::optional<stream::BandStack> logs;
    if (options.precompute_log) {
      logs.emplace(device, cw, ch, bands, gpusim::AddressMode::ClampToEdge,
                   stack_fmt);
    }

    stream::PingPong sum(device, cw, ch, scalar_fmt);
    stream::PingPong db(device, cw, ch, scalar_fmt);
    stream::PingPong mei(device, cw, ch, scalar_fmt);
    const TextureHandle offsets =
        device.create_texture(cw, ch, TextureFormat::RGBA32F);

    auto draw = [&](const char* stage, const FragmentProgram& prog,
                    std::initializer_list<TextureHandle> inputs,
                    std::span<const float4> constants, TextureHandle output) {
      const std::vector<TextureHandle> in(inputs);
      const TextureHandle out[1] = {output};
      exec.run(stage, prog, in, constants, out);
    };

    // -- stage 2: normalization (band sum, then divide) -----------------------
    trace::Span norm_span(kStageNormalization, "stage");
    draw(kStageNormalization, prog_clear, {}, {}, sum.front());
    for (int g = 0; g < groups; ++g) {
      draw(kStageNormalization, prog_sum, {raw.group(g), sum.front()}, {},
           sum.back());
      sum.swap();
    }
    for (int g = 0; g < groups; ++g) {
      draw(kStageNormalization, prog_norm, {raw.group(g), sum.front()}, {},
           norm.group(g));
    }
    if (options.precompute_log) {
      for (int g = 0; g < groups; ++g) {
        draw(kStageNormalization, prog_log, {norm.group(g)}, {},
             logs->group(g));
      }
    }

    norm_span.end();

    // -- stage 3: cumulative distance -----------------------------------------
    trace::Span cumdist_span(kStageCumulativeDistance, "stage");
    draw(kStageCumulativeDistance, prog_clear, {}, {}, db.front());
    if (options.fuse_neighbors) {
      for (int g = 0; g < groups; ++g) {
        if (options.precompute_log) {
          draw(kStageCumulativeDistance, prog_cumdist_fused,
               {norm.group(g), logs->group(g), db.front()}, cumdist_consts,
               db.back());
        } else {
          draw(kStageCumulativeDistance, prog_cumdist_fused,
               {norm.group(g), db.front()}, cumdist_consts, db.back());
        }
        db.swap();
      }
    } else {
      // One accumulation stream per SE neighbor, as in the paper's text.
      for (int d = 0; d < nb; ++d) {
        const std::span<const float4> one(&cumdist_consts[static_cast<std::size_t>(d)], 1);
        for (int g = 0; g < groups; ++g) {
          if (options.precompute_log) {
            draw(kStageCumulativeDistance, prog_cumdist_single,
                 {norm.group(g), logs->group(g), db.front()}, one, db.back());
          } else {
            draw(kStageCumulativeDistance, prog_cumdist_single,
                 {norm.group(g), db.front()}, one, db.back());
          }
          db.swap();
        }
      }
    }

    cumdist_span.end();

    // -- stage 4: maximum and minimum (erosion/dilation selection) -----------
    trace::Span maxmin_span(kStageMaxMin, "stage");
    draw(kStageMaxMin, prog_minmax, {db.front()}, minmax_consts, offsets);
    gpusim::TextureHandle index_tex = 0;
    if (options.emit_index_stream) {
      index_tex = device.create_texture(cw, ch, TextureFormat::RGBA32F);
      draw(kStageMaxMin, prog_minmax_idx, {db.front()}, minmax_idx_consts,
           index_tex);
    }

    maxmin_span.end();

    // -- stage 5: compute SID (MEI) -------------------------------------------
    trace::Span sid_span(kStageSid, "stage");
    draw(kStageSid, prog_clear, {}, {}, mei.front());
    for (int g = 0; g < groups; ++g) {
      if (options.precompute_log) {
        draw(kStageSid, prog_mei,
             {norm.group(g), logs->group(g), offsets, mei.front()}, {},
             mei.back());
      } else {
        // MEI reads logs from a texture, so materialize this group's logs.
        const TextureHandle lg = device.create_texture(cw, ch, stack_fmt);
        draw(kStageSid, prog_log, {norm.group(g)}, {}, lg);
        draw(kStageSid, prog_mei, {norm.group(g), lg, offsets, mei.front()},
             {}, mei.back());
        device.destroy_texture(lg);
      }
      mei.swap();
    }

    sid_span.end();

    // -- stage 6: stream downloading ------------------------------------------
    trace::Span download_span(kStageDownload, "stage");
    TransferMark download_mark(device);
    const std::vector<float> db_host = device.download_scalar(db.front());
    const std::vector<float4> off_host = device.download(offsets);
    const std::vector<float> mei_host = device.download_scalar(mei.front());
    std::vector<float4> idx_host;
    if (options.emit_index_stream) {
      idx_host = device.download(index_tex);
      device.destroy_texture(index_tex);
    }
    const double download_delta =
        device.totals().transfer.modeled_download_seconds -
        download_mark.download_s;
    exec.add_stage_time(kStageDownload, download_delta);
    download_span.arg("modeled_us", download_delta * 1e6);
    download_span.end();

    ChunkOutcome& outcome = outcomes[chunk_index];
    outcome.cost.upload_seconds =
        device.totals().transfer.modeled_upload_seconds - upload_mark.upload_s;
    outcome.cost.download_seconds =
        device.totals().transfer.modeled_download_seconds -
        download_mark.download_s;
    outcome.cost.pass_seconds = device.totals().modeled_pass_seconds;

    // Scatter the interior into the full-image outputs.
    const int dx0 = chunk.interior_dx();
    const int dy0 = chunk.interior_dy();
    for (int y = 0; y < chunk.height; ++y) {
      for (int x = 0; x < chunk.width; ++x) {
        const std::size_t local =
            static_cast<std::size_t>(dy0 + y) * static_cast<std::size_t>(cw) +
            static_cast<std::size_t>(dx0 + x);
        const std::size_t global =
            static_cast<std::size_t>(chunk.y0 + y) * static_cast<std::size_t>(w) +
            static_cast<std::size_t>(chunk.x0 + x);
        report.morph.db[global] = db_host[local];
        report.morph.mei[global] = mei_host[local];
        const float4 off = off_host[local];
        const auto emin = offset_to_index.find(
            {static_cast<int>(std::lround(off.x)), static_cast<int>(std::lround(off.y))});
        const auto emax = offset_to_index.find(
            {static_cast<int>(std::lround(off.z)), static_cast<int>(std::lround(off.w))});
        HS_ASSERT_MSG(emin != offset_to_index.end() && emax != offset_to_index.end(),
                      "minmax stage produced an offset outside the SE");
        report.morph.erosion_index[global] = emin->second;
        report.morph.dilation_index[global] = emax->second;
        if (options.emit_index_stream) {
          const float4 pair = idx_host[local];
          report.index_stream[global] = {
              static_cast<std::uint8_t>(std::lround(pair.x)),
              static_cast<std::uint8_t>(std::lround(pair.y))};
        }
      }
    }

    device.destroy_texture(offsets);

    outcome.totals = device.totals();
    for (const std::string& name : exec.stage_order()) {
      outcome.stages.emplace_back(name, exec.stages().at(name));
    }
  };

  stream::run_chunks(
      workers, plan.chunks.size(), [&](std::size_t worker, std::size_t chunk) {
        if (options.cancel_check && options.cancel_check()) {
          throw PipelineCancelled("amc_gpu cancelled before chunk " +
                                  std::to_string(chunk));
        }
        run_chunk(*devices[worker], chunk);
      });

  // ---- ordered reduction ---------------------------------------------------
  // Chunk-index order, regardless of which worker ran what when: the
  // merged stage table, device totals and chunk costs are therefore the
  // same bits for every worker count.
  std::map<std::string, std::size_t> stage_slot;
  for (const ChunkOutcome& outcome : outcomes) {
    for (const auto& [name, stats] : outcome.stages) {
      auto [it, inserted] = stage_slot.try_emplace(name, report.stages.size());
      if (inserted) report.stages.emplace_back(name, stream::StageStats{});
      report.stages[it->second].second += stats;
    }
    report.totals += outcome.totals;
    report.chunk_costs.push_back(outcome.cost);
  }
  report.modeled_seconds = report.totals.modeled_total_seconds();
  return report;
}

}  // namespace hs::core
