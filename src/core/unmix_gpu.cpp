#include "core/unmix_gpu.hpp"

#include <cmath>
#include <memory>
#include <sstream>

#include "core/shaders.hpp"
#include "gpusim/assembler.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
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

namespace {

/// out.x = accum.x + dot(f_g, c[0]) -- one endmember-row chunk applied to
/// one band group. texture[0] = raw band group, texture[1] = accumulator.
std::string weighted_sum_source() {
  return "!!HSFP1.0\n"
         "TEX R0, fragment.texcoord[0], texture[0];\n"
         "TEX R1, fragment.texcoord[0], texture[1];\n"
         "DP4 R2.x, R0, c[0];\n"
         "ADD result.color.x, R1.x, R2.x;\n"
         "END\n";
}

/// Copies the packed-abundance texel and overwrites one lane with the new
/// scalar. texture[0] = packed previous, texture[1] = a_k (R32F).
std::string pack_lane_source(int lane) {
  static const char kLane[4] = {'x', 'y', 'z', 'w'};
  std::ostringstream os;
  os << "!!HSFP1.0\n";
  os << "TEX R0, fragment.texcoord[0], texture[0];\n";
  os << "TEX R1, fragment.texcoord[0], texture[1];\n";
  os << "MOV result.color, R0;\n";
  os << "MOV result.color." << kLane[lane] << ", R1.x;\n";
  os << "END\n";
  return os.str();
}

/// Argmax over `count` abundances packed four per texture:
/// out.x = index of the largest (first wins ties).
std::string argmax_source(int count) {
  HS_ASSERT(count >= 1);
  static const char kLane[4] = {'x', 'y', 'z', 'w'};
  const int textures = (count + 3) / 4;
  std::ostringstream os;
  os << "!!HSFP1.0\n";
  for (int t = 0; t < textures; ++t) {
    os << "TEX R" << t << ", fragment.texcoord[0], texture[" << t << "];\n";
  }
  // Entry 0 initializes the chains; R20 = best value, R21 = best index.
  os << "MOV R20.x, R0.x;\n";
  os << "MOV R21.x, {0.0};\n";
  for (int e = 1; e < count; ++e) {
    const int t = e / 4;
    const char lane = kLane[e % 4];
    // New entry wins iff best - new < 0 (strictly greater; first wins ties).
    os << "SUB R22.x, R20.x, R" << t << "." << lane << ";\n";
    os << "CMP R20.x, R22.x, R" << t << "." << lane << ", R20.x;\n";
    os << "CMP R21.x, R22.x, {" << e << ".0}, R21.x;\n";
  }
  os << "MOV result.color.x, R21.x;\n";
  os << "END\n";
  return os.str();
}

}  // namespace

GpuUnmixReport unmix_gpu(const hsi::HyperCube& cube,
                         const std::vector<std::vector<float>>& endmembers,
                         const AmcGpuOptions& options,
                         bool download_abundances) {
  const int bands = cube.bands();
  const int c = static_cast<int>(endmembers.size());
  HS_ASSERT_MSG(c >= 1, "need at least one endmember");
  HS_ASSERT_MSG(c <= 64, "argmax kernel supports up to 64 endmembers (16 textures)");
  HS_ASSERT_MSG(bands >= c, "unmixing needs bands >= endmembers");
  const int groups = stream::band_group_count(bands);
  const int packed = (c + 3) / 4;

  // ---- host precompute: W = (E^T E)^-1 E^T, c x bands ----------------------
  linalg::Matrix e(static_cast<std::size_t>(bands), static_cast<std::size_t>(c));
  for (int k = 0; k < c; ++k) {
    HS_ASSERT(static_cast<int>(endmembers[static_cast<std::size_t>(k)].size()) == bands);
    for (int b = 0; b < bands; ++b) {
      e(static_cast<std::size_t>(b), static_cast<std::size_t>(k)) =
          static_cast<double>(endmembers[static_cast<std::size_t>(k)][static_cast<std::size_t>(b)]);
    }
  }
  linalg::Matrix gram = e.gram();
  auto chol = linalg::Cholesky::factor(gram);
  if (!chol) {
    double trace = 0;
    for (std::size_t i = 0; i < gram.rows(); ++i) trace += gram(i, i);
    for (std::size_t i = 0; i < gram.rows(); ++i) {
      gram(i, i) += 1e-10 * std::max(trace, 1.0);
    }
    chol = linalg::Cholesky::factor(gram);
  }
  HS_ASSERT_MSG(chol.has_value(), "endmember Gram matrix is singular");

  // Column b of W solves G w = E^T[:, b]; assemble as float rows.
  std::vector<std::vector<float>> w(static_cast<std::size_t>(c));
  for (auto& row : w) row.resize(static_cast<std::size_t>(groups) * 4, 0.f);
  std::vector<double> rhs(static_cast<std::size_t>(c));
  for (int b = 0; b < bands; ++b) {
    for (int k = 0; k < c; ++k) {
      rhs[static_cast<std::size_t>(k)] = e(static_cast<std::size_t>(b), static_cast<std::size_t>(k));
    }
    const auto col = chol->solve(rhs);
    for (int k = 0; k < c; ++k) {
      w[static_cast<std::size_t>(k)][static_cast<std::size_t>(b)] =
          static_cast<float>(col[static_cast<std::size_t>(k)]);
    }
  }

  // ---- programs -------------------------------------------------------------
  const FragmentProgram prog_clear =
      gpusim::assemble_or_die("clear", shaders::clear_source());
  const FragmentProgram prog_dot =
      gpusim::assemble_or_die("weighted_sum", weighted_sum_source());
  FragmentProgram prog_pack[4] = {
      gpusim::assemble_or_die("pack_x", pack_lane_source(0)),
      gpusim::assemble_or_die("pack_y", pack_lane_source(1)),
      gpusim::assemble_or_die("pack_z", pack_lane_source(2)),
      gpusim::assemble_or_die("pack_w", pack_lane_source(3))};
  const FragmentProgram prog_argmax =
      gpusim::assemble_or_die("argmax", argmax_source(c));

  // ---- device & chunking (no halo: per-pixel work) --------------------------
  // The planning device never draws; worker devices are blank clones
  // with the same free video memory, so the auto budget holds for all of
  // them.
  gpusim::Device planner(options.profile, options.sim);
  const std::uint64_t per_texel = static_cast<std::uint64_t>(groups) * 16 +
                                  2 * 4 +
                                  static_cast<std::uint64_t>(packed) * 2 * 16 + 4;
  const std::uint64_t budget =
      options.chunk_texel_budget > 0
          ? options.chunk_texel_budget
          : std::max<std::uint64_t>(
                1024, static_cast<std::uint64_t>(
                          0.9 * static_cast<double>(planner.video_memory_free())) /
                          per_texel);
  const stream::ChunkPlan plan =
      stream::plan_chunks(cube.width(), cube.height(), 0, budget);

  GpuUnmixReport report;
  report.chunk_count = plan.chunks.size();
  report.labels.assign(cube.pixel_count(), 0);
  if (download_abundances) {
    report.abundances.assign(cube.pixel_count() * static_cast<std::size_t>(c), 0.f);
  }

  trace::Span pipeline_span("unmix_gpu", "pipeline");
  if (pipeline_span.active()) {
    pipeline_span.arg("width", cube.width());
    pipeline_span.arg("height", cube.height());
    pipeline_span.arg("bands", bands);
    pipeline_span.arg("endmembers", c);
  }

  // ---- worker devices ------------------------------------------------------
  const std::size_t workers = std::min<std::size_t>(
      std::max<std::size_t>(1, plan.chunks.size()),
      stream::resolve_workers(options.workers));
  gpusim::SimConfig worker_sim = options.sim;
  // The weighted-sum shader is specialized per (endmember, band group)
  // weight constant, so the program cache must hold all c * groups of
  // them plus the fixed programs. Otherwise the per-chunk loop thrashes
  // it and every pass lowers again. (They share one fetch pattern, so
  // the device's replay memo records them once either way.)
  worker_sim.program_cache_capacity =
      std::max(worker_sim.program_cache_capacity,
               static_cast<std::size_t>(c * groups + 8));
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
  }

  // Per-chunk device totals, reduced in chunk-index order below so the
  // aggregate is bit-identical for every worker count.
  std::vector<gpusim::DeviceTotals> chunk_totals(plan.chunks.size());

  auto run_chunk = [&](gpusim::Device& device, std::size_t chunk_index) {
    const stream::ChunkRect& chunk = plan.chunks[chunk_index];
    const int cw = chunk.pwidth;
    const int ch = chunk.pheight;

    device.reset_totals();

    trace::Span chunk_span("chunk", "chunk");
    if (chunk_span.active()) {
      chunk_span.arg("index", static_cast<double>(chunk_index));
      chunk_span.arg("x0", chunk.x0);
      chunk_span.arg("y0", chunk.y0);
      chunk_span.arg("width", chunk.width);
      chunk_span.arg("height", chunk.height);
    }

    trace::Span upload_span("stream_upload", "stage");
    stream::BandStack raw(device, cw, ch, bands);
    const hsi::HyperCube::Strides strides = cube.strides();
    raw.upload(cube.raw().data() + cube.index(chunk.px0, chunk.py0, 0),
               strides.x, strides.y, strides.band);
    upload_span.end();

    stream::PingPong accum(device, cw, ch, TextureFormat::R32F);
    std::vector<stream::PingPong> packed_tex;
    packed_tex.reserve(static_cast<std::size_t>(packed));
    for (int t = 0; t < packed; ++t) {
      packed_tex.emplace_back(device, cw, ch, TextureFormat::RGBA32F);
    }
    const TextureHandle labels_tex =
        device.create_texture(cw, ch, TextureFormat::R32F);

    auto draw1 = [&](const FragmentProgram& prog,
                     std::initializer_list<TextureHandle> inputs,
                     std::span<const float4> constants, TextureHandle output) {
      const std::vector<TextureHandle> in(inputs);
      const TextureHandle out[1] = {output};
      device.draw(prog, in, constants, out);
    };

    // Abundance stage: per endmember, accumulate dot(W_k, f) over groups,
    // then pack into lane k%4 of packed texture k/4.
    trace::Span abundance_span("abundance_estimation", "stage");
    for (int k = 0; k < c; ++k) {
      draw1(prog_clear, {}, {}, accum.front());
      for (int g = 0; g < groups; ++g) {
        const float* wr = w[static_cast<std::size_t>(k)].data() + 4 * g;
        const float4 consts[1] = {{wr[0], wr[1], wr[2], wr[3]}};
        draw1(prog_dot, {raw.group(g), accum.front()}, consts, accum.back());
        accum.swap();
      }
      stream::PingPong& target = packed_tex[static_cast<std::size_t>(k / 4)];
      draw1(prog_pack[k % 4], {target.front(), accum.front()}, {}, target.back());
      target.swap();
    }

    abundance_span.end();

    // Argmax stage.
    trace::Span argmax_span("argmax_labeling", "stage");
    std::vector<TextureHandle> packed_inputs;
    for (auto& t : packed_tex) packed_inputs.push_back(t.front());
    const TextureHandle outs[1] = {labels_tex};
    device.draw(prog_argmax, packed_inputs, {}, outs);
    argmax_span.end();

    // Downloads + scatter.
    trace::Span download_span("stream_download", "stage");
    const std::vector<float> labels_host = device.download_scalar(labels_tex);
    std::vector<std::vector<float4>> abundance_host;
    if (download_abundances) {
      for (auto& t : packed_tex) abundance_host.push_back(device.download(t.front()));
    }
    download_span.end();
    for (int y = 0; y < chunk.height; ++y) {
      for (int x = 0; x < chunk.width; ++x) {
        const std::size_t local = static_cast<std::size_t>(y) * static_cast<std::size_t>(cw) +
                                  static_cast<std::size_t>(x);
        const std::size_t global =
            static_cast<std::size_t>(chunk.y0 + y) * static_cast<std::size_t>(cube.width()) +
            static_cast<std::size_t>(chunk.x0 + x);
        report.labels[global] = static_cast<int>(std::lround(labels_host[local]));
        if (download_abundances) {
          for (int k = 0; k < c; ++k) {
            report.abundances[global * static_cast<std::size_t>(c) + static_cast<std::size_t>(k)] =
                abundance_host[static_cast<std::size_t>(k / 4)][local][static_cast<std::size_t>(k % 4)];
          }
        }
      }
    }

    device.destroy_texture(labels_tex);

    chunk_totals[chunk_index] = device.totals();
  };

  stream::run_chunks(
      workers, plan.chunks.size(), [&](std::size_t worker, std::size_t chunk) {
        if (options.cancel_check && options.cancel_check()) {
          throw PipelineCancelled("unmix_gpu cancelled before chunk " +
                                  std::to_string(chunk));
        }
        run_chunk(*devices[worker], chunk);
      });

  // Ordered reduction: chunk-index order regardless of execution order.
  for (const gpusim::DeviceTotals& totals : chunk_totals) {
    report.totals += totals;
    ChunkCost cost;
    cost.upload_seconds = totals.transfer.modeled_upload_seconds;
    cost.download_seconds = totals.transfer.modeled_download_seconds;
    cost.pass_seconds = totals.modeled_pass_seconds;
    report.chunk_costs.push_back(cost);
  }
  report.modeled_seconds = report.totals.modeled_total_seconds();
  return report;
}

}  // namespace hs::core
