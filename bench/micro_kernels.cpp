// Micro-benchmarks (google-benchmark) of the library's hot paths: the SID
// distance, the two CPU morphology engines, the fragment-program
// interpreter, texture fetches, and the cache model. These quantify the
// host-side cost of simulation, not the modeled GPU time.
//
// The custom main() additionally checks the two device execution engines
// for bit-identity and times them head to head on the pipeline's heaviest
// shaders (the fused SID cumulative-distance kernel and the MEI kernel)
// and, with `--json <path>`, writes wall and modeled times plus the
// speedup to BENCH_micro_kernels.json. It exits non-zero when the engines
// disagree.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/distances.hpp"
#include "core/morphology.hpp"
#include "core/rx.hpp"
#include "core/shaders.hpp"
#include "gpusim/assembler.hpp"
#include "gpusim/gpu_device.hpp"
#include "gpusim/interpreter.hpp"
#include "gpusim/raster.hpp"
#include "linalg/eigen.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace hs;

std::vector<float> random_spectrum(int n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(0.05, 1.0));
  return v;
}

hsi::HyperCube random_cube(int w, int h, int n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  hsi::HyperCube cube(w, h, n);
  for (auto& v : cube.raw()) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return cube;
}

void BM_SidDistance(benchmark::State& state) {
  const int bands = static_cast<int>(state.range(0));
  const auto a = random_spectrum(bands, 1);
  const auto b = random_spectrum(bands, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sid(a, b));
  }
  state.SetItemsProcessed(state.iterations() * bands);
}
BENCHMARK(BM_SidDistance)->Arg(32)->Arg(216);

void BM_SamDistance(benchmark::State& state) {
  const auto a = random_spectrum(216, 1);
  const auto b = random_spectrum(216, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sam(a, b));
  }
}
BENCHMARK(BM_SamDistance);

void BM_MorphologyReference(benchmark::State& state) {
  const int edge = static_cast<int>(state.range(0));
  const auto cube = random_cube(edge, edge, 32, 3);
  const auto se = core::StructuringElement::square(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::morphology_reference(cube, se));
  }
  state.SetItemsProcessed(state.iterations() * edge * edge);
}
BENCHMARK(BM_MorphologyReference)->Arg(16)->Arg(32);

void BM_MorphologyVectorized(benchmark::State& state) {
  const int edge = static_cast<int>(state.range(0));
  const auto cube = random_cube(edge, edge, 32, 3);
  const auto se = core::StructuringElement::square(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::morphology_vectorized(cube, se));
  }
  state.SetItemsProcessed(state.iterations() * edge * edge);
}
BENCHMARK(BM_MorphologyVectorized)->Arg(16)->Arg(32);

void BM_InterpreterAluDispatch(benchmark::State& state) {
  const auto program = gpusim::assemble_or_die("alu",
                                               "!!HSFP1.0\n"
                                               "MOV R0, {1.0, 2.0, 3.0, 4.0};\n"
                                               "MUL R1, R0, R0;\n"
                                               "MAD R1, R1, R0, R0;\n"
                                               "DP4 R2.x, R1, R0;\n"
                                               "RCP R3.x, R2.x;\n"
                                               "MOV result.color, R3.x;\n"
                                               "END\n");
  gpusim::FragmentContext ctx;
  gpusim::ExecCounters counters;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpusim::execute_fragment(program, ctx, counters));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(program.code.size()));
}
BENCHMARK(BM_InterpreterAluDispatch);

void BM_InterpreterTexFetch(benchmark::State& state) {
  gpusim::Texture2D tex(64, 64, gpusim::TextureFormat::RGBA32F);
  const gpusim::Texture2D* textures[1] = {&tex};
  const auto program = gpusim::assemble_or_die("tex",
                                               "!!HSFP1.0\n"
                                               "TEX R0, fragment.texcoord[0], texture[0];\n"
                                               "MOV result.color, R0;\n"
                                               "END\n");
  gpusim::FragmentContext ctx;
  ctx.texcoord[0] = {13.5f, 27.5f, 0, 1};
  ctx.textures = textures;
  gpusim::ExecCounters counters;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpusim::execute_fragment(program, ctx, counters));
  }
}
BENCHMARK(BM_InterpreterTexFetch);

void BM_TextureCacheAccess(benchmark::State& state) {
  gpusim::TextureCacheConfig cfg;
  gpusim::TextureCache cache(cfg);
  int x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(0, x & 63, (x >> 6) & 63));
    ++x;
  }
}
BENCHMARK(BM_TextureCacheAccess);

void BM_AssembleCumdistKernel(benchmark::State& state) {
  const std::string src = core::shaders::cumulative_distance_fused_source(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpusim::assemble("k", src));
  }
}
BENCHMARK(BM_AssembleCumdistKernel);

void BM_DevicePass(benchmark::State& state) {
  gpusim::DeviceProfile profile = gpusim::geforce_7800_gtx();
  profile.fragment_pipes = 4;
  gpusim::SimConfig config;
  config.exec_engine = state.range(0) == 0 ? gpusim::ExecEngine::Interpreter
                                           : gpusim::ExecEngine::Soa;
  gpusim::Device dev(profile, config);
  const auto in = dev.create_texture(64, 64, gpusim::TextureFormat::RGBA32F);
  const auto out = dev.create_texture(64, 64, gpusim::TextureFormat::RGBA32F);
  const auto program = gpusim::assemble_or_die("sq",
                                               "!!HSFP1.0\n"
                                               "TEX R0, fragment.texcoord[0], texture[0];\n"
                                               "MUL result.color, R0, R0;\n"
                                               "END\n");
  const gpusim::TextureHandle ins[1] = {in};
  const gpusim::TextureHandle outs[1] = {out};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.draw(program, ins, {}, outs));
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64);
  state.SetLabel(state.range(0) == 0 ? "interpreter" : "soa");
}
BENCHMARK(BM_DevicePass)->Arg(0)->Arg(1);


void BM_EigenSymmetric(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Xoshiro256 rng(7);
  linalg::Matrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double v = rng.uniform(-1, 1);
      a(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) = v;
      a(static_cast<std::size_t>(j), static_cast<std::size_t>(i)) = v;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigen_symmetric(a));
  }
}
BENCHMARK(BM_EigenSymmetric)->Arg(16)->Arg(64);

void BM_RxDetect(benchmark::State& state) {
  const auto cube = random_cube(32, 32, 16, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rx_detect(cube));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32);
}
BENCHMARK(BM_RxDetect);

void BM_RasterFullscreenQuad(benchmark::State& state) {
  gpusim::DeviceProfile profile = gpusim::geforce_7800_gtx();
  profile.fragment_pipes = 4;
  gpusim::Device dev(profile);
  const auto out = dev.create_texture(64, 64, gpusim::TextureFormat::R32F);
  const auto program = gpusim::assemble_or_die(
      "one", "!!HSFP1.0\nMOV result.color, {1.0};\nEND\n");
  const auto quad = gpusim::fullscreen_quad(64, 64);
  const gpusim::TextureHandle outs[1] = {out};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpusim::draw_triangles(
        dev, program, quad, gpusim::Viewport{0, 0, 64, 64}, {}, {}, outs));
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64);
}
BENCHMARK(BM_RasterFullscreenQuad);

void BM_HalfQuantize(benchmark::State& state) {
  float v = 0.123456f;
  for (auto _ : state) {
    v = gpusim::quantize_half(v + 1e-6f);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_HalfQuantize);

// ---- execution-engine head-to-head -----------------------------------------
//
// Runs the interpreter and the SoA engine on the pipeline's two heaviest
// shaders over a 256x256 viewport (the scale of one AMC chunk slice),
// checks that output texels and pass statistics are bit-identical (on the
// first draw and on the last timed redraw), then times both. This
// measures pure host-side simulation throughput.
//
// The SoA engine is also timed with the texture-cache model off: cache
// replay walks the interpreter's canonical probe sequence, so the
// cache-on and cache-off times together show how much of a pass is
// replay. SID's fetches are all static, so the device replays its first
// draw and reuses the recorded cache totals on every redraw (the replay
// memo); MEI's dependent fetch replays on every draw. The first SoA draw
// -- lowering plus the recording replay -- is timed on its own, outside
// the best-of loop.

struct EngineTiming {
  double interp_seconds = 0;
  double soa_seconds = 0;
  double soa_first_seconds = 0;  ///< cache on, first draw only
  double soa_nocache_seconds = 0;
  double modeled_seconds = 0;  ///< identical for both engines
  bool identical = false;      ///< texels and PassStats bit-equal

  double speedup() const {
    return soa_seconds > 0 ? interp_seconds / soa_seconds : 0;
  }
};

/// One pass's observable result: the raw output texels and statistics.
struct PassOutcome {
  std::vector<float> texels;
  gpusim::PassStats stats;       ///< first draw
  gpusim::PassStats last_stats;  ///< last timed redraw
  double first_seconds = 0;      ///< first draw wall time
  double seconds = 0;            ///< best-of-reps redraw wall time
};

bool same_stats(const gpusim::PassStats& x, const gpusim::PassStats& y) {
  return x.fragments == y.fragments &&
         x.exec.alu_instructions == y.exec.alu_instructions &&
         x.exec.tex_fetches == y.exec.tex_fetches &&
         x.exec.tex_fetch_bytes == y.exec.tex_fetch_bytes &&
         x.cache.accesses == y.cache.accesses && x.cache.hits == y.cache.hits &&
         x.cache.misses == y.cache.misses &&
         x.cache_miss_bytes == y.cache_miss_bytes &&
         x.unique_tile_bytes == y.unique_tile_bytes &&
         x.bytes_written == y.bytes_written &&
         x.modeled_seconds == y.modeled_seconds;
}

bool same_outcome(const PassOutcome& a, const PassOutcome& b) {
  return a.texels.size() == b.texels.size() &&
         std::memcmp(a.texels.data(), b.texels.data(),
                     a.texels.size() * sizeof(float)) == 0 &&
         same_stats(a.stats, b.stats) && same_stats(a.last_stats, b.last_stats);
}

PassOutcome run_engine(gpusim::ExecEngine engine, bool texture_cache,
                       const gpusim::FragmentProgram& program,
                       const std::vector<gpusim::TextureFormat>& in_formats,
                       std::span<const gpusim::float4> constants, int size,
                       int reps) {
  gpusim::DeviceProfile profile = gpusim::geforce_7800_gtx();
  profile.fragment_pipes = 4;
  gpusim::SimConfig config;
  config.exec_engine = engine;
  config.texture_cache = texture_cache;
  gpusim::Device dev(profile, config);

  util::Xoshiro256 rng(11);
  std::vector<gpusim::TextureHandle> ins;
  for (gpusim::TextureFormat fmt : in_formats) {
    const auto h = dev.create_texture(size, size, fmt);
    if (gpusim::channels_of(fmt) == 4) {
      std::vector<gpusim::float4> data(static_cast<std::size_t>(size) * size);
      for (auto& v : data) {
        v = {static_cast<float>(rng.uniform(0.05, 1.0)),
             static_cast<float>(rng.uniform(0.05, 1.0)),
             static_cast<float>(rng.uniform(0.05, 1.0)),
             static_cast<float>(rng.uniform(0.05, 1.0))};
      }
      dev.upload(h, data);
    } else {
      std::vector<float> data(static_cast<std::size_t>(size) * size);
      for (auto& v : data) v = static_cast<float>(rng.uniform(0.05, 1.0));
      dev.upload(h, data);
    }
    ins.push_back(h);
  }
  const auto out = dev.create_texture(size, size, gpusim::TextureFormat::R32F);
  const gpusim::TextureHandle outs[1] = {out};

  PassOutcome outcome;
  util::Timer first;
  outcome.stats = dev.draw(program, ins, constants, outs);  // warm-up (and lower)
  outcome.first_seconds = first.seconds();
  outcome.texels = dev.texture(out).raw();
  // Best-of-reps: a loaded machine only ever inflates a wall-clock
  // sample, so the minimum is the most repeatable throughput estimate
  // (and treats both engines alike).
  outcome.seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    util::Timer wall;
    outcome.last_stats = dev.draw(program, ins, constants, outs);
    outcome.seconds = std::min(outcome.seconds, wall.seconds());
  }
  return outcome;
}

EngineTiming time_engines(const gpusim::FragmentProgram& program,
                          const std::vector<gpusim::TextureFormat>& in_formats,
                          std::span<const gpusim::float4> constants, int size,
                          int reps) {
  using gpusim::ExecEngine;
  const PassOutcome interp = run_engine(ExecEngine::Interpreter, true, program,
                                        in_formats, constants, size, reps);
  const PassOutcome soa = run_engine(ExecEngine::Soa, true, program,
                                     in_formats, constants, size, reps);
  const PassOutcome soa_nocache = run_engine(ExecEngine::Soa, false, program,
                                             in_formats, constants, size, reps);
  EngineTiming timing;
  timing.interp_seconds = interp.seconds;
  timing.soa_seconds = soa.seconds;
  timing.soa_first_seconds = soa.first_seconds;
  timing.soa_nocache_seconds = soa_nocache.seconds;
  timing.modeled_seconds = interp.stats.modeled_seconds;
  timing.identical = same_outcome(interp, soa);
  return timing;
}

/// Returns false when an engine pair disagreed.
bool run_engine_comparison(const std::string& json_path) {
  constexpr int kSize = 256;
  constexpr int kReps = 10;
  constexpr int kNeighbors = 9;

  std::vector<gpusim::float4> offsets;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      offsets.push_back({static_cast<float>(dx), static_cast<float>(dy), 0, 0});
    }
  }
  const auto sid = gpusim::assemble_or_die(
      "cumdist_fused",
      core::shaders::cumulative_distance_fused_source(kNeighbors));
  const auto mei =
      gpusim::assemble_or_die("mei", core::shaders::mei_source());

  using TF = gpusim::TextureFormat;
  const EngineTiming t_sid = time_engines(
      sid, {TF::RGBA32F, TF::RGBA32F, TF::R32F}, offsets, kSize, kReps);
  const EngineTiming t_mei = time_engines(
      mei, {TF::RGBA32F, TF::RGBA32F, TF::RGBA32F, TF::R32F}, {}, kSize, kReps);

  util::Table table({"Shader", "interpreter", "soa", "soa (first draw)",
                     "soa (cache off)", "interp/soa", "bit-identical"});
  auto add_row = [&table](const std::string& name, const EngineTiming& t) {
    table.add_row({name, util::format_duration(t.interp_seconds),
                   util::format_duration(t.soa_seconds),
                   util::format_duration(t.soa_first_seconds),
                   util::format_duration(t.soa_nocache_seconds),
                   util::Table::num(t.speedup(), 2) + "x",
                   t.identical ? "yes" : "NO"});
  };
  add_row("SID cumdist (9 nbrs)", t_sid);
  add_row("MEI", t_mei);
  std::cout << "\n";
  table.print(std::cout,
              "Execution engines, 256x256 pass wall time (best of " +
                  std::to_string(kReps) + ")");

  if (!json_path.empty()) {
    bench::JsonReport report("micro_kernels");
    auto emit = [&report](const std::string& bench, const EngineTiming& t) {
      report.add(bench, "wall_seconds_interpreter", t.interp_seconds);
      report.add(bench, "wall_seconds_soa", t.soa_seconds);
      report.add(bench, "wall_seconds_soa_first", t.soa_first_seconds);
      report.add(bench, "wall_seconds_soa_nocache", t.soa_nocache_seconds);
      report.add(bench, "speedup", t.speedup());
      report.add(bench, "bit_identical", t.identical ? 1 : 0);
      report.add(bench, "modeled_seconds", t.modeled_seconds);
    };
    emit("device_pass_sid", t_sid);
    emit("device_pass_mei", t_mei);
    report.write(json_path);
  }
  if (!t_sid.identical || !t_mei.identical) {
    std::cerr << "micro_kernels: interpreter and soa engines disagree\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = hs::bench::json_output_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_engine_comparison(json_path) ? 0 : 1;
}
