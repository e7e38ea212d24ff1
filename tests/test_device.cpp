#include "gpusim/gpu_device.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gpusim/assembler.hpp"

namespace hs::gpusim {
namespace {

DeviceProfile tiny_profile() {
  DeviceProfile p = geforce_7800_gtx();
  p.fragment_pipes = 4;
  p.video_memory_bytes = 1 * 1024 * 1024;
  return p;
}

TEST(Device, TextureLifecycleAndMemoryAccounting) {
  Device dev(tiny_profile());
  EXPECT_EQ(dev.video_memory_used(), 0u);
  const TextureHandle t = dev.create_texture(16, 16, TextureFormat::RGBA32F);
  EXPECT_EQ(dev.video_memory_used(), 16u * 16 * 16);
  const TextureHandle s = dev.create_texture(16, 16, TextureFormat::R32F);
  EXPECT_EQ(dev.video_memory_used(), 16u * 16 * 16 + 16u * 16 * 4);
  dev.destroy_texture(t);
  EXPECT_EQ(dev.video_memory_used(), 16u * 16 * 4);
  dev.destroy_texture(s);
  EXPECT_EQ(dev.video_memory_used(), 0u);
}

TEST(Device, HandleSlotsAreReused) {
  Device dev(tiny_profile());
  const TextureHandle a = dev.create_texture(4, 4, TextureFormat::R32F);
  dev.destroy_texture(a);
  const TextureHandle b = dev.create_texture(4, 4, TextureFormat::R32F);
  EXPECT_EQ(a, b);
}

TEST(Device, ThrowsOnVideoMemoryExhaustion) {
  Device dev(tiny_profile());  // 1 MB
  // 256x256 RGBA32F = 1 MB exactly; a second one must fail.
  const TextureHandle t = dev.create_texture(256, 256, TextureFormat::RGBA32F);
  EXPECT_THROW(dev.create_texture(16, 16, TextureFormat::R32F), GpuOutOfMemory);
  dev.destroy_texture(t);
  EXPECT_NO_THROW(dev.create_texture(16, 16, TextureFormat::R32F));
}

TEST(Device, MemoryLimitCanBeDisabled) {
  SimConfig cfg;
  cfg.enforce_memory_limit = false;
  Device dev(tiny_profile(), cfg);
  EXPECT_NO_THROW(dev.create_texture(512, 512, TextureFormat::RGBA32F));  // 4 MB
}

TEST(Device, RejectsTexturesPastTheSizeLimit) {
  for (const DeviceProfile& profile :
       {geforce_fx5950_ultra(), geforce_7800_gtx()}) {
    for (const bool enforce : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << profile.name << " enforce " << enforce);
      SimConfig cfg;
      cfg.enforce_memory_limit = enforce;
      Device dev(profile, cfg);
      for (const auto& [w, h] : {std::pair{kMaxTextureDim + 1, 1},
                                std::pair{1, kMaxTextureDim + 1}}) {
        try {
          dev.create_texture(w, h, TextureFormat::RGBA32F);
          ADD_FAILURE() << w << "x" << h << " was accepted";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string_view(e.what()).find("4096x4096 texture limit"),
                    std::string_view::npos)
              << e.what();
        }
      }
      EXPECT_EQ(dev.video_memory_used(), 0u);
      EXPECT_NO_THROW(
          dev.create_texture(kMaxTextureDim, 1, TextureFormat::RGBA32F));
    }
  }
}

TEST(Device, UploadDownloadRoundTripRgba) {
  Device dev(tiny_profile());
  const TextureHandle t = dev.create_texture(3, 2, TextureFormat::RGBA32F);
  std::vector<float4> data(6);
  for (std::size_t i = 0; i < 6; ++i) {
    data[i] = {static_cast<float>(i), 1, 2, 3};
  }
  dev.upload(t, std::span<const float4>(data));
  const auto back = dev.download(t);
  ASSERT_EQ(back.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(back[i], data[i]);
  EXPECT_EQ(dev.totals().transfer.uploads, 1u);
  EXPECT_EQ(dev.totals().transfer.downloads, 1u);
  EXPECT_EQ(dev.totals().transfer.upload_bytes, 3u * 2 * 16);
  EXPECT_GT(dev.totals().transfer.modeled_upload_seconds, 0.0);
}

TEST(Device, UploadDownloadRoundTripScalar) {
  Device dev(tiny_profile());
  const TextureHandle t = dev.create_texture(4, 1, TextureFormat::R32F);
  const std::vector<float> data{1, 2, 3, 4};
  dev.upload(t, std::span<const float>(data));
  EXPECT_EQ(dev.download_scalar(t), data);
}

TEST(Device, DrawExecutesProgramPerTexel) {
  Device dev(tiny_profile());
  const TextureHandle out = dev.create_texture(8, 8, TextureFormat::RGBA32F);
  // Writes the fragment's own texcoord: texel (x, y) -> (x+0.5, y+0.5).
  const auto program = assemble_or_die(
      "coords", "!!HSFP1.0\nMOV result.color, fragment.texcoord[0];\nEND\n");
  const TextureHandle outs[1] = {out};
  const PassStats stats = dev.draw(program, {}, {}, outs);
  EXPECT_EQ(stats.fragments, 64u);
  EXPECT_EQ(stats.exec.alu_instructions, 64u);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const float4 v = dev.texture(out).load(x, y);
      EXPECT_EQ(v.x, static_cast<float>(x) + 0.5f);
      EXPECT_EQ(v.y, static_cast<float>(y) + 0.5f);
    }
  }
}

TEST(Device, DrawWithInputTextureAndConstants) {
  Device dev(tiny_profile());
  const TextureHandle in = dev.create_texture(4, 4, TextureFormat::RGBA32F);
  const TextureHandle out = dev.create_texture(4, 4, TextureFormat::RGBA32F);
  std::vector<float4> data(16, float4(2.f));
  dev.upload(in, std::span<const float4>(data));
  const auto program = assemble_or_die("scale",
                                       "!!HSFP1.0\n"
                                       "TEX R0, fragment.texcoord[0], texture[0];\n"
                                       "MUL result.color, R0, c[0];\n"
                                       "END\n");
  const TextureHandle ins[1] = {in};
  const TextureHandle outs[1] = {out};
  const float4 consts[1] = {float4(3.f)};
  dev.draw(program, ins, consts, outs);
  EXPECT_EQ(dev.texture(out).load(2, 2), float4(6.f));
}

TEST(Device, FeedbackBindingIsFatal) {
  Device dev(tiny_profile());
  const TextureHandle t = dev.create_texture(4, 4, TextureFormat::RGBA32F);
  const auto program = assemble_or_die("id",
                                       "!!HSFP1.0\n"
                                       "TEX R0, fragment.texcoord[0], texture[0];\n"
                                       "MOV result.color, R0;\n"
                                       "END\n");
  const TextureHandle ins[1] = {t};
  const TextureHandle outs[1] = {t};
  EXPECT_DEATH(dev.draw(program, ins, {}, outs), "ping-pong");
}

TEST(Device, MismatchedTargetSizesAreFatal) {
  Device dev(tiny_profile());
  const TextureHandle a = dev.create_texture(4, 4, TextureFormat::R32F);
  const TextureHandle b = dev.create_texture(8, 8, TextureFormat::R32F);
  const auto program = assemble_or_die("two",
                                       "!!HSFP1.0\n"
                                       "MOV result.color[0], {1.0};\n"
                                       "MOV result.color[1], {2.0};\n"
                                       "END\n");
  const TextureHandle outs[2] = {a, b};
  EXPECT_DEATH(dev.draw(program, {}, {}, outs), "dimensions");
}

TEST(Device, UnboundTextureUnitIsFatal) {
  Device dev(tiny_profile());
  const TextureHandle out = dev.create_texture(4, 4, TextureFormat::RGBA32F);
  const auto program = assemble_or_die("tex",
                                       "!!HSFP1.0\n"
                                       "TEX R0, fragment.texcoord[0], texture[0];\n"
                                       "MOV result.color, R0;\n"
                                       "END\n");
  const TextureHandle outs[1] = {out};
  EXPECT_DEATH(dev.draw(program, {}, {}, outs), "texture unit");
}

TEST(Device, MrtWritesAllTargets) {
  Device dev(tiny_profile());
  const TextureHandle a = dev.create_texture(4, 4, TextureFormat::R32F);
  const TextureHandle b = dev.create_texture(4, 4, TextureFormat::R32F);
  const auto program = assemble_or_die("mrt",
                                       "!!HSFP1.0\n"
                                       "MOV result.color[0], {1.0};\n"
                                       "MOV result.color[1], {2.0};\n"
                                       "END\n");
  const TextureHandle outs[2] = {a, b};
  const PassStats stats = dev.draw(program, {}, {}, outs);
  EXPECT_EQ(dev.texture(a).load(3, 3).x, 1.f);
  EXPECT_EQ(dev.texture(b).load(0, 0).x, 2.f);
  EXPECT_EQ(stats.bytes_written, 16u * 4 * 2);
}

// Programs on either side of the dispatch grain. On a 68x68 viewport
// (17 tile rows over 24 pipes, so pipes hold 0 or 1 tile rows and runner
// ranges are uneven) `light` is 5 work units per fragment and runs inline;
// `heavy` -- a data-dependent fetch, three more fetches and 40 ALU
// instructions, 56 units per fragment -- fans out to every runner.
constexpr int kGrainViewport = 68;

FragmentProgram light_program() {
  return assemble_or_die("light",
                         "!!HSFP1.0\n"
                         "TEX R0, fragment.texcoord[0], texture[0];\n"
                         "MUL result.color, R0, R0;\n"
                         "END\n");
}

FragmentProgram heavy_program() {
  std::string src =
      "!!HSFP1.0\n"
      "TEX R0, fragment.texcoord[0], texture[0];\n"
      "TEX R1, R0, texture[0];\n"
      "ADD R2, fragment.texcoord[0], {1.0, -1.0, 0.0, 0.0};\n"
      "TEX R2, R2, texture[0];\n"
      "ADD R3, fragment.texcoord[0], {-2.0, 1.0, 0.0, 0.0};\n"
      "TEX R3, R3, texture[0];\n";
  for (int i = 0; i < 19; ++i) {
    src += "MAD R1, R1, {0.5}, R2;\n";
    src += "ADD R1, R1, R3;\n";
  }
  src += "MOV result.color, R1;\nEND\n";
  return assemble_or_die("heavy", src);
}

/// Every field of two PassStats, modeled time bit for bit.
void expect_same_pass(const PassStats& a, const PassStats& b) {
  EXPECT_EQ(a.program, b.program);
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(a.fragments, b.fragments);
  EXPECT_EQ(a.exec.alu_instructions, b.exec.alu_instructions);
  EXPECT_EQ(a.exec.tex_fetches, b.exec.tex_fetches);
  EXPECT_EQ(a.exec.tex_fetch_bytes, b.exec.tex_fetch_bytes);
  EXPECT_EQ(a.cache.accesses, b.cache.accesses);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.cache_miss_bytes, b.cache_miss_bytes);
  EXPECT_EQ(a.unique_tile_bytes, b.unique_tile_bytes);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
}

struct GrainRun {
  std::vector<PassStats> stats;  // light, heavy
  std::vector<std::vector<float4>> images;
  std::uint64_t inline_passes = 0;
  std::uint64_t fanned_out_passes = 0;
};

/// Draws the light and heavy programs on a 24-pipe device with `threads`
/// runners.
GrainRun run_grain_passes(std::size_t threads, ExecEngine engine) {
  SimConfig cfg;
  cfg.worker_threads = threads;
  cfg.exec_engine = engine;
  Device dev(geforce_7800_gtx(), cfg);
  const int n = kGrainViewport;
  const TextureHandle in = dev.create_texture(n, n, TextureFormat::RGBA32F);
  std::vector<float4> data(static_cast<std::size_t>(n * n));
  for (std::size_t i = 0; i < data.size(); ++i) {
    // x and y in texels, so the dependent fetch lands all over the image.
    data[i] = {static_cast<float>((i * 37) % 71) - 1.5f,
               static_cast<float>((i * 11) % 70), static_cast<float>(i % 5),
               1.f};
  }
  dev.upload(in, std::span<const float4>(data));

  GrainRun run;
  const TextureHandle ins[1] = {in};
  for (int pass = 0; pass < 2; ++pass) {
    const TextureHandle out = dev.create_texture(n, n, TextureFormat::RGBA32F);
    const TextureHandle outs[1] = {out};
    run.stats.push_back(
        dev.draw(pass == 0 ? light_program() : heavy_program(), ins, {}, outs));
    run.images.push_back(dev.download(out));
  }
  run.inline_passes = dev.passes_inline();
  run.fanned_out_passes = dev.passes_fanned_out();
  return run;
}

// Slicing: a pass that replays the cache model runs one slice per
// logical pipe; one that replays nothing (a memo hit, or the cache model
// off) one row range per runner. Outputs and every PassStats field must
// not depend on either. On a 1100-texel-wide viewport (four full
// 256-fragment tiles and a partial one per row), `heavy_static` is 65
// units per fragment, so even one row takes two runners and leaves the
// first of its two slices empty.
constexpr int kSliceWidth = 1100;

/// Static fetches only, so the SoA device memoizes its replay.
FragmentProgram heavy_static_program() {
  std::string src =
      "!!HSFP1.0\n"
      "TEX R1, fragment.texcoord[0], texture[0];\n"
      "ADD R2, fragment.texcoord[0], {1.0, -1.0, 0.0, 0.0};\n"
      "TEX R2, R2, texture[0];\n"
      "ADD R3, fragment.texcoord[0], {-2.0, 1.0, 0.0, 0.0};\n"
      "TEX R3, R3, texture[0];\n"
      "ADD R4, fragment.texcoord[0], {3.0, 2.0, 0.0, 0.0};\n"
      "TEX R4, R4, texture[0];\n";
  for (int i = 0; i < 22; ++i) {
    src += "MAD R1, R1, {0.5}, R2;\n";
    src += "ADD R1, R1, R3;\n";
  }
  src += "ADD R1, R1, R4;\nMOV result.color, R1;\nEND\n";
  return assemble_or_die("heavy_static", src);
}

/// How a pass's span says it ran.
struct SliceArgs {
  std::string replay;  ///< "full", "memo" or "" (cache model off)
  double runners = 0;
  double slices = 0;
};

struct SlicedRun {
  std::vector<PassStats> stats;
  std::vector<std::vector<float4>> images;
  std::vector<SliceArgs> spans;  ///< empty when tracing is compiled out
};

/// Texels whose x and y place the heavy program's dependent fetch inside
/// the image; `salt` gives a redraw new values.
std::vector<float4> slice_texels(int width, int height, int salt) {
  std::vector<float4> data(static_cast<std::size_t>(width) *
                           static_cast<std::size_t>(height));
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t j = i + static_cast<std::size_t>(salt) * 7;
    data[i] = {static_cast<float>((j * 37) % 1097) - 1.5f,
               static_cast<float>((j * 11) % static_cast<std::size_t>(height)),
               static_cast<float>(j % 5), 1.f};
  }
  return data;
}

/// On a 24-pipe device with `threads` runners and a kSliceWidth x
/// `height` viewport: light, heavy and heavy_static fullscreen; new
/// texels, then heavy_static again (a memo hit on the SoA engine with the
/// cache model on).
SlicedRun run_slice_passes(std::size_t threads, ExecEngine engine,
                          bool texture_cache, int height) {
  SimConfig cfg;
  cfg.worker_threads = threads;
  cfg.exec_engine = engine;
  cfg.texture_cache = texture_cache;
  Device dev(geforce_7800_gtx(), cfg);
  const int w = kSliceWidth;
  const TextureHandle in = dev.create_texture(w, height, TextureFormat::RGBA32F);
  dev.upload(in, std::span<const float4>(slice_texels(w, height, 0)));

  trace::reset();
  trace::set_enabled(true);
  SlicedRun run;
  const TextureHandle ins[1] = {in};
  for (int pass = 0; pass < 4; ++pass) {
    const TextureHandle out = dev.create_texture(w, height, TextureFormat::RGBA32F);
    const TextureHandle outs[1] = {out};
    if (pass == 0) {
      run.stats.push_back(dev.draw(light_program(), ins, {}, outs));
    } else if (pass == 1) {
      run.stats.push_back(dev.draw(heavy_program(), ins, {}, outs));
    } else if (pass == 2) {
      run.stats.push_back(dev.draw(heavy_static_program(), ins, {}, outs));
    } else {
      dev.upload(in, std::span<const float4>(slice_texels(w, height, 1)));
      run.stats.push_back(dev.draw(heavy_static_program(), ins, {}, outs));
    }
    run.images.push_back(dev.download(out));
  }
  trace::set_enabled(false);
  for (const trace::TraceEvent& e : trace::snapshot()) {
    if (e.cat != "pass") continue;
    SliceArgs args;
    for (const trace::TraceArg& arg : e.args) {
      const std::string_view key(arg.key);
      if (key == "replay") args.replay = arg.str;
      if (key == "runners") args.runners = arg.num;
      if (key == "slices") args.slices = arg.num;
    }
    run.spans.push_back(args);
  }
  trace::reset();
  return run;
}

TEST(Device, ResultsIndependentOfWorkerThreads) {
  for (ExecEngine engine : {ExecEngine::Soa, ExecEngine::Interpreter}) {
    const GrainRun base = run_grain_passes(1, engine);
    for (std::size_t threads : {2, 3, 4, 7}) {
      SCOPED_TRACE(testing::Message() << exec_engine_name(engine) << ", "
                                      << threads << " worker threads");
      const GrainRun run = run_grain_passes(threads, engine);
      ASSERT_EQ(run.stats.size(), base.stats.size());
      for (std::size_t p = 0; p < base.stats.size(); ++p) {
        EXPECT_EQ(run.images[p], base.images[p]);
        // Cache statistics are per *logical pipe*, so they match too.
        expect_same_pass(run.stats[p], base.stats[p]);
      }
    }
  }

  // Row slices per runner against pipe slices, on both engines, against
  // the interpreter on one runner.
  for (bool cache : {true, false}) {
    for (int height : {1, 3, 17, 33}) {
      const SlicedRun base =
          run_slice_passes(1, ExecEngine::Interpreter, cache, height);
      for (ExecEngine engine : {ExecEngine::Soa, ExecEngine::Interpreter}) {
        for (std::size_t threads : {1, 2, 3, 4, 7}) {
          SCOPED_TRACE(testing::Message()
                       << exec_engine_name(engine) << ", cache " << cache
                       << ", height " << height << ", " << threads
                       << " worker threads");
          const SlicedRun run = run_slice_passes(threads, engine, cache, height);
          ASSERT_EQ(run.stats.size(), base.stats.size());
          for (std::size_t p = 0; p < base.stats.size(); ++p) {
            EXPECT_EQ(run.images[p], base.images[p]) << "pass " << p;
            expect_same_pass(run.stats[p], base.stats[p]);
          }
#if HS_TRACE_ENABLED
          ASSERT_EQ(run.spans.size(), base.stats.size());
          for (std::size_t p = 0; p < run.spans.size(); ++p) {
            const SliceArgs& span = run.spans[p];
            SCOPED_TRACE(testing::Message() << "pass " << p);
            EXPECT_GE(span.runners, 1);
            EXPECT_LE(span.runners, static_cast<double>(threads));
            EXPECT_EQ(span.slices, span.replay == "full" ? 24.0 : span.runners);
          }
          // The SoA engine serves the redraw over new texels from its memo.
          const bool memo_hit = cache && engine == ExecEngine::Soa;
          EXPECT_EQ(run.spans[3].replay, memo_hit ? "memo" : cache ? "full" : "");
          // One row of heavy_static already takes two runners.
          if (threads > 1) {
            EXPECT_GE(run.spans[2].runners, 2);
          }
#endif
        }
      }
    }
  }
}

TEST(Device, ReplayingPassSlicesAlignToCacheTiles) {
  // A replaying pass gives each pipe whole 4-row tile rows, so no cache
  // tile is fetched into two pipes' caches. On a 16-texel-wide viewport a
  // tile row is 4 tiles, which a 4-way set holds whatever their sets, so
  // every miss is the one compulsory fetch of its tile: the miss bytes
  // equal the unique-tile bytes.
  for (ExecEngine engine : {ExecEngine::Soa, ExecEngine::Interpreter}) {
    for (int height : {3, 17, 33}) {
      SCOPED_TRACE(testing::Message()
                   << exec_engine_name(engine) << ", height " << height);
      SimConfig cfg;
      cfg.exec_engine = engine;
      Device dev(geforce_7800_gtx(), cfg);
      const TextureHandle in = dev.create_texture(16, height, TextureFormat::RGBA32F);
      const TextureHandle out = dev.create_texture(16, height, TextureFormat::RGBA32F);
      const TextureHandle ins[1] = {in};
      const TextureHandle outs[1] = {out};
      const PassStats stats = dev.draw(light_program(), ins, {}, outs);
      EXPECT_EQ(stats.cache.misses,
                static_cast<std::uint64_t>(4 * ((height + 3) / 4)));
      EXPECT_EQ(stats.cache_miss_bytes, stats.unique_tile_bytes);
    }
  }
}

TEST(Device, PassFansOutOnlyPastTheGrain) {
  const GrainRun one = run_grain_passes(1, ExecEngine::Soa);
  EXPECT_EQ(one.inline_passes, 2u);
  EXPECT_EQ(one.fanned_out_passes, 0u);
  // Light pass inline; the heavy pass fans out.
  const GrainRun four = run_grain_passes(4, ExecEngine::Soa);
  EXPECT_EQ(four.inline_passes, 1u);
  EXPECT_EQ(four.fanned_out_passes, 1u);
}

TEST(Device, HelperThreadsStartOnTheFirstFanOut) {
  SimConfig cfg;
  cfg.worker_threads = 3;
  Device dev(geforce_7800_gtx(), cfg);
  EXPECT_EQ(dev.runners(), 3u);
  EXPECT_EQ(dev.helper_threads(), 0u);
  const int n = kGrainViewport;
  const TextureHandle in = dev.create_texture(n, n, TextureFormat::RGBA32F);
  const TextureHandle out = dev.create_texture(n, n, TextureFormat::RGBA32F);
  const TextureHandle ins[1] = {in};
  const TextureHandle outs[1] = {out};
  dev.draw(light_program(), ins, {}, outs);
  EXPECT_EQ(dev.helper_threads(), 0u);
  dev.draw(heavy_program(), ins, {}, outs);
  EXPECT_EQ(dev.helper_threads(), 2u);
}

TEST(Device, WorkerThreadsClampToPipes) {
  SimConfig cfg;
  cfg.worker_threads = 7;
  EXPECT_EQ(Device(tiny_profile(), cfg).runners(), 4u);
  cfg.worker_threads = 0;
  EXPECT_GE(Device(tiny_profile(), cfg).runners(), 1u);
  EXPECT_LE(Device(tiny_profile(), cfg).runners(), 4u);
}

TEST(Device, PassStatsAccumulateIntoTotals) {
  Device dev(tiny_profile());
  const TextureHandle out = dev.create_texture(8, 8, TextureFormat::R32F);
  const auto program =
      assemble_or_die("c", "!!HSFP1.0\nMOV result.color, {0.0};\nEND\n");
  const TextureHandle outs[1] = {out};
  dev.draw(program, {}, {}, outs);
  dev.draw(program, {}, {}, outs);
  EXPECT_EQ(dev.totals().passes, 2u);
  EXPECT_EQ(dev.totals().fragments, 128u);
  EXPECT_GT(dev.totals().modeled_pass_seconds, 0.0);
  dev.reset_totals();
  EXPECT_EQ(dev.totals().passes, 0u);
}

TEST(Device, CacheDisabledStillRenders) {
  SimConfig cfg;
  cfg.texture_cache = false;
  Device dev(tiny_profile(), cfg);
  const TextureHandle in = dev.create_texture(4, 4, TextureFormat::RGBA32F);
  const TextureHandle out = dev.create_texture(4, 4, TextureFormat::RGBA32F);
  const auto program = assemble_or_die("id",
                                       "!!HSFP1.0\n"
                                       "TEX R0, fragment.texcoord[0], texture[0];\n"
                                       "MOV result.color, R0;\n"
                                       "END\n");
  const TextureHandle ins[1] = {in};
  const TextureHandle outs[1] = {out};
  const PassStats stats = dev.draw(program, ins, {}, outs);
  EXPECT_EQ(stats.cache.accesses, 0u);
  EXPECT_GT(stats.modeled_seconds, 0.0);
}

}  // namespace
}  // namespace hs::gpusim
