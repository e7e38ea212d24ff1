#include "gpusim/gpu_device.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/shaders.hpp"
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

// `light` reads one texel and squares it; `heavy` runs a data-dependent
// fetch, three more fetches and 40 ALU instructions.
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

// Slicing: a pass that replays the cache model runs one slice per
// logical pipe; one that replays nothing (a memo hit, or the cache model
// off) runs all rows as one slice. Outputs and every PassStats field must
// not depend on either. A 1100-texel-wide viewport has four full
// 256-fragment tiles and a partial one per row.
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

/// On a 24-pipe device and a kSliceWidth x `height` viewport: light,
/// heavy and heavy_static fullscreen; new texels, then heavy_static again
/// (a memo hit on the SoA engine with the cache model on).
SlicedRun run_slice_passes(ExecEngine engine, bool texture_cache, int height) {
  SimConfig cfg;
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
      if (key == "slices") args.slices = arg.num;
    }
    run.spans.push_back(args);
  }
  trace::reset();
  return run;
}

TEST(Device, ResultsIndependentOfWorkerThreads) {
  // Pipe slices against one slice of all rows, on both engines, against
  // the interpreter, which replays every pass when the cache model is on.
  for (bool cache : {true, false}) {
    for (int height : {1, 3, 17, 33}) {
      const SlicedRun base = run_slice_passes(ExecEngine::Interpreter, cache, height);
      for (ExecEngine engine : {ExecEngine::Soa, ExecEngine::Interpreter}) {
        SCOPED_TRACE(testing::Message() << exec_engine_name(engine) << ", cache "
                                        << cache << ", height " << height);
        const SlicedRun run = run_slice_passes(engine, cache, height);
        ASSERT_EQ(run.stats.size(), base.stats.size());
        for (std::size_t p = 0; p < base.stats.size(); ++p) {
          EXPECT_EQ(run.images[p], base.images[p]) << "pass " << p;
          expect_same_pass(run.stats[p], base.stats[p]);
        }
#if HS_TRACE_ENABLED
        ASSERT_EQ(run.spans.size(), base.stats.size());
        for (std::size_t p = 0; p < run.spans.size(); ++p) {
          SCOPED_TRACE(testing::Message() << "pass " << p);
          EXPECT_EQ(run.spans[p].slices, run.spans[p].replay == "full" ? 24.0 : 1.0);
        }
        // The SoA engine serves the redraw over new texels from its memo.
        const bool memo_hit = cache && engine == ExecEngine::Soa;
        EXPECT_EQ(run.spans[3].replay, memo_hit ? "memo" : cache ? "full" : "");
#endif
      }
    }
  }

  // One engine, one texel set: the replaying draw (24 slices) and a memo
  // hit (one slice) give the same texels and PassStats.
  for (int height : {1, 17}) {
    SCOPED_TRACE(testing::Message() << "height " << height);
    const auto draw_on = [height](Device& dev, TextureHandle in, int salt) {
      dev.upload(in, std::span<const float4>(slice_texels(kSliceWidth, height, salt)));
      const TextureHandle out =
          dev.create_texture(kSliceWidth, height, TextureFormat::RGBA32F);
      const TextureHandle ins[1] = {in};
      const TextureHandle outs[1] = {out};
      const PassStats stats = dev.draw(heavy_static_program(), ins, {}, outs);
      return std::make_pair(stats, dev.download(out));
    };
    Device replaying(geforce_7800_gtx());
    Device memoized(geforce_7800_gtx());
    const TextureHandle a =
        replaying.create_texture(kSliceWidth, height, TextureFormat::RGBA32F);
    const TextureHandle b =
        memoized.create_texture(kSliceWidth, height, TextureFormat::RGBA32F);
    const auto full = draw_on(replaying, a, 1);
    draw_on(memoized, b, 0);
    const auto hit = draw_on(memoized, b, 1);
    EXPECT_EQ(replaying.replay_memo_misses(), 1u);
    EXPECT_EQ(memoized.replay_memo_hits(), 1u);
    EXPECT_EQ(hit.second, full.second);
    expect_same_pass(hit.first, full.first);
  }
}

TEST(Device, DrawStartsNoThreads) {
  // Every pass runs on the thread that draws it.
  const auto threads = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  const std::size_t before = threads();
  ASSERT_GE(before, 1u);

  Device dev(geforce_7800_gtx());
  constexpr int n = 256;
  std::vector<float4> offsets;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      offsets.push_back({static_cast<float>(dx), static_cast<float>(dy), 0, 0});
    }
  }
  const FragmentProgram cumdist = assemble_or_die(
      "cumdist_fused", core::shaders::cumulative_distance_fused_source(9));
  const TextureHandle norm = dev.create_texture(n, n, TextureFormat::RGBA32F);
  const TextureHandle logs = dev.create_texture(n, n, TextureFormat::RGBA32F);
  const TextureHandle acc = dev.create_texture(n, n, TextureFormat::R32F);
  const TextureHandle out = dev.create_texture(n, n, TextureFormat::R32F);
  dev.upload(norm, std::span<const float4>(slice_texels(n, n, 2)));
  dev.upload(logs, std::span<const float4>(slice_texels(n, n, 3)));
  const TextureHandle ins[3] = {norm, logs, acc};
  const TextureHandle outs[1] = {out};
  dev.draw(cumdist, ins, offsets, outs);
  // Another replaying draw, of a program with a dependent fetch.
  const TextureHandle heavy_out = dev.create_texture(n, n, TextureFormat::RGBA32F);
  const TextureHandle heavy_ins[1] = {norm};
  const TextureHandle heavy_outs[1] = {heavy_out};
  dev.draw(heavy_program(), heavy_ins, {}, heavy_outs);
  EXPECT_EQ(dev.replay_memo_misses(), 2u);
  EXPECT_EQ(threads(), before);
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
