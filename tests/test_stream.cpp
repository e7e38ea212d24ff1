#include "stream/stream.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gpusim/assembler.hpp"
#include "hsi/cube.hpp"
#include "stream/executor.hpp"
#include "trace/trace.hpp"

namespace hs::stream {
namespace {

using gpusim::AddressMode;
using gpusim::Device;
using gpusim::DeviceProfile;
using gpusim::float4;
using gpusim::TextureFormat;
using gpusim::TextureHandle;
using gpusim::TransferStats;

DeviceProfile test_profile() {
  DeviceProfile p = gpusim::geforce_7800_gtx();
  p.fragment_pipes = 2;
  return p;
}

TEST(BandStack, GroupCountRoundsUp) {
  EXPECT_EQ(band_group_count(1), 1);
  EXPECT_EQ(band_group_count(4), 1);
  EXPECT_EQ(band_group_count(5), 2);
  EXPECT_EQ(band_group_count(216), 54);
}

TEST(BandStack, PacksFourBandsPerTexel) {
  Device dev(test_profile());
  BandStack stack(dev, 2, 2, 6);
  EXPECT_EQ(stack.groups(), 2);
  // Band-sequential host array holding 100 * band + 10 * y + x.
  std::vector<float> host(2 * 2 * 6);
  for (int b = 0; b < 6; ++b) {
    for (int y = 0; y < 2; ++y) {
      for (int x = 0; x < 2; ++x) {
        host[static_cast<std::size_t>((b * 2 + y) * 2 + x)] =
            static_cast<float>(100 * b + 10 * y + x);
      }
    }
  }
  stack.upload(host.data(), 1, 2, 4);
  // Band group 0 holds bands 0-3.
  const float4 t0 = dev.texture(stack.group(0)).load(1, 0);
  EXPECT_EQ(t0, float4(1, 101, 201, 301));
  // Band group 1 holds bands 4-5 and zero padding.
  const float4 t1 = dev.texture(stack.group(1)).load(0, 1);
  EXPECT_EQ(t1, float4(410, 510, 0, 0));
}

TEST(BandStack, ReleasesVideoMemoryOnDestruction) {
  Device dev(test_profile());
  {
    BandStack stack(dev, 8, 8, 16);
    EXPECT_EQ(dev.video_memory_used(), 4u * 8 * 8 * 16);
  }
  EXPECT_EQ(dev.video_memory_used(), 0u);
}

TEST(BandStack, MoveTransfersOwnership) {
  Device dev(test_profile());
  BandStack a(dev, 4, 4, 8);
  const std::uint64_t used = dev.video_memory_used();
  BandStack b(std::move(a));
  EXPECT_EQ(dev.video_memory_used(), used);
  EXPECT_EQ(b.groups(), 2);
}

TEST(BandStack, UploadCountsBusTransfersPerGroup) {
  Device dev(test_profile());
  BandStack stack(dev, 4, 4, 12);
  const std::vector<float> ones(4 * 4 * 12, 1.0f);
  stack.upload(ones.data(), 12, 4 * 12, 1);
  EXPECT_EQ(dev.totals().transfer.uploads, 3u);
}

TEST(BandStack, UploadIsIdenticalForEveryInterleave) {
  // One 5x4x6 scene in all three interleaves; each uploads the 3x2 window
  // at (1, 1), as a chunk with a halo would, into its own stack.
  hsi::HyperCube bip(5, 4, 6, hsi::Interleave::BIP);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 5; ++x) {
      for (int b = 0; b < 6; ++b) {
        bip.at(x, y, b) = static_cast<float>(100 * b + 10 * y + x);
      }
    }
  }
  std::vector<std::vector<float4>> groups[3];
  int slot = 0;
  for (const hsi::Interleave il :
       {hsi::Interleave::BSQ, hsi::Interleave::BIL, hsi::Interleave::BIP}) {
    SCOPED_TRACE(hsi::interleave_name(il));
    const hsi::HyperCube cube = bip.converted(il);
    Device dev(test_profile());
    BandStack stack(dev, 3, 2, 6);
    const hsi::HyperCube::Strides s = cube.strides();
    stack.upload(cube.raw().data() + cube.index(1, 1, 0), s.x, s.y, s.band);
    for (int g = 0; g < stack.groups(); ++g) {
      groups[slot].push_back(dev.download(stack.group(g)));
    }
    // Texel (2, 1) of the window is pixel (3, 2); bands 4-5 pad with zero.
    EXPECT_EQ(groups[slot][0][5], float4(23, 123, 223, 323));
    EXPECT_EQ(groups[slot][1][5], float4(423, 523, 0, 0));
    ++slot;
  }
  EXPECT_EQ(groups[0], groups[2]);
  EXPECT_EQ(groups[1], groups[2]);
}

TEST(BandStack, UploadMatchesOneTexelUploadPerGroup) {
  // The pixel-major stack upload against packing each group into float4
  // texels and uploading them one texture at a time: the same texel bits
  // (half quantization included), bytes, upload count and modeled time.
  for (const TextureFormat format : {TextureFormat::RGBA32F, TextureFormat::RGBA16F}) {
    for (const int bands : {4, 6, 7, 9}) {
      SCOPED_TRACE(testing::Message() << bands << " bands, half "
                                      << is_half_format(format));
      constexpr int w = 5;
      constexpr int h = 3;
      std::vector<float> bip(static_cast<std::size_t>(w * h * bands));
      for (std::size_t i = 0; i < bip.size(); ++i) {
        bip[i] = 0.1f * static_cast<float>(i) + 1.f / 3.f;
      }
      Device stacked(test_profile());
      BandStack stack(stacked, w, h, bands, AddressMode::ClampToEdge, format);
      stack.upload(bip.data(), bands, w * bands, 1);

      Device texelwise(test_profile());
      for (int g = 0; g < stack.groups(); ++g) {
        std::vector<float4> texels(w * h, float4(0.f));
        for (int p = 0; p < w * h; ++p) {
          for (int c = 0; c < 4 && 4 * g + c < bands; ++c) {
            texels[static_cast<std::size_t>(p)][static_cast<std::size_t>(c)] =
                bip[static_cast<std::size_t>(p * bands + 4 * g + c)];
          }
        }
        const TextureHandle t = texelwise.create_texture(w, h, format);
        texelwise.upload(t, std::span<const float4>(texels));
        EXPECT_EQ(std::as_const(stacked).texture(stack.group(g)).raw(),
                  std::as_const(texelwise).texture(t).raw())
            << "group " << g;
      }
      const TransferStats& a = stacked.totals().transfer;
      const TransferStats& b = texelwise.totals().transfer;
      EXPECT_EQ(a.upload_bytes, b.upload_bytes);
      EXPECT_EQ(a.uploads, b.uploads);
      EXPECT_EQ(a.modeled_upload_seconds, b.modeled_upload_seconds);
    }
  }
}

TEST(PingPong, SwapAlternatesRoles) {
  Device dev(test_profile());
  PingPong pp(dev, 4, 4, TextureFormat::R32F);
  const TextureHandle f = pp.front();
  const TextureHandle b = pp.back();
  EXPECT_NE(f, b);
  pp.swap();
  EXPECT_EQ(pp.front(), b);
  EXPECT_EQ(pp.back(), f);
}

TEST(StreamExecutor, AggregatesByStage) {
  Device dev(test_profile());
  StreamExecutor exec(dev);
  const TextureHandle out = dev.create_texture(8, 8, TextureFormat::R32F);
  const auto clear =
      gpusim::assemble_or_die("clear", "!!HSFP1.0\nMOV result.color, {0.0};\nEND\n");
  const TextureHandle outs[1] = {out};
  exec.run("stage_a", clear, {}, {}, outs);
  exec.run("stage_a", clear, {}, {}, outs);
  exec.run("stage_b", clear, {}, {}, outs);

  ASSERT_EQ(exec.stages().size(), 2u);
  EXPECT_EQ(exec.stages().at("stage_a").passes, 2u);
  EXPECT_EQ(exec.stages().at("stage_a").fragments, 128u);
  EXPECT_EQ(exec.stages().at("stage_b").passes, 1u);
  EXPECT_GT(exec.stages().at("stage_a").modeled_seconds, 0.0);
}

TEST(StreamExecutor, StageOrderIsFirstUse) {
  Device dev(test_profile());
  StreamExecutor exec(dev);
  exec.add_stage_time("zz_first", 0.1);
  exec.add_stage_time("aa_second", 0.2);
  exec.add_stage_time("zz_first", 0.3);
  ASSERT_EQ(exec.stage_order().size(), 2u);
  EXPECT_EQ(exec.stage_order()[0], "zz_first");
  EXPECT_EQ(exec.stage_order()[1], "aa_second");
  EXPECT_DOUBLE_EQ(exec.stages().at("zz_first").modeled_seconds, 0.4);
}

TEST(StreamExecutor, ConcurrentExecutorsDoNotCrossContaminate) {
  // One device and executor per thread, each hammering run() and
  // add_stage_time(): per-executor aggregates and the shared counter must
  // both come out exact.
  const auto clear =
      gpusim::assemble_or_die("clear", "!!HSFP1.0\nMOV result.color, {0.0};\nEND\n");
  trace::Counter& passes = trace::counter("stream.executor.passes");
  const std::int64_t start = passes.value();

  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 8;
  constexpr int kPassesPerRound = 5;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Device dev(test_profile());
      StreamExecutor exec(dev);
      const TextureHandle out = dev.create_texture(4, 4, TextureFormat::R32F);
      const TextureHandle outs[1] = {out};
      const std::string stage = "stage_" + std::to_string(t);
      for (int round = 1; round <= kRounds; ++round) {
        for (int i = 0; i < kPassesPerRound; ++i) {
          exec.run(stage, clear, {}, {}, outs);
          exec.add_stage_time(stage, 0.25);
        }
        // Snapshot taken between this thread's own calls: exact values.
        const auto done = static_cast<std::uint64_t>(round * kPassesPerRound);
        ASSERT_EQ(exec.stage_order().size(), 1u);
        ASSERT_EQ(exec.stages().at(stage).passes, done);
        ASSERT_EQ(exec.stages().at(stage).fragments, done * 16);
      }
    });
  }
  for (std::thread& t : threads) t.join();

#if HS_TRACE_ENABLED
  EXPECT_EQ(passes.value() - start,
            static_cast<std::int64_t>(kThreads) * kRounds * kPassesPerRound);
#else
  EXPECT_EQ(passes.value() - start, 0);
#endif
}

}  // namespace
}  // namespace hs::stream
