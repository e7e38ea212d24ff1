#include "stream/chunker.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gpusim/texture.hpp"

namespace hs::stream {
namespace {

/// Property: the interiors of all chunks exactly partition the image, and
/// every padded chunk fits in one texture.
void expect_partition(const ChunkPlan& plan, int width, int height) {
  std::vector<int> cover(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), 0);
  for (const auto& c : plan.chunks) {
    EXPECT_GE(c.x0, 0);
    EXPECT_GE(c.y0, 0);
    EXPECT_LE(c.x0 + c.width, width);
    EXPECT_LE(c.y0 + c.height, height);
    EXPECT_LE(c.pwidth, gpusim::kMaxTextureDim);
    EXPECT_LE(c.pheight, gpusim::kMaxTextureDim);
    for (int y = c.y0; y < c.y0 + c.height; ++y) {
      for (int x = c.x0; x < c.x0 + c.width; ++x) {
        ++cover[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
                static_cast<std::size_t>(x)];
      }
    }
  }
  for (int v : cover) EXPECT_EQ(v, 1);
}

TEST(Chunker, SingleChunkWhenBudgetIsLarge) {
  const ChunkPlan plan = plan_chunks(64, 64, 2, 1 << 20);
  ASSERT_EQ(plan.chunks.size(), 1u);
  const ChunkRect& c = plan.chunks[0];
  EXPECT_EQ(c.width, 64);
  EXPECT_EQ(c.height, 64);
  EXPECT_EQ(c.pwidth, 64);  // halo clipped at image borders
  EXPECT_EQ(c.pheight, 64);
}

TEST(Chunker, RowBandsWhenWidthFits) {
  const ChunkPlan plan = plan_chunks(64, 64, 2, 64 * 20);
  EXPECT_GT(plan.chunks.size(), 1u);
  for (const auto& c : plan.chunks) {
    EXPECT_EQ(c.width, 64) << "row bands span the full width";
    EXPECT_LE(static_cast<std::uint64_t>(c.pwidth) * static_cast<std::uint64_t>(c.pheight),
              64u * 20u);
  }
  expect_partition(plan, 64, 64);
}

TEST(Chunker, FallsBackTo2dTiles) {
  // A single padded row of width 1000 exceeds the budget: must tile in 2-D.
  const ChunkPlan plan = plan_chunks(1000, 100, 2, 900);
  EXPECT_GT(plan.chunks.size(), 1u);
  for (const auto& c : plan.chunks) {
    EXPECT_LE(static_cast<std::uint64_t>(c.pwidth) * static_cast<std::uint64_t>(c.pheight),
              900u);
  }
  expect_partition(plan, 1000, 100);
}

TEST(Chunker, HaloExtendsPaddedRegionInsideImage) {
  const ChunkPlan plan = plan_chunks(64, 64, 3, 64 * 24);
  ASSERT_GT(plan.chunks.size(), 1u);
  // An interior chunk (not first, not last) has halo on both sides.
  bool found_interior = false;
  for (const auto& c : plan.chunks) {
    if (c.y0 > 0 && c.y0 + c.height < 64) {
      found_interior = true;
      EXPECT_EQ(c.py0, c.y0 - 3);
      EXPECT_EQ(c.pheight, c.height + 6);
      EXPECT_EQ(c.interior_dy(), 3);
    }
  }
  EXPECT_TRUE(found_interior);
}

TEST(Chunker, HaloClippedAtImageBorders) {
  const ChunkPlan plan = plan_chunks(32, 32, 4, 32 * 12);
  const ChunkRect& first = plan.chunks.front();
  EXPECT_EQ(first.py0, 0);
  EXPECT_EQ(first.interior_dy(), 0);
  const ChunkRect& last = plan.chunks.back();
  EXPECT_EQ(last.py0 + last.pheight, 32);
}

TEST(Chunker, ZeroHaloWorks) {
  const ChunkPlan plan = plan_chunks(16, 16, 0, 40);
  for (const auto& c : plan.chunks) {
    EXPECT_EQ(c.pwidth, c.width);
    EXPECT_EQ(c.pheight, c.height);
  }
  expect_partition(plan, 16, 16);
}

class ChunkerPropertySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ChunkerPropertySweep, InteriorsPartitionAndBudgetsHold) {
  const auto [w, h, halo, budget] = GetParam();
  const ChunkPlan plan = plan_chunks(w, h, halo, static_cast<std::uint64_t>(budget));
  expect_partition(plan, w, h);
  for (const auto& c : plan.chunks) {
    EXPECT_LE(static_cast<std::uint64_t>(c.pwidth) * static_cast<std::uint64_t>(c.pheight),
              static_cast<std::uint64_t>(budget));
    // Padded region contains the interior.
    EXPECT_LE(c.px0, c.x0);
    EXPECT_LE(c.py0, c.y0);
    EXPECT_GE(c.px0 + c.pwidth, c.x0 + c.width);
    EXPECT_GE(c.py0 + c.pheight, c.y0 + c.height);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChunkerPropertySweep,
    ::testing::Values(std::make_tuple(31, 17, 2, 500),
                      std::make_tuple(128, 128, 2, 4096),
                      std::make_tuple(7, 200, 1, 100),
                      std::make_tuple(200, 7, 1, 100),
                      std::make_tuple(1, 1, 2, 25),
                      std::make_tuple(999, 3, 2, 5000),
                      std::make_tuple(64, 64, 0, 64),
                      std::make_tuple(50, 50, 5, 3000)));

// Regression: a generous budget (the request schema admits up to 1 << 62)
// used to overflow the `int` cast of budget / padded_width into a negative
// tile height and abort on the HS_ASSERT.
TEST(Chunker, HugeBudgetsDoNotOverflowTileSizing) {
  for (const std::uint64_t budget :
       {std::uint64_t{1} << 33, std::uint64_t{1} << 40,
        std::uint64_t{1} << 62}) {
    const ChunkPlan narrow = plan_chunks(3, 5, 1, budget);
    ASSERT_EQ(narrow.chunks.size(), 1u);
    expect_partition(narrow, 3, 5);
    const ChunkPlan wide = plan_chunks(1000, 2, 4, budget);
    ASSERT_EQ(wide.chunks.size(), 1u);
    expect_partition(wide, 1000, 2);
    // Wider or higher than the texture limit: chunks that fit it.
    const ChunkPlan past_limit = plan_chunks(9000, 3, 4, budget);
    EXPECT_GE(past_limit.chunks.size(), 3u);
    expect_partition(past_limit, 9000, 3);
    const ChunkPlan tall = plan_chunks(3, 9000, 4, budget);
    EXPECT_GE(tall.chunks.size(), 3u);
    expect_partition(tall, 3, 9000);
  }
}

// Property: every chunk's padded footprint respects the budget, swept from
// the tightest budget the precondition admits ((2*halo+1)^2) upward.
TEST(Chunker, TightBudgetSweepRespectsBudget) {
  for (const int halo : {0, 1, 2, 5}) {
    const std::uint64_t edge = static_cast<std::uint64_t>(2 * halo + 1);
    const std::uint64_t min_budget = edge * edge;
    for (const int w : {1, 3, 17, 64}) {
      for (const int h : {1, 5, 33}) {
        for (const std::uint64_t budget :
             {min_budget, min_budget + 1, min_budget + 7, min_budget * 3,
              std::uint64_t{4096}}) {
          const ChunkPlan plan = plan_chunks(w, h, halo, budget);
          expect_partition(plan, w, h);
          for (const auto& c : plan.chunks) {
            EXPECT_LE(static_cast<std::uint64_t>(c.pwidth) *
                          static_cast<std::uint64_t>(c.pheight),
                      budget)
                << "w=" << w << " h=" << h << " halo=" << halo
                << " budget=" << budget;
          }
        }
      }
    }
  }
}

TEST(Chunker, WorkingSetGrowsWithBands) {
  const auto a = amc_working_set_texels(1000, 8, true);
  const auto b = amc_working_set_texels(1000, 64, true);
  EXPECT_GT(b, a);
}

TEST(Chunker, WorkingSetSmallerWithoutLogStack) {
  EXPECT_LT(amc_working_set_texels(1000, 64, false),
            amc_working_set_texels(1000, 64, true));
}

}  // namespace
}  // namespace hs::stream
