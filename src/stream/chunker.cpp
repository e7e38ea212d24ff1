#include "stream/chunker.hpp"

#include <algorithm>
#include <cmath>

#include "gpusim/texture.hpp"
#include "util/assert.hpp"

namespace hs::stream {

namespace {

ChunkRect make_chunk(int x0, int y0, int w, int h, int halo, int image_w,
                     int image_h) {
  ChunkRect c;
  c.x0 = x0;
  c.y0 = y0;
  c.width = w;
  c.height = h;
  c.px0 = std::max(0, x0 - halo);
  c.py0 = std::max(0, y0 - halo);
  const int px1 = std::min(image_w, x0 + w + halo);
  const int py1 = std::min(image_h, y0 + h + halo);
  c.pwidth = px1 - c.px0;
  c.pheight = py1 - c.py0;
  return c;
}

}  // namespace

ChunkPlan plan_chunks(int width, int height, int halo,
                      std::uint64_t max_padded_texels) {
  HS_ASSERT(width > 0 && height > 0 && halo >= 0);
  HS_ASSERT_MSG(2 * halo < gpusim::kMaxTextureDim,
                "halo cannot fit a single pixel within the texture limit");
  HS_ASSERT_MSG(max_padded_texels >=
                    static_cast<std::uint64_t>(2 * halo + 1) *
                        static_cast<std::uint64_t>(2 * halo + 1),
                "texel budget cannot fit a single pixel plus halo");

  ChunkPlan plan;

  // All tile sizing stays in 64-bit until the final height/width clamp:
  // a generous budget (the request schema admits up to 1 << 62) makes
  // budget / padded_width overflow a narrowing int cast into a negative
  // tile height.
  const std::uint64_t halo2 = 2 * static_cast<std::uint64_t>(halo);
  const std::uint64_t padded_w = static_cast<std::uint64_t>(width);
  // No padded side may exceed the texture limit: an interior of at most
  // this many texels plus its halo always fits.
  const std::uint64_t max_side = gpusim::kMaxTextureDim;
  const std::uint64_t max_interior = max_side - halo2;
  int tile_w = width;
  int tile_h = 0;
  if (padded_w <= max_side && padded_w * (halo2 + 1) <= max_padded_texels) {
    // Preferred: full-width row bands.
    const std::uint64_t rows = max_padded_texels / padded_w;
    tile_h = static_cast<int>(std::min<std::uint64_t>(
        {rows - halo2, max_interior, static_cast<std::uint64_t>(height)}));
  } else {
    // 2-D tiles: aim square on the padded size.
    const std::uint64_t side = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::sqrt(static_cast<double>(max_padded_texels))),
        max_side);
    const std::uint64_t interior_w = side > halo2 ? side - halo2 : 1;
    tile_w = static_cast<int>(
        std::min<std::uint64_t>(interior_w, static_cast<std::uint64_t>(width)));
    // Recompute height from the actual padded width.
    const std::uint64_t pw = static_cast<std::uint64_t>(tile_w) + halo2;
    const std::uint64_t rows = max_padded_texels / pw;
    const std::uint64_t interior_h = rows > halo2 ? rows - halo2 : 1;
    tile_h = static_cast<int>(std::min<std::uint64_t>(
        {interior_h, max_interior, static_cast<std::uint64_t>(height)}));
  }
  HS_ASSERT(tile_h > 0 && tile_w > 0);

  plan.tile_width = tile_w;
  plan.tile_height = tile_h;
  for (int y = 0; y < height; y += tile_h) {
    const int h = std::min(tile_h, height - y);
    for (int x = 0; x < width; x += tile_w) {
      const int w = std::min(tile_w, width - x);
      plan.chunks.push_back(make_chunk(x, y, w, h, halo, width, height));
    }
  }
  return plan;
}

std::uint64_t amc_working_set_texels(std::uint64_t texels, int bands,
                                     bool precompute_log) {
  const std::uint64_t groups = static_cast<std::uint64_t>((bands + 3) / 4);
  // Raw stack + normalized stack (+ log stack), RGBA texels.
  std::uint64_t rgba_texels = texels * groups * (precompute_log ? 3 : 2);
  // Offsets stream (RGBA).
  rgba_texels += texels;
  // Scalar textures (R32F = 1/4 of an RGBA texel): sum, DB and MEI
  // ping-pongs, two textures each.
  const std::uint64_t scalar_texels = texels * 6;
  return rgba_texels + (scalar_texels + 3) / 4;
}

}  // namespace hs::stream
