// Spatial chunking of images that exceed video memory or the texture
// size limit.
//
// "In case of a target hyperspectral image that exceeds the capacity of
//  the GPU memory, we split it into multiple chunks made up of entire
//  pixel vectors, i.e. every chunk incorporates all the spectral
//  information on a localized spatial region." (paper, Section 3.2)
//
// Chunks are sized by a texel budget (the caller's share of video memory)
// and by gpusim::kMaxTextureDim: no padded chunk is wider or higher than
// the largest texture the device accepts.
//
// Each chunk carries a halo: the morphological pipeline reads a
// (2*se_radius)-pixel neighborhood around every output pixel -- one
// se_radius for the cumulative distance of a neighbor, another for the
// erosion/dilation argmin/argmax over neighbors -- so the padded region
// extends the interior by that much, clamped at image borders (where the
// kernels' clamp-to-edge addressing takes over).
#pragma once

#include <cstdint>
#include <vector>

namespace hs::stream {

struct ChunkRect {
  // Interior: the pixels this chunk is responsible for producing.
  int x0 = 0, y0 = 0, width = 0, height = 0;
  // Padded region actually uploaded (interior + halo, clipped to image).
  int px0 = 0, py0 = 0, pwidth = 0, pheight = 0;

  /// Offset of the interior within the padded region.
  int interior_dx() const { return x0 - px0; }
  int interior_dy() const { return y0 - py0; }
};

struct ChunkPlan {
  std::vector<ChunkRect> chunks;
  int tile_width = 0;   ///< interior tile size used (last row/col may be smaller)
  int tile_height = 0;
};

/// Plans a tiling of a width x height image such that no chunk's *padded*
/// area exceeds `max_padded_texels` and no padded side exceeds
/// gpusim::kMaxTextureDim. Chunks are full-width row bands when possible
/// (best upload locality), falling back to 2-D tiles when a single padded
/// row band would not fit. halo >= 0 with 2 * halo < kMaxTextureDim;
/// max_padded_texels must admit at least one pixel of interior.
ChunkPlan plan_chunks(int width, int height, int halo,
                      std::uint64_t max_padded_texels);

/// Video-memory footprint of the AMC working set for a chunk of `texels`
/// padded pixels with `bands` bands: the raw stack, the normalized stack,
/// optionally the log stack, plus the offsets texture and the scalar
/// sum/DB/MEI ping-pongs. Returned in units of *RGBA32F-equivalent texels*
/// so it can be compared against a video-memory budget via 16 bytes/texel.
std::uint64_t amc_working_set_texels(std::uint64_t texels, int bands,
                                     bool precompute_log);

}  // namespace hs::stream
