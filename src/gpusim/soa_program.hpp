// Structure-of-arrays SIMD execution engine (ExecEngine::Soa, the
// default; the interpreter is the reference it is checked against).
//
// A second lowering stage over CompiledProgram (compiled_program.hpp),
// which pre-decodes operands; this stage classifies every texture fetch by
// how its coordinate is produced, and the executor runs the program over
// 256-fragment row tiles with structure-of-arrays registers, specializing
// the per-tile work:
//
//   * STATIC fetches -- coordinate = texcoord0.xy plus a folded integer
//     offset (the paper's neighbor-sampling idiom: `ADD R, tc0, c[d]`
//     with integral constants). Every static coordinate is below 2^12 +
//     2^20 < 2^21 (kMaxTextureDim plus the largest folded offset), so
//     `(x + 0.5) + dx` is exact in float and floor/wrap never runs per
//     lane: the interior of the tile is a contiguous texel-row copy, edge
//     lanes take scalar clamp fixups, the cache-line tags are synthesized
//     arithmetically during replay, and tile-touch marks collapse to one
//     range mark per tile.
//   * UNIFORM fetches -- a pass-uniform immediate coordinate: resolved
//     once, broadcast into the destination rows, one constant tag.
//   * DYNAMIC fetches -- everything else: the per-lane resolve is split
//     into separately vectorizable floor / wrap / gather loops over
//     restrict-qualified SoA planes (the RGBA channels of a register are
//     independent rows, so each loop is a flat lane loop).
//
// Coordinate ALU that feeds only static/uniform fetches is skipped at run
// time (runtime DCE; ALU counters are analytic, so modeled work is
// unchanged).
//
// Cache replay stays in the interpreter's canonical order -- fragment-
// major, TEX slots in program order within each fragment. Each tile first
// materializes every probing slot's cache-line tags into a flat tag row
// (arithmetic recipes in one SIMD loop, dynamic fetches as a byproduct of
// their resolve), then hands the compacted lane-major tag matrix to
// TextureCache::ReplaySession::replay_matrix(), whose register-resident
// probe loop only loads finished tags.
//
// A fullscreen pass fetches texel coordinates that depend only on the
// viewport, each fetch slot's unit and plan, and the sampled textures'
// shapes -- plus, when a slot is Dynamic, the program and the texels of
// the units that feed its coordinate (SoaProgram::coord_units). So its
// cache statistics and tile-touch marks are a function of those and of
// which units share a texture. Device::draw() replays such a pass once,
// records its totals in the device's ReplayMemo (compiled_program.hpp),
// and runs later passes with the same key -- other programs with the same
// fetch pattern too -- with no cache or tracker bound, as one slice of
// all rows. The executor itself replays whenever its bindings carry a
// cache.
//
// A small gather->ALU fusion pass further removes plane traffic: a
// componentwise ADD/SUB/MUL whose two sources are identity reads of
// still-intact full static or dynamic fetch results computes its
// destination rows straight from the two texel streams, and fetches
// consumed only this way skip materializing their destination planes
// entirely (their resolve, replay tags and tile-touch marks are
// unaffected). A static fetch feeds a fusion through a linear-index row
// it fills arithmetically, so a neighbour stencil's texels are read in
// place instead of being copied into planes once per neighbour.
//
// Exactness guarantee: for any validated program the outputs,
// ExecCounters, texture-cache statistics, tile-touch bitmaps and
// therefore modeled times are bit-identical to the interpreter's. ALU/TEX
// counters are charged analytically from the original instruction mix,
// and per-fetch cache/tracker accesses are replayed in the interpreter's
// fragment-major order after each tile. The executor requires the
// device's cache geometry: power-of-two cache tiles and 4x4 tile-touch
// tracker tiles (both asserted).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gpusim/compiled_program.hpp"
#include "gpusim/interpreter.hpp"
#include "gpusim/texture_cache.hpp"

namespace hs::gpusim {

/// How one fetch slot's coordinates are produced in fullscreen-row mode.
struct SoaFetchPlan {
  enum class Mode : std::uint8_t {
    Dynamic,  ///< per-lane floor/wrap of computed coordinate rows
    Static,   ///< texcoord0.xy + integer (dx, dy): analytic resolve
    Uniform,  ///< pass-uniform immediate coordinate: one resolve per tile
  };
  Mode mode = Mode::Dynamic;
  std::int32_t dx = 0;  ///< Static only
  std::int32_t dy = 0;
  float ux = 0.f;  ///< Uniform only: the immediate coordinate
  float uy = 0.f;
};

/// Gather->ALU fusion record: a componentwise two-source instruction whose
/// sources are identity (no swizzle, no negate) reads of two static or
/// dynamic fetches' full, still-unclobbered results. The executor computes the
/// destination rows directly from the two texel streams via the fetches'
/// resolved linear-index rows -- identical float operations on identical
/// values, so results are bit-equal to materialize-then-operate.
struct SoaFusedTex {
  std::uint8_t unit[2]{};   ///< texture unit per source
  std::int16_t row[2]{};    ///< resolve-row slot (index rows) per source
};

/// Second-tier fusion: a DP3/DP4 whose two sources are identity reads of
/// two gather->ALU fusion results -- the paper's MEI kernel is exactly
/// this shape (a dot of two fetched differences). The executor accumulates
/// the channel products straight from the four texel streams; feeding
/// fused instructions consumed only here are skipped outright (their
/// destination planes are never read).
struct SoaFusedDot {
  SoaFusedTex side[2];   ///< the two feeding gather->ALU fusions
  Opcode side_op[2]{};   ///< componentwise op of each feeding fusion
  std::uint8_t n = 4;    ///< 3 for DP3, 4 for DP4
};

struct SoaProgram {
  std::shared_ptr<const CompiledProgram> compiled;
  std::vector<SoaFetchPlan> fetch;  ///< per fetch slot, program order
  /// Per instruction: 1 = executes, 0 = its writes feed only
  /// static/uniform fetch coordinates, which the executor synthesizes
  /// analytically (runtime DCE).
  std::vector<char> live_fullscreen;
  /// Per instruction: index into `fused` when the instruction carries a
  /// gather->ALU fusion, -1 otherwise. Fusions activate only when every
  /// referenced texture passes the per-pass runtime check (four channels,
  /// non-border addressing); otherwise the instruction executes normally
  /// and fetches materialize as usual.
  std::vector<std::int16_t> fuse_of;
  std::vector<SoaFusedTex> fused;
  /// Per instruction: index into `fused_dot` for a fused dot-of-fusions,
  /// -1 otherwise. Gated by the same per-pass check as `fuse_of` (every
  /// texture a dot touches is also in `fused`).
  std::vector<std::int16_t> dot_of;
  std::vector<SoaFusedDot> fused_dot;
  /// Per instruction: 1 = a fused instruction whose result is consumed
  /// only by fused dots, so while fusions are active it is skipped
  /// entirely (nothing ever reads its destination planes).
  std::vector<char> fuse_dead;
  /// Per fetch slot: 1 = every read of the fetch's destination register is
  /// a fused source, so the gather may skip writing its destination planes
  /// while fusions are active (resolve, tags and marks still run).
  std::vector<char> fetch_store_skip;
  /// Bitmask over texture units whose texels reach the coordinate of a
  /// Dynamic fetch slot. In a fullscreen pass every fetch coordinate --
  /// and so every cache tag and tile mark -- depends on texel values only
  /// through these units (0: not at all).
  std::uint16_t coord_units = 0;
  /// 1 + the highest temp register the code touches: the executor's
  /// scratch holds only these registers.
  int temp_regs = 0;
};

/// Second-stage lowering. Pure function of the compiled program (texture
/// shapes and address modes are already part of its specialization key),
/// so ProgramCache stores its result under the same key.
SoaProgram lower_soa(std::shared_ptr<const CompiledProgram> compiled);

/// Everything one simulated pipe needs to run its slice of a pass.
struct SoaBindings {
  std::span<const Texture2D* const> textures;
  std::span<const std::uint32_t> texture_ids;
  std::span<Texture2D* const> targets;
  /// Per-pipe; null disables stats. Its tile size must be a power of two.
  TextureCache* cache = nullptr;
  /// Per-pipe; null disables tracking. Its tile size must be 4.
  TileTouchTracker* tiles = nullptr;
};

/// Fused instructions that run fused in a pass over `textures`: 0 when
/// the per-pass check (four channels, no border addressing) fails for any
/// texture a fusion reads.
std::size_t soa_active_fusions(const SoaProgram& program,
                               std::span<const Texture2D* const> textures);

/// Executes rows [y_begin, y_end) of a full-viewport pass (texcoord[0] =
/// texel center) and accumulates the analytic counters. The viewport is
/// at most kMaxTextureDim texels on a side.
void run_soa_rows(const SoaProgram& program, const SoaBindings& bindings,
                  int width, int y_begin, int y_end, ExecCounters& counters);

}  // namespace hs::gpusim
