// First lowering stage for fragment programs, and the program caches.
//
// The interpreter (interpreter.hpp) re-decodes every instruction's operands
// -- register-file switch, swizzle selection, negation -- once per fragment.
// A pass over an Indian-Pines-scale chunk executes the same few dozen
// instructions millions of times, so each bound (program, constants,
// texture-shape) combination is lowered ONCE into a pre-decoded form --
// the same specialization step a stream compiler (Brook) or a shader JIT
// performs before launching a kernel. The SoA engine (soa_program.hpp)
// lowers this form a second time and executes it.
//
// compile_program() performs:
//   * constant materialization: Const/Literal operands become immediates
//     with their swizzle and negation folded into the value;
//   * swizzle pre-resolution: in SoA layout a swizzled read is just a
//     different component row, so swizzles cost nothing at run time;
//   * dead-write elimination: ALU writes whose lanes are never consumed
//     (including output writes fully overwritten later) are dropped;
//   * per-texture specialization: formats/shapes are part of the cache key;
//   * resolve reuse: a TEX whose coordinate matches an earlier TEX against
//     a same-shaped texture shares that fetch's resolved texel indices.
//
// ALU/TEX counters are charged analytically from the *original*
// instruction mix (eliminated dead writes still cost what the interpreter
// would have charged), and TEX instructions are never dropped or
// reordered: they drive the cache model.
//
// ProgramCache (per device) and SharedProgramStore (across devices) hold
// the fully lowered SoaProgram, keyed by the exact specialization bytes.
// The ReplayMemo (one per device) holds recorded cache totals apart from
// them, keyed by the fetch pattern rather than the program, so programs
// that differ only in constants feeding ALU share one record.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "gpusim/fragment_ir.hpp"
#include "gpusim/texture.hpp"
#include "gpusim/texture_cache.hpp"
#include "trace/trace.hpp"

namespace hs::gpusim {

struct SoaProgram;  // soa_program.hpp

struct CompiledSrc {
  enum class Kind : std::uint8_t {
    Temp,      ///< component rows of a temp register
    TexCoord,  ///< component rows of an interpolated attribute
    Imm,       ///< pass-uniform immediate (folded Const or Literal)
  };
  Kind kind = Kind::Imm;
  std::uint8_t index = 0;
  std::array<std::uint8_t, 4> swz{0, 1, 2, 3};
  bool negate = false;         ///< Temp/TexCoord only; folded for Imm
  std::uint16_t imm_slot = 0;  ///< row group in the broadcast pool
  float4 imm{};                ///< swizzled/negated immediate value
};

struct CompiledIns {
  Opcode op = Opcode::MOV;
  std::uint8_t dst_index = 0;
  bool dst_is_output = false;
  /// Component-wise op whose destination register is also a source with a
  /// non-identity swizzle: results are staged so later components still
  /// read the pre-instruction register state.
  bool alias_hazard = false;
  std::uint8_t write_mask = 0xF;  ///< shrunk to the live lanes by DCE
  std::uint8_t src_count = 0;
  std::uint8_t tex_unit = 0;
  std::int16_t tex_slot = -1;  ///< fetch-record row for TEX, program order
  /// Fetch slot of an earlier TEX with the same (unclobbered) coordinate
  /// source and identical texture geometry: its resolved texel indices are
  /// reused instead of re-running floor/wrap per lane. -1 when none.
  std::int16_t resolve_reuse = -1;
  std::array<CompiledSrc, 3> src{};
};

struct CompiledProgram {
  std::string name;
  std::vector<CompiledIns> code;
  std::uint8_t outputs_written = 0;  ///< bitmask over result.color[i]
  /// Per output: components written by some surviving instruction. The
  /// complement stays zero, matching the interpreter's zeroed registers.
  std::array<std::uint8_t, kMaxOutputs> output_comp_mask{};
  std::uint8_t texcoords_used = 0;  ///< bitmask over texcoord attributes
  std::uint16_t imm_count = 0;
  // Analytic per-fragment counters, from the *original* program (DCE'd
  // instructions still cost what the interpreter would have charged).
  std::uint32_t alu_per_fragment = 0;
  std::uint32_t tex_per_fragment = 0;
  std::uint64_t tex_bytes_per_fragment = 0;
  /// Texture unit of every TEX instruction, in program order; index i is
  /// the fetch record slot of the TEX with tex_slot == i.
  std::vector<std::uint8_t> tex_unit_of_fetch;
  /// Per fetch slot: the earlier slot whose resolved records it shares
  /// (the instruction's resolve_reuse), or -1 when it owns its records.
  std::vector<std::int16_t> tex_reuse_of_fetch;
  int dce_removed = 0;  ///< ALU instructions eliminated as dead
};

/// Lowers a validated program against its bound constants and textures.
/// `textures[u]` must be non-null for every unit the program samples.
CompiledProgram compile_program(const FragmentProgram& program,
                                std::span<const float4> constants,
                                std::span<const Texture2D* const> textures);

/// Thread-safe cross-device store of lowered programs, keyed by the same
/// exact specialization bytes as ProgramCache. Chunk-parallel pipelines
/// clone one blank Device per worker; without sharing, every clone
/// re-lowers the identical (program, constants, texture-shape) bindings.
/// Hang one store off SimConfig::shared_programs (clone_blank copies the
/// config, so all worker clones share it automatically) and each distinct
/// binding compiles exactly once per store instead of once per device.
///
/// Lowering is deterministic, programs are immutable once lowered, and
/// every access runs under one mutex (lowering included, so concurrent
/// misses on one key never duplicate work) -- bit-identity and TSan
/// cleanliness are preserved by construction. Per-device ProgramCache
/// hit/miss statistics are unaffected: a local miss still counts as a
/// miss even when the store already holds the program.
class SharedProgramStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };

  explicit SharedProgramStore(std::size_t capacity = 512);

  std::shared_ptr<const SoaProgram> get_or_compile(
      const FragmentProgram& program, std::span<const float4> constants,
      std::span<const Texture2D* const> textures);

  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<std::uint8_t> key;
    std::uint64_t stamp = 0;
    std::shared_ptr<const SoaProgram> program;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t stamp_ = 0;
  Stats stats_;
  std::vector<Entry> entries_;
  trace::Counter* trace_hits_;
  trace::Counter* trace_misses_;
  trace::Counter* trace_evictions_;
};

/// Modeled texture-cache totals of one pass, summed over its pipes.
struct PassCacheTotals {
  TextureCacheStats cache;
  std::uint64_t miss_bytes = 0;
  std::uint64_t unique_tile_bytes = 0;  ///< compulsory DRAM texture traffic
};

/// Cache totals of fullscreen SoA passes, recorded by Device::draw() on
/// the first pass of a Key and reused on every later one instead of
/// replaying. One per device, bounded: the oldest record goes once
/// kMaxRecords are held.
class ReplayMemo {
 public:
  static constexpr std::size_t kMaxRecords = 64;

  /// Everything the replay of a fullscreen pass reads: the viewport, the
  /// alias pattern (per unit, the first unit bound to the same texture,
  /// so ping-pong passes that swap texture ids keep their pattern), each
  /// fetch slot's unit and plan (mode, dx/dy or ux/uy) in program order,
  /// and each sampled unit's width, height, format and address mode. For an
  /// all-Static/Uniform program these fix every probed address in every
  /// pipe, so programs that differ only in constants feeding ALU share a
  /// key. When some slot is Dynamic its coordinates come from ALU (and
  /// so from constants) and from the texels of SoaProgram::coord_units:
  /// the key then also holds the lowered program (kept alive here, so its
  /// address cannot be reused) and those units' write generations.
  struct Key {
    std::uint64_t hash = 0;  ///< of `bytes`; compared first
    std::shared_ptr<const SoaProgram> program;  ///< null when no slot is Dynamic
    std::vector<std::uint8_t> bytes;

    bool operator==(const Key&) const = default;
  };

  /// The key of a fullscreen pass of `program` over `textures` (ids
  /// `texture_ids`). `coord_generations` holds one write generation per
  /// unit in program->coord_units, in unit order.
  static Key key(const std::shared_ptr<const SoaProgram>& program, int width,
                 int height, std::span<const Texture2D* const> textures,
                 std::span<const std::uint32_t> texture_ids,
                 std::span<const std::uint64_t> coord_generations);

  const PassCacheTotals* find(const Key& key) const;
  void record(Key key, const PassCacheTotals& totals);
  std::size_t size() const { return records_.size(); }

 private:
  struct Record {
    Key key;
    PassCacheTotals totals;
  };
  std::vector<Record> records_;  // oldest first
};

/// LRU cache of lowered programs, keyed by the exact specialization
/// inputs: the instruction stream, the values of every referenced
/// constant, and the shape/format/addressing of every sampled texture
/// unit. The ping-pong loops of the AMC pipeline re-draw a handful of
/// programs hundreds of times; each lowers once per device -- or once
/// per *store* when a SharedProgramStore backs the cache (local misses
/// then fetch the shared plan instead of re-lowering).
class ProgramCache {
 public:
  explicit ProgramCache(std::size_t capacity);

  /// Backs local misses with a cross-device store (may be null). Local
  /// hit/miss/eviction accounting is independent of the store.
  void set_shared_store(std::shared_ptr<SharedProgramStore> store) {
    shared_store_ = std::move(store);
  }

  /// The owning pointer keeps the plan alive for a whole draw even if a
  /// later lookup evicts it.
  std::shared_ptr<const SoaProgram> get(
      const FragmentProgram& program, std::span<const float4> constants,
      std::span<const Texture2D* const> textures);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<std::uint8_t> key;
    std::uint64_t stamp = 0;
    /// Stable across eviction; shared with (and possibly owned by) the
    /// cross-device store.
    std::shared_ptr<const SoaProgram> program;
  };

  std::size_t capacity_;
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::vector<Entry> entries_;
  std::shared_ptr<SharedProgramStore> shared_store_;
  // Process-global trace counters (all devices' caches aggregate); the
  // per-cache totals above stay exact per instance.
  trace::Counter* trace_hits_;
  trace::Counter* trace_misses_;
  trace::Counter* trace_evictions_;
};

}  // namespace hs::gpusim
