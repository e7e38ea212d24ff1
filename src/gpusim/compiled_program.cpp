#include "gpusim/compiled_program.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "gpusim/soa_program.hpp"
#include "util/assert.hpp"

namespace hs::gpusim {

namespace {

float4 fold_swizzle_negate(float4 v, const Swizzle& s, bool negate) {
  float4 out{v[s.comp[0]], v[s.comp[1]], v[s.comp[2]], v[s.comp[3]]};
  return negate ? -out : out;
}

// ---- specialization key ----------------------------------------------------

void put_bytes(std::vector<std::uint8_t>& key, const void* p, std::size_t n) {
  const std::size_t at = key.size();
  key.resize(at + n);
  std::memcpy(key.data() + at, p, n);
}

template <typename T>
void put(std::vector<std::uint8_t>& key, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_bytes(key, &v, sizeof v);
}

std::vector<std::uint8_t> make_key(const FragmentProgram& program,
                                   std::span<const float4> constants,
                                   std::span<const Texture2D* const> textures) {
  std::vector<std::uint8_t> key;
  key.reserve(program.code.size() * 32 + 64);
  put(key, static_cast<std::uint32_t>(program.code.size()));
  for (const Instruction& ins : program.code) {
    put(key, ins.op);
    put(key, ins.dst.file);
    put(key, ins.dst.index);
    put(key, ins.dst.write_mask);
    put(key, ins.src_count);
    put(key, ins.tex_unit);
    for (int s = 0; s < ins.src_count; ++s) {
      const SrcOperand& src = ins.src[static_cast<std::size_t>(s)];
      put(key, src.file);
      put(key, src.swizzle.comp);
      put(key, src.negate);
      if (src.file == RegFile::Const) {
        // The value is what gets baked, not the slot.
        const float4 v = src.index < constants.size()
                             ? constants[src.index]
                             : float4(0.f);
        put(key, v);
      } else if (src.file == RegFile::Literal) {
        put(key, src.literal);
      } else {
        put(key, src.index);
      }
    }
  }
  const int max_unit = program.max_tex_unit();
  put(key, static_cast<std::int32_t>(max_unit));
  for (int u = 0; u <= max_unit; ++u) {
    const Texture2D* tex = u < static_cast<int>(textures.size())
                               ? textures[static_cast<std::size_t>(u)]
                               : nullptr;
    if (tex == nullptr) {  // unit in range but not sampled by this program
      put(key, static_cast<std::int32_t>(-1));
      continue;
    }
    put(key, static_cast<std::int32_t>(tex->width()));
    put(key, static_cast<std::int32_t>(tex->height()));
    put(key, tex->format());
    put(key, tex->address_mode());
  }
  return key;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Both lowering stages: the executable plan for one specialization.
std::shared_ptr<const SoaProgram> lower(
    const FragmentProgram& program, std::span<const float4> constants,
    std::span<const Texture2D* const> textures) {
  return std::make_shared<const SoaProgram>(lower_soa(
      std::make_shared<const CompiledProgram>(
          compile_program(program, constants, textures))));
}

}  // namespace

// ---- compiler --------------------------------------------------------------

CompiledProgram compile_program(const FragmentProgram& program,
                                std::span<const float4> constants,
                                std::span<const Texture2D* const> textures) {
  CompiledProgram cp;
  cp.name = program.name;
  cp.alu_per_fragment =
      static_cast<std::uint32_t>(program.alu_instruction_count());
  cp.tex_per_fragment =
      static_cast<std::uint32_t>(program.tex_instruction_count());

  // Pass 1: operand pre-decoding and constant materialization.
  std::vector<CompiledIns> code;
  code.reserve(program.code.size());
  for (const Instruction& ins : program.code) {
    CompiledIns ci;
    ci.op = ins.op;
    ci.dst_index = ins.dst.index;
    ci.dst_is_output = ins.dst.file == RegFile::Output;
    ci.write_mask = ins.dst.write_mask;
    ci.src_count = ins.src_count;
    ci.tex_unit = ins.tex_unit;
    if (ins.dst.file == RegFile::Output) {
      cp.outputs_written =
          static_cast<std::uint8_t>(cp.outputs_written | (1u << ins.dst.index));
    }
    for (int s = 0; s < ins.src_count; ++s) {
      const SrcOperand& src = ins.src[static_cast<std::size_t>(s)];
      CompiledSrc cs;
      switch (src.file) {
        case RegFile::Temp:
          cs.kind = CompiledSrc::Kind::Temp;
          cs.index = src.index;
          cs.swz = src.swizzle.comp;
          cs.negate = src.negate;
          break;
        case RegFile::TexCoord:
          cs.kind = CompiledSrc::Kind::TexCoord;
          cs.index = src.index;
          cs.swz = src.swizzle.comp;
          cs.negate = src.negate;
          cp.texcoords_used =
              static_cast<std::uint8_t>(cp.texcoords_used | (1u << src.index));
          break;
        case RegFile::Const: {
          const float4 v =
              src.index < constants.size() ? constants[src.index] : float4(0.f);
          cs.kind = CompiledSrc::Kind::Imm;
          cs.imm = fold_swizzle_negate(v, src.swizzle, src.negate);
          break;
        }
        case RegFile::Literal:
          cs.kind = CompiledSrc::Kind::Imm;
          cs.imm = fold_swizzle_negate(src.literal, src.swizzle, src.negate);
          break;
        case RegFile::Output:
          HS_DEBUG_ASSERT(false);  // rejected by validate()
          break;
      }
      ci.src[static_cast<std::size_t>(s)] = cs;
    }
    if (ins.op == Opcode::TEX) {
      HS_ASSERT_MSG(ins.tex_unit < textures.size() &&
                        textures[ins.tex_unit] != nullptr,
                    "compile_program: TEX samples an unbound unit");
      ci.tex_slot = static_cast<std::int16_t>(cp.tex_unit_of_fetch.size());
      cp.tex_unit_of_fetch.push_back(ins.tex_unit);
      cp.tex_reuse_of_fetch.push_back(-1);
      cp.tex_bytes_per_fragment +=
          bytes_per_texel(textures[ins.tex_unit]->format());
    }
    code.push_back(ci);
  }

  // Pass 2: backward dead-write elimination over temp (and output) lanes.
  // TEX is never dropped -- its fetch drives the cache model -- but ALU
  // writes whose lanes are never consumed downstream vanish, and surviving
  // write masks shrink to the live lanes.
  std::array<std::uint8_t, kMaxTemps> live{};
  std::array<std::uint8_t, kMaxOutputs> live_out;
  live_out.fill(0xF);  // every output component is observable at pass end
  std::vector<char> keep(code.size(), 1);
  for (std::size_t i = code.size(); i-- > 0;) {
    CompiledIns& ci = code[i];
    std::uint8_t& live_dst =
        ci.dst_is_output ? live_out[ci.dst_index] : live[ci.dst_index];
    const std::uint8_t effective = ci.write_mask & live_dst;
    if (effective == 0 && ci.op != Opcode::TEX) {
      keep[i] = 0;
      ++cp.dce_removed;
      continue;
    }
    live_dst = static_cast<std::uint8_t>(live_dst & ~ci.write_mask);
    if (ci.op != Opcode::TEX) ci.write_mask = effective;
    for (int s = 0; s < ci.src_count; ++s) {
      const CompiledSrc& cs = ci.src[static_cast<std::size_t>(s)];
      if (cs.kind != CompiledSrc::Kind::Temp) continue;
      Swizzle sw;
      sw.comp = cs.swz;
      live[cs.index] = static_cast<std::uint8_t>(
          live[cs.index] | consumed_source_lanes(ci.op, sw, ci.write_mask));
    }
  }

  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!keep[i]) continue;
    CompiledIns ci = code[i];
    // Immediate rows are broadcast once per pass; assign pool slots only to
    // surviving operands.
    for (int s = 0; s < ci.src_count; ++s) {
      CompiledSrc& cs = ci.src[static_cast<std::size_t>(s)];
      if (cs.kind == CompiledSrc::Kind::Imm) cs.imm_slot = cp.imm_count++;
    }
    // In-place component shuffles (e.g. MOV R0.xy, R0.yxzw's lanes) must
    // stage their results: component c would otherwise clobber a lane a
    // later component still reads.
    if (!ci.dst_is_output && ci.op != Opcode::TEX &&
        !opcode_is_scalar(ci.op) && ci.op != Opcode::DP3 &&
        ci.op != Opcode::DP4) {
      for (int s = 0; s < ci.src_count && !ci.alias_hazard; ++s) {
        const CompiledSrc& cs = ci.src[static_cast<std::size_t>(s)];
        if (cs.kind != CompiledSrc::Kind::Temp || cs.index != ci.dst_index) {
          continue;
        }
        for (int c = 0; c < 4; ++c) {
          if ((ci.write_mask & (1u << c)) && cs.swz[static_cast<std::size_t>(c)] != c) {
            ci.alias_hazard = true;
            break;
          }
        }
      }
    }
    if (ci.dst_is_output) {
      cp.output_comp_mask[ci.dst_index] = static_cast<std::uint8_t>(
          cp.output_comp_mask[ci.dst_index] | ci.write_mask);
    }
    cp.code.push_back(ci);
  }

  // Resolve reuse: a TEX whose coordinate source (register, swizzle, negate)
  // matches an earlier TEX against a texture of identical width/height and
  // address mode resolves to the same texel indices, so the executor can
  // reuse the earlier slot's fetch records instead of re-running floor/wrap
  // per lane (common pattern: the same neighbor coordinate sampled against
  // several same-shaped band textures). An entry dies when any instruction
  // overwrites a coordinate component it reads.
  {
    struct ResolveEntry {
      CompiledSrc::Kind kind;
      std::uint8_t index;
      std::uint8_t sx, sy;
      bool negate;
      int width, height;
      AddressMode address;
      std::int16_t slot;
    };
    std::vector<ResolveEntry> avail;
    for (CompiledIns& ci : cp.code) {
      if (ci.op == Opcode::TEX) {
        const CompiledSrc& cs = ci.src[0];
        if (cs.kind != CompiledSrc::Kind::Imm) {
          const Texture2D* tex = textures[ci.tex_unit];
          bool matched = false;
          for (const ResolveEntry& e : avail) {
            if (e.kind == cs.kind && e.index == cs.index &&
                e.sx == cs.swz[0] && e.sy == cs.swz[1] &&
                e.negate == cs.negate && e.width == tex->width() &&
                e.height == tex->height() &&
                e.address == tex->address_mode()) {
              ci.resolve_reuse = e.slot;
              cp.tex_reuse_of_fetch[static_cast<std::size_t>(ci.tex_slot)] =
                  e.slot;
              matched = true;
              break;
            }
          }
          if (!matched) {
            avail.push_back({cs.kind, cs.index, cs.swz[0], cs.swz[1],
                             cs.negate, tex->width(), tex->height(),
                             tex->address_mode(), ci.tex_slot});
          }
        }
      }
      if (!ci.dst_is_output) {
        std::erase_if(avail, [&](const ResolveEntry& e) {
          return e.kind == CompiledSrc::Kind::Temp && e.index == ci.dst_index &&
                 (((ci.write_mask >> e.sx) & 1u) != 0 ||
                  ((ci.write_mask >> e.sy) & 1u) != 0);
        });
      }
    }
  }
  return cp;
}

// ---- shared cross-device store ---------------------------------------------

SharedProgramStore::SharedProgramStore(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)),
      trace_hits_(&trace::counter("cache.programs.hit")),
      trace_misses_(&trace::counter("cache.programs.miss")),
      trace_evictions_(&trace::counter("cache.programs.evict")) {}

std::shared_ptr<const SoaProgram> SharedProgramStore::get_or_compile(
    const FragmentProgram& program, std::span<const float4> constants,
    std::span<const Texture2D* const> textures) {
  std::vector<std::uint8_t> key = make_key(program, constants, textures);
  const std::uint64_t hash = fnv1a(key);
  std::lock_guard<std::mutex> lk(mu_);
  for (Entry& e : entries_) {
    if (e.hash == hash && e.key == key) {
      ++stats_.hits;
      trace_hits_->increment();
      e.stamp = ++stamp_;
      return e.program;
    }
  }
  ++stats_.misses;
  trace_misses_->increment();
  if (entries_.size() >= capacity_) {
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    entries_.erase(lru);
    ++stats_.evictions;
    trace_evictions_->increment();
  }
  Entry e;
  e.hash = hash;
  e.key = std::move(key);
  e.stamp = ++stamp_;
  // Lowering under the lock serializes rare cold misses but guarantees
  // each distinct binding is lowered exactly once per store.
  e.program = lower(program, constants, textures);
  entries_.push_back(std::move(e));
  return entries_.back().program;
}

SharedProgramStore::Stats SharedProgramStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

// ---- replay memo -----------------------------------------------------------

ReplayMemo::Key ReplayMemo::key(const std::shared_ptr<const SoaProgram>& program,
                                int width, int height,
                                std::span<const Texture2D* const> textures,
                                std::span<const std::uint32_t> texture_ids,
                                std::span<const std::uint64_t> coord_generations) {
  const SoaProgram& sp = *program;
  const CompiledProgram& cp = *sp.compiled;
  Key k;
  std::vector<std::uint8_t>& key = k.bytes;
  key.reserve(96 + 10 * sp.fetch.size());
  put(key, static_cast<std::int32_t>(width));
  put(key, static_cast<std::int32_t>(height));
  // Ids compare as the cache's tags hold them, shifted into bits 48+. A
  // unit past the bound inputs maps to itself.
  std::array<std::uint8_t, kMaxTexUnits> alias;
  for (std::size_t u = 0; u < alias.size(); ++u) {
    alias[u] = static_cast<std::uint8_t>(u);
    for (std::size_t v = 0; v < u && u < texture_ids.size(); ++v) {
      if (std::uint64_t{texture_ids[v]} << 48 ==
          std::uint64_t{texture_ids[u]} << 48) {
        alias[u] = static_cast<std::uint8_t>(v);
        break;
      }
    }
  }
  put(key, alias);

  bool dynamic = false;
  std::uint32_t sampled = 0;
  put(key, static_cast<std::uint32_t>(sp.fetch.size()));
  for (std::size_t s = 0; s < sp.fetch.size(); ++s) {
    const SoaFetchPlan& plan = sp.fetch[s];
    const std::uint8_t unit = cp.tex_unit_of_fetch[s];
    sampled |= 1u << unit;
    put(key, unit);
    put(key, plan.mode);
    switch (plan.mode) {
      case SoaFetchPlan::Mode::Static:
        put(key, plan.dx);
        put(key, plan.dy);
        break;
      case SoaFetchPlan::Mode::Uniform:
        put(key, plan.ux);
        put(key, plan.uy);
        break;
      case SoaFetchPlan::Mode::Dynamic:
        dynamic = true;
        break;
    }
  }
  for (std::size_t u = 0; u < textures.size() && u < kMaxTexUnits; ++u) {
    if (!(sampled & (1u << u))) continue;
    const Texture2D& tex = *textures[u];
    put(key, static_cast<std::int32_t>(tex.width()));
    put(key, static_cast<std::int32_t>(tex.height()));
    put(key, tex.format());
    put(key, tex.address_mode());
  }
  if (dynamic) {
    k.program = program;
    for (std::uint64_t g : coord_generations) put(key, g);
  }
  k.hash = fnv1a(key);
  return k;
}

const PassCacheTotals* ReplayMemo::find(const Key& key) const {
  for (const Record& r : records_) {
    if (r.key == key) return &r.totals;
  }
  return nullptr;
}

void ReplayMemo::record(Key key, const PassCacheTotals& totals) {
  if (records_.size() >= kMaxRecords) records_.erase(records_.begin());
  records_.push_back(Record{std::move(key), totals});
}

// ---- program cache ---------------------------------------------------------

ProgramCache::ProgramCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)),
      trace_hits_(&trace::counter("gpusim.program_cache.hit")),
      trace_misses_(&trace::counter("gpusim.program_cache.miss")),
      trace_evictions_(&trace::counter("gpusim.program_cache.evict")) {}

std::shared_ptr<const SoaProgram> ProgramCache::get(
    const FragmentProgram& program, std::span<const float4> constants,
    std::span<const Texture2D* const> textures) {
  std::vector<std::uint8_t> key = make_key(program, constants, textures);
  const std::uint64_t hash = fnv1a(key);
  for (Entry& e : entries_) {
    if (e.hash == hash && e.key == key) {
      ++hits_;
      trace_hits_->increment();
      e.stamp = ++stamp_;
      return e.program;
    }
  }
  ++misses_;
  trace_misses_->increment();
  if (entries_.size() >= capacity_) {
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    entries_.erase(lru);
    ++evictions_;
    trace_evictions_->increment();
  }
  Entry e;
  e.hash = hash;
  e.key = std::move(key);
  e.stamp = ++stamp_;
  e.program = shared_store_
                  ? shared_store_->get_or_compile(program, constants, textures)
                  : lower(program, constants, textures);
  entries_.push_back(std::move(e));
  return entries_.back().program;
}

}  // namespace hs::gpusim
