// Property tests over randomly generated (valid) fragment programs:
//   * the disassemble -> assemble round trip preserves the IR;
//   * the interpreter executes any valid program without faulting and its
//     counters always reconcile with the program's static instruction mix;
//   * device passes never write outside their render targets;
//   * differential: the SoA engine reproduces the interpreter bit-for-bit
//     -- outputs, counters, cache statistics, modeled time -- including
//     viewports at the texture limit with the largest static offsets,
//     redraws served from the replay memo, and static fetches feeding
//     fused loops.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "core/shaders.hpp"
#include "gpusim/assembler.hpp"
#include "gpusim/gpu_device.hpp"
#include "gpusim/interpreter.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace hs::gpusim {
namespace {

/// Builds a random but always-valid program: every temp is fully written
/// before any read, sources draw from initialized temps / constants /
/// texcoords / literals, and the last instruction writes the output.
/// With `partial_masks`, extra partially-masked overwrites of live temps
/// and of the output are interleaved (always valid: the overwritten temp
/// is already fully initialized) -- these exercise the lowering's
/// write-mask handling and dead-write elimination.
FragmentProgram random_program(util::Xoshiro256& rng, int max_ops,
                               int bound_textures,
                               bool partial_masks = false) {
  FragmentProgram program;
  program.name = "fuzz";
  int live_temps = 0;

  auto random_source = [&](bool allow_temp) {
    SrcOperand src;
    const std::uint64_t kind = rng.uniform_int(allow_temp && live_temps > 0 ? 4 : 3);
    switch (kind) {
      case 0:
        src.file = RegFile::Literal;
        src.literal = {static_cast<float>(rng.uniform(-2, 2)),
                       static_cast<float>(rng.uniform(-2, 2)),
                       static_cast<float>(rng.uniform(0.1, 2)),
                       static_cast<float>(rng.uniform(0.1, 2))};
        break;
      case 1:
        src.file = RegFile::Const;
        src.index = static_cast<std::uint8_t>(rng.uniform_int(4));
        break;
      case 2:
        src.file = RegFile::TexCoord;
        src.index = static_cast<std::uint8_t>(rng.uniform_int(2));
        break;
      default:
        src.file = RegFile::Temp;
        src.index = static_cast<std::uint8_t>(rng.uniform_int(
            static_cast<std::uint64_t>(live_temps)));
        break;
    }
    if (rng.uniform() < 0.3) {
      for (auto& c : src.swizzle.comp) {
        c = static_cast<std::uint8_t>(rng.uniform_int(4));
      }
    }
    if (rng.uniform() < 0.2) src.negate = true;
    return src;
  };

  const Opcode ops[] = {Opcode::MOV, Opcode::ABS, Opcode::FLR, Opcode::FRC,
                        Opcode::RCP, Opcode::RSQ, Opcode::LG2, Opcode::EX2,
                        Opcode::ADD, Opcode::SUB, Opcode::MUL, Opcode::MIN,
                        Opcode::MAX, Opcode::SLT, Opcode::SGE, Opcode::DP3,
                        Opcode::DP4, Opcode::MAD, Opcode::CMP, Opcode::LRP,
                        Opcode::TEX};
  const int n_ops = static_cast<int>(1 + rng.uniform_int(static_cast<std::uint64_t>(max_ops)));
  for (int i = 0; i < n_ops && live_temps < kMaxTemps; ++i) {
    Instruction ins;
    ins.op = ops[rng.uniform_int(bound_textures > 0 ? 21 : 20)];
    ins.dst.file = RegFile::Temp;
    ins.dst.index = static_cast<std::uint8_t>(live_temps);
    ins.dst.write_mask = 0xF;  // full writes keep init tracking trivial
    if (ins.op == Opcode::TEX) {
      ins.src[0] = random_source(true);
      ins.src_count = 1;
      ins.tex_unit = static_cast<std::uint8_t>(
          rng.uniform_int(static_cast<std::uint64_t>(bound_textures)));
    } else {
      const int arity = opcode_arity(ins.op);
      for (int s = 0; s < arity; ++s) {
        ins.src[static_cast<std::size_t>(s)] = random_source(true);
      }
      ins.src_count = static_cast<std::uint8_t>(arity);
    }
    program.code.push_back(ins);
    ++live_temps;

    if (partial_masks && rng.uniform() < 0.35) {
      Instruction extra;
      extra.op = rng.uniform() < 0.5 ? Opcode::MOV : Opcode::ADD;
      if (rng.uniform() < 0.3) {
        extra.dst.file = RegFile::Output;
        extra.dst.index = 0;
      } else {
        extra.dst.file = RegFile::Temp;
        extra.dst.index = static_cast<std::uint8_t>(
            rng.uniform_int(static_cast<std::uint64_t>(live_temps)));
      }
      extra.dst.write_mask =
          static_cast<std::uint8_t>(1 + rng.uniform_int(15));  // nonzero
      const int arity = opcode_arity(extra.op);
      for (int s = 0; s < arity; ++s) {
        extra.src[static_cast<std::size_t>(s)] = random_source(true);
      }
      extra.src_count = static_cast<std::uint8_t>(arity);
      program.code.push_back(extra);
    }
  }

  Instruction out;
  out.op = Opcode::MOV;
  out.dst.file = RegFile::Output;
  out.dst.index = 0;
  out.src[0] = random_source(true);
  out.src_count = 1;
  program.code.push_back(out);
  return program;
}

/// Like random_program(), but every fetch coordinate is texcoord[0]
/// itself, texcoord[0] plus a literal integer offset (ADD/SUB into a fresh
/// temp that nothing else writes) or a literal: the SoA lowering
/// classifies every fetch slot Static or Uniform, so fullscreen passes of
/// these programs reach the device's replay memo. ALU instructions read
/// anything and write fresh temps, so they never disturb a coordinate.
/// Biased toward the cumulative-distance chain `ADD tc, c[d]; TEX; TEX;
/// SUB; SUB; DP4` against two centre reads, which runs fused when its
/// units hold four-channel textures.
FragmentProgram random_static_program(util::Xoshiro256& rng, int max_ops,
                                      int bound_textures) {
  FragmentProgram program;
  program.name = "fuzz_static";
  int live_temps = 0;

  auto literal = [&](float x, float y) {
    SrcOperand src;
    src.file = RegFile::Literal;
    src.literal = {x, y, static_cast<float>(rng.uniform(-1, 1)),
                   static_cast<float>(rng.uniform(-1, 1))};
    return src;
  };
  auto texcoord0 = [] {
    SrcOperand src;
    src.file = RegFile::TexCoord;
    src.index = 0;
    return src;
  };
  auto offset = [&] { return static_cast<float>(rng.uniform_int(7)) - 3.f; };
  auto temp_source = [&] {
    SrcOperand src;
    src.file = RegFile::Temp;
    src.index = static_cast<std::uint8_t>(
        rng.uniform_int(static_cast<std::uint64_t>(live_temps)));
    if (rng.uniform() < 0.3) {
      for (auto& c : src.swizzle.comp) {
        c = static_cast<std::uint8_t>(rng.uniform_int(4));
      }
    }
    if (rng.uniform() < 0.2) src.negate = true;
    return src;
  };
  auto emit = [&](Opcode op, std::initializer_list<SrcOperand> srcs) {
    Instruction ins;
    ins.op = op;
    ins.dst.file = RegFile::Temp;
    ins.dst.index = static_cast<std::uint8_t>(live_temps++);
    ins.dst.write_mask = 0xF;
    int s = 0;
    for (const SrcOperand& src : srcs) ins.src[static_cast<std::size_t>(s++)] = src;
    ins.src_count = static_cast<std::uint8_t>(s);
    return &program.code.emplace_back(ins);
  };
  auto emit_tex = [&](const SrcOperand& coord) {
    const auto unit = static_cast<std::uint8_t>(
        rng.uniform_int(static_cast<std::uint64_t>(bound_textures)));
    emit(Opcode::TEX, {coord})->tex_unit = unit;
  };

  auto temp = [](int index) {
    SrcOperand src;
    src.file = RegFile::Temp;
    src.index = static_cast<std::uint8_t>(index);
    return src;
  };
  // The chain's two units: mostly unit 0 on both sides, the shape whose
  // fusions stay active over a four-channel unit 0.
  std::uint8_t chain_unit[2] = {0, 0};
  if (rng.uniform() < 0.3) {
    for (auto& u : chain_unit) {
      u = static_cast<std::uint8_t>(
          rng.uniform_int(static_cast<std::uint64_t>(bound_textures)));
    }
  }
  int centre[2] = {-1, -1};
  int sum = -1;  // running sum of the chain dots, read by the output
  const Opcode chain_ops[] = {Opcode::SUB, Opcode::SUB, Opcode::ADD,
                              Opcode::MUL};

  const Opcode alu[] = {Opcode::ADD, Opcode::SUB, Opcode::MUL, Opcode::MAX,
                        Opcode::DP3, Opcode::MAD, Opcode::FRC, Opcode::ABS};
  const int n_ops = static_cast<int>(
      1 + rng.uniform_int(static_cast<std::uint64_t>(max_ops)));
  for (int i = 0; i < n_ops && live_temps + 2 <= kMaxTemps; ++i) {
    std::uint64_t kind = live_temps == 0 ? rng.uniform_int(3)
                                         : rng.uniform_int(7);
    if (kind >= 5 && live_temps + 9 > kMaxTemps) kind = 3;
    if (kind >= 5) {
      if (centre[0] < 0) {
        for (int side = 0; side < 2; ++side) {
          centre[side] = live_temps;
          emit(Opcode::TEX, {texcoord0()})->tex_unit = chain_unit[side];
        }
      }
      const int coord = live_temps;
      const float dx = offset();
      const float dy = offset();
      emit(Opcode::ADD, {texcoord0(), literal(dx, dy)});
      int neighbour[2];
      for (int side = 0; side < 2; ++side) {
        neighbour[side] = live_temps;
        emit(Opcode::TEX, {temp(coord)})->tex_unit = chain_unit[side];
      }
      int diff[2];
      for (int side = 0; side < 2; ++side) {
        const Opcode op = chain_ops[rng.uniform_int(std::size(chain_ops))];
        const bool swap = rng.uniform() < 0.25;
        diff[side] = live_temps;
        emit(op, {temp(swap ? neighbour[side] : centre[side]),
                  temp(swap ? centre[side] : neighbour[side])});
      }
      const int dot = live_temps;
      emit(rng.uniform() < 0.75 ? Opcode::DP4 : Opcode::DP3,
           {temp(diff[0]), temp(diff[1])});
      if (sum >= 0) {
        const int next = live_temps;
        emit(Opcode::ADD, {temp(sum), temp(dot)});
        sum = next;
      } else {
        sum = dot;
      }
    } else if (kind == 0) {
      emit_tex(texcoord0());
    } else if (kind == 1) {
      // Locals keep the rng draws in a fixed order (argument evaluation
      // order is unspecified).
      const int coord = live_temps;
      const Opcode op = rng.uniform() < 0.5 ? Opcode::ADD : Opcode::SUB;
      const float dx = offset();
      const float dy = offset();
      emit(op, {texcoord0(), literal(dx, dy)});
      emit_tex(temp(coord));
    } else if (kind == 2) {
      const float x = static_cast<float>(rng.uniform(-3, 12));
      const float y = static_cast<float>(rng.uniform(-3, 12));
      emit_tex(literal(x, y));
    } else {
      const Opcode op = alu[rng.uniform_int(std::size(alu))];
      std::array<SrcOperand, 3> src;
      for (SrcOperand& operand : src) {
        operand = rng.uniform() < 0.8 ? temp_source() : literal(0.5f, -0.25f);
      }
      Instruction* ins = emit(op, {});
      ins->src = src;
      ins->src_count = static_cast<std::uint8_t>(opcode_arity(op));
    }
  }

  // The output reads the chains' sum, so dead-write elimination keeps
  // them.
  Instruction out;
  out.op = sum >= 0 ? Opcode::ADD : Opcode::MOV;
  out.dst.file = RegFile::Output;
  out.dst.index = 0;
  out.src[0] = temp_source();
  if (sum >= 0) out.src[1] = temp(sum);
  out.src_count = sum >= 0 ? 2 : 1;
  program.code.push_back(out);
  return program;
}

class ProgramFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProgramFuzz, GeneratedProgramsAreValid) {
  util::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const FragmentProgram p = random_program(rng, 24, 2);
    const auto errors = validate(p);
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  }
  for (int trial = 0; trial < 20; ++trial) {
    const FragmentProgram p = random_static_program(rng, 24, 2);
    const auto errors = validate(p);
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  }
}

TEST_P(ProgramFuzz, DisassembleAssembleRoundTrips) {
  util::Xoshiro256 rng(GetParam() ^ 0xD15A55ULL);
  for (int trial = 0; trial < 20; ++trial) {
    const FragmentProgram p = random_program(rng, 16, 2);
    auto reassembled = assemble("fuzz", disassemble(p));
    auto* err = std::get_if<AssembleError>(&reassembled);
    ASSERT_EQ(err, nullptr) << err->message << "\n" << disassemble(p);
    const FragmentProgram& q = std::get<FragmentProgram>(reassembled);
    ASSERT_EQ(p.code.size(), q.code.size());
    for (std::size_t i = 0; i < p.code.size(); ++i) {
      EXPECT_EQ(p.code[i].op, q.code[i].op) << i;
      EXPECT_EQ(p.code[i].dst.file, q.code[i].dst.file) << i;
      EXPECT_EQ(p.code[i].dst.index, q.code[i].dst.index) << i;
      EXPECT_EQ(p.code[i].dst.write_mask, q.code[i].dst.write_mask) << i;
      EXPECT_EQ(p.code[i].src_count, q.code[i].src_count) << i;
      EXPECT_EQ(p.code[i].tex_unit, q.code[i].tex_unit) << i;
      for (int s = 0; s < p.code[i].src_count; ++s) {
        const auto& ps = p.code[i].src[static_cast<std::size_t>(s)];
        const auto& qs = q.code[i].src[static_cast<std::size_t>(s)];
        EXPECT_EQ(ps.file, qs.file) << i << ":" << s;
        EXPECT_EQ(ps.negate, qs.negate) << i << ":" << s;
        if (ps.file == RegFile::Literal) {
          for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_FLOAT_EQ(ps.literal[c], qs.literal[c]) << i << ":" << s;
          }
        } else {
          EXPECT_EQ(ps.index, qs.index) << i << ":" << s;
        }
        EXPECT_EQ(ps.swizzle.comp, qs.swizzle.comp) << i << ":" << s;
      }
    }
  }
}

TEST_P(ProgramFuzz, InterpreterCountersMatchStaticMix) {
  util::Xoshiro256 rng(GetParam() ^ 0xC0FFEEULL);
  Texture2D tex_a(8, 8, TextureFormat::RGBA32F);
  Texture2D tex_b(8, 8, TextureFormat::R32F);
  const Texture2D* textures[2] = {&tex_a, &tex_b};
  for (int trial = 0; trial < 20; ++trial) {
    const FragmentProgram p = random_program(rng, 24, 2);
    FragmentContext ctx;
    ctx.texcoord[0] = {1.5f, 2.5f, 0, 1};
    ctx.texcoord[1] = {0.5f, 0.5f, 0, 1};
    const float4 constants[4] = {{1, 2, 3, 4}, {0.5, 0.5, 0.5, 0.5},
                                 {-1, 0, 1, 2}, {4, 3, 2, 1}};
    ctx.constants = constants;
    ctx.textures = textures;
    ExecCounters counters;
    const FragmentResult result = execute_fragment(p, ctx, counters);
    EXPECT_TRUE(result.outputs_written & 1u);
    EXPECT_EQ(counters.alu_instructions,
              static_cast<std::uint64_t>(p.alu_instruction_count()));
    EXPECT_EQ(counters.tex_fetches,
              static_cast<std::uint64_t>(p.tex_instruction_count()));
  }
}

TEST_P(ProgramFuzz, DevicePassesRunToCompletion) {
  util::Xoshiro256 rng(GetParam() ^ 0xBEEFULL);
  DeviceProfile profile = geforce_7800_gtx();
  profile.fragment_pipes = 2;
  Device dev(profile);
  const TextureHandle in_a = dev.create_texture(8, 8, TextureFormat::RGBA32F);
  const TextureHandle in_b = dev.create_texture(8, 8, TextureFormat::R32F);
  const TextureHandle out = dev.create_texture(8, 8, TextureFormat::RGBA32F);
  const TextureHandle ins[2] = {in_a, in_b};
  const TextureHandle outs[1] = {out};
  const float4 constants[4] = {{1, 1, 0, 0}, {2, 2, 2, 2}, {}, {}};
  for (int trial = 0; trial < 10; ++trial) {
    const FragmentProgram p = random_program(rng, 16, 2);
    const PassStats stats = dev.draw(p, ins, constants, outs);
    EXPECT_EQ(stats.fragments, 64u);
    EXPECT_EQ(stats.exec.alu_instructions,
              64u * static_cast<std::uint64_t>(p.alu_instruction_count()));
  }
}

// ---- engine differential --------------------------------------------------
//
// Two devices, identical in everything but the execution engine, are fed
// identical programs, constants and texture contents. The SoA engine must
// reproduce the interpreter *bit for bit*: raw output texels (memcmp, so
// NaNs compare too), execution counters, texture-cache hit/miss
// statistics (LRU-order sensitive), unique-tile traffic and modeled time.

struct EnginePair {
  Device interp;
  Device soa;

  explicit EnginePair(int pipes)
      : interp(profile_for(pipes), config_for(ExecEngine::Interpreter)),
        soa(profile_for(pipes), config_for(ExecEngine::Soa)) {}

  static DeviceProfile profile_for(int pipes) {
    DeviceProfile profile = geforce_7800_gtx();
    profile.fragment_pipes = pipes;
    return profile;
  }
  static SimConfig config_for(ExecEngine engine) {
    SimConfig config;
    config.exec_engine = engine;
    return config;
  }
};

void expect_identical_stats(const PassStats& a, const PassStats& b) {
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

void expect_identical_texels(const Device& da, TextureHandle ha,
                             const Device& db, TextureHandle hb) {
  const auto& ra = da.texture(ha).raw();
  const auto& rb = db.texture(hb).raw();
  ASSERT_EQ(ra.size(), rb.size());
  EXPECT_EQ(0, std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(float)));
}

/// Fresh random contents for the fullscreen differential's two inputs.
void random_texels(util::Xoshiro256& rng, std::vector<float4>& a,
                   std::vector<float>& b) {
  for (auto& v : a) {
    v = {static_cast<float>(rng.uniform(-4, 4)),
         static_cast<float>(rng.uniform(-4, 4)),
         static_cast<float>(rng.uniform(-4, 4)),
         static_cast<float>(rng.uniform(-4, 4))};
  }
  for (auto& v : b) v = static_cast<float>(rng.uniform(-4, 4));
}

TEST_P(ProgramFuzz, EnginesBitIdenticalOnFullscreenPasses) {
  util::Xoshiro256 rng(GetParam() ^ 0xD1FFULL);
  const AddressMode modes[] = {AddressMode::ClampToEdge, AddressMode::Repeat,
                               AddressMode::ClampToBorder};
  // Widths beyond the SoA engine's 256-fragment tile exercise multi-tile
  // rows; odd shapes exercise the partial final tile and uneven pipe
  // partitions.
  const std::pair<int, int> shapes[] = {{8, 8},   {70, 9},   {5, 3},
                                        {64, 4},  {300, 5},  {513, 2}};
  constexpr int kShapes = static_cast<int>(std::size(shapes));
  // The last third of the trials draws all-static programs, which the SoA
  // device replays once and then serves from its replay memo.
  for (int trial = 0; trial < 3 * kShapes; ++trial) {
    const bool static_fetches = trial >= 2 * kShapes;
    const int pipes = 1 + static_cast<int>(rng.uniform_int(4));
    EnginePair pair(pipes);
    const auto [w, h] = shapes[trial % kShapes];
    const AddressMode mode_a = modes[rng.uniform_int(3)];
    const AddressMode mode_b = modes[rng.uniform_int(3)];

    std::vector<float4> data_a(static_cast<std::size_t>(w) * h);
    std::vector<float> data_b(static_cast<std::size_t>(w) * h);
    random_texels(rng, data_a, data_b);

    TextureHandle in_a[2], in_b[2], out[2];
    Device* devs[2] = {&pair.interp, &pair.soa};
    for (int d = 0; d < 2; ++d) {
      in_a[d] = devs[d]->create_texture(w, h, TextureFormat::RGBA32F, mode_a);
      in_b[d] = devs[d]->create_texture(w, h, TextureFormat::R32F, mode_b);
      out[d] = devs[d]->create_texture(w, h, TextureFormat::RGBA32F);
      if (mode_a == AddressMode::ClampToBorder) {
        devs[d]->texture(in_a[d]).set_border_color({0.25f, -1.f, 2.f, 0.f});
      }
      devs[d]->upload(in_a[d], data_a);
      devs[d]->upload(in_b[d], data_b);
    }

    const FragmentProgram p =
        static_fetches ? random_static_program(rng, 20, 2)
                       : random_program(rng, 20, 2, /*partial_masks=*/true);
    const float4 constants[4] = {{1, 2, 3, 4}, {0.5, -0.5, 0.5, -0.5},
                                 {-1, 0, 1, 2}, {4, 3, 2, 1}};
    for (int repeat = 0; repeat < 2; ++repeat) {  // second draw hits the cache
      if (repeat > 0) {
        // New texel values: cache statistics the SoA device reuses from
        // its replay memo must not depend on them.
        random_texels(rng, data_a, data_b);
        for (int d = 0; d < 2; ++d) {
          devs[d]->upload(in_a[d], data_a);
          devs[d]->upload(in_b[d], data_b);
        }
      }
      PassStats stats[2];
      for (int d = 0; d < 2; ++d) {
        const TextureHandle ins[2] = {in_a[d], in_b[d]};
        const TextureHandle outs[1] = {out[d]};
        stats[d] = devs[d]->draw(p, ins, constants, outs);
      }
      expect_identical_stats(stats[0], stats[1]);
      expect_identical_texels(pair.interp, out[0], pair.soa, out[1]);
    }
    EXPECT_GE(pair.soa.program_cache().hits(), 1u);
    if (static_fetches) {
      EXPECT_EQ(pair.soa.replay_memo_misses(), 1u);
      EXPECT_EQ(pair.soa.replay_memo_hits(), 1u);
    }
  }
}

TEST(ProgramFuzzDirected, WideViewportPastExactBoundMatchesInterpreter) {
  // Viewports at the texture limit with the largest static offsets: every
  // static coordinate `(x + 0.5) + dx` stays below 2^12 + 2^20 and so is
  // exact in float. Offsets of +-2^20 still lower Static; 2^20 + 1 lowers
  // Dynamic. Both engines must agree bit for bit on the recording draw and
  // on a memoized redraw over new texels.
  const FragmentProgram p = assemble_or_die(
      "edge_offsets",
      "!!HSFP1.0\n"
      "ADD R0, fragment.texcoord[0], c[0];\n"
      "TEX R1, R0, texture[0];\n"
      "SUB R2, fragment.texcoord[0], c[0];\n"
      "TEX R3, R2, texture[1];\n"
      "ADD R4, fragment.texcoord[0], c[1];\n"
      "TEX R5, R4, texture[0];\n"
      "ADD R6, R1, R3;\n"
      "MAD result.color, R5, c[2], R6;\n"
      "END\n");
  constexpr float kEdge = 1 << 20;
  const float4 constants[3] = {
      {kEdge, -kEdge, 0, 0}, {kEdge + 1, kEdge + 1, 0, 0}, {0.5f, 0, 0, 0}};
  EnginePair pair(2);
  Device* devs[2] = {&pair.interp, &pair.soa};
  for (const auto& [w, h] : {std::pair{kMaxTextureDim, 1},
                            std::pair{1, kMaxTextureDim}}) {
    SCOPED_TRACE(::testing::Message() << w << "x" << h);
    std::vector<float> data(static_cast<std::size_t>(w) * h);
    std::vector<TextureHandle> ins[2];
    TextureHandle out[2];
    for (int d = 0; d < 2; ++d) {
      ins[d] = {devs[d]->create_texture(w, h, TextureFormat::R32F,
                                        AddressMode::Repeat),
                devs[d]->create_texture(w, h, TextureFormat::R32F)};
      out[d] = devs[d]->create_texture(w, h, TextureFormat::R32F);
    }
    for (int draw = 0; draw < 2; ++draw) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<float>((i + 7 * draw) % 1021) * 0.125f - 17.f;
      }
      PassStats stats[2];
      for (int d = 0; d < 2; ++d) {
        for (TextureHandle in : ins[d]) {
          devs[d]->upload(in, std::span<const float>(data));
        }
        const TextureHandle outs[1] = {out[d]};
        stats[d] = devs[d]->draw(p, ins[d], constants, outs);
      }
      EXPECT_EQ(stats[0].fragments, static_cast<std::uint64_t>(w) * h);
      expect_identical_stats(stats[0], stats[1]);
      expect_identical_texels(pair.interp, out[0], pair.soa, out[1]);
    }
    std::vector<const Texture2D*> bound;
    for (TextureHandle t : ins[1]) {
      bound.push_back(&std::as_const(pair.soa).texture(t));
    }
    const SoaProgram sp = lower_soa(std::make_shared<const CompiledProgram>(
        compile_program(p, constants, bound)));
    using Mode = SoaFetchPlan::Mode;
    ASSERT_EQ(sp.fetch.size(), 3u);
    EXPECT_EQ(sp.fetch[0].mode, Mode::Static);
    EXPECT_EQ(sp.fetch[0].dx, 1 << 20);
    EXPECT_EQ(sp.fetch[1].mode, Mode::Static);
    EXPECT_EQ(sp.fetch[1].dy, 1 << 20);
    EXPECT_EQ(sp.fetch[2].mode, Mode::Dynamic);
  }
  // Each viewport records once and serves its redraw from the memo.
  EXPECT_EQ(pair.soa.replay_memo_misses(), 2u);
  EXPECT_EQ(pair.soa.replay_memo_hits(), 2u);
}

// ---- replay memo ------------------------------------------------------------
//
// The SoA device replays a data-independent fullscreen pass once, then
// reuses its cache totals on later draws with the same viewport and unit
// aliasing. Every pass below also runs on the interpreter, which always
// replays, and must match it bit for bit.

/// Both engines of an EnginePair, driven in lockstep. Textures are created
/// in the same order on both devices, so their handles agree.
struct MemoRig {
  EnginePair pair{3};
  Device* devs[2] = {&pair.interp, &pair.soa};

  TextureHandle texture(int w, int h,
                        TextureFormat format = TextureFormat::RGBA32F,
                        AddressMode address = AddressMode::ClampToEdge) {
    TextureHandle handle = 0;
    for (Device* dev : devs) {
      handle = dev->create_texture(w, h, format, address);
    }
    fill(handle, 0);
    return handle;
  }

  /// Uploads texels in [0, 3] that depend on the handle and `salt`.
  void fill(TextureHandle handle, int salt) {
    const Texture2D& t = std::as_const(pair.soa).texture(handle);
    std::vector<float4> data(static_cast<std::size_t>(t.width()) * t.height());
    for (std::size_t i = 0; i < data.size(); ++i) {
      const float v = static_cast<float>(
                          (i * 37 + handle * 11 + static_cast<std::size_t>(salt) * 53) %
                          101) *
                      0.03f;
      data[i] = {v, 1.f - v, 0.5f * v, static_cast<float>(handle)};
    }
    for (Device* dev : devs) dev->upload(handle, data);
  }

  /// Draws on both devices and checks them against each other; returns
  /// the SoA device's stats.
  PassStats draw(const FragmentProgram& p, std::vector<TextureHandle> ins,
                 TextureHandle out,
                 std::vector<float4> constants = {{1, 0, 0, 0}}) {
    const TextureHandle outs[1] = {out};
    PassStats stats[2];
    for (int d = 0; d < 2; ++d) {
      stats[d] = devs[d]->draw(p, ins, constants, outs);
    }
    expect_identical_stats(stats[0], stats[1]);
    expect_identical_texels(pair.interp, out, pair.soa, out);
    return stats[1];
  }
};

/// Static neighbor fetches on two units: unit 0 at (x+1, y), unit 1 at
/// (x, y) and (x-1, y).
FragmentProgram memo_neighbors() {
  return assemble_or_die("memo_neighbors",
                         "!!HSFP1.0\n"
                         "ADD R0, fragment.texcoord[0], c[0];\n"
                         "TEX R1, R0, texture[0];\n"
                         "TEX R2, fragment.texcoord[0], texture[1];\n"
                         "SUB R3, fragment.texcoord[0], c[0];\n"
                         "TEX R4, R3, texture[1];\n"
                         "ADD R5, R1, R2;\n"
                         "ADD result.color, R5, R4;\n"
                         "END\n");
}

TEST(ReplayMemo, PingPongWithSwappedIdsReusesTheMemo) {
  MemoRig rig;
  const TextureHandle a = rig.texture(37, 21);
  const TextureHandle b = rig.texture(37, 21);
  const TextureHandle x = rig.texture(37, 21);
  const FragmentProgram p = memo_neighbors();
  for (int round = 0; round < 3; ++round) {
    rig.draw(p, {a, x}, b);
    rig.draw(p, {b, x}, a);
  }
  EXPECT_EQ(rig.pair.soa.replay_memo_misses(), 1u);
  EXPECT_EQ(rig.pair.soa.replay_memo_hits(), 5u);
}

TEST(ReplayMemo, AliasedUnitsDoNotReuseADistinctUnitsRecord) {
  MemoRig rig;
  const TextureHandle a = rig.texture(40, 24);
  const TextureHandle b = rig.texture(40, 24);
  const TextureHandle out = rig.texture(40, 24);
  const FragmentProgram p = memo_neighbors();
  const PassStats distinct = rig.draw(p, {a, b}, out);
  // One texture on both units shares cache lines across them: more hits.
  const PassStats aliased = rig.draw(p, {a, a}, out);
  EXPECT_EQ(rig.pair.soa.replay_memo_misses(), 2u);
  EXPECT_EQ(rig.pair.soa.replay_memo_hits(), 0u);
  EXPECT_GT(aliased.cache.hits, distinct.cache.hits);
  // The same patterns with other textures reuse their own records.
  EXPECT_EQ(rig.draw(p, {b, b}, out).cache.hits, aliased.cache.hits);
  EXPECT_EQ(rig.draw(p, {b, a}, out).cache.hits, distinct.cache.hits);
  EXPECT_EQ(rig.pair.soa.replay_memo_misses(), 2u);
  EXPECT_EQ(rig.pair.soa.replay_memo_hits(), 2u);
}

TEST(ReplayMemo, ViewportChangeMisses) {
  MemoRig rig;
  const TextureHandle a = rig.texture(40, 24);
  const TextureHandle b = rig.texture(40, 24);
  const TextureHandle wide = rig.texture(40, 24);
  const TextureHandle narrow = rig.texture(23, 17);
  const FragmentProgram p = memo_neighbors();
  rig.draw(p, {a, b}, wide);
  rig.draw(p, {a, b}, narrow);  // same lowered program, new viewport
  rig.draw(p, {a, b}, wide);
  EXPECT_EQ(rig.pair.soa.program_cache().misses(), 1u);
  EXPECT_EQ(rig.pair.soa.replay_memo_misses(), 2u);
  EXPECT_EQ(rig.pair.soa.replay_memo_hits(), 1u);
}

/// Four fetches of every plan kind: static reads of unit 0 at c[0] and of
/// unit 1 at the centre and at -c[0], and a uniform read of unit 0 at
/// c[2]. c[1] feeds only ALU.
constexpr const char* kPatternSource =
    "!!HSFP1.0\n"
    "ADD R0, fragment.texcoord[0], c[0];\n"
    "TEX R1, R0, texture[%A];\n"
    "TEX R2, fragment.texcoord[0], texture[%B];\n"
    "SUB R3, fragment.texcoord[0], c[0];\n"
    "TEX R4, R3, texture[1];\n"
    "TEX R6, %U, texture[0];\n"
    "ADD R5, R1, R2;\n"
    "ADD R5, R5, R4;\n"
    "ADD R5, R5, R6;\n"
    "MUL result.color, R5, c[1];\n"
    "END\n";

/// kPatternSource with its first two units and the uniform read's
/// coordinate filled in.
FragmentProgram memo_pattern(const char* unit_a = "0", const char* unit_b = "1",
                             const char* uniform = "c[2]") {
  std::string src = kPatternSource;
  for (const auto& [hole, text] :
       {std::pair{"%A", unit_a}, {"%B", unit_b}, {"%U", uniform}}) {
    src.replace(src.find(hole), 2, text);
  }
  return assemble_or_die("memo_pattern", src);
}

TEST(ReplayMemo, ProgramsWithOneFetchPatternShareOneReplay) {
  MemoRig rig;
  const TextureHandle a = rig.texture(40, 24);
  const TextureHandle b = rig.texture(40, 24);
  const TextureHandle out = rig.texture(40, 24);
  const FragmentProgram p = memo_pattern();
  // Draws on both engines (checked against each other) and says whether
  // the SoA device took its cache totals from the memo.
  const auto hits = [&](const FragmentProgram& prog,
                        std::vector<TextureHandle> ins, TextureHandle target,
                        std::vector<float4> constants) {
    const std::uint64_t before = rig.pair.soa.replay_memo_hits();
    rig.draw(prog, std::move(ins), target, std::move(constants));
    return rig.pair.soa.replay_memo_hits() == before + 1;
  };
  const float4 offset{1, 0, 0, 0};
  const float4 scale{2, 2, 2, 2};
  const float4 centre{5.5f, 3.5f, 0, 0};
  EXPECT_FALSE(hits(p, {a, b}, out, {offset, scale, centre}));
  // Another constant feeding only ALU: a new lowered program with the
  // same fetch pattern shares the record.
  EXPECT_TRUE(hits(p, {a, b}, out, {offset, {0.5f, -1, 3, 1}, centre}));
  EXPECT_EQ(rig.pair.soa.program_cache().misses(), 2u);

  // Each of these changes one thing the replay reads.
  EXPECT_FALSE(hits(p, {a, b}, out, {{2, 0, 0, 0}, scale, centre}));  // dx
  EXPECT_FALSE(hits(p, {a, b}, out, {{1, -1, 0, 0}, scale, centre}));  // dy
  EXPECT_FALSE(hits(p, {a, b}, out, {offset, scale, {2.5f, 3.5f, 0, 0}}));  // ux
  EXPECT_FALSE(hits(p, {a, b}, out, {offset, scale, {5.5f, 1.5f, 0, 0}}));  // uy
  EXPECT_FALSE(hits(memo_pattern("1", "0"), {a, b}, out,
                    {offset, scale, centre}));  // units of two slots
  // A uniform read at (0, 0) against a static read at offset (0, 0).
  EXPECT_FALSE(hits(p, {a, b}, out, {offset, scale, {0, 0, 0, 0}}));
  EXPECT_FALSE(hits(memo_pattern("0", "1", "fragment.texcoord[0]"), {a, b},
                    out, {offset, scale, centre}));  // plan mode
  const TextureHandle half = rig.texture(40, 24, TextureFormat::RGBA16F);
  EXPECT_FALSE(hits(p, {half, b}, out, {offset, scale, centre}));  // format
  const TextureHandle wider = rig.texture(41, 24);
  EXPECT_FALSE(hits(p, {wider, b}, out, {offset, scale, centre}));  // width
  const TextureHandle taller = rig.texture(40, 25);
  EXPECT_FALSE(hits(p, {a, taller}, out, {offset, scale, centre}));  // height
  const TextureHandle repeat = rig.texture(40, 24, TextureFormat::RGBA32F,
                                           AddressMode::Repeat);
  EXPECT_FALSE(hits(p, {repeat, b}, out, {offset, scale, centre}));  // address
  EXPECT_FALSE(hits(p, {a, a}, out, {offset, scale, centre}));  // alias
  const TextureHandle narrow = rig.texture(39, 24);
  EXPECT_FALSE(hits(p, {a, b}, narrow, {offset, scale, centre}));  // viewport
  const TextureHandle shorter = rig.texture(40, 23);
  EXPECT_FALSE(hits(p, {a, b}, shorter, {offset, scale, centre}));  // viewport

  // A Dynamic fetch's coordinate comes from ALU, so constants that feed
  // it are part of the key: the lowered program is.
  const FragmentProgram dependent = assemble_or_die(
      "memo_scaled_dependent",
      "!!HSFP1.0\n"
      "TEX R0, fragment.texcoord[0], texture[1];\n"
      "MAD R1, R0, c[0], fragment.texcoord[0];\n"
      "TEX R2, R1, texture[0];\n"
      "MOV result.color, R2;\n"
      "END\n");
  EXPECT_FALSE(hits(dependent, {a, b}, out, {{1, 1, 0, 0}}));
  EXPECT_TRUE(hits(dependent, {a, b}, out, {{1, 1, 0, 0}}));
  EXPECT_FALSE(hits(dependent, {a, b}, out, {{2, 1, 0, 0}}));
}

TEST(ReplayMemo, DeviceMemoIsBounded) {
  MemoRig rig;
  const TextureHandle a = rig.texture(8, 8);
  const TextureHandle b = rig.texture(8, 8);
  const FragmentProgram p = memo_neighbors();
  // One viewport per record, plus one: the first record goes.
  constexpr std::size_t kMax = ReplayMemo::kMaxRecords;
  std::vector<TextureHandle> outs;
  for (std::size_t i = 0; i <= kMax; ++i) {
    outs.push_back(rig.texture(2, static_cast<int>(i) + 1));
    rig.draw(p, {a, b}, outs.back());
  }
  const Device& soa = rig.pair.soa;
  EXPECT_EQ(soa.replay_memo().size(), kMax);
  EXPECT_EQ(soa.replay_memo_misses(), kMax + 1);
  rig.draw(p, {a, b}, outs[1]);  // the oldest record left
  EXPECT_EQ(soa.replay_memo_hits(), 1u);
  rig.draw(p, {a, b}, outs[0]);  // evicted: replays again
  EXPECT_EQ(soa.replay_memo_misses(), kMax + 2);
  EXPECT_EQ(soa.replay_memo().size(), kMax);
}

/// MEI's shape: the second fetch's coordinate comes from a fetched texel
/// of unit 1.
FragmentProgram memo_dependent() {
  return assemble_or_die("memo_dependent",
                         "!!HSFP1.0\n"
                         "TEX R0, fragment.texcoord[0], texture[1];\n"
                         "ADD R1, R0, fragment.texcoord[0];\n"
                         "TEX R3, R1, texture[0];\n"
                         "MOV result.color, R3;\n"
                         "END\n");
}

TEST(ReplayMemo, DependentFetchKeysOnCoordinateTextureWrites) {
  MemoRig rig;
  const TextureHandle image = rig.texture(19, 13);
  const TextureHandle offsets = rig.texture(19, 13);
  const TextureHandle source = rig.texture(19, 13);
  const TextureHandle out = rig.texture(19, 13);
  const FragmentProgram dependent = memo_dependent();
  // Draws the dependent pass (checked against the interpreter) and says
  // whether the SoA device took its cache totals from the memo.
  const auto draw_hits = [&](PassStats* stats = nullptr) {
    const Device& soa = rig.pair.soa;
    const std::uint64_t hits = soa.replay_memo_hits();
    const std::uint64_t misses = soa.replay_memo_misses();
    const PassStats s = rig.draw(dependent, {image, offsets}, out);
    if (stats != nullptr) *stats = s;
    EXPECT_EQ(soa.replay_memo_hits() + soa.replay_memo_misses(),
              hits + misses + 1);
    return soa.replay_memo_hits() == hits + 1;
  };
  PassStats first;
  EXPECT_FALSE(draw_hits(&first));
  EXPECT_TRUE(draw_hits());  // offsets unchanged

  rig.fill(image, 1);  // new texels on the non-coordinate unit only
  EXPECT_TRUE(draw_hits());

  rig.fill(offsets, 1);  // upload: new fetch coordinates
  PassStats moved;
  EXPECT_FALSE(draw_hits(&moved));
  EXPECT_NE(moved.cache.hits, first.cache.hits);
  EXPECT_TRUE(draw_hits());

  // Drawn as a render target.
  const FragmentProgram scale = assemble_or_die(
      "memo_scale",
      "!!HSFP1.0\n"
      "TEX R0, fragment.texcoord[0], texture[0];\n"
      "MUL result.color, R0, {0.5, 2.0, 1.0, 1.0};\n"
      "END\n");
  rig.draw(scale, {source}, offsets);
  EXPECT_FALSE(draw_hits());
  EXPECT_TRUE(draw_hits());

  // Written through the mutable Device::texture().
  for (Device* dev : rig.devs) dev->texture(offsets).store(3, 4, {-2, 5, 1, 1});
  EXPECT_FALSE(draw_hits());
  EXPECT_TRUE(draw_hits());
}

#if HS_TRACE_ENABLED
TEST(ReplayMemo, PassSpansAndCountersShowTheReplayPath) {
  trace::reset();
  trace::set_enabled(true);
  {
    MemoRig rig;
    const TextureHandle a = rig.texture(16, 8);
    const TextureHandle b = rig.texture(16, 8);
    const TextureHandle offsets = rig.texture(16, 8);
    const TextureHandle acc = rig.texture(16, 8);
    const TextureHandle out = rig.texture(16, 8);
    const FragmentProgram p = memo_neighbors();
    rig.draw(p, {a, b}, out);
    rig.draw(p, {a, b}, out);
    // Band-group redraws of MEI against one offsets texture.
    const FragmentProgram mei =
        assemble_or_die("mei", core::shaders::mei_source());
    rig.draw(mei, {a, b, offsets, acc}, out);
    rig.fill(a, 1);
    rig.fill(b, 1);
    rig.draw(mei, {a, b, offsets, acc}, out);
  }
  trace::set_enabled(false);
  // Per program, "replay" values in draw order (interpreter, then SoA, per
  // draw; the interpreter always replays) and the SoA spans' path args.
  std::map<std::string, std::vector<std::string>> replay;
  std::map<std::string, std::map<std::string, double>> path;
  for (const trace::TraceEvent& e : trace::snapshot()) {
    if (e.cat != "pass") continue;
    for (const trace::TraceArg& arg : e.args) {
      const std::string_view key(arg.key);
      if (key == "replay") replay[e.name].push_back(arg.str);
      if (key.starts_with("fetch_") || key == "fused") {
        path[e.name][std::string(key)] = arg.num;
      }
    }
  }
  const std::vector<std::string> expected = {"full", "full", "full", "memo"};
  EXPECT_EQ(replay["memo_neighbors"], expected);
  EXPECT_EQ(replay["mei"], expected);
  // Three static reads; the ADD of the first two runs fused.
  const std::map<std::string, double> neighbors_path = {
      {"fetch_static", 3}, {"fetch_dynamic", 0}, {"fetch_uniform", 0},
      {"fused", 1}};
  EXPECT_EQ(path["memo_neighbors"], neighbors_path);
  // MEI: the offsets and accumulator reads are static, the four stencil
  // reads dynamic; two fused differences feed one fused dot.
  const std::map<std::string, double> mei_path = {
      {"fetch_static", 2}, {"fetch_dynamic", 4}, {"fetch_uniform", 0},
      {"fused", 3}};
  EXPECT_EQ(path["mei"], mei_path);
  EXPECT_EQ(trace::counter("gpusim.replay_memo.miss").value(), 2);
  EXPECT_EQ(trace::counter("gpusim.replay_memo.hit").value(), 2);
  trace::reset();
}
#endif  // HS_TRACE_ENABLED

// ---- static fetches in the fused dot ----------------------------------------
//
// The gather->ALU fusion also takes static fetches: the cumulative-distance
// kernels' centre and neighbour reads feed their SUB, SUB, DP4 chains
// straight from the texel rows through arithmetically filled index rows.
// Every case runs on both engines and must match the interpreter bit for
// bit: texels and every PassStats field, on the recording draw and on a
// memoized redraw over new texels.

/// Row-major neighbour offsets of a (2r+1) x (2r+1) structuring element.
std::vector<float4> stencil_offsets(int radius) {
  std::vector<float4> offsets;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      offsets.push_back({static_cast<float>(dx), static_cast<float>(dy), 0, 0});
    }
  }
  return offsets;
}

/// How the SoA engine lowers a program against one binding.
struct FusionPlan {
  std::size_t active = 0;         ///< soa_active_fusions()
  std::vector<char> store_skip;   ///< SoaProgram::fetch_store_skip
};

/// Binds units 0 and 1 to `fmt` textures with `mode` addressing (one
/// texture on both units when `shared`) and unit 2 to an R32F
/// accumulator, draws `p` on both engines over a w x h viewport into an
/// `out_fmt` target, uploads new texels and draws again. Returns the SoA
/// lowering of the binding.
FusionPlan expect_fusion_matches_interpreter(
    const FragmentProgram& p, std::span<const float4> constants, int w, int h,
    TextureFormat fmt, AddressMode mode, TextureFormat out_fmt,
    bool shared = false) {
  EnginePair pair(3);
  Device* devs[2] = {&pair.interp, &pair.soa};
  util::Xoshiro256 rng(static_cast<std::uint64_t>(w) * 131 + h);
  const auto n = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  std::vector<float4> texels_a(n);
  std::vector<float4> texels_b(shared ? 0 : n);
  std::vector<float> acc(n);
  const auto refill = [&] {
    for (auto& v : texels_a) {
      v = {static_cast<float>(rng.uniform(0.05, 1)),
           static_cast<float>(rng.uniform(0.05, 1)),
           static_cast<float>(rng.uniform(-1, 1)),
           static_cast<float>(rng.uniform(-4, 4))};
    }
    for (std::size_t i = 0; i < texels_b.size(); ++i) {
      const float4 v = texels_a[i];
      texels_b[i] = {v.y, v.x, v.w * 0.25f, v.z};
    }
    for (auto& v : acc) v = static_cast<float>(rng.uniform(-1, 1));
  };
  std::vector<TextureHandle> ins[2];
  TextureHandle out[2];
  for (int d = 0; d < 2; ++d) {
    const TextureHandle a = devs[d]->create_texture(w, h, fmt, mode);
    const TextureHandle b =
        shared ? a : devs[d]->create_texture(w, h, fmt, mode);
    ins[d] = {a, b, devs[d]->create_texture(w, h, TextureFormat::R32F)};
    out[d] = devs[d]->create_texture(w, h, out_fmt);
    for (TextureHandle t : {a, b}) {
      devs[d]->texture(t).set_border_color({0.25f, -1.f, 2.f, 0.5f});
    }
  }
  for (int draw = 0; draw < 2; ++draw) {
    refill();
    PassStats stats[2];
    for (int d = 0; d < 2; ++d) {
      devs[d]->upload(ins[d][0], texels_a);
      if (!shared) devs[d]->upload(ins[d][1], texels_b);
      devs[d]->upload(ins[d][2], acc);
      const TextureHandle outs[1] = {out[d]};
      stats[d] = devs[d]->draw(p, ins[d], constants, outs);
    }
    expect_identical_stats(stats[0], stats[1]);
    expect_identical_texels(pair.interp, out[0], pair.soa, out[1]);
  }

  std::vector<const Texture2D*> bound;
  for (TextureHandle t : ins[1]) {
    bound.push_back(&std::as_const(pair.soa).texture(t));
  }
  const SoaProgram sp = lower_soa(std::make_shared<const CompiledProgram>(
      compile_program(p, constants, bound)));
  return {soa_active_fusions(sp, bound), sp.fetch_store_skip};
}

const int kFusionWidths[] = {1, 3, 255, 256, 257, 300};

TEST(SoaStaticFusion, CumdistFusedMatchesInterpreter) {
  for (int radius : {1, 2}) {
    const std::vector<float4> offsets = stencil_offsets(radius);
    const int nb = static_cast<int>(offsets.size());
    const FragmentProgram p = assemble_or_die(
        "cumdist_fused", core::shaders::cumulative_distance_fused_source(nb));
    for (int w : kFusionWidths) {
      for (AddressMode mode : {AddressMode::ClampToEdge, AddressMode::Repeat}) {
        for (TextureFormat fmt :
             {TextureFormat::RGBA32F, TextureFormat::RGBA16F}) {
          SCOPED_TRACE(::testing::Message()
                       << "radius " << radius << " width " << w << " mode "
                       << static_cast<int>(mode) << " format "
                       << static_cast<int>(fmt));
          const FusionPlan plan = expect_fusion_matches_interpreter(
              p, offsets, w, 5, fmt, mode, TextureFormat::R32F);
          // Per neighbour: two fused differences and their fused dot.
          EXPECT_EQ(plan.active, static_cast<std::size_t>(3 * nb));
          // Centre and neighbour reads feed only fusions; the
          // accumulator read is a plain ALU source.
          for (std::size_t s = 0; s + 1 < plan.store_skip.size(); ++s) {
            EXPECT_EQ(plan.store_skip[s], 1) << "slot " << s;
          }
          EXPECT_EQ(plan.store_skip.back(), 0);
        }
      }
    }
  }
}

TEST(SoaStaticFusion, CumdistSingleMatchesInterpreter) {
  const FragmentProgram p = assemble_or_die(
      "cumdist_single", core::shaders::cumulative_distance_single_source());
  const std::vector<float4> offsets = stencil_offsets(2);
  for (int w : kFusionWidths) {
    for (AddressMode mode : {AddressMode::ClampToEdge, AddressMode::Repeat}) {
      for (TextureFormat fmt :
           {TextureFormat::RGBA32F, TextureFormat::RGBA16F}) {
        for (const float4& offset : offsets) {
          SCOPED_TRACE(::testing::Message()
                       << "width " << w << " mode " << static_cast<int>(mode)
                       << " format " << static_cast<int>(fmt) << " offset ("
                       << offset.x << ", " << offset.y << ")");
          const FusionPlan plan = expect_fusion_matches_interpreter(
              p, std::span(&offset, 1), w, 4, fmt, mode, TextureFormat::R32F);
          EXPECT_EQ(plan.active, 3u);
        }
      }
    }
  }
}

TEST(SoaStaticFusion, BorderAddressingRunsUnfused) {
  const std::vector<float4> offsets = stencil_offsets(2);
  const FragmentProgram p = assemble_or_die(
      "cumdist_fused",
      core::shaders::cumulative_distance_fused_source(
          static_cast<int>(offsets.size())));
  for (int w : kFusionWidths) {
    for (TextureFormat fmt : {TextureFormat::RGBA32F, TextureFormat::RGBA16F}) {
      SCOPED_TRACE(::testing::Message() << "width " << w << " format "
                                        << static_cast<int>(fmt));
      const FusionPlan plan = expect_fusion_matches_interpreter(
          p, offsets, w, 5, fmt, AddressMode::ClampToBorder,
          TextureFormat::R32F);
      EXPECT_EQ(plan.active, 0u);
    }
  }
}

TEST(SoaStaticFusion, CentreReadByPlainAluStaysPinned) {
  // cumdist_single plus a plain MUL of the centre read R0: its planes must
  // still be written, while R1's are consumed only by the fused chain.
  const FragmentProgram p = assemble_or_die(
      "centre_pinned",
      "!!HSFP1.0\n"
      "TEX R0, fragment.texcoord[0], texture[0];\n"
      "TEX R1, fragment.texcoord[0], texture[1];\n"
      "ADD R3.xy, fragment.texcoord[0], c[0];\n"
      "TEX R4, R3, texture[0];\n"
      "TEX R5, R3, texture[1];\n"
      "SUB R6, R0, R4;\n"
      "SUB R7, R1, R5;\n"
      "DP4 R8.x, R6, R7;\n"
      "MUL R9, R0, {0.5, 0.25, 2.0, -1.0};\n"
      "ADD result.color, R9, R8.xxxx;\n"
      "END\n");
  const float4 offset{-2, 1, 0, 0};
  for (int w : kFusionWidths) {
    for (AddressMode mode : {AddressMode::ClampToEdge, AddressMode::Repeat}) {
      SCOPED_TRACE(::testing::Message() << "width " << w << " mode "
                                        << static_cast<int>(mode));
      const FusionPlan plan = expect_fusion_matches_interpreter(
          p, std::span(&offset, 1), w, 3, TextureFormat::RGBA32F, mode,
          TextureFormat::RGBA32F);
      EXPECT_EQ(plan.active, 3u);
      EXPECT_EQ(plan.store_skip, (std::vector<char>{0, 1, 1, 1}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace hs::gpusim
