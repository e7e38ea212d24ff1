#include "hsi/synthetic.hpp"

#include <gtest/gtest.h>

#include "core/distances.hpp"

#include <cmath>
#include <cstdint>
#include <set>

namespace hs::hsi {
namespace {

SceneConfig small_config() {
  SceneConfig cfg;
  cfg.width = 48;
  cfg.height = 48;
  cfg.bands = 32;
  cfg.seed = 11;
  return cfg;
}

TEST(SyntheticScene, ShapesMatchConfig) {
  const SyntheticScene scene = generate_indian_pines_scene(small_config());
  EXPECT_EQ(scene.cube.width(), 48);
  EXPECT_EQ(scene.cube.height(), 48);
  EXPECT_EQ(scene.cube.bands(), 32);
  EXPECT_EQ(scene.truth.width(), 48);
  EXPECT_EQ(scene.truth.height(), 48);
  EXPECT_EQ(scene.truth.num_classes(), 32);
}

TEST(SyntheticScene, DeterministicInSeed) {
  const SyntheticScene a = generate_indian_pines_scene(small_config());
  const SyntheticScene b = generate_indian_pines_scene(small_config());
  EXPECT_EQ(a.truth.labels(), b.truth.labels());
  for (std::size_t i = 0; i < a.cube.raw().size(); ++i) {
    EXPECT_EQ(a.cube.raw()[i], b.cube.raw()[i]) << i;
  }
}

TEST(SyntheticScene, DifferentSeedsDiffer) {
  SceneConfig cfg = small_config();
  const SyntheticScene a = generate_indian_pines_scene(cfg);
  cfg.seed = 12;
  const SyntheticScene b = generate_indian_pines_scene(cfg);
  EXPECT_NE(a.truth.labels(), b.truth.labels());
}

TEST(SyntheticScene, AllPixelsLabeled) {
  const SyntheticScene scene = generate_indian_pines_scene(small_config());
  EXPECT_EQ(scene.truth.labeled_count(), 48u * 48u);
}

TEST(SyntheticScene, StructuralClassesArePresent) {
  const SyntheticScene scene = generate_indian_pines_scene(small_config());
  const auto& lib = scene.library;
  for (const char* name : {"Woods", "Lake", "Road", "Buildings"}) {
    const int c = lib.find(name);
    ASSERT_GE(c, 0);
    EXPECT_GT(scene.truth.class_count(c), 0u) << name;
  }
}

TEST(SyntheticScene, ManyClassesAppear) {
  SceneConfig cfg = small_config();
  cfg.width = 96;
  cfg.height = 96;
  const SyntheticScene scene = generate_indian_pines_scene(cfg);
  std::set<std::int16_t> present;
  for (auto v : scene.truth.labels()) present.insert(v);
  EXPECT_GE(present.size(), 12u);
}

TEST(SyntheticScene, ReflectancesPositiveAndBounded) {
  const SyntheticScene scene = generate_indian_pines_scene(small_config());
  for (float v : scene.cube.raw()) {
    EXPECT_GT(v, 0.f);
    EXPECT_LT(v, 2.f);  // gain + noise can push slightly above 1
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(SyntheticScene, InteriorPixelsResembleTheirClassSignature) {
  SceneConfig cfg = small_config();
  cfg.snr_db = 60;                 // nearly noiseless
  cfg.brightness_jitter = 0.0;
  cfg.mixing_halfwidth = 0;        // no boundary mixing
  cfg.intrinsic_mix_jitter = 0.0;
  const SyntheticScene scene = generate_indian_pines_scene(cfg);
  const int woods = scene.library.find("Woods");
  // Woods has self_fraction 1.0: pixels should match the signature closely.
  std::vector<float> spec(static_cast<std::size_t>(cfg.bands));
  int checked = 0;
  for (int y = 0; y < cfg.height && checked < 10; ++y) {
    for (int x = 0; x < cfg.width && checked < 10; ++x) {
      if (scene.truth.at(x, y) != woods) continue;
      scene.cube.pixel(x, y, spec);
      const auto sig = scene.library.signature(woods);
      for (int b = 0; b < cfg.bands; ++b) {
        EXPECT_NEAR(spec[static_cast<std::size_t>(b)], sig[static_cast<std::size_t>(b)], 0.02f);
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(SyntheticScene, NoiseScalesWithSnr) {
  SceneConfig clean = small_config();
  clean.snr_db = 60;
  SceneConfig noisy = small_config();
  noisy.snr_db = 10;

  auto roughness = [](const SyntheticScene& s) {
    // Mean absolute second difference along the spectrum: noise raises it.
    double acc = 0;
    std::vector<float> spec(static_cast<std::size_t>(s.cube.bands()));
    for (int y = 0; y < s.cube.height(); y += 7) {
      for (int x = 0; x < s.cube.width(); x += 7) {
        s.cube.pixel(x, y, spec);
        for (int b = 1; b + 1 < s.cube.bands(); ++b) {
          acc += std::fabs(spec[static_cast<std::size_t>(b - 1)] -
                           2 * spec[static_cast<std::size_t>(b)] +
                           spec[static_cast<std::size_t>(b + 1)]);
        }
      }
    }
    return acc;
  };

  EXPECT_GT(roughness(generate_indian_pines_scene(noisy)),
            2 * roughness(generate_indian_pines_scene(clean)));
}

TEST(SyntheticScene, CornPixelsAreHeavilyMixed) {
  // With intrinsic mixing on, a corn pixel sits between the corn signature
  // and bare soil: its distance to its own class signature exceeds the
  // woods pixels' distance to theirs.
  SceneConfig cfg = small_config();
  cfg.width = 96;
  cfg.height = 96;
  cfg.snr_db = 60;
  cfg.brightness_jitter = 0.0;
  const SyntheticScene scene = generate_indian_pines_scene(cfg);

  auto mean_self_distance = [&](int cls) {
    std::vector<float> spec(static_cast<std::size_t>(cfg.bands));
    double acc = 0;
    int n = 0;
    for (int y = 2; y < cfg.height - 2; ++y) {
      for (int x = 2; x < cfg.width - 2; ++x) {
        if (scene.truth.at(x, y) != cls) continue;
        // Skip mixing-zone pixels (any different neighbor class).
        bool interior = true;
        for (int dy = -2; dy <= 2 && interior; ++dy) {
          for (int dx = -2; dx <= 2 && interior; ++dx) {
            interior = scene.truth.at(x + dx, y + dy) == cls;
          }
        }
        if (!interior) continue;
        scene.cube.pixel(x, y, spec);
        acc += core::sid(spec, scene.library.signature(cls));
        ++n;
      }
    }
    return n > 0 ? acc / n : -1.0;
  };

  const double woods = mean_self_distance(scene.library.find("Woods"));
  // Find a corn class present in the scene.
  double corn = -1;
  for (int c = 0; c < scene.library.num_classes(); ++c) {
    if (scene.library.names[static_cast<std::size_t>(c)].rfind("Corn", 0) == 0) {
      const double d = mean_self_distance(c);
      if (d >= 0) {
        corn = d;
        break;
      }
    }
  }
  ASSERT_GE(woods, 0.0);
  ASSERT_GE(corn, 0.0);
  EXPECT_GT(corn, woods * 3);
}

/// FNV-1a over the cube's float bits, then the label map.
std::uint64_t scene_hash(const SyntheticScene& s) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  mix(s.cube.raw().data(), s.cube.raw().size() * sizeof(float));
  mix(s.truth.labels().data(), s.truth.labels().size() * sizeof(std::int16_t));
  return h;
}

TEST(SyntheticScene, CubeHashIsPinned) {
  // Every double operation of the generator, and its order, is part of
  // the scene: these hashes pin the exact bits, so an optimization that
  // reorders a sum or recomputes a weight differently shows up here.
  struct Case {
    int width, height, bands, mixing_halfwidth;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {48, 40, 32, 0, 11, 0x6ddfffcc1e2dffa4ull},
      {64, 56, 24, 1, 5, 0xc0066f9ed918f580ull},
      {37, 45, 48, 2, 9, 0xce0245ecf10b73b8ull},
      {96, 80, 64, 2, 3, 0xa00fe67612e37b41ull},
      // The amc_scene and serve_miss job shapes.
      {128, 128, 64, 1, 21, 0x076b9bd0dbaebd6aull},
      {48, 48, 16, 1, 13, 0x5e79f0bf1368d124ull},
  };
  for (const Case& c : cases) {
    SceneConfig cfg;
    cfg.width = c.width;
    cfg.height = c.height;
    cfg.bands = c.bands;
    cfg.mixing_halfwidth = c.mixing_halfwidth;
    cfg.seed = c.seed;
    EXPECT_EQ(scene_hash(generate_indian_pines_scene(cfg)), c.hash)
        << c.width << "x" << c.height << "x" << c.bands << " m="
        << c.mixing_halfwidth << " seed=" << c.seed;
  }
}

}  // namespace
}  // namespace hs::hsi
