#include "hsi/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace hs::hsi {

namespace {

/// Jittered 1-D cut positions with mean spacing `scale` covering [0, size).
std::vector<int> jittered_cuts(int size, int scale, util::Xoshiro256& rng) {
  std::vector<int> cuts{0};
  int pos = 0;
  while (pos < size) {
    const int step = std::max(
        3, scale + static_cast<int>(std::lround(rng.uniform(-0.4, 0.4) *
                                                static_cast<double>(scale))));
    pos += step;
    cuts.push_back(std::min(pos, size));
  }
  if (cuts.back() != size) cuts.push_back(size);
  return cuts;
}

}  // namespace

SyntheticScene generate_indian_pines_scene(const SceneConfig& config) {
  HS_ASSERT(config.width > 8 && config.height > 8 && config.bands >= 8);
  util::Xoshiro256 rng(config.seed);

  SyntheticScene scene;
  scene.library = indian_pines_library(config.bands, config.seed);
  const SpectralLibrary& lib = scene.library;
  const int nclasses = lib.num_classes();
  scene.truth = ClassMap(config.width, config.height, lib.names);
  scene.cube = HyperCube(config.width, config.height, config.bands, Interleave::BIP);

  const int kBareSoil = lib.find("BareSoil");
  const int kBuildings = lib.find("Buildings");
  const int kConcrete = lib.find("Concrete/Asphalt");
  const int kLake = lib.find("Lake");
  const int kRoad = lib.find("Road");
  const int kWoods = lib.find("Woods");
  const int kRunway = lib.find("Grass-runway");
  HS_ASSERT(kBareSoil >= 0 && kBuildings >= 0 && kLake >= 0 && kRoad >= 0 &&
            kWoods >= 0 && kConcrete >= 0 && kRunway >= 0);

  // ---- 1. Field mosaic -----------------------------------------------------
  // Weighted class frequencies for ordinary field cells: the real scene is
  // dominated by corn (and soy) fields with grass/hay parcels in between.
  std::vector<int> field_classes;
  std::vector<double> field_weights;
  for (int c = 0; c < nclasses; ++c) {
    const std::string& name = lib.names[static_cast<std::size_t>(c)];
    if (c == kLake || c == kRoad || c == kWoods || c == kBuildings ||
        c == kRunway || c == kConcrete) {
      continue;  // placed structurally below
    }
    double w = 1.0;
    if (name.rfind("Corn", 0) == 0) w = 2.2;   // corn dominates the mosaic
    if (name == "BareSoil") w = 1.6;
    if (name.rfind("Grass", 0) == 0) w = 1.2;
    field_classes.push_back(c);
    field_weights.push_back(w);
  }
  double weight_sum = 0;
  for (double w : field_weights) weight_sum += w;

  auto sample_field_class = [&]() {
    double r = rng.uniform() * weight_sum;
    for (std::size_t i = 0; i < field_classes.size(); ++i) {
      r -= field_weights[i];
      if (r <= 0) return field_classes[i];
    }
    return field_classes.back();
  };

  const auto xcuts = jittered_cuts(config.width, config.field_scale, rng);
  const auto ycuts = jittered_cuts(config.height, config.field_scale, rng);

  for (std::size_t j = 0; j + 1 < ycuts.size(); ++j) {
    for (std::size_t i = 0; i + 1 < xcuts.size(); ++i) {
      const int cls = sample_field_class();
      for (int y = ycuts[j]; y < ycuts[j + 1]; ++y) {
        for (int x = xcuts[i]; x < xcuts[i + 1]; ++x) {
          scene.truth.at(x, y) = static_cast<std::int16_t>(cls);
        }
      }
    }
  }

  // ---- 2. Structural overlays ----------------------------------------------
  // Woods: a contiguous band on the right edge (the real scene's east side
  // is forested).
  const int woods_x0 = static_cast<int>(0.8 * config.width);
  for (int y = 0; y < config.height; ++y) {
    for (int x = woods_x0; x < config.width; ++x) {
      scene.truth.at(x, y) = static_cast<std::int16_t>(kWoods);
    }
  }

  // Lake: an ellipse inside the woods band.
  {
    const double cx = 0.9 * config.width;
    const double cy = 0.25 * config.height;
    const double rx = std::max(3.0, 0.06 * config.width);
    const double ry = std::max(3.0, 0.08 * config.height);
    for (int y = 0; y < config.height; ++y) {
      for (int x = 0; x < config.width; ++x) {
        const double dx = (x - cx) / rx;
        const double dy = (y - cy) / ry;
        if (dx * dx + dy * dy <= 1.0) {
          scene.truth.at(x, y) = static_cast<std::int16_t>(kLake);
        }
      }
    }
  }

  // Roads: one vertical and one horizontal, three pixels wide (wide enough
  // that the centerline stays outside the boundary-mixing zone, as county
  // roads do at AVIRIS resolution).
  const int road_x = config.width / 3;
  const int road_y = config.height / 2;
  for (int y = 0; y < config.height; ++y) {
    for (int dx = 0; dx < 3; ++dx) {
      scene.truth.at(road_x + dx, y) = static_cast<std::int16_t>(kRoad);
    }
  }
  for (int x = 0; x < woods_x0; ++x) {
    for (int dy = 0; dy < 3; ++dy) {
      scene.truth.at(x, road_y + dy) = static_cast<std::int16_t>(kRoad);
    }
  }

  // Grass runway: a short horizontal strip.
  {
    const int y0 = config.height / 5;
    const int x0 = config.width / 8;
    const int x1 = std::min(woods_x0, x0 + config.width / 3);
    for (int x = x0; x < x1; ++x) {
      for (int dy = 0; dy < 3; ++dy) {
        scene.truth.at(x, y0 + dy) = static_cast<std::int16_t>(kRunway);
      }
    }
  }

  // Buildings + concrete pads near the road crossing.
  {
    const int bx = road_x + 4;
    const int by = road_y + 4;
    for (int y = by; y < std::min(config.height, by + 5); ++y) {
      for (int x = bx; x < std::min(config.width, bx + 6); ++x) {
        scene.truth.at(x, y) = static_cast<std::int16_t>(kBuildings);
      }
    }
    for (int y = by + 6; y < std::min(config.height, by + 10); ++y) {
      for (int x = bx; x < std::min(config.width, bx + 6); ++x) {
        scene.truth.at(x, y) = static_cast<std::int16_t>(kConcrete);
      }
    }
  }

  // ---- 3. Per-class intrinsic mixing models ---------------------------------
  // canopy_fraction[c] in (0,1] is the mean abundance of the class's own
  // signature; the rest is the stated background. 1.0 = pure class.
  std::vector<double> self_fraction(static_cast<std::size_t>(nclasses), 1.0);
  std::vector<int> background(static_cast<std::size_t>(nclasses), kBareSoil);
  for (int c = 0; c < nclasses; ++c) {
    const std::string& name = lib.names[static_cast<std::size_t>(c)];
    if (name.rfind("Corn", 0) == 0) {
      // Early growing season: canopy covers roughly half the pixel, with
      // per-variant spread. Deterministic per class (seeded above library).
      self_fraction[static_cast<std::size_t>(c)] = 0.45 + 0.25 * rng.uniform();
    } else if (c == kBuildings) {
      self_fraction[static_cast<std::size_t>(c)] = 0.45;
      background[static_cast<std::size_t>(c)] = kConcrete;
    } else if (name == "Oats" || name == "Fescue") {
      self_fraction[static_cast<std::size_t>(c)] = 0.75;
    } else if (name.rfind("Grass", 0) == 0) {
      self_fraction[static_cast<std::size_t>(c)] = 0.85;
    }
  }

  // Classes mixed with their background draw one jitter per pixel they
  // have weight in, in ascending class order. Backgrounds are pure, so the
  // drawing classes are known before any draw.
  std::vector<int> mixed;
  for (int c = 0; c < nclasses; ++c) {
    if (self_fraction[static_cast<std::size_t>(c)] >= 1.0) continue;
    HS_ASSERT(self_fraction[static_cast<std::size_t>(
                  background[static_cast<std::size_t>(c)])] >= 1.0);
    mixed.push_back(c);
  }

  // ---- 4. Pixel synthesis ----------------------------------------------------
  // Noise is scaled by the pixel's mean signal (shot-noise-like), matching
  // how sensor SNR specs relate to scene radiance: dark surfaces (water)
  // get proportionally small absolute noise instead of being buried.
  const double snr_linear = std::pow(10.0, config.snr_db / 20.0);
  const int m = config.mixing_halfwidth;
  const auto bands = static_cast<std::size_t>(config.bands);

  std::vector<double> weights(static_cast<std::size_t>(nclasses));
  std::vector<int> present;  // classes with positive weight, ascending
  present.reserve(static_cast<std::size_t>(nclasses));
  std::vector<int> jittered;  // mixed classes with positive weight
  jittered.reserve(mixed.size());
  std::vector<double> jitter(mixed.size());
  std::vector<double> signal(bands);
  std::vector<double> noise(bands);

  // The Gaussian window kernel, row-major over (dy, dx) in [-m, m]^2.
  const int win = 2 * m + 1;
  std::vector<double> kernel(static_cast<std::size_t>(win * win));
  for (int dy = -m; dy <= m; ++dy) {
    for (int dx = -m; dx <= m; ++dx) {
      const double d2 = static_cast<double>(dx * dx + dy * dy);
      kernel[static_cast<std::size_t>((dy + m) * win + dx + m)] =
          std::exp(-d2 / (2.0 * m * m + 1e-9));
    }
  }

  for (int y = 0; y < config.height; ++y) {
    for (int x = 0; x < config.width; ++x) {
      std::fill(weights.begin(), weights.end(), 0.0);

      // Boundary mixing: Gaussian-weighted class histogram of the window.
      if (m > 0) {
        const double* k = kernel.data();
        for (int dy = -m; dy <= m; ++dy) {
          const int ny = std::clamp(y + dy, 0, config.height - 1);
          for (int dx = -m; dx <= m; ++dx) {
            const int nx = std::clamp(x + dx, 0, config.width - 1);
            weights[static_cast<std::size_t>(scene.truth.at(nx, ny))] += *k++;
          }
        }
      } else {
        weights[static_cast<std::size_t>(scene.truth.at(x, y))] = 1.0;
      }

      // Intrinsic mixing: redistribute part of each class's weight to its
      // background endmember.
      jittered.clear();
      for (int c : mixed) {
        if (weights[static_cast<std::size_t>(c)] > 0) jittered.push_back(c);
      }
      rng.normals(std::span(jitter.data(), jittered.size()));
      for (std::size_t j = 0; j < jittered.size(); ++j) {
        const auto c = static_cast<std::size_t>(jittered[j]);
        const double w = weights[c];
        const double self = std::clamp(
            self_fraction[c] + config.intrinsic_mix_jitter * jitter[j], 0.15, 1.0);
        weights[c] = w * self;
        weights[static_cast<std::size_t>(background[c])] += w * (1.0 - self);
      }

      double wsum = 0;
      for (double w : weights) wsum += w;
      const double gain =
          1.0 + config.brightness_jitter * rng.uniform(-1.0, 1.0);

      // Only the few classes with positive weight contribute. Adding them
      // class by class in ascending order gives every band the same sum,
      // in the same order, as a scan over every class.
      present.clear();
      for (int c = 0; c < nclasses; ++c) {
        if (weights[static_cast<std::size_t>(c)] > 0) present.push_back(c);
      }
      std::fill(signal.begin(), signal.end(), 0.0);
      for (int c : present) {
        const double w = weights[static_cast<std::size_t>(c)];
        const float* sig = lib.signatures[static_cast<std::size_t>(c)].data();
        for (std::size_t l = 0; l < bands; ++l) {
          signal[l] += w * static_cast<double>(sig[l]);
        }
      }

      // BIP keeps the pixel's bands contiguous.
      float* px = &scene.cube.at(x, y, 0);
      double signal_mean = 0;
      for (std::size_t l = 0; l < bands; ++l) {
        const double v = signal[l] / wsum * gain;
        px[l] = static_cast<float>(v);
        signal_mean += v;
      }
      signal_mean /= config.bands;
      const double noise_sigma = signal_mean / snr_linear;
      rng.normals(noise);
      for (std::size_t l = 0; l < bands; ++l) {
        const double v = static_cast<double>(px[l]) + noise_sigma * noise[l];
        px[l] = static_cast<float>(std::max(v, 1e-4));
      }
    }
  }
  return scene;
}

}  // namespace hs::hsi
