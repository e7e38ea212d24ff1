#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace hs::util {

std::uint64_t Xoshiro256::uniform_int(std::uint64_t n) {
  HS_ASSERT(n > 0);
  // Rejection sampling on the top of the range to remove modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return v % n;
}

void Xoshiro256::normals(std::span<double> out) {
  std::size_t i = 0;
  if (i < out.size() && have_cached_normal_) {
    have_cached_normal_ = false;
    out[i++] = cached_normal_;
  }
  // Points of the unit disc in stream order: a rejected point is
  // overwritten by the next draw instead of branching.
  constexpr std::size_t kBatch = 32;
  std::array<double, kBatch> us, vs, ss;
  while (i < out.size()) {
    const std::size_t pairs = std::min(kBatch, (out.size() - i + 1) / 2);
    for (std::size_t k = 0; k < pairs;) {
      const double u = uniform(-1.0, 1.0);
      const double v = uniform(-1.0, 1.0);
      const double s = u * u + v * v;
      us[k] = u;
      vs[k] = v;
      ss[k] = s;
      k += static_cast<std::size_t>((s < 1.0) & (s != 0.0));
    }
    for (std::size_t k = 0; k < pairs; ++k) {
      ss[k] = std::sqrt(-2.0 * std::log(ss[k]) / ss[k]);
    }
    for (std::size_t k = 0; k < pairs; ++k) {
      out[i++] = us[k] * ss[k];
      if (i < out.size()) {
        out[i++] = vs[k] * ss[k];
      } else {
        cached_normal_ = vs[k] * ss[k];
        have_cached_normal_ = true;
      }
    }
  }
}

}  // namespace hs::util
