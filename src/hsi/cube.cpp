#include "hsi/cube.hpp"

#include "util/assert.hpp"

namespace hs::hsi {

const char* interleave_name(Interleave interleave) {
  switch (interleave) {
    case Interleave::BSQ: return "bsq";
    case Interleave::BIL: return "bil";
    case Interleave::BIP: return "bip";
  }
  return "?";
}

HyperCube::HyperCube(int width, int height, int bands, Interleave interleave)
    : width_(width), height_(height), bands_(bands), interleave_(interleave) {
  HS_ASSERT(width > 0 && height > 0 && bands > 0);
  data_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
                   static_cast<std::size_t>(bands),
               0.0f);
}

std::size_t HyperCube::index(int x, int y, int band) const {
  HS_DEBUG_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_ && band >= 0 &&
                  band < bands_);
  const Strides s = strides();
  return static_cast<std::size_t>(x * s.x + y * s.y + band * s.band);
}

HyperCube::Strides HyperCube::strides() const {
  const auto w = static_cast<std::ptrdiff_t>(width_);
  const auto h = static_cast<std::ptrdiff_t>(height_);
  const auto n = static_cast<std::ptrdiff_t>(bands_);
  switch (interleave_) {
    case Interleave::BSQ: return {1, w, w * h};
    case Interleave::BIL: return {1, n * w, w};
    case Interleave::BIP: return {n, w * n, 1};
  }
  return {};
}

void HyperCube::pixel(int x, int y, std::span<float> out) const {
  HS_ASSERT(out.size() == static_cast<std::size_t>(bands_));
  if (interleave_ == Interleave::BIP) {
    const float* p = data_.data() + index(x, y, 0);
    std::copy(p, p + bands_, out.begin());
    return;
  }
  for (int b = 0; b < bands_; ++b) out[static_cast<std::size_t>(b)] = at(x, y, b);
}

void HyperCube::set_pixel(int x, int y, std::span<const float> values) {
  HS_ASSERT(values.size() == static_cast<std::size_t>(bands_));
  if (interleave_ == Interleave::BIP) {
    std::copy(values.begin(), values.end(), data_.data() + index(x, y, 0));
    return;
  }
  for (int b = 0; b < bands_; ++b) at(x, y, b) = values[static_cast<std::size_t>(b)];
}

HyperCube HyperCube::converted(Interleave target) const {
  if (target == interleave_) return *this;
  HyperCube out(width_, height_, bands_, target);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      for (int b = 0; b < bands_; ++b) out.at(x, y, b) = at(x, y, b);
    }
  }
  return out;
}

HyperCube HyperCube::crop(int x0, int y0, int w, int h) const {
  HS_ASSERT(x0 >= 0 && y0 >= 0 && w > 0 && h > 0 && x0 + w <= width_ &&
            y0 + h <= height_);
  HyperCube out(w, h, bands_, interleave_);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int b = 0; b < bands_; ++b) {
        out.at(x, y, b) = at(x0 + x, y0 + y, b);
      }
    }
  }
  return out;
}

}  // namespace hs::hsi
