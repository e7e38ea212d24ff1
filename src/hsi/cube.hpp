// Hyperspectral image cube.
//
// A cube is width x height pixels by `bands` spectral channels of float
// reflectance. Storage interleave is explicit (the three layouts every
// remote-sensing toolchain speaks):
//   BSQ -- band sequential:    data[b][y][x]
//   BIL -- band interleaved by line:  data[y][b][x]
//   BIP -- band interleaved by pixel: data[y][x][b]
// BIP is the natural layout for per-pixel spectral algorithms (pixel
// vectors are contiguous) and is this library's default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hs::hsi {

enum class Interleave : std::uint8_t { BSQ, BIL, BIP };

const char* interleave_name(Interleave interleave);

class HyperCube {
 public:
  HyperCube() = default;
  HyperCube(int width, int height, int bands, Interleave interleave = Interleave::BIP);

  int width() const { return width_; }
  int height() const { return height_; }
  int bands() const { return bands_; }
  Interleave interleave() const { return interleave_; }
  std::size_t pixel_count() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  bool empty() const { return data_.empty(); }

  float at(int x, int y, int band) const { return data_[index(x, y, band)]; }
  float& at(int x, int y, int band) { return data_[index(x, y, band)]; }

  /// Copies the pixel vector at (x, y) into `out` (size must be bands()).
  void pixel(int x, int y, std::span<float> out) const;
  void set_pixel(int x, int y, std::span<const float> values);

  /// Returns a copy re-laid-out in the requested interleave.
  HyperCube converted(Interleave target) const;

  /// Returns the sub-cube [x0, x0+w) x [y0, y0+h) with all bands.
  HyperCube crop(int x0, int y0, int w, int h) const;

  std::span<const float> raw() const { return data_; }
  std::span<float> raw() { return data_; }

  /// In-memory float payload size.
  std::uint64_t size_bytes() const { return data_.size() * sizeof(float); }
  /// Size as stored by the sensor at `bytes_per_sample` (AVIRIS delivers
  /// 2-byte integers; the paper's "MB" axis counts those).
  std::uint64_t sensor_size_bytes(int bytes_per_sample = 2) const {
    return data_.size() * static_cast<std::uint64_t>(bytes_per_sample);
  }

  std::size_t index(int x, int y, int band) const;

  /// Element steps of the interleave along x, y and band: at(x + i, y + j,
  /// b + k) is raw()[index(x, y, b) + i * x + j * y + k * band].
  struct Strides {
    std::ptrdiff_t x = 0;
    std::ptrdiff_t y = 0;
    std::ptrdiff_t band = 0;
  };
  Strides strides() const;

 private:
  int width_ = 0;
  int height_ = 0;
  int bands_ = 0;
  Interleave interleave_ = Interleave::BIP;
  std::vector<float> data_;
};

}  // namespace hs::hsi
