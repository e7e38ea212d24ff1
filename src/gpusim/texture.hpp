// 2-D textures, the stream storage of the simulated GPU.
//
// GPGPU code of the NV30/G70 era used *texture rectangles*
// (NV_texture_rectangle): unnormalized integer texel coordinates and
// nearest-neighbor sampling, which is exactly what multi-pass stream
// computation wants. fetch() therefore takes texel-space coordinates; the
// addressing mode decides what happens outside [0,w)x[0,h).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gpusim/float4.hpp"
#include "util/assert.hpp"

namespace hs::gpusim {

enum class TextureFormat : std::uint8_t {
  RGBA32F,  ///< four float channels; the band-packed stream format
  R32F,     ///< single float channel (scalar streams: sums, MEI, indices)
  RGBA16F,  ///< four half-float channels -- half the memory traffic, the
            ///< NV3x-era precision/speed trade; values are quantized to
            ///< IEEE half on store
  R16F,     ///< single half-float channel
};

/// Bytes per texel as counted against video memory and bandwidth.
constexpr std::uint32_t bytes_per_texel(TextureFormat format) {
  switch (format) {
    case TextureFormat::RGBA32F: return 16;
    case TextureFormat::R32F: return 4;
    case TextureFormat::RGBA16F: return 8;
    case TextureFormat::R16F: return 2;
  }
  return 0;
}

/// Number of channels stored (4 for RGBA formats, 1 for R formats).
constexpr int channels_of(TextureFormat format) {
  switch (format) {
    case TextureFormat::RGBA32F:
    case TextureFormat::RGBA16F:
      return 4;
    case TextureFormat::R32F:
    case TextureFormat::R16F:
      return 1;
  }
  return 0;
}

/// True for the half-float formats.
constexpr bool is_half_format(TextureFormat format) {
  return format == TextureFormat::RGBA16F || format == TextureFormat::R16F;
}

/// IEEE 754 binary16 conversion (round to nearest even), used to quantize
/// stores into half-float textures. Exposed for tests.
std::uint16_t float_to_half(float value);
float half_to_float(std::uint16_t half);
/// float -> half -> float round trip.
float quantize_half(float value);

enum class AddressMode : std::uint8_t {
  ClampToEdge,   ///< coordinates clamp to the border texel
  Repeat,        ///< coordinates wrap modulo size
  ClampToBorder  ///< out-of-range reads return the border color
};

/// Largest texture width or height, in texels: the 4096 x 4096 limit of
/// the NV38 and G70 the profiles model, and so also of a render target
/// and a viewport. Device::create_texture rejects anything larger, and
/// stream::plan_chunks splits a larger image into chunks that fit, as
/// the paper does for oversize images.
inline constexpr int kMaxTextureDim = 4096;
/// A texel count, and so every linear texel index, fits in int32.
static_assert(std::int64_t{kMaxTextureDim} * kMaxTextureDim <=
              std::numeric_limits<std::int32_t>::max());

class Texture2D {
 public:
  Texture2D(int width, int height, TextureFormat format,
            AddressMode address = AddressMode::ClampToEdge);

  int width() const { return width_; }
  int height() const { return height_; }
  TextureFormat format() const { return format_; }
  AddressMode address_mode() const { return address_; }
  void set_address_mode(AddressMode m) { address_ = m; }
  void set_border_color(float4 c) { border_ = c; }
  float4 border_color() const { return border_; }

  std::uint64_t size_bytes() const {
    return static_cast<std::uint64_t>(width_) * static_cast<std::uint64_t>(height_) *
           bytes_per_texel(format_);
  }

  // fetch/load/store/resolve are inline: both execution engines call them
  // once per texel access, so they sit on the simulator's hottest path.

  /// Nearest-neighbor fetch at unnormalized texel coordinates (s, t):
  /// texel index = floor(coordinate), then the addressing mode is applied.
  /// For R32F textures the scalar is broadcast into .x and the remaining
  /// lanes read 0, matching LUMINANCE-style fetch behaviour.
  float4 fetch(float s, float t) const {
    int x, y;
    if (!resolve(s, t, x, y)) return border_;
    return load(x, y);
  }

  /// Direct texel access (in-range indices only); used by upload/download
  /// and by tests. For R32F textures only .x is stored.
  void store(int x, int y, float4 value) {
    HS_DEBUG_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_);
    const std::size_t idx =
        static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
        static_cast<std::size_t>(x);
    // Half formats quantize on store: the backing array keeps floats for the
    // interpreter's convenience, but only half-representable values.
    if (is_half_format(format_)) value = quantize_store(value);
    if (channels_of(format_) == 4) {
      data_[idx * 4 + 0] = value.x;
      data_[idx * 4 + 1] = value.y;
      data_[idx * 4 + 2] = value.z;
      data_[idx * 4 + 3] = value.w;
    } else {
      data_[idx] = value.x;
    }
  }

  float4 load(int x, int y) const {
    HS_DEBUG_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_);
    const std::size_t idx =
        static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
        static_cast<std::size_t>(x);
    if (channels_of(format_) == 4) {
      return {data_[idx * 4 + 0], data_[idx * 4 + 1], data_[idx * 4 + 2],
              data_[idx * 4 + 3]};
    }
    return {data_[idx], 0.f, 0.f, 0.f};
  }

  /// Raw channel data. RGBA32F: 4 floats per texel; R32F: 1 float per texel.
  std::vector<float>& raw() { return data_; }
  const std::vector<float>& raw() const { return data_; }

  /// Resolves (s,t) to concrete texel indices per the address mode;
  /// returns false for ClampToBorder out-of-range (border color case).
  bool resolve(float s, float t, int& x, int& y) const {
    x = floor_to_int(s);
    y = floor_to_int(t);
    if (address_ == AddressMode::ClampToBorder) {
      return x >= 0 && x < width_ && y >= 0 && y < height_;
    }
    x = wrap_coord(x, width_, address_);
    y = wrap_coord(y, height_, address_);
    return true;
  }

  /// floor() by truncate-and-adjust: a single int conversion instead of a
  /// libm call. Exact for every float whose floor fits in int; NaN and
  /// out-of-range values saturate to INT_MIN deterministically (the x86
  /// float->int conversion's behaviour, which the previous
  /// static_cast<int>(std::floor(s)) produced via undefined behaviour).
  /// Public because the SoA engine's split gather loops must replicate
  /// resolve() semantics component-by-component, bit-exactly.
  static int floor_to_int(float s) {
    if (!(s >= -2147483648.0f && s < 2147483648.0f)) {
      return std::numeric_limits<int>::min();
    }
    const int i = static_cast<int>(s);
    return static_cast<float>(i) > s ? i - 1 : i;
  }

 private:
  static int wrap_coord(int v, int size, AddressMode mode) {
    switch (mode) {
      case AddressMode::ClampToEdge:
        return v < 0 ? 0 : (v >= size ? size - 1 : v);
      case AddressMode::Repeat: {
        int m = v % size;
        return m < 0 ? m + size : m;
      }
      case AddressMode::ClampToBorder:
        return v;  // caller checks range
    }
    return 0;
  }

  /// Cold path of store(): per-channel round trip through IEEE half.
  float4 quantize_store(float4 value) const;

  int width_;
  int height_;
  TextureFormat format_;
  AddressMode address_;
  float4 border_{0.f, 0.f, 0.f, 0.f};
  std::vector<float> data_;
};

}  // namespace hs::gpusim
