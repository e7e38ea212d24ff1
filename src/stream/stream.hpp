// Stream abstractions over the simulated GPU.
//
// Following the paper's mapping (Section 3.2), a hyperspectral chunk lives
// on the device as a *band stack*: one RGBA32F texture per group of four
// consecutive spectral bands, so the fragment pipes' 4-wide SIMD processes
// four bands per instruction. BandStack owns the textures of one chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/gpu_device.hpp"

namespace hs::stream {

/// Number of RGBA textures needed for `bands` spectral bands.
inline int band_group_count(int bands) { return (bands + 3) / 4; }

/// A chunk's spectral data resident in video memory: groups of four bands
/// packed into the RGBA channels of a texture stack. Bands beyond the last
/// multiple of four are zero-padded (zero contributes nothing to the sums
/// the AMC kernels compute).
class BandStack {
 public:
  /// Allocates the stack on `device`. Throws GpuOutOfMemory via the device
  /// if it does not fit. `format` must be a four-channel format
  /// (RGBA32F, or RGBA16F for the half-precision trade).
  BandStack(gpusim::Device& device, int width, int height, int bands,
            gpusim::AddressMode address = gpusim::AddressMode::ClampToEdge,
            gpusim::TextureFormat format = gpusim::TextureFormat::RGBA32F);
  ~BandStack();

  BandStack(const BandStack&) = delete;
  BandStack& operator=(const BandStack&) = delete;
  BandStack(BandStack&& other) noexcept;
  BandStack& operator=(BandStack&&) = delete;

  int width() const { return width_; }
  int height() const { return height_; }
  int bands() const { return bands_; }
  int groups() const { return static_cast<int>(textures_.size()); }

  gpusim::TextureHandle group(int g) const { return textures_[static_cast<std::size_t>(g)]; }
  std::span<const gpusim::TextureHandle> handles() const { return textures_; }

  /// Uploads spectra from strided host memory in one pixel-major pass,
  /// one bus transfer per group texture: band b of chunk-local texel (x, y) is
  /// origin[x * x_stride + y * y_stride + b * band_stride] (strides in
  /// floats, as hsi::HyperCube::strides() gives them for any interleave).
  void upload(const float* origin, std::ptrdiff_t x_stride,
              std::ptrdiff_t y_stride, std::ptrdiff_t band_stride);

  std::uint64_t size_bytes() const;

 private:
  gpusim::Device* device_;
  int width_;
  int height_;
  int bands_;
  gpusim::TextureFormat format_ = gpusim::TextureFormat::RGBA32F;
  std::vector<gpusim::TextureHandle> textures_;
};

/// Two same-shape textures alternating as source/target across passes --
/// the loop-back pattern of the paper's Cumulative Distance stage (a pass
/// may not sample its own render target, so accumulation ping-pongs).
class PingPong {
 public:
  PingPong(gpusim::Device& device, int width, int height,
           gpusim::TextureFormat format,
           gpusim::AddressMode address = gpusim::AddressMode::ClampToEdge);
  ~PingPong();

  PingPong(const PingPong&) = delete;
  PingPong& operator=(const PingPong&) = delete;
  PingPong(PingPong&& other) noexcept
      : device_(other.device_), front_(other.front_), back_(other.back_) {
    other.device_ = nullptr;
  }
  PingPong& operator=(PingPong&&) = delete;

  gpusim::TextureHandle front() const { return front_; }  ///< current source
  gpusim::TextureHandle back() const { return back_; }    ///< current target
  void swap() { std::swap(front_, back_); }

 private:
  gpusim::Device* device_;
  gpusim::TextureHandle front_;
  gpusim::TextureHandle back_;
};

}  // namespace hs::stream
