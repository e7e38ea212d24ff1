#include "stream/stream.hpp"

#include "util/assert.hpp"

namespace hs::stream {

BandStack::BandStack(gpusim::Device& device, int width, int height, int bands,
                     gpusim::AddressMode address, gpusim::TextureFormat format)
    : device_(&device), width_(width), height_(height), bands_(bands), format_(format) {
  HS_ASSERT(width > 0 && height > 0 && bands > 0);
  HS_ASSERT_MSG(gpusim::channels_of(format) == 4,
                "band stacks need a four-channel format");
  const int groups = band_group_count(bands);
  textures_.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    textures_.push_back(device.create_texture(width, height, format, address));
  }
}

BandStack::~BandStack() {
  if (device_ == nullptr) return;
  for (auto handle : textures_) device_->destroy_texture(handle);
}

BandStack::BandStack(BandStack&& other) noexcept
    : device_(other.device_),
      width_(other.width_),
      height_(other.height_),
      bands_(other.bands_),
      format_(other.format_),
      textures_(std::move(other.textures_)) {
  other.device_ = nullptr;
  other.textures_.clear();
}

void BandStack::upload(const float* origin, std::ptrdiff_t x_stride,
                       std::ptrdiff_t y_stride, std::ptrdiff_t band_stride) {
  device_->upload(textures_, origin, x_stride, y_stride, band_stride, bands_);
}

std::uint64_t BandStack::size_bytes() const {
  return static_cast<std::uint64_t>(groups()) * static_cast<std::uint64_t>(width_) *
         static_cast<std::uint64_t>(height_) * gpusim::bytes_per_texel(format_);
}

PingPong::PingPong(gpusim::Device& device, int width, int height,
                   gpusim::TextureFormat format, gpusim::AddressMode address)
    : device_(&device),
      front_(device.create_texture(width, height, format, address)),
      back_(device.create_texture(width, height, format, address)) {}

PingPong::~PingPong() {
  if (device_ == nullptr) return;
  device_->destroy_texture(front_);
  device_->destroy_texture(back_);
}

}  // namespace hs::stream
