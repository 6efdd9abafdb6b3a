#pragma once
/// The IEEE CRC-32 (reflected polynomial 0xEDB88320) that journal format 1
/// and wire protocol 5 checksummed with. Tests use it to hand-build files
/// and frames in those old formats and check that they are refused.

#include <cstddef>
#include <cstdint>

namespace pa::legacy_format {

inline std::uint32_t legacy_ieee_crc32(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace pa::legacy_format
