#include "pa/common/checksum.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pa {

namespace {

// ---- CRC-32C ---------------------------------------------------------------

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[k][b] is the CRC register after byte b followed by k zero bytes,
/// which lets the slicing loop fold eight input bytes per step.
constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0x82F63B78U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFU];
    }
  }
  return t;
}

constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

/// Register in, register out: no init or final xor here.
std::uint32_t crc32c_slice8(std::uint32_t crc, const unsigned char* p,
                            std::size_t n) {
  const auto& t = kCrc32cTables;
  while (n >= 8) {
    const std::uint64_t w = load_le64(p) ^ crc;
    crc = t[7][w & 0xFFU] ^ t[6][(w >> 8) & 0xFFU] ^
          t[5][(w >> 16) & 0xFFU] ^ t[4][(w >> 24) & 0xFFU] ^
          t[3][(w >> 32) & 0xFFU] ^ t[2][(w >> 40) & 0xFFU] ^
          t[1][(w >> 48) & 0xFFU] ^ t[0][w >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- != 0) {
    crc = t[0][(crc ^ *p++) & 0xFFU] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof(w));
    c = _mm_crc32_u64(c, w);
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (n-- != 0) {
    c32 = _mm_crc32_u8(c32, *p++);
  }
  return c32;
}
#endif

using Crc32cFn = std::uint32_t (*)(std::uint32_t, const unsigned char*,
                                   std::size_t);

Crc32cFn pick_crc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return crc32c_sse42;
  }
#endif
  return crc32c_slice8;
}

// ---- XXH64 -----------------------------------------------------------------

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kP2;
  acc = std::rotl(acc, 31);
  return acc * kP1;
}

std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t lane) {
  h ^= xxh_round(0, lane);
  return h * kP1 + kP4;
}

/// Folds whole 32-byte stripes into the four lanes; returns bytes used.
std::size_t xxh_stripes(std::uint64_t* lanes, const unsigned char* p,
                        std::size_t n) {
  std::uint64_t v0 = lanes[0];
  std::uint64_t v1 = lanes[1];
  std::uint64_t v2 = lanes[2];
  std::uint64_t v3 = lanes[3];
  std::size_t used = 0;
  for (; used + 32 <= n; used += 32) {
    v0 = xxh_round(v0, load_le64(p + used));
    v1 = xxh_round(v1, load_le64(p + used + 8));
    v2 = xxh_round(v2, load_le64(p + used + 16));
    v3 = xxh_round(v3, load_le64(p + used + 24));
  }
  lanes[0] = v0;
  lanes[1] = v1;
  lanes[2] = v2;
  lanes[3] = v3;
  return used;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size) {
  static const Crc32cFn fn = pick_crc32c();
  return ~fn(0xFFFFFFFFU, static_cast<const unsigned char*>(data), size);
}

std::uint32_t crc32c_portable(const void* data, std::size_t size) {
  return ~crc32c_slice8(0xFFFFFFFFU, static_cast<const unsigned char*>(data),
                        size);
}

Xxh64::Xxh64() : lanes_{kP1 + kP2, kP2, 0, 0 - kP1}, stripe_{} {}

void Xxh64::update(const void* data, std::size_t size) {
  if (size == 0) {
    return;  // data may be null for an empty view
  }
  const auto* p = static_cast<const unsigned char*>(data);
  total_ += size;
  if (buffered_ != 0) {
    const std::size_t take = std::min(size, sizeof(stripe_) - buffered_);
    std::memcpy(stripe_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    size -= take;
    if (buffered_ < sizeof(stripe_)) {
      return;
    }
    xxh_stripes(lanes_, stripe_, sizeof(stripe_));
    buffered_ = 0;
  }
  const std::size_t used = xxh_stripes(lanes_, p, size);
  if (used < size) {
    std::memcpy(stripe_, p + used, size - used);
    buffered_ = size - used;
  }
}

std::uint64_t Xxh64::digest() const {
  std::uint64_t h = 0;
  if (total_ >= sizeof(stripe_)) {
    h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
        std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (const std::uint64_t lane : lanes_) {
      h = xxh_merge(h, lane);
    }
  } else {
    h = kP5;
  }
  h += total_;
  const unsigned char* p = stripe_;
  std::size_t n = buffered_;
  for (; n >= 8; n -= 8, p += 8) {
    h ^= xxh_round(0, load_le64(p));
    h = std::rotl(h, 27) * kP1 + kP4;
  }
  if (n >= 4) {
    h ^= static_cast<std::uint64_t>(load_le32(p)) * kP1;
    h = std::rotl(h, 23) * kP2 + kP3;
    p += 4;
    n -= 4;
  }
  for (; n != 0; --n, ++p) {
    h ^= *p * kP5;
    h = std::rotl(h, 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::uint64_t Xxh64::hash(std::string_view bytes) {
  Xxh64 h;
  h.update(bytes);
  return h.digest();
}

}  // namespace pa
