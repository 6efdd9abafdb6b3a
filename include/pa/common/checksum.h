#pragma once
/// \file checksum.h
/// \brief The byte path's two integrity primitives: CRC-32C for frames,
/// journal records and store chunks, and XXH64 for object content ids.
///
/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78, init and final
/// xor 0xFFFFFFFF) is the one checksum of the tree. On x86 CPUs with
/// SSE4.2 it runs on the `crc32` instruction, chosen once at run time, so
/// no build flag changes; every other CPU runs the portable slicing-by-8
/// loop, which also serves as the reference the hardware path is tested
/// against. Check value: crc32c("123456789") == 0xE3069283.
///
/// XXH64 (seed 0) is the store's content hash. Xxh64 is its streaming
/// form: bytes fed in pieces of any size give the same digest as one
/// whole-buffer call, so a streaming put names an object exactly like a
/// one-shot put of the same bytes. Neither primitive is cryptographic:
/// they catch corruption and confusion, not adversaries.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pa {

/// CRC-32C of `size` bytes at `data`; the hardware path when the CPU has
/// one, else crc32c_portable.
std::uint32_t crc32c(const void* data, std::size_t size);

/// Slicing-by-8 CRC-32C: the path on CPUs without SSE4.2 and the
/// reference the hardware path must equal.
std::uint32_t crc32c_portable(const void* data, std::size_t size);

/// Streaming XXH64 with seed 0. Not thread-safe; one hasher per byte
/// stream.
class Xxh64 {
 public:
  Xxh64();

  void update(const void* data, std::size_t size);
  void update(std::string_view bytes) { update(bytes.data(), bytes.size()); }

  /// Digest of every byte fed so far; the hasher stays usable.
  std::uint64_t digest() const;

  /// One-shot digest of a whole buffer.
  static std::uint64_t hash(std::string_view bytes);

 private:
  std::uint64_t lanes_[4];
  std::uint64_t total_ = 0;
  unsigned char stripe_[32];  ///< a partial 32-byte stripe
  std::size_t buffered_ = 0;
};

}  // namespace pa
