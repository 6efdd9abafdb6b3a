#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "pa/common/checksum.h"
#include "pa/common/rng.h"

namespace pa {
namespace {

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>(rng.next_u64() & 0xFFU);
  }
  return s;
}

TEST(Crc32c, CheckValues) {
  EXPECT_EQ(crc32c("", 0), 0u);
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c_portable("", 0), 0u);
  EXPECT_EQ(crc32c_portable("123456789", 9), 0xE3069283u);
  // RFC 3720 (iSCSI) B.4 vectors: 32 bytes of 0x00 and of 0xFF.
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xFF');
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(crc32c_portable(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(crc32c_portable(ones.data(), ones.size()), 0x62A8AB43u);
}

// On a CPU with SSE4.2 crc32c() runs the crc32 instruction; it must equal
// the slicing-by-8 reference at every length and every misalignment.
TEST(Crc32c, DispatchedPathMatchesSlicingBy8) {
  const std::string buf = random_bytes(1100 + 8, 14);
  int mismatches = 0;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const char* p = buf.data() + offset;
      if (crc32c(p, len) != crc32c_portable(p, len)) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
        if (++mismatches > 10) {
          return;
        }
      }
    }
  }
}

TEST(Xxh64, KnownVectors) {
  EXPECT_EQ(Xxh64::hash(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Xxh64::hash("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(Xxh64::hash("abc"), 0x44BC2CF5AD770999ULL);
  // 39 bytes: one full 32-byte stripe plus a tail.
  EXPECT_EQ(Xxh64::hash("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
}

TEST(Xxh64, StreamingMatchesOneShotAtAnySplit) {
  const std::string bytes = random_bytes(3000, 7);
  const std::uint64_t whole = Xxh64::hash(bytes);

  Xxh64 bytewise;
  for (const char c : bytes) {
    bytewise.update(&c, 1);
  }
  EXPECT_EQ(bytewise.digest(), whole);

  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    Xxh64 h;
    std::size_t at = 0;
    while (at < bytes.size()) {
      const auto take = static_cast<std::size_t>(rng.uniform_int(0, 97));
      const std::size_t n = std::min(take, bytes.size() - at);
      h.update(bytes.data() + at, n);
      at += n;
    }
    ASSERT_EQ(h.digest(), whole) << "trial " << trial;
  }
}

TEST(Xxh64, DigestLeavesHasherUsable) {
  Xxh64 h;
  h.update("Nobody inspects ");
  EXPECT_EQ(h.digest(), Xxh64::hash("Nobody inspects "));
  h.update("the spammish repetition");
  EXPECT_EQ(h.digest(), 0xFBCEA83C8A378BF1ULL);
}

}  // namespace
}  // namespace pa
