#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "../legacy_crc32.h"
#include "pa/common/checksum.h"
#include "pa/common/error.h"
#include "pa/net/wire.h"

namespace pa::net {
namespace {

std::string frame_of(const std::string& payload) {
  std::string out;
  append_frame(out, payload);
  return out;
}

// Feeds `stream` one byte at a time and collects every decoded payload.
std::vector<std::string> decode_bytewise(const std::string& stream,
                                         FrameDecoder& decoder) {
  std::vector<std::string> payloads;
  for (char c : stream) {
    decoder.feed(&c, 1);
    std::string payload;
    while (decoder.next(payload) == FrameDecoder::Status::kFrame) {
      payloads.push_back(payload);
    }
  }
  return payloads;
}

TEST(Wire, RoundTripSingleFrame) {
  const std::string payload = "hello, agent";
  std::string stream = frame_of(payload);
  EXPECT_EQ(stream.size(), kFrameHeaderBytes + payload.size());

  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  std::string out;
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kNeedMore);
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Wire, FrameChecksumIsCrc32c) {
  const std::string payload = "123456789";
  const std::string stream = frame_of(payload);
  std::uint32_t crc = 0;
  std::memcpy(&crc, stream.data() + sizeof(std::uint32_t), sizeof(crc));
  EXPECT_EQ(crc, 0xE3069283u);
  EXPECT_EQ(crc, crc32c(payload.data(), payload.size()));
}

// A protocol-5 peer framed with the IEEE CRC-32; its first frame must be
// refused at the frame layer, before any payload byte is trusted.
TEST(Wire, FrameWithLegacyIeeeCrcIsRejected) {
  const std::string payload = "kHello from a protocol-5 agent";
  const auto length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc =
      legacy_format::legacy_ieee_crc32(payload.data(), payload.size());
  std::string stream;
  stream.append(reinterpret_cast<const char*>(&length), sizeof(length));
  stream.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  stream.append(payload);

  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  std::string out;
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kError);
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("CRC"), std::string::npos) << decoder.error();
  EXPECT_TRUE(out.empty());
}

TEST(Wire, EmptyPayloadRoundTrips) {
  std::string stream = frame_of("");
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  std::string out = "sentinel";
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, "");
}

TEST(Wire, MultipleFramesInOneChunk) {
  std::string stream;
  for (int i = 0; i < 10; ++i) {
    append_frame(stream, "payload-" + std::to_string(i));
  }
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  std::string out;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(decoder.next(out), FrameDecoder::Status::kFrame) << i;
    EXPECT_EQ(out, "payload-" + std::to_string(i));
  }
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kNeedMore);
}

TEST(Wire, ByteAtATimeDelivery) {
  std::string stream;
  std::vector<std::string> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(std::string(1 + i * 37, static_cast<char>('a' + i)));
    append_frame(stream, sent.back());
  }
  FrameDecoder decoder;
  EXPECT_EQ(decode_bytewise(stream, decoder), sent);
  EXPECT_FALSE(decoder.failed());
}

// Satellite 3: a stream cut at EVERY possible byte position yields the
// complete frames before the cut and kNeedMore after — never an error,
// never a crash.
TEST(Wire, TruncationAtEveryByteIsNeedMore) {
  std::string stream;
  append_frame(stream, "first");
  append_frame(stream, std::string(300, 'x'));
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(stream.data(), cut);
    std::string out;
    std::size_t frames = 0;
    while (decoder.next(out) == FrameDecoder::Status::kFrame) {
      ++frames;
    }
    EXPECT_FALSE(decoder.failed()) << "cut at " << cut;
    // Exactly the frames whose full bytes fit before the cut.
    const std::size_t first_end = kFrameHeaderBytes + 5;
    const std::size_t expect =
        cut >= stream.size() ? 2 : (cut >= first_end ? 1 : 0);
    EXPECT_EQ(frames, expect) << "cut at " << cut;
  }
}

// Satellite 3: corrupting ANY single byte of a frame is detected — either
// as a CRC mismatch or as a bogus header — and the decoder latches the
// error rather than crashing or resyncing.
TEST(Wire, CorruptionAtEveryByteIsDetectedOrSafe) {
  const std::string payload = "corruption target payload";
  const std::string clean = frame_of(payload);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string dirty = clean;
    dirty[i] = static_cast<char>(dirty[i] ^ 0x5a);
    FrameDecoder decoder;
    decoder.feed(dirty.data(), dirty.size());
    std::string out;
    FrameDecoder::Status status = decoder.next(out);
    // Flipping a length byte can make the declared length larger than the
    // available bytes (kNeedMore, caught by the peer's liveness layer) or
    // absurd (kError); flipping CRC or payload must be kError. A byte flip
    // must never round-trip to a "valid" frame with the original length.
    if (status == FrameDecoder::Status::kFrame) {
      ADD_FAILURE() << "flip at " << i << " yielded a valid frame";
    } else if (status == FrameDecoder::Status::kError) {
      EXPECT_TRUE(decoder.failed());
      EXPECT_FALSE(decoder.error().empty());
    } else {
      // kNeedMore is only reachable via a length flip.
      EXPECT_LT(i, 4u) << "flip at " << i;
    }
  }
}

TEST(Wire, OversizedDeclaredLengthFailsWithoutAllocating) {
  std::string stream;
  const std::uint32_t huge = kMaxFramePayloadBytes + 1;
  stream.append(reinterpret_cast<const char*>(&huge), 4);
  stream.append(4, '\0');  // CRC, never reached
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  std::string out;
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kError);
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("oversized"), std::string::npos);
}

TEST(Wire, ErrorLatchesAndFeedBecomesNoOp) {
  std::string bad = frame_of("payload");
  bad[5] = static_cast<char>(bad[5] ^ 0xff);  // corrupt CRC
  FrameDecoder decoder;
  decoder.feed(bad.data(), bad.size());
  std::string out;
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kError);

  // A perfectly good frame after the error must NOT resurrect the stream.
  std::string good = frame_of("good");
  decoder.feed(good.data(), good.size());
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kError);
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Wire, RandomGarbageNeverCrashes) {
  // Deterministic pseudo-garbage; the decoder must fail or wait, only.
  std::uint32_t state = 0x1234567u;
  std::string garbage;
  for (int i = 0; i < 4096; ++i) {
    state = state * 1664525u + 1013904223u;
    garbage.push_back(static_cast<char>(state >> 24));
  }
  FrameDecoder decoder;
  decoder.feed(garbage.data(), garbage.size());
  std::string out;
  while (decoder.next(out) == FrameDecoder::Status::kFrame) {
    // A lucky valid frame in garbage is astronomically unlikely but legal.
  }
  SUCCEED();
}

TEST(Wire, AppendFrameRejectsOversizedPayload) {
  std::string out;
  std::string big(kMaxFramePayloadBytes + 1, 'x');
  EXPECT_THROW(append_frame(out, big), pa::InvalidArgument);
  EXPECT_TRUE(out.empty());
}

TEST(Wire, MaxSizePayloadRoundTrips) {
  std::string payload(64 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131);
  }
  std::string stream = frame_of(payload);
  FrameDecoder decoder;
  // Feed in 1000-byte chunks to exercise partial-header + partial-payload.
  for (std::size_t off = 0; off < stream.size(); off += 1000) {
    decoder.feed(stream.data() + off, std::min<std::size_t>(1000, stream.size() - off));
  }
  std::string out;
  EXPECT_EQ(decoder.next(out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, payload);
}

}  // namespace
}  // namespace pa::net
