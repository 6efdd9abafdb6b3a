#pragma once
/// \file wire.h
/// \brief Byte-stream framing for pa::net: length-prefixed, CRC-32C-
/// checked frames plus an incremental decoder that survives arbitrary
/// packet boundaries.
///
/// Frame layout (little-endian, the same as a journal record's):
///
///     u32 payload_length | u32 crc32c(payload) | payload bytes
///
/// The CRC is the tree's one CRC-32C (pa/common/checksum.h). A frame from
/// a peer checksumming with any other CRC fails the check and is refused.
/// Unlike the journal — where a bad frame marks the torn tail of a crashed
/// writer and everything before it is kept — a bad frame on a *stream* has
/// no trustworthy resynchronization point (the peer is either buggy or
/// malicious, and scanning forward for a plausible header can alias into
/// payload bytes). The decoder therefore latches a fatal error and the
/// connection must be closed cleanly; the reconnect layer re-establishes a
/// fresh stream.

#include <cstddef>
#include <cstdint>
#include <string>

namespace pa::net {

/// Bytes of the `length | crc` frame header.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Upper bound on a sane message payload. Larger declared lengths mark a
/// corrupt (or hostile) frame: the decoder fails instead of allocating.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 4U * 1024U * 1024U;

/// Appends `length | crc | payload` to `out`. Throws pa::InvalidArgument
/// when the payload exceeds kMaxFramePayloadBytes.
void append_frame(std::string& out, const std::string& payload);

/// Zero-copy framing: `begin_frame` appends a placeholder header and
/// returns the body offset; the caller encodes the payload directly into
/// `out` (no intermediate payload string) and `end_frame` backpatches the
/// length and CRC over the placeholder. Frames built this way are byte-
/// identical to `append_frame` output. The pair is the arena-backed
/// encode path: callers keep a reusable buffer, chain
/// begin/encode/end per message, and hand the whole multi-frame gather
/// to `Connection::send_gather` in one call.
///
///     std::string& arena = ...;            // capacity retained across uses
///     const std::size_t body = begin_frame(arena);
///     encode_message_into(arena, message); // message.h
///     end_frame(arena, body);
///
/// `end_frame` throws pa::InvalidArgument when the encoded body exceeds
/// kMaxFramePayloadBytes.
std::size_t begin_frame(std::string& out);
void end_frame(std::string& out, std::size_t body_start);

/// Incremental frame parser. Feed it byte chunks exactly as they arrive
/// from a socket (any fragmentation, including one byte at a time); poll
/// `next` for completed payloads. Never throws, never crashes on garbage:
/// malformed input latches `failed()` and the stream must be dropped.
class FrameDecoder {
 public:
  enum class Status {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< one payload extracted into the out-parameter
    kError,     ///< stream corrupt; failed() is now permanently true
  };

  /// Appends raw stream bytes. No-op after a fatal error.
  void feed(const char* data, std::size_t size);

  /// Extracts the next complete frame's payload. Call in a loop until it
  /// stops returning kFrame.
  Status next(std::string& payload);

  bool failed() const { return failed_; }
  /// Human-readable reason once failed() is true.
  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed by a completed frame.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  Status fail(const std::string& reason);

  std::string buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already parsed
  bool failed_ = false;
  std::string error_;
};

}  // namespace pa::net
