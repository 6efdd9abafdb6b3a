#include "pa/net/wire.h"

#include <cstring>

#include "pa/common/checksum.h"
#include "pa/common/error.h"

namespace pa::net {

void append_frame(std::string& out, const std::string& payload) {
  PA_REQUIRE_ARG(payload.size() <= kMaxFramePayloadBytes,
                 "net frame payload too large: " << payload.size() << " > "
                                                 << kMaxFramePayloadBytes);
  const auto length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32c(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&length), sizeof(length));
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.append(payload);
}

std::size_t begin_frame(std::string& out) {
  out.append(kFrameHeaderBytes, '\0');
  return out.size();
}

void end_frame(std::string& out, std::size_t body_start) {
  PA_REQUIRE_ARG(body_start >= kFrameHeaderBytes && body_start <= out.size(),
                 "end_frame: body_start " << body_start
                                          << " outside buffer of "
                                          << out.size() << " bytes");
  const std::size_t body_size = out.size() - body_start;
  PA_REQUIRE_ARG(body_size <= kMaxFramePayloadBytes,
                 "net frame payload too large: " << body_size << " > "
                                                 << kMaxFramePayloadBytes);
  const auto length = static_cast<std::uint32_t>(body_size);
  const std::uint32_t crc = crc32c(out.data() + body_start, body_size);
  char* head = out.data() + (body_start - kFrameHeaderBytes);
  std::memcpy(head, &length, sizeof(length));
  std::memcpy(head + sizeof(length), &crc, sizeof(crc));
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  if (failed_ || size == 0) {
    return;
  }
  // Drop the consumed prefix before growing the buffer, so steady-state
  // memory is one partial frame, not the whole connection history.
  if (consumed_ > 0) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

FrameDecoder::Status FrameDecoder::fail(const std::string& reason) {
  failed_ = true;
  error_ = reason;
  buffer_.clear();
  consumed_ = 0;
  return Status::kError;
}

FrameDecoder::Status FrameDecoder::next(std::string& payload) {
  if (failed_) {
    return Status::kError;
  }
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) {
    return Status::kNeedMore;
  }
  const char* head = buffer_.data() + consumed_;
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  std::memcpy(&length, head, sizeof(length));
  std::memcpy(&crc, head + sizeof(length), sizeof(crc));
  if (length > kMaxFramePayloadBytes) {
    return fail("frame declares oversized payload (" + std::to_string(length) +
                " bytes)");
  }
  if (avail < kFrameHeaderBytes + length) {
    return Status::kNeedMore;
  }
  const char* body = head + kFrameHeaderBytes;
  if (crc32c(body, length) != crc) {
    return fail("frame CRC mismatch");
  }
  payload.assign(body, length);
  consumed_ += kFrameHeaderBytes + length;
  return Status::kFrame;
}

}  // namespace pa::net
