#pragma once

#include <cstdint>
#include <string>

namespace pa::net {

inline constexpr std::uint8_t kProtocolVersion = 2;

enum class MessageType : std::uint8_t {
  kPing = 1,  ///< liveness probe
  kData = 2,  ///< payload frame
};

const char* to_string(MessageType t);

struct Message {
  MessageType type = MessageType::kPing;
  std::uint64_t seq = 0;
  double timestamp = 0.0;
  std::string payload;
  std::uint32_t crc = 0;
};

}  // namespace pa::net
