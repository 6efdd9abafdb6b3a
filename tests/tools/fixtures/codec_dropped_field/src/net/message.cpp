#include "pa/net/message.h"

#include <cstring>
#include <stdexcept>

namespace pa::net {
namespace {

void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);
void put_string(std::string& out, const std::string& s);

struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;
  template <typename T>
  T take();
  std::string take_string();
};

}  // namespace

const char* to_string(MessageType t) {
  switch (t) {
    case MessageType::kPing:
      return "ping";
    case MessageType::kData:
      return "data";
  }
  return "unknown";
}

void encode_message_into(std::string& out, const Message& m) {
  put_u8(out, kProtocolVersion);
  put_u8(out, static_cast<std::uint8_t>(m.type));
  put_u64(out, m.seq);
  switch (m.type) {
    case MessageType::kPing:
      put_f64(out, m.timestamp);
      break;
    case MessageType::kData:
      put_string(out, m.payload);
      put_u32(out, m.crc);
      break;
  }
}

Message decode_message(const char* data, std::size_t size) {
  Cursor c{data, size};
  Message m;
  const auto version = c.take<std::uint8_t>();
  if (version != kProtocolVersion) {
    throw std::runtime_error("unsupported protocol version");
  }
  const auto type = c.take<std::uint8_t>();
  m.type = static_cast<MessageType>(type);
  m.seq = c.take<std::uint64_t>();
  switch (m.type) {
    case MessageType::kPing:
      m.timestamp = c.take<double>();
      break;
    case MessageType::kData:
      m.payload = c.take_string();
      break;
  }
  return m;
}

}  // namespace pa::net
