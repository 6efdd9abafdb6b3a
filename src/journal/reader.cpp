#include "pa/journal/reader.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "pa/common/checksum.h"
#include "pa/common/error.h"

namespace pa::journal {

ReadResult scan(const char* data, std::size_t size) {
  ReadResult result;
  result.file_bytes = size;
  std::size_t pos = 0;
  std::uint64_t last_seq = 0;
  while (pos + kFrameHeaderBytes <= size) {
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    std::memcpy(&length, data + pos, sizeof(length));
    std::memcpy(&crc, data + pos + sizeof(length), sizeof(crc));
    if (length > kMaxPayloadBytes ||
        pos + kFrameHeaderBytes + length > size) {
      break;  // frame runs past EOF (partial write) or is garbage
    }
    const char* payload = data + pos + kFrameHeaderBytes;
    if (crc32c(payload, length) != crc) {
      break;  // corrupt payload
    }
    Record record;
    try {
      record = decode_payload(payload, length);
    } catch (const Error&) {
      break;  // CRC collided with undecodable bytes; treat as torn
    }
    if (record.seq <= last_seq) {
      break;  // sequence must strictly increase; stale/corrupt tail
    }
    last_seq = record.seq;
    result.records.push_back(std::move(record));
    pos += kFrameHeaderBytes + length;
  }
  result.valid_bytes = pos;
  result.torn = pos != size;
  return result;
}

ReadResult read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (::access(path.c_str(), F_OK) != 0) {
      return {};  // no journal yet — empty, not torn
    }
    throw Error("cannot read journal " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  if (bytes.size() < kFileHeaderBytes) {
    // Crashed while creating the file: nothing was ever committed.
    ReadResult result;
    result.file_bytes = bytes.size();
    result.torn = !bytes.empty();
    return result;
  }
  check_file_header(bytes.data(), path);
  ReadResult result = scan(bytes.data() + kFileHeaderBytes,
                           bytes.size() - kFileHeaderBytes);
  result.valid_bytes += kFileHeaderBytes;
  result.file_bytes += kFileHeaderBytes;
  return result;
}

void truncate_file(const std::string& path, std::uint64_t bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(bytes)) != 0) {
    throw Error("cannot truncate " + path + " to " + std::to_string(bytes) +
                " bytes: " + errno_message(errno));
  }
}

ReadResult dump_jsonl(const std::string& path, std::ostream& out) {
  ReadResult result = read_journal(path);
  for (const Record& record : result.records) {
    write_jsonl(out, record);
  }
  return result;
}

}  // namespace pa::journal
