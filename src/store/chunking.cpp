#include "pa/store/chunking.h"

#include <algorithm>

namespace pa::store {

std::string content_id(const std::string& bytes) {
  // Not cryptographic — the store defends against corruption (CRC + hash
  // re-check on assembly), not adversaries.
  return object_id_from_hash(Xxh64::hash(bytes));
}

std::string object_id_from_hash(std::uint64_t hash) {
  static const char* hex = "0123456789abcdef";
  std::string id = "o";
  for (int shift = 60; shift >= 0; shift -= 4) {
    id.push_back(hex[(hash >> shift) & 0xF]);
  }
  return id;
}

bool is_object_id(const std::string& id) {
  if (id.size() != 17 || id[0] != 'o') {
    return false;
  }
  return std::all_of(id.begin() + 1, id.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

std::uint32_t chunk_count_for(std::uint64_t total_bytes,
                              std::size_t chunk_bytes) {
  if (total_bytes == 0) {
    return 0;
  }
  return static_cast<std::uint32_t>((total_bytes + chunk_bytes - 1) /
                                    chunk_bytes);
}

std::vector<Chunk> split_chunks(const std::string& bytes,
                                std::size_t chunk_bytes) {
  std::vector<Chunk> chunks;
  chunks.reserve(chunk_count_for(bytes.size(), chunk_bytes));
  for (std::size_t pos = 0; pos < bytes.size(); pos += chunk_bytes) {
    Chunk c;
    c.data = bytes.substr(pos, chunk_bytes);
    c.crc = chunk_crc(c.data);
    chunks.push_back(std::move(c));
  }
  return chunks;
}

std::string join_chunks(const std::vector<Chunk>& chunks) {
  std::size_t total = 0;
  for (const Chunk& c : chunks) {
    total += c.data.size();
  }
  std::string bytes;
  bytes.reserve(total);
  for (const Chunk& c : chunks) {
    bytes.append(c.data);
  }
  return bytes;
}

}  // namespace pa::store
