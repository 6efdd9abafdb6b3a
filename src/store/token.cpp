#include "pa/store/token.h"

#include <cstring>

namespace pa::store {

namespace {

// FNV-1a 64 parameters; the MAC is this file's only FNV user.
constexpr std::uint64_t kFnv64Basis = 14695981039346656037ULL;
constexpr std::uint64_t kFnv64Prime = 1099511628211ULL;

// Strings are length-prefixed before hashing so mac(key, fields) never
// collides with mac(key', fields) for a different-length key sharing a
// byte prefix.
void mix_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv64Prime;
  }
}

void mix_string(std::uint64_t& h, const std::string& s) {
  const auto n = static_cast<std::uint32_t>(s.size());
  mix_bytes(h, &n, sizeof(n));
  mix_bytes(h, s.data(), s.size());
}

}  // namespace

std::uint64_t token_mac(const TransferToken& t, const std::string& key) {
  std::uint64_t h = kFnv64Basis;
  mix_string(h, key);
  mix_string(h, t.object_id);
  mix_bytes(h, &t.transfer_id, sizeof(t.transfer_id));
  mix_bytes(h, &t.object_bytes, sizeof(t.object_bytes));
  mix_string(h, t.source_pilot);
  mix_string(h, t.dest_pilot);
  mix_bytes(h, &t.chunk_begin, sizeof(t.chunk_begin));
  mix_bytes(h, &t.chunk_end, sizeof(t.chunk_end));
  std::uint64_t deadline_bits = 0;
  std::memcpy(&deadline_bits, &t.deadline, sizeof(deadline_bits));
  mix_bytes(h, &deadline_bits, sizeof(deadline_bits));
  mix_bytes(h, &t.nonce, sizeof(t.nonce));
  return h;
}

bool token_valid(const TransferToken& token, const std::string& key,
                 std::uint64_t mac) {
  return token_mac(token, key) == mac;
}

void token_to_message(const TransferToken& t, std::uint64_t mac,
                      net::Message& m) {
  m.object_id = t.object_id;
  m.transfer_id = t.transfer_id;
  m.object_bytes = t.object_bytes;
  m.source_pilot = t.source_pilot;
  m.dest_pilot = t.dest_pilot;
  m.chunk_begin = t.chunk_begin;
  m.chunk_end = t.chunk_end;
  m.deadline = t.deadline;
  m.nonce = t.nonce;
  m.mac = mac;
}

TransferToken token_from_message(const net::Message& m) {
  TransferToken t;
  t.object_id = m.object_id;
  t.transfer_id = m.transfer_id;
  t.object_bytes = m.object_bytes;
  t.source_pilot = m.source_pilot;
  t.dest_pilot = m.dest_pilot;
  t.chunk_begin = m.chunk_begin;
  t.chunk_end = m.chunk_end;
  t.deadline = m.deadline;
  t.nonce = m.nonce;
  return t;
}

}  // namespace pa::store
