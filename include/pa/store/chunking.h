#pragma once
/// \file chunking.h
/// \brief Content addressing and chunk framing for the pa::store data
/// plane.
///
/// Objects are immutable byte strings named by their content hash — the
/// Pilot-Data "data unit" made concrete. An object travels and rests as a
/// sequence of fixed-size chunks, each carrying its own CRC-32C
/// (pa/common/checksum.h) computed at the source shard. The CRC
/// rides inside the wire frame and is stored next to the chunk at rest,
/// so one checksum covers the whole path: source memory -> wire -> peer
/// shard -> spill file -> read-back. Frame-level CRC (wire.h) only covers
/// the hop; the chunk CRC is what catches bytes corrupted at rest.
///
/// Chunks are sized well below net::kMaxFramePayloadBytes so a bulk
/// stage-in interleaves with heartbeats and unit batches on the same
/// connection instead of head-of-line-blocking them.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pa/common/checksum.h"

namespace pa::store {

/// Default chunk payload size: 256 KiB. Small enough that a chunk frame
/// never monopolizes a connection send queue (frame cap is 4 MiB), large
/// enough to amortize per-frame overhead on bulk transfers.
inline constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

/// One chunk of an object: payload plus the CRC-32C computed at the source.
struct Chunk {
  std::string data;
  std::uint32_t crc = 0;

  bool operator==(const Chunk&) const = default;
};

/// CRC-32C of a chunk payload (the checksum frames and the journal use).
inline std::uint32_t chunk_crc(const std::string& data) {
  return crc32c(data.data(), data.size());
}

/// Content hash of an object: XXH64 (seed 0) over the bytes, rendered as
/// "o" + 16 hex digits. Deterministic across runs and platforms, so the
/// same bytes always resolve to the same object id on every node — the
/// property that makes replicas interchangeable and caching safe.
std::string content_id(const std::string& bytes);

/// Renders an XXH64 digest as an object id ("o" + 16 hex). Streaming
/// writers feed their bytes through one pa::Xxh64 piece by piece and
/// still land on exactly content_id(whole).
std::string object_id_from_hash(std::uint64_t hash);

/// True when `id` has the shape content_id produces ("o" + 16 hex).
bool is_object_id(const std::string& id);

/// Number of chunks an object of `total_bytes` splits into. Zero-byte
/// objects occupy zero chunks.
std::uint32_t chunk_count_for(std::uint64_t total_bytes,
                              std::size_t chunk_bytes);

/// Splits `bytes` into CRC-stamped chunks of at most `chunk_bytes` each.
std::vector<Chunk> split_chunks(const std::string& bytes,
                                std::size_t chunk_bytes);

/// Reassembles chunks into the object bytes (no verification — callers
/// verify CRCs and the content hash before trusting the result).
std::string join_chunks(const std::vector<Chunk>& chunks);

}  // namespace pa::store
