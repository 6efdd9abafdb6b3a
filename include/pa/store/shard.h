#pragma once
/// \file shard.h
/// \brief One node's slice of the distributed object store: an LRU memory
/// tier over an optional spill-to-disk tier, all reads CRC-verified.
///
/// Every AgentEndpoint hosts one Shard; the manager hosts one more (the
/// "origin" shard where application put() lands and pulled objects are
/// cached). Objects are stored as the chunk sequences they travel as
/// (chunking.h), each chunk keeping the CRC computed at its source — a
/// read that fails CRC is treated as *absence*, never silently returned:
/// the shard drops the corrupt object, counts it, and lets the replication
/// layer re-fetch from another replica.
///
/// Eviction: when the resident bytes exceed `memory_capacity_bytes`, the
/// least-recently-used objects are spilled to `spill_dir` (one file per
/// object, chunk layout + CRCs preserved) or, with no spill dir, dropped —
/// dropped ids are reported back to the caller so the agent can tell the
/// manager its replica is gone (the directory stays honest, affinity
/// never chases evicted bytes). A spilled object is promoted back to the
/// memory tier on first read; its spill file is kept, so re-evicting it
/// later is free.
///
/// Spill hygiene: a freshly constructed shard owns no objects, so any
/// spill or stream-temp file found in `spill_dir` is an orphan left by a
/// prior incarnation — the constructor sweeps them, guaranteeing stale
/// bytes can never be resurrected into a new directory epoch and dead
/// files never accumulate across restarts. erase() removes the spill file
/// with the entry for the same reason.
///
/// Streaming put (StreamWriter): an object larger than the memory budget
/// flows chunk-by-chunk straight into a spill file — peak memory is one
/// chunk, the content hash is computed incrementally, and the finished
/// object lands non-resident/on-disk. Single-chunk reads (chunk_at) serve
/// transfers from either tier without promoting spilled objects, so a
/// node serving peers never evicts its own working set.
///
/// Threading: one mutex (LockRank::kStoreChunkMap) guards the chunk map
/// and LRU bookkeeping. Spill I/O happens under it — acceptable for a
/// data plane whose callers are transfer threads, never the control
/// plane. The shard never calls out while locked (no sends, no
/// callbacks), keeping it a near-leaf in the lock hierarchy.

#include <atomic>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/store/chunking.h"

namespace pa::store {

class StreamWriter;

struct ShardConfig {
  /// Resident (memory-tier) byte budget; 0 = unlimited, never evict.
  std::uint64_t memory_capacity_bytes = 0;
  /// Directory for spill files; empty = evicted objects are dropped.
  std::string spill_dir;
  /// Chunk payload size used when splitting whole-object puts.
  std::size_t chunk_bytes = kDefaultChunkBytes;
};

struct ShardStats {
  std::uint64_t puts = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;     ///< objects pushed out of the memory tier
  std::uint64_t spills = 0;        ///< spill files written (evict + stream)
  std::uint64_t spill_loads = 0;   ///< promotions back from disk
  std::uint64_t crc_failures = 0;  ///< corrupt reads rejected (and dropped)
  std::uint64_t dropped = 0;       ///< evictions with nowhere to spill
  std::uint64_t resident_bytes = 0;
  std::uint64_t spilled_bytes = 0;  ///< bytes whose only copy is on disk
  std::uint64_t objects = 0;
};

/// Result of a put: the content id, whether the bytes were accepted
/// (false = CRC/hash verification failed), and any object ids this put
/// evicted *without* a spill copy — those replicas no longer exist here
/// and the owner must announce the loss.
struct PutResult {
  std::string object_id;
  bool stored = false;
  std::vector<std::string> dropped;
};

class Shard {
 public:
  explicit Shard(ShardConfig config = {});

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Content-addressed put: hashes, chunks, stores. Idempotent — putting
  /// bytes already present refreshes recency and returns the same id.
  PutResult put(std::string bytes) PA_EXCLUDES(mutex_);

  /// Put under a caller-supplied id; rejected (stored = false) unless
  /// `object_id` equals content_id(bytes).
  PutResult put_as(const std::string& object_id, std::string bytes)
      PA_EXCLUDES(mutex_);

  /// Put from wire chunks: verifies every chunk CRC and the assembled
  /// content hash before admitting the object.
  PutResult put_chunks(const std::string& object_id,
                       std::vector<Chunk> chunks, std::uint64_t total_bytes)
      PA_EXCLUDES(mutex_);

  /// Begins a streaming put. Bytes appended to the returned writer flow
  /// chunk-by-chunk into a spill temp file, so an object larger than the
  /// memory budget is stored without ever being materialized whole; the
  /// writer's finish() registers it under its content id (non-resident,
  /// on-disk). With no spill dir configured the chunks accumulate in
  /// memory instead and finish() admits them like put_chunks.
  StreamWriter stream_writer();

  /// CRC-verified whole-object read; loads from spill when not resident.
  /// Corruption anywhere returns nullopt (the object is dropped and
  /// counted in crc_failures).
  std::optional<std::string> get(const std::string& object_id)
      PA_EXCLUDES(mutex_);

  /// CRC-verified chunk-sequence read (the transfer source path).
  std::optional<std::vector<Chunk>> chunks_of(const std::string& object_id)
      PA_EXCLUDES(mutex_);

  /// CRC-verified single-chunk read: the peer/streaming source path.
  /// Resident chunks are copied; spilled chunks are read by scanning the
  /// spill file *without* promoting the object to the memory tier, so a
  /// node serving a transfer never evicts its working set to do it.
  /// nullopt = absent, out of range, or corrupt (corrupt drops the
  /// object, like get()).
  std::optional<Chunk> chunk_at(const std::string& object_id,
                                std::uint32_t index) PA_EXCLUDES(mutex_);

  /// (chunk count, total bytes) of a held object, touching no data and
  /// no tier state. nullopt when the object is not here.
  std::optional<std::pair<std::uint32_t, std::uint64_t>> chunk_meta(
      const std::string& object_id) const PA_EXCLUDES(mutex_);

  bool contains(const std::string& object_id) const PA_EXCLUDES(mutex_);
  std::uint64_t object_bytes(const std::string& object_id) const
      PA_EXCLUDES(mutex_);
  bool erase(const std::string& object_id) PA_EXCLUDES(mutex_);
  std::vector<std::string> objects() const PA_EXCLUDES(mutex_);
  ShardStats stats() const PA_EXCLUDES(mutex_);

  std::size_t chunk_bytes() const { return config_.chunk_bytes; }

 private:
  friend class StreamWriter;

  struct Entry {
    std::vector<Chunk> chunks;  ///< empty when not resident
    std::uint64_t total = 0;
    std::uint32_t count = 0;
    std::uint64_t last_use = 0;
    bool resident = false;
    bool on_disk = false;  ///< a spill file exists (kept after promotion)
  };

  PutResult admit(const std::string& object_id, std::vector<Chunk> chunks,
                  std::uint64_t total) PA_EXCLUDES(mutex_);
  /// Registers a finished stream: renames its temp file over the spill
  /// path and records the entry non-resident/on-disk.
  PutResult admit_stream(const std::string& object_id,
                         const std::string& temp_path, std::uint64_t total,
                         std::uint32_t count) PA_EXCLUDES(mutex_);
  /// Scan-reads one chunk out of a spill file; no tier state changes.
  std::optional<Chunk> read_chunk_from_disk(const std::string& object_id,
                                            const Entry& e,
                                            std::uint32_t index) const
      PA_REQUIRES(mutex_);
  /// Evicts LRU residents (sparing `keep`) until within budget; returns
  /// ids dropped without a spill copy.
  std::vector<std::string> evict_to_fit(const std::string& keep)
      PA_REQUIRES(mutex_);
  bool verify(const Entry& e) const PA_REQUIRES(mutex_);
  /// Drops a corrupt object (memory + spill file), counts the failure.
  void discard_corrupt(const std::string& object_id) PA_REQUIRES(mutex_);
  bool load_from_disk(const std::string& object_id, Entry& e)
      PA_REQUIRES(mutex_);
  bool write_spill(const std::string& object_id, const Entry& e)
      PA_REQUIRES(mutex_);
  std::string spill_path(const std::string& object_id) const;

  const ShardConfig config_;

  mutable check::Mutex mutex_{check::LockRank::kStoreChunkMap,
                              "store::Shard"};
  std::map<std::string, Entry> entries_ PA_GUARDED_BY(mutex_);
  std::uint64_t use_clock_ PA_GUARDED_BY(mutex_) = 0;
  std::uint64_t resident_bytes_ PA_GUARDED_BY(mutex_) = 0;
  ShardStats stats_ PA_GUARDED_BY(mutex_);
  /// Names stream temp files uniquely; outside mutex_ (writers never
  /// touch the chunk map until finish()).
  std::atomic<std::uint64_t> stream_seq_{0};
};

/// Incremental writer handed out by Shard::stream_writer(). Append bytes
/// in pieces of any size; each full chunk is CRC-stamped and written
/// straight to a temp spill file, so peak memory is one chunk no matter
/// how large the object grows. finish() patches the spill header, renames
/// the file under the computed content id and registers the object with
/// the shard. A writer dropped without finish() removes its temp file.
/// Not thread-safe — one writer, one stream.
class StreamWriter {
 public:
  ~StreamWriter();
  StreamWriter(StreamWriter&& other) noexcept;
  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;
  StreamWriter& operator=(StreamWriter&&) = delete;

  /// Feeds bytes into the stream; full chunks flush to disk immediately.
  void append(std::string_view bytes);

  /// Seals the stream and registers the object. `stored` is false on I/O
  /// failure (the temp file is removed, nothing is registered). Calling
  /// append() or finish() again afterwards is undefined.
  PutResult finish();

  /// Bytes accepted so far (resident + flushed).
  std::uint64_t bytes_streamed() const { return total_ + buffer_.size(); }

 private:
  friend class Shard;
  explicit StreamWriter(Shard& shard);
  void seal_chunk();

  Shard* shard_;
  std::string temp_path_;
  std::ofstream out_;
  bool disk_ = false;  ///< temp file open; false = in-memory fallback
  bool done_ = false;
  std::string buffer_;        ///< the one partial chunk in memory
  std::vector<Chunk> chunks_;  ///< in-memory fallback only
  Xxh64 hash_;               ///< content hash of every appended byte
  std::uint64_t total_ = 0;  ///< bytes sealed into chunks
  std::uint32_t count_ = 0;
};

}  // namespace pa::store
