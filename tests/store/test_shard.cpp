#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "pa/common/rng.h"
#include "pa/store/chunking.h"
#include "pa/store/shard.h"

namespace pa::store {
namespace {

/// Fresh scratch directory, removed on teardown (journal-test idiom).
class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/pa_store_test_XXXXXX";
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string pattern_bytes(std::size_t n, char seed) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>((seed + i * 131) & 0xff);
  }
  return s;
}

TEST(Chunking, ContentIdIsDeterministicAndWellFormed) {
  const std::string a = content_id("hello");
  EXPECT_EQ(a, content_id("hello"));
  EXPECT_NE(a, content_id("hello!"));
  EXPECT_TRUE(is_object_id(a));
  EXPECT_EQ(a.size(), 17u);  // "o" + 16 hex
  EXPECT_FALSE(is_object_id("du-1"));
  EXPECT_FALSE(is_object_id("o123"));
  EXPECT_TRUE(is_object_id(content_id("")));
}

TEST(Chunking, ContentIdIsXxh64) {
  EXPECT_EQ(content_id(""), "oef46db3751d8e999");
  EXPECT_EQ(content_id("a"), "od24ec4f1a98c6e5b");
  EXPECT_EQ(content_id("abc"), "o44bc2cf5ad770999");
}

TEST(Chunking, SplitJoinRoundTrips) {
  const std::string bytes = pattern_bytes(10'000, 7);
  const std::vector<Chunk> chunks = split_chunks(bytes, 1024);
  EXPECT_EQ(chunks.size(), chunk_count_for(bytes.size(), 1024));
  EXPECT_EQ(chunks.size(), 10u);  // ceil(10000 / 1024)
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.crc, chunk_crc(c.data));
  }
  EXPECT_EQ(join_chunks(chunks), bytes);
  EXPECT_EQ(chunk_count_for(0, 1024), 0u);
  EXPECT_EQ(chunk_count_for(1024, 1024), 1u);
  EXPECT_EQ(chunk_count_for(1025, 1024), 2u);
}

TEST(Shard, PutGetRoundTrips) {
  Shard shard;
  const std::string bytes = pattern_bytes(5000, 3);
  const PutResult r = shard.put(bytes);
  EXPECT_TRUE(r.stored);
  EXPECT_EQ(r.object_id, content_id(bytes));
  EXPECT_TRUE(r.dropped.empty());
  EXPECT_TRUE(shard.contains(r.object_id));
  EXPECT_EQ(shard.object_bytes(r.object_id), bytes.size());
  EXPECT_EQ(shard.get(r.object_id).value_or(""), bytes);
  // Idempotent re-put: same id, no growth.
  EXPECT_EQ(shard.put(bytes).object_id, r.object_id);
  EXPECT_EQ(shard.stats().objects, 1u);
}

TEST(Shard, ZeroByteObjectRoundTrips) {
  Shard shard;
  const PutResult r = shard.put("");
  ASSERT_TRUE(r.stored);
  const auto back = shard.get(r.object_id);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(Shard, PutAsRejectsMismatchedId) {
  Shard shard;
  const PutResult r = shard.put_as("o0000000000000bad", "payload");
  EXPECT_FALSE(r.stored);
  EXPECT_FALSE(shard.contains("o0000000000000bad"));
  EXPECT_EQ(shard.stats().crc_failures, 1u);
  // The honest id is accepted.
  EXPECT_TRUE(shard.put_as(content_id("payload"), "payload").stored);
}

TEST(Shard, PutChunksVerifiesCrcAndHash) {
  Shard shard;
  const std::string bytes = pattern_bytes(3000, 11);
  const std::string id = content_id(bytes);
  std::vector<Chunk> chunks = split_chunks(bytes, 1024);

  std::vector<Chunk> corrupt = chunks;
  corrupt[1].data[5] ^= 0x40;  // payload no longer matches its CRC
  EXPECT_FALSE(shard.put_chunks(id, corrupt, bytes.size()).stored);
  EXPECT_FALSE(shard.contains(id));

  EXPECT_TRUE(shard.put_chunks(id, chunks, bytes.size()).stored);
  EXPECT_EQ(shard.get(id).value_or(""), bytes);
}

TEST(Shard, LruEvictionSpillsAndPromotes) {
  TempDir dir;
  ShardConfig config;
  config.memory_capacity_bytes = 5000;
  config.spill_dir = dir.path();
  config.chunk_bytes = 1024;
  Shard shard(config);

  const std::string a = pattern_bytes(3000, 1);
  const std::string b = pattern_bytes(3000, 2);
  const std::string id_a = shard.put(a).object_id;
  // B exceeds the budget; A (least recently used) spills to disk.
  const PutResult rb = shard.put(b);
  EXPECT_TRUE(rb.stored);
  EXPECT_TRUE(rb.dropped.empty()) << "spill-capable shard must not drop";

  ShardStats s = shard.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.spills, 1u);
  EXPECT_EQ(s.spilled_bytes, a.size());
  EXPECT_LE(s.resident_bytes, config.memory_capacity_bytes);
  EXPECT_EQ(s.objects, 2u);  // both still known

  // Reading A promotes it from disk, byte-identical; B spills in turn.
  EXPECT_EQ(shard.get(id_a).value_or(""), a);
  s = shard.stats();
  EXPECT_EQ(s.spill_loads, 1u);
  EXPECT_EQ(s.crc_failures, 0u);
  EXPECT_EQ(shard.get(rb.object_id).value_or(""), b);
}

TEST(Shard, SpillRoundTripSurvivesManyObjects) {
  TempDir dir;
  ShardConfig config;
  config.memory_capacity_bytes = 4096;
  config.spill_dir = dir.path();
  config.chunk_bytes = 512;
  Shard shard(config);

  std::vector<std::string> ids;
  std::vector<std::string> payloads;
  for (int i = 0; i < 16; ++i) {
    payloads.push_back(pattern_bytes(1500, static_cast<char>(i)));
    ids.push_back(shard.put(payloads.back()).object_id);
  }
  // Most objects now live only on disk; every one must read back intact.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(shard.get(ids[i]).value_or(""), payloads[i]) << i;
  }
  EXPECT_EQ(shard.stats().crc_failures, 0u);
  EXPECT_GE(shard.stats().spill_loads, 10u);
}

TEST(Shard, CorruptSpillFileRejectedAsAbsence) {
  TempDir dir;
  ShardConfig config;
  config.memory_capacity_bytes = 2000;
  config.spill_dir = dir.path();
  config.chunk_bytes = 1024;
  Shard shard(config);

  const std::string a = pattern_bytes(1500, 5);
  const std::string id_a = shard.put(a).object_id;
  shard.put(pattern_bytes(1500, 6));  // spills A
  ASSERT_EQ(shard.stats().spills, 1u);

  // Flip a payload byte near the end of A's spill file (header is at the
  // front; the tail is chunk data).
  const std::string path = dir.path() + "/" + id_a + ".obj";
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    ASSERT_GT(size, 32);
    f.seekp(size - 10);
    char byte = 0;
    f.seekg(size - 10);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xff);
    f.seekp(size - 10);
    f.write(&byte, 1);
  }

  // A corrupt read is absence, never silent garbage: nullopt, counted,
  // object dropped so the replication layer re-fetches elsewhere.
  EXPECT_FALSE(shard.get(id_a).has_value());
  EXPECT_GE(shard.stats().crc_failures, 1u);
  EXPECT_FALSE(shard.contains(id_a));
}

TEST(Shard, EvictionWithoutSpillDirReportsDrops) {
  ShardConfig config;
  config.memory_capacity_bytes = 2000;
  config.chunk_bytes = 1024;  // no spill_dir: evictions drop
  Shard shard(config);

  const std::string a = pattern_bytes(1500, 1);
  const std::string id_a = shard.put(a).object_id;
  const PutResult rb = shard.put(pattern_bytes(1500, 2));
  ASSERT_TRUE(rb.stored);
  // The shard must report the dropped id so its owner can announce the
  // replica loss (a silent drop would leave the directory lying).
  ASSERT_EQ(rb.dropped.size(), 1u);
  EXPECT_EQ(rb.dropped[0], id_a);
  EXPECT_FALSE(shard.contains(id_a));
  EXPECT_EQ(shard.stats().dropped, 1u);
}

TEST(Shard, ChunksOfReturnsVerifiedChunks) {
  Shard shard;
  const std::string bytes = pattern_bytes(4096, 9);
  const std::string id = shard.put(bytes).object_id;
  const auto chunks = shard.chunks_of(id);
  ASSERT_TRUE(chunks.has_value());
  EXPECT_EQ(join_chunks(*chunks), bytes);
  EXPECT_FALSE(shard.chunks_of("o0000000000000000").has_value());
}

TEST(Shard, EraseFreesCapacity) {
  ShardConfig config;
  config.memory_capacity_bytes = 4000;
  config.chunk_bytes = 1024;
  Shard shard(config);
  const std::string id = shard.put(pattern_bytes(3000, 1)).object_id;
  EXPECT_TRUE(shard.erase(id));
  EXPECT_FALSE(shard.erase(id));
  // The freed budget admits a new object without evicting it.
  const PutResult r = shard.put(pattern_bytes(3000, 2));
  EXPECT_TRUE(r.stored);
  EXPECT_TRUE(r.dropped.empty());
}

TEST(Shard, ChunkAtServesBothTiersWithoutPromotion) {
  TempDir dir;
  ShardConfig config;
  config.memory_capacity_bytes = 2000;
  config.spill_dir = dir.path();
  config.chunk_bytes = 512;
  Shard shard(config);

  const std::string a = pattern_bytes(1500, 4);
  const std::string id_a = shard.put(a).object_id;
  const std::vector<Chunk> expect = split_chunks(a, config.chunk_bytes);

  // Resident reads.
  const auto meta = shard.chunk_meta(id_a);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->first, expect.size());
  EXPECT_EQ(meta->second, a.size());
  for (std::uint32_t i = 0; i < expect.size(); ++i) {
    const auto c = shard.chunk_at(id_a, i);
    ASSERT_TRUE(c.has_value()) << i;
    EXPECT_EQ(c->data, expect[i].data) << i;
    EXPECT_EQ(c->crc, expect[i].crc) << i;
  }
  EXPECT_FALSE(shard.chunk_at(id_a, static_cast<std::uint32_t>(expect.size()))
                   .has_value());

  // Spill A, then read its chunks straight off disk: byte-identical and
  // NO promotion — a shard serving a peer must not evict its working set
  // to do it.
  shard.put(pattern_bytes(1500, 5));
  ASSERT_EQ(shard.stats().spills, 1u);
  for (std::uint32_t i = 0; i < expect.size(); ++i) {
    const auto c = shard.chunk_at(id_a, i);
    ASSERT_TRUE(c.has_value()) << i;
    EXPECT_EQ(c->data, expect[i].data) << i;
  }
  EXPECT_EQ(shard.stats().spill_loads, 0u)
      << "chunk_at promoted a spilled object";
  EXPECT_EQ(shard.stats().evictions, 1u);
  EXPECT_FALSE(shard.chunk_at("o0000000000000000", 0).has_value());
}

TEST(Shard, StreamWriterStoresObjectLargerThanMemoryBudget) {
  TempDir dir;
  ShardConfig config;
  config.memory_capacity_bytes = 8192;
  config.spill_dir = dir.path();
  config.chunk_bytes = 1024;
  Shard shard(config);

  // 4x the memory budget, fed in odd-sized pieces so chunk boundaries
  // never align with appends.
  const std::string bytes = pattern_bytes(32768, 6);
  StreamWriter w = shard.stream_writer();
  for (std::size_t at = 0; at < bytes.size(); at += 777) {
    w.append(std::string_view(bytes).substr(at, 777));
  }
  EXPECT_EQ(w.bytes_streamed(), bytes.size());
  const PutResult r = w.finish();
  ASSERT_TRUE(r.stored);
  EXPECT_EQ(r.object_id, content_id(bytes));

  // The object landed on disk without ever being resident whole.
  ShardStats s = shard.stats();
  EXPECT_LE(s.resident_bytes, config.memory_capacity_bytes);
  EXPECT_EQ(s.spilled_bytes, bytes.size());
  EXPECT_EQ(shard.object_bytes(r.object_id), bytes.size());
  // Chunk reads serve it from disk; a whole read round-trips.
  const auto meta = shard.chunk_meta(r.object_id);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->first, chunk_count_for(bytes.size(), config.chunk_bytes));
  EXPECT_EQ(shard.get(r.object_id).value_or(""), bytes);
}

TEST(Shard, StreamWriterWithoutSpillDirFallsBackToMemory) {
  Shard shard;
  const std::string bytes = pattern_bytes(5000, 8);
  StreamWriter w = shard.stream_writer();
  w.append(bytes);
  const PutResult r = w.finish();
  ASSERT_TRUE(r.stored);
  EXPECT_EQ(r.object_id, content_id(bytes));
  EXPECT_EQ(shard.get(r.object_id).value_or(""), bytes);
}

// The streaming hash must name an object exactly as content_id(whole)
// does, however the bytes are cut: 1-byte appends, pieces that straddle
// XXH64's 32-byte stripes, and pieces that straddle chunk boundaries
// (100-byte chunks are not a multiple of 32).
TEST(Shard, StreamWriterIdMatchesContentIdAtAnySplit) {
  TempDir dir;
  const std::string bytes = pattern_bytes(1000, 9);
  const std::string want = content_id(bytes);
  pa::Rng rng(23);
  for (const bool spill : {false, true}) {
    ShardConfig config;
    config.chunk_bytes = 100;
    if (spill) {
      config.spill_dir = dir.path();
    }
    Shard shard(config);

    StreamWriter bytewise = shard.stream_writer();
    for (const char c : bytes) {
      bytewise.append(std::string_view(&c, 1));
    }
    EXPECT_EQ(bytewise.finish().object_id, want) << "spill=" << spill;

    StreamWriter straddling = shard.stream_writer();
    for (const std::size_t cut : {std::size_t{0}, std::size_t{31},
                                  std::size_t{33}, std::size_t{99},
                                  std::size_t{101}, std::size_t{1000}}) {
      const std::size_t at = straddling.bytes_streamed();
      straddling.append(std::string_view(bytes).substr(at, cut - at));
    }
    EXPECT_EQ(straddling.finish().object_id, want) << "spill=" << spill;

    for (int trial = 0; trial < 50; ++trial) {
      StreamWriter w = shard.stream_writer();
      while (w.bytes_streamed() < bytes.size()) {
        const auto n = static_cast<std::size_t>(rng.uniform_int(0, 150));
        w.append(std::string_view(bytes).substr(w.bytes_streamed(), n));
      }
      const PutResult r = w.finish();
      ASSERT_TRUE(r.stored);
      ASSERT_EQ(r.object_id, want) << "spill=" << spill << " trial=" << trial;
    }
    EXPECT_EQ(shard.get(want).value_or(""), bytes) << "spill=" << spill;
  }
}

TEST(Shard, AbandonedStreamWriterLeavesNoTempFile) {
  TempDir dir;
  ShardConfig config;
  config.spill_dir = dir.path();
  config.chunk_bytes = 512;
  {
    Shard shard(config);
    StreamWriter w = shard.stream_writer();
    w.append(pattern_bytes(2000, 2));
    // Dropped without finish(): the temp file must go with it.
  }
  // A fresh shard over the same dir sees nothing to sweep and no
  // stray files admit stale bytes.
  Shard again(config);
  EXPECT_EQ(again.stats().objects, 0u);
}

TEST(Shard, ConstructorSweepsOrphanSpillFiles) {
  TempDir dir;
  ShardConfig config;
  config.memory_capacity_bytes = 1000;
  config.spill_dir = dir.path();
  config.chunk_bytes = 512;
  std::string id_a;
  {
    Shard shard(config);
    id_a = shard.put(pattern_bytes(800, 1)).object_id;
    shard.put(pattern_bytes(800, 2));  // spills A
    ASSERT_GE(shard.stats().spills, 1u);
    ASSERT_TRUE(std::ifstream(dir.path() + "/" + id_a + ".obj").good());
  }
  // Simulate a stream temp left by a crash, too.
  { std::ofstream(dir.path() + "/stream-42.tmp") << "half an object"; }

  // A new incarnation owns no objects; every leftover file is an orphan
  // from a dead epoch and must be swept, so stale bytes can never be
  // resurrected into the new directory.
  Shard reborn(config);
  EXPECT_EQ(reborn.stats().objects, 0u);
  EXPECT_FALSE(std::ifstream(dir.path() + "/" + id_a + ".obj").good());
  EXPECT_FALSE(std::ifstream(dir.path() + "/stream-42.tmp").good());
  EXPECT_FALSE(reborn.contains(id_a));
}

TEST(Shard, EraseRemovesSpillFileSoReputCannotResurrect) {
  TempDir dir;
  ShardConfig config;
  config.memory_capacity_bytes = 1000;
  config.spill_dir = dir.path();
  config.chunk_bytes = 512;
  Shard shard(config);

  const std::string a = pattern_bytes(800, 3);
  const std::string id_a = shard.put(a).object_id;
  shard.put(pattern_bytes(800, 4));  // spills A
  const std::string path = dir.path() + "/" + id_a + ".obj";
  ASSERT_TRUE(std::ifstream(path).good());

  // Erase while the only copy is the spill file: the file must go too.
  EXPECT_TRUE(shard.erase(id_a));
  EXPECT_FALSE(std::ifstream(path).good())
      << "erase left the spill file behind";
  EXPECT_FALSE(shard.contains(id_a));
  EXPECT_FALSE(shard.get(id_a).has_value());

  // Re-put the same content: fresh bytes, fresh file, clean round trip —
  // nothing of the erased epoch leaks back in.
  const PutResult again = shard.put(a);
  EXPECT_TRUE(again.stored);
  EXPECT_EQ(again.object_id, id_a);  // content-addressed: same id
  EXPECT_EQ(shard.get(id_a).value_or(""), a);
  EXPECT_EQ(shard.stats().crc_failures, 0u);
}

}  // namespace
}  // namespace pa::store
