#include "pa/store/shard.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "pa/common/log.h"

namespace pa::store {

namespace {

constexpr std::uint32_t kSpillMagic = 0x50534150;  // "PASP"
constexpr std::uint32_t kSpillVersion = 2;

template <typename T>
void write_pod(std::ofstream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return in.good();
}

}  // namespace

Shard::Shard(ShardConfig config) : config_(std::move(config)) {
  if (!config_.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.spill_dir, ec);
    if (ec) {
      PA_LOG(kWarn, "store") << "cannot create spill dir "
                             << config_.spill_dir << ": " << ec.message()
                             << " — evictions will drop";
      return;
    }
    // A fresh shard owns no objects, so every spill (.obj) or stream temp
    // (.tmp) file already in the directory is an orphan from a prior
    // incarnation. Sweep them: stale bytes must never be resurrected into
    // a new directory epoch, and dead files must not leak across restarts.
    std::size_t swept = 0;
    std::filesystem::directory_iterator it(config_.spill_dir, ec);
    const std::filesystem::directory_iterator end;
    while (!ec && it != end) {
      const std::filesystem::path p = it->path();
      if (p.extension() == ".obj" || p.extension() == ".tmp") {
        std::error_code rec;
        if (std::filesystem::remove(p, rec)) {
          ++swept;
        }
      }
      it.increment(ec);
    }
    if (swept != 0) {
      PA_LOG(kInfo, "store") << "swept " << swept
                             << " stale spill file(s) from "
                             << config_.spill_dir;
    }
  }
}

PutResult Shard::put(std::string bytes) {
  const std::string id = content_id(bytes);
  auto chunks = split_chunks(bytes, config_.chunk_bytes);
  const std::uint64_t total = bytes.size();
  return admit(id, std::move(chunks), total);
}

PutResult Shard::put_as(const std::string& object_id, std::string bytes) {
  if (content_id(bytes) != object_id) {
    check::MutexLock lock(mutex_);
    ++stats_.crc_failures;
    return PutResult{object_id, false, {}};
  }
  auto chunks = split_chunks(bytes, config_.chunk_bytes);
  const std::uint64_t total = bytes.size();
  return admit(object_id, std::move(chunks), total);
}

PutResult Shard::put_chunks(const std::string& object_id,
                            std::vector<Chunk> chunks,
                            std::uint64_t total_bytes) {
  std::uint64_t seen = 0;
  Xxh64 hash;
  for (const Chunk& c : chunks) {
    if (chunk_crc(c.data) != c.crc) {
      check::MutexLock lock(mutex_);
      ++stats_.crc_failures;
      return PutResult{object_id, false, {}};
    }
    seen += c.data.size();
    hash.update(c.data);
  }
  if (seen != total_bytes || object_id_from_hash(hash.digest()) != object_id) {
    check::MutexLock lock(mutex_);
    ++stats_.crc_failures;
    return PutResult{object_id, false, {}};
  }
  return admit(object_id, std::move(chunks), total_bytes);
}

PutResult Shard::admit(const std::string& object_id,
                       std::vector<Chunk> chunks, std::uint64_t total) {
  check::MutexLock lock(mutex_);
  ++stats_.puts;
  auto it = entries_.find(object_id);
  if (it != entries_.end()) {
    it->second.last_use = ++use_clock_;
    if (!it->second.resident) {
      // Re-admit the bytes we were just handed instead of reloading disk.
      it->second.chunks = std::move(chunks);
      it->second.resident = true;
      resident_bytes_ += it->second.total;
    }
    return PutResult{object_id, true, evict_to_fit(object_id)};
  }
  Entry e;
  e.chunks = std::move(chunks);
  e.total = total;
  e.count = static_cast<std::uint32_t>(e.chunks.size());
  e.last_use = ++use_clock_;
  e.resident = true;
  entries_.emplace(object_id, std::move(e));
  resident_bytes_ += total;
  return PutResult{object_id, true, evict_to_fit(object_id)};
}

PutResult Shard::admit_stream(const std::string& object_id,
                              const std::string& temp_path,
                              std::uint64_t total, std::uint32_t count) {
  check::MutexLock lock(mutex_);
  ++stats_.puts;
  std::error_code ec;
  std::filesystem::rename(temp_path, spill_path(object_id), ec);
  if (ec) {
    std::filesystem::remove(temp_path, ec);
    return PutResult{object_id, false, {}};
  }
  auto it = entries_.find(object_id);
  if (it != entries_.end()) {
    // Idempotent re-put: the fresh file just replaced any older spill
    // copy (same content id, same bytes, same layout).
    it->second.last_use = ++use_clock_;
    if (!it->second.on_disk) {
      it->second.on_disk = true;
      stats_.spilled_bytes += it->second.total;
    }
    return PutResult{object_id, true, {}};
  }
  Entry e;
  e.total = total;
  e.count = count;
  e.last_use = ++use_clock_;
  e.resident = false;
  e.on_disk = true;
  entries_.emplace(object_id, std::move(e));
  stats_.spilled_bytes += total;
  ++stats_.spills;
  return PutResult{object_id, true, {}};
}

std::vector<std::string> Shard::evict_to_fit(const std::string& keep) {
  std::vector<std::string> dropped;
  if (config_.memory_capacity_bytes == 0) {
    return dropped;
  }
  while (resident_bytes_ > config_.memory_capacity_bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.resident || it->first == keep) {
        continue;
      }
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) {
      break;  // only `keep` is resident; an over-budget object stays
    }
    Entry& e = victim->second;
    ++stats_.evictions;
    resident_bytes_ -= e.total;
    if (e.on_disk || write_spill(victim->first, e)) {
      if (!e.on_disk) {
        ++stats_.spills;
        stats_.spilled_bytes += e.total;
        e.on_disk = true;
      }
      e.chunks.clear();
      e.chunks.shrink_to_fit();
      e.resident = false;
    } else {
      ++stats_.dropped;
      dropped.push_back(victim->first);
      entries_.erase(victim);
    }
  }
  return dropped;
}

bool Shard::verify(const Entry& e) const {
  for (const Chunk& c : e.chunks) {
    if (chunk_crc(c.data) != c.crc) {
      return false;
    }
  }
  return true;
}

void Shard::discard_corrupt(const std::string& object_id) {
  ++stats_.crc_failures;
  auto it = entries_.find(object_id);
  if (it != entries_.end()) {
    if (it->second.resident) {
      resident_bytes_ -= it->second.total;
    }
    if (it->second.on_disk) {
      stats_.spilled_bytes -= it->second.total;
      std::error_code ec;
      std::filesystem::remove(spill_path(object_id), ec);
    }
    entries_.erase(it);
  }
}

std::optional<std::string> Shard::get(const std::string& object_id) {
  check::MutexLock lock(mutex_);
  auto it = entries_.find(object_id);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Entry& e = it->second;
  if (!e.resident && !load_from_disk(object_id, e)) {
    discard_corrupt(object_id);
    return std::nullopt;
  }
  if (!verify(e)) {
    discard_corrupt(object_id);
    return std::nullopt;
  }
  ++stats_.hits;
  e.last_use = ++use_clock_;
  std::string bytes = join_chunks(e.chunks);
  evict_to_fit(object_id);
  return bytes;
}

std::optional<std::vector<Chunk>> Shard::chunks_of(
    const std::string& object_id) {
  check::MutexLock lock(mutex_);
  auto it = entries_.find(object_id);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Entry& e = it->second;
  if (!e.resident && !load_from_disk(object_id, e)) {
    discard_corrupt(object_id);
    return std::nullopt;
  }
  if (!verify(e)) {
    discard_corrupt(object_id);
    return std::nullopt;
  }
  ++stats_.hits;
  e.last_use = ++use_clock_;
  std::vector<Chunk> copy = e.chunks;
  evict_to_fit(object_id);
  return copy;
}

std::optional<Chunk> Shard::chunk_at(const std::string& object_id,
                                     std::uint32_t index) {
  check::MutexLock lock(mutex_);
  auto it = entries_.find(object_id);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Entry& e = it->second;
  if (index >= e.count) {
    return std::nullopt;
  }
  e.last_use = ++use_clock_;
  if (e.resident) {
    Chunk c = e.chunks[index];
    if (chunk_crc(c.data) != c.crc) {
      discard_corrupt(object_id);
      return std::nullopt;
    }
    return c;
  }
  auto c = read_chunk_from_disk(object_id, e, index);
  if (!c) {
    discard_corrupt(object_id);
    return std::nullopt;
  }
  return c;
}

std::optional<std::pair<std::uint32_t, std::uint64_t>> Shard::chunk_meta(
    const std::string& object_id) const {
  check::MutexLock lock(mutex_);
  auto it = entries_.find(object_id);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return std::make_pair(it->second.count, it->second.total);
}

bool Shard::contains(const std::string& object_id) const {
  check::MutexLock lock(mutex_);
  return entries_.count(object_id) != 0;
}

std::uint64_t Shard::object_bytes(const std::string& object_id) const {
  check::MutexLock lock(mutex_);
  auto it = entries_.find(object_id);
  return it == entries_.end() ? 0 : it->second.total;
}

bool Shard::erase(const std::string& object_id) {
  check::MutexLock lock(mutex_);
  auto it = entries_.find(object_id);
  if (it == entries_.end()) {
    return false;
  }
  if (it->second.resident) {
    resident_bytes_ -= it->second.total;
  }
  if (it->second.on_disk) {
    stats_.spilled_bytes -= it->second.total;
    std::error_code ec;
    std::filesystem::remove(spill_path(object_id), ec);
  }
  entries_.erase(it);
  return true;
}

std::vector<std::string> Shard::objects() const {
  check::MutexLock lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    ids.push_back(id);
  }
  return ids;
}

ShardStats Shard::stats() const {
  check::MutexLock lock(mutex_);
  ShardStats s = stats_;
  s.resident_bytes = resident_bytes_;
  s.objects = entries_.size();
  return s;
}

std::string Shard::spill_path(const std::string& object_id) const {
  // Object ids are lowercase hex (chunking.h), so they are safe filenames.
  return config_.spill_dir + "/" + object_id + ".obj";
}

bool Shard::write_spill(const std::string& object_id, const Entry& e) {
  if (config_.spill_dir.empty()) {
    return false;
  }
  const std::string path = spill_path(object_id);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  write_pod(out, kSpillMagic);
  write_pod(out, kSpillVersion);
  write_pod(out, e.total);
  write_pod(out, e.count);
  for (const Chunk& c : e.chunks) {
    write_pod(out, static_cast<std::uint32_t>(c.data.size()));
    write_pod(out, c.crc);
    out.write(c.data.data(),
              static_cast<std::streamsize>(c.data.size()));
  }
  out.flush();
  if (!out.good()) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return false;
  }
  return true;
}

bool Shard::load_from_disk(const std::string& object_id, Entry& e) {
  if (!e.on_disk) {
    return false;
  }
  std::ifstream in(spill_path(object_id), std::ios::binary);
  if (!in) {
    return false;
  }
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t total = 0;
  std::uint32_t count = 0;
  if (!read_pod(in, magic) || magic != kSpillMagic ||
      !read_pod(in, version) || version != kSpillVersion ||
      !read_pod(in, total) || total != e.total || !read_pod(in, count) ||
      count != e.count) {
    return false;
  }
  std::vector<Chunk> chunks;
  chunks.reserve(count);
  std::uint64_t seen = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t len = 0;
    Chunk c;
    if (!read_pod(in, len) || !read_pod(in, c.crc)) {
      return false;
    }
    c.data.resize(len);
    in.read(c.data.data(), static_cast<std::streamsize>(len));
    if (!in.good() && !(in.eof() && i + 1 == count &&
                        static_cast<std::uint32_t>(in.gcount()) == len)) {
      return false;
    }
    seen += len;
    chunks.push_back(std::move(c));
  }
  if (seen != total) {
    return false;
  }
  e.chunks = std::move(chunks);
  e.resident = true;
  resident_bytes_ += e.total;
  ++stats_.spill_loads;
  // CRC verification happens in the caller (verify()), so a corrupt spill
  // file is detected exactly like corrupt memory.
  return true;
}

std::optional<Chunk> Shard::read_chunk_from_disk(const std::string& object_id,
                                                 const Entry& e,
                                                 std::uint32_t index) const {
  if (!e.on_disk) {
    return std::nullopt;
  }
  std::ifstream in(spill_path(object_id), std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t total = 0;
  std::uint32_t count = 0;
  if (!read_pod(in, magic) || magic != kSpillMagic ||
      !read_pod(in, version) || version != kSpillVersion ||
      !read_pod(in, total) || total != e.total || !read_pod(in, count) ||
      count != e.count || index >= count) {
    return std::nullopt;
  }
  // Scan-skip the preceding chunks; layouts are sequential, not indexed.
  for (std::uint32_t i = 0; i < index; ++i) {
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    if (!read_pod(in, len) || !read_pod(in, crc)) {
      return std::nullopt;
    }
    in.seekg(len, std::ios::cur);
    if (!in.good()) {
      return std::nullopt;
    }
  }
  std::uint32_t len = 0;
  Chunk c;
  if (!read_pod(in, len) || !read_pod(in, c.crc)) {
    return std::nullopt;
  }
  c.data.resize(len);
  in.read(c.data.data(), static_cast<std::streamsize>(len));
  if (static_cast<std::uint32_t>(in.gcount()) != len) {
    return std::nullopt;
  }
  if (chunk_crc(c.data) != c.crc) {
    return std::nullopt;
  }
  return c;
}

StreamWriter Shard::stream_writer() { return StreamWriter(*this); }

StreamWriter::StreamWriter(Shard& shard) : shard_(&shard) {
  buffer_.reserve(shard_->config_.chunk_bytes);
  if (shard_->config_.spill_dir.empty()) {
    return;  // in-memory fallback: chunks accumulate in chunks_
  }
  const std::uint64_t seq = shard_->stream_seq_.fetch_add(1) + 1;
  temp_path_ = shard_->config_.spill_dir + "/stream-" + std::to_string(seq) +
               ".tmp";
  out_.open(temp_path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    return;  // fall back to memory; finish() admits like put_chunks
  }
  disk_ = true;
  write_pod(out_, kSpillMagic);
  write_pod(out_, kSpillVersion);
  write_pod(out_, std::uint64_t{0});  // total — patched by finish()
  write_pod(out_, std::uint32_t{0});  // count — patched by finish()
}

StreamWriter::StreamWriter(StreamWriter&& other) noexcept
    : shard_(other.shard_),
      temp_path_(std::move(other.temp_path_)),
      out_(std::move(other.out_)),
      disk_(other.disk_),
      done_(other.done_),
      buffer_(std::move(other.buffer_)),
      chunks_(std::move(other.chunks_)),
      hash_(other.hash_),
      total_(other.total_),
      count_(other.count_) {
  other.disk_ = false;
  other.done_ = true;  // the moved-from shell owns nothing to clean up
}

StreamWriter::~StreamWriter() {
  if (!done_ && disk_) {
    out_.close();
    std::error_code ec;
    std::filesystem::remove(temp_path_, ec);
  }
}

void StreamWriter::append(std::string_view bytes) {
  hash_.update(bytes);
  const std::size_t chunk_bytes = shard_->config_.chunk_bytes;
  while (!bytes.empty()) {
    const std::size_t take =
        std::min(chunk_bytes - buffer_.size(), bytes.size());
    buffer_.append(bytes.data(), take);
    bytes.remove_prefix(take);
    if (buffer_.size() == chunk_bytes) {
      seal_chunk();
    }
  }
}

void StreamWriter::seal_chunk() {
  const std::uint32_t crc = chunk_crc(buffer_);
  total_ += buffer_.size();
  ++count_;
  if (disk_) {
    write_pod(out_, static_cast<std::uint32_t>(buffer_.size()));
    write_pod(out_, crc);
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  } else {
    Chunk c;
    c.data = buffer_;
    c.crc = crc;
    chunks_.push_back(std::move(c));
  }
  buffer_.clear();
}

PutResult StreamWriter::finish() {
  if (!buffer_.empty()) {
    seal_chunk();
  }
  done_ = true;
  const std::string id = object_id_from_hash(hash_.digest());
  if (!disk_) {
    return shard_->admit(id, std::move(chunks_), total_);
  }
  out_.seekp(sizeof(std::uint32_t) * 2, std::ios::beg);
  write_pod(out_, total_);
  write_pod(out_, count_);
  out_.flush();
  const bool ok = out_.good();
  out_.close();
  if (!ok) {
    std::error_code ec;
    std::filesystem::remove(temp_path_, ec);
    return PutResult{id, false, {}};
  }
  return shard_->admit_stream(id, temp_path_, total_, count_);
}

}  // namespace pa::store
