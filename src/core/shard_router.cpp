#include "pa/core/shard_router.h"

#include <cctype>

#include "pa/common/checksum.h"
#include "pa/common/error.h"

namespace pa::core {

ShardRouter::ShardRouter(int shards) : shards_(shards) {
  PA_REQUIRE_ARG(shards >= 1, "shard count must be >= 1, got " << shards);
}

int ShardRouter::trailing_ordinal(const std::string& id) {
  const auto dash = id.rfind('-');
  if (dash == std::string::npos || dash + 1 >= id.size()) {
    return -1;
  }
  int value = 0;
  for (std::size_t i = dash + 1; i < id.size(); ++i) {
    const char c = id[i];
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      return -1;
    }
    value = value * 10 + (c - '0');
    if (value < 0) {  // overflow guard; ids never get this large
      return -1;
    }
  }
  return value;
}

int ShardRouter::default_shard(const std::string& id) const {
  const int ordinal = trailing_ordinal(id);
  if (ordinal >= 0) {
    return ordinal % shards_;
  }
  return static_cast<int>(Xxh64::hash(id) %
                          static_cast<std::uint64_t>(shards_));
}

int ShardRouter::shard_for_id(const std::string& id) const {
  {
    check::MutexLock lock(mutex_);
    const auto it = overrides_.find(id);
    if (it != overrides_.end()) {
      return it->second;
    }
  }
  return default_shard(id);
}

int ShardRouter::shard_for_tenant(const std::string& tenant) const {
  return static_cast<int>(Xxh64::hash(tenant) %
                          static_cast<std::uint64_t>(shards_));
}

void ShardRouter::pin(const std::string& id, int shard) {
  PA_REQUIRE_ARG(shard >= 0 && shard < shards_,
                 "shard " << shard << " out of range [0, " << shards_ << ")");
  check::MutexLock lock(mutex_);
  overrides_[id] = shard;
}

void ShardRouter::forget(const std::string& id) {
  check::MutexLock lock(mutex_);
  overrides_.erase(id);
}

int ShardRouter::pinned(const std::string& id) const {
  check::MutexLock lock(mutex_);
  const auto it = overrides_.find(id);
  return it == overrides_.end() ? -1 : it->second;
}

}  // namespace pa::core
