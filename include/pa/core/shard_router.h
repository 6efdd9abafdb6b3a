#pragma once
/// \file shard_router.h
/// \brief Maps pilots, units, and tenants to control-plane shards.
///
/// Routing is computable on the hot path: ids are sequential
/// ("pilot-7", "unit-123"), so the default shard is the trailing ordinal
/// modulo the shard count — round-robin placement with no shared state.
/// The router stores only *overrides*: entities pinned away from their
/// default shard (a unit bound to a pilot on another shard, a pilot moved
/// between shards, a tenant-pinned submission). Overrides live in a small
/// map under `kShardRouter` and are consulted only off the fast path —
/// when a shard receives a command for an entity it does not own.
///
/// Tenants hash to shards with XXH64 so a tenant's pilots land together
/// by default (admission state and fair-share views stay shard-local).

#include <cstdint>
#include <string>
#include <unordered_map>

#include "pa/check/mutex.h"
#include "pa/check/thread_safety.h"

namespace pa::core {

class ShardRouter {
 public:
  explicit ShardRouter(int shards);

  int shards() const { return shards_; }

  /// Shard an id routes to: the pinned override if one exists, else the
  /// computable default.
  int shard_for_id(const std::string& id) const;

  /// Computable default: trailing "-N" ordinal % shards, falling back to
  /// a hash of the whole id when the ordinal is absent.
  int default_shard(const std::string& id) const;

  /// Stable tenant placement (XXH64 of the tenant name % shards).
  int shard_for_tenant(const std::string& tenant) const;

  /// Pins `id` to `shard` (override). Used when an entity is created on
  /// or moved to a non-default shard so stale callbacks and cross-shard
  /// lookups can find the owner.
  void pin(const std::string& id, int shard);

  /// Drops the override for `id` (entity reached a final state).
  void forget(const std::string& id);

  /// Returns the pinned shard for `id`, or -1 when not pinned.
  int pinned(const std::string& id) const;

 private:
  static int trailing_ordinal(const std::string& id);

  const int shards_;
  mutable check::Mutex mutex_{check::LockRank::kShardRouter,
                              "core::ShardRouter"};
  std::unordered_map<std::string, int> overrides_ PA_GUARDED_BY(mutex_);
};

}  // namespace pa::core
