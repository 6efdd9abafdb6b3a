#pragma once
// Miniature rank ladder for analyzer self-tests.

namespace pa::check {

enum class LockRank : int {
  kNetRuntime = 14,
  kNetConnection = 16,
  kLeaf = 95,
};

constexpr int rank_value(LockRank rank) { return static_cast<int>(rank); }

}  // namespace pa::check
