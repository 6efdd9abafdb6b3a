#pragma once
/// \file consumer.h
/// \brief Consumer groups over the broker: coordinated partition
/// assignment and committed offsets.
///
/// Mirrors the Kafka consumer-group protocol at the level the streaming
/// experiments need: members of a group split a topic's partitions
/// (range assignment), each partition belongs to exactly one member per
/// generation, and committed offsets survive rebalances — so every message
/// is delivered to the group at least once and per-partition order holds.
///
/// Handoff: a rebalance only *assigns* a partition. The member that read
/// it last still holds it — possibly with a polled, uncommitted batch in
/// hand — until its next poll() releases it; only then may the new owner
/// claim it and resume from the committed offset. Without that step the
/// new owner re-reads whatever the old owner was still processing.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/stream/broker.h"

namespace pa::stream {

/// Tracks group membership, assignments, and committed offsets.
class GroupCoordinator {
 public:
  /// One member's fetchable partitions and the committed offset of each,
  /// taken under a single lock.
  struct MemberView {
    std::vector<int> partitions;
    std::map<int, std::uint64_t> committed;  ///< keyed by partition
  };

  explicit GroupCoordinator(Broker& broker) : broker_(broker) {}

  /// Adds a member; triggers a rebalance (generation bump).
  void join(const std::string& topic, const std::string& group,
            const std::string& member_id) PA_EXCLUDES(mutex_);
  /// Removes a member, releasing every partition it holds; triggers a
  /// rebalance.
  void leave(const std::string& topic, const std::string& group,
             const std::string& member_id) PA_EXCLUDES(mutex_);

  /// Current generation of the group (changes on every rebalance).
  std::uint64_t generation(const std::string& topic,
                           const std::string& group) const
      PA_EXCLUDES(mutex_);

  /// Partitions assigned to `member_id` in the current generation.
  std::vector<int> assignment(const std::string& topic,
                              const std::string& group,
                              const std::string& member_id) const
      PA_EXCLUDES(mutex_);

  /// The handoff step, called by a member from each poll(): releases the
  /// partitions it holds but is no longer assigned, claims the assigned
  /// partitions no other member still holds, and returns the claimed set
  /// with committed offsets. An assigned partition its previous holder
  /// has not released yet is left out until a later call.
  MemberView sync_member(const std::string& topic, const std::string& group,
                         const std::string& member_id) PA_EXCLUDES(mutex_);

  /// Committed offset for a partition (0 if never committed).
  std::uint64_t committed(const std::string& topic, const std::string& group,
                          int partition) const PA_EXCLUDES(mutex_);
  void commit(const std::string& topic, const std::string& group,
              int partition, std::uint64_t offset) PA_EXCLUDES(mutex_);

  /// Messages remaining for the group across all partitions of the topic
  /// (end offsets minus committed offsets).
  std::uint64_t lag(const std::string& topic, const std::string& group) const
      PA_EXCLUDES(mutex_);

 private:
  struct Group {
    std::uint64_t generation = 0;
    std::set<std::string> members;
    std::map<std::string, std::vector<int>> assignments;
    std::map<int, std::uint64_t> committed;
    /// partition -> member that claimed it and has not released it.
    std::map<int, std::string> holders;
  };

  using GroupKey = std::pair<std::string, std::string>;

  /// Recomputes assignments; calls the broker (kBrokerTopics nests below
  /// kStreamCoordinator) for the partition count.
  void rebalance(const std::string& topic, Group& group)
      PA_REQUIRES(mutex_);
  const Group* find_group(const std::string& topic,
                          const std::string& group) const PA_REQUIRES(mutex_);

  Broker& broker_;
  mutable check::Mutex mutex_{check::LockRank::kStreamCoordinator,
                              "stream::GroupCoordinator"};
  std::map<GroupKey, Group> groups_ PA_GUARDED_BY(mutex_);
};

/// A group member pulling messages from its assigned partitions.
/// Not thread-safe itself (one consumer = one logical thread), but safe to
/// run many consumers concurrently.
class Consumer {
 public:
  Consumer(Broker& broker, GroupCoordinator& coordinator, std::string topic,
           std::string group, std::string member_id);
  ~Consumer();
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Fetches up to `max_messages` from claimed partitions (round-robin
  /// across them). First syncs with the coordinator: partitions a
  /// rebalance moved away are released (everything earlier polls
  /// returned from them counts as handled; what was not committed is
  /// redelivered to the new owner), newly assigned ones are claimed once
  /// their previous holder released them.
  std::vector<Message> poll(std::size_t max_messages);

  /// Commits everything returned by previous polls.
  void commit();

  /// Partitions claimed at the last poll.
  const std::vector<int>& assigned_partitions() const { return assigned_; }
  std::uint64_t messages_consumed() const { return consumed_; }

 private:
  void refresh_assignment();

  Broker& broker_;
  GroupCoordinator& coordinator_;
  std::string topic_;
  std::string group_;
  std::string member_id_;
  std::vector<int> assigned_;
  std::map<int, std::uint64_t> positions_;  ///< next fetch offset
  std::size_t rr_index_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace pa::stream
