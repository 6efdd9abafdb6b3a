#include "pa/stream/consumer.h"

#include <algorithm>

namespace pa::stream {

void GroupCoordinator::rebalance(const std::string& topic, Group& group) {
  group.generation += 1;
  group.assignments.clear();
  if (group.members.empty()) {
    return;
  }
  const int nparts = broker_.partition_count(topic);
  std::vector<std::string> members(group.members.begin(), group.members.end());
  // Range assignment: contiguous partition blocks, remainder to the first
  // members — identical partitions for identical membership, regardless of
  // join order.
  const int base = nparts / static_cast<int>(members.size());
  const int extra = nparts % static_cast<int>(members.size());
  int next = 0;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const int take = base + (static_cast<int>(m) < extra ? 1 : 0);
    std::vector<int> parts;
    parts.reserve(static_cast<std::size_t>(take));
    for (int i = 0; i < take; ++i) {
      parts.push_back(next++);
    }
    group.assignments[members[m]] = std::move(parts);
  }
}

void GroupCoordinator::join(const std::string& topic, const std::string& group,
                            const std::string& member_id) {
  check::MutexLock lock(mutex_);
  Group& g = groups_[{topic, group}];
  PA_REQUIRE_ARG(g.members.insert(member_id).second,
                 "member already in group: " << member_id);
  rebalance(topic, g);
}

void GroupCoordinator::leave(const std::string& topic,
                             const std::string& group,
                             const std::string& member_id) {
  check::MutexLock lock(mutex_);
  const auto it = groups_.find({topic, group});
  if (it == groups_.end()) {
    return;
  }
  std::erase_if(it->second.holders,
                [&](const auto& h) { return h.second == member_id; });
  if (it->second.members.erase(member_id) > 0) {
    rebalance(topic, it->second);
  }
}

const GroupCoordinator::Group* GroupCoordinator::find_group(
    const std::string& topic, const std::string& group) const {
  const auto it = groups_.find({topic, group});
  return it == groups_.end() ? nullptr : &it->second;
}

std::uint64_t GroupCoordinator::generation(const std::string& topic,
                                           const std::string& group) const {
  check::MutexLock lock(mutex_);
  const Group* g = find_group(topic, group);
  return g == nullptr ? 0 : g->generation;
}

std::vector<int> GroupCoordinator::assignment(
    const std::string& topic, const std::string& group,
    const std::string& member_id) const {
  check::MutexLock lock(mutex_);
  const Group* g = find_group(topic, group);
  if (g == nullptr) {
    return {};
  }
  const auto it = g->assignments.find(member_id);
  return it == g->assignments.end() ? std::vector<int>{} : it->second;
}

GroupCoordinator::MemberView GroupCoordinator::sync_member(
    const std::string& topic, const std::string& group,
    const std::string& member_id) {
  check::MutexLock lock(mutex_);
  MemberView view;
  const auto git = groups_.find({topic, group});
  if (git == groups_.end()) {
    return view;
  }
  Group& g = git->second;
  const auto ait = g.assignments.find(member_id);
  const std::vector<int> assigned =
      ait == g.assignments.end() ? std::vector<int>{} : ait->second;
  std::erase_if(g.holders, [&](const auto& h) {
    return h.second == member_id &&
           std::find(assigned.begin(), assigned.end(), h.first) ==
               assigned.end();
  });
  for (int p : assigned) {
    const auto held = g.holders.try_emplace(p, member_id).first;
    if (held->second != member_id) {
      continue;  // the previous holder has not released it yet
    }
    view.partitions.push_back(p);
    const auto c = g.committed.find(p);
    view.committed[p] = c == g.committed.end() ? 0 : c->second;
  }
  return view;
}

std::uint64_t GroupCoordinator::committed(const std::string& topic,
                                          const std::string& group,
                                          int partition) const {
  check::MutexLock lock(mutex_);
  const Group* g = find_group(topic, group);
  if (g == nullptr) {
    return 0;
  }
  const auto it = g->committed.find(partition);
  return it == g->committed.end() ? 0 : it->second;
}

void GroupCoordinator::commit(const std::string& topic,
                              const std::string& group, int partition,
                              std::uint64_t offset) {
  check::MutexLock lock(mutex_);
  Group& g = groups_[{topic, group}];
  std::uint64_t& cur = g.committed[partition];
  cur = std::max(cur, offset);
}

std::uint64_t GroupCoordinator::lag(const std::string& topic,
                                    const std::string& group) const {
  const int nparts = broker_.partition_count(topic);
  std::uint64_t total = 0;
  for (int p = 0; p < nparts; ++p) {
    const std::uint64_t end = broker_.end_offset(topic, p);
    const std::uint64_t done = committed(topic, group, p);
    total += end > done ? end - done : 0;
  }
  return total;
}

Consumer::Consumer(Broker& broker, GroupCoordinator& coordinator,
                   std::string topic, std::string group,
                   std::string member_id)
    : broker_(broker),
      coordinator_(coordinator),
      topic_(std::move(topic)),
      group_(std::move(group)),
      member_id_(std::move(member_id)) {
  coordinator_.join(topic_, group_, member_id_);
}

Consumer::~Consumer() {
  try {
    coordinator_.leave(topic_, group_, member_id_);
  } catch (...) {
    // Destructor must not throw.
  }
}

void Consumer::refresh_assignment() {
  const GroupCoordinator::MemberView view =
      coordinator_.sync_member(topic_, group_, member_id_);
  if (view.partitions == assigned_) {
    return;
  }
  std::map<int, std::uint64_t> positions;
  for (int p : view.partitions) {
    // A partition held across the change keeps its fetch position: no
    // other member can have read it meanwhile. A newly claimed one
    // resumes from the group's committed offset, clamped to retention.
    const auto kept = positions_.find(p);
    positions[p] = kept != positions_.end()
                       ? kept->second
                       : std::max(view.committed.at(p),
                                  broker_.begin_offset(topic_, p));
  }
  assigned_ = view.partitions;
  positions_ = std::move(positions);
  rr_index_ = 0;
}

std::vector<Message> Consumer::poll(std::size_t max_messages) {
  refresh_assignment();
  std::vector<Message> out;
  if (assigned_.empty() || max_messages == 0) {
    return out;
  }
  out.reserve(max_messages);
  // Round-robin over assigned partitions for fairness.
  for (std::size_t tried = 0;
       tried < assigned_.size() && out.size() < max_messages; ++tried) {
    const int p = assigned_[rr_index_ % assigned_.size()];
    ++rr_index_;
    std::uint64_t& pos = positions_[p];
    pos = broker_.fetch(topic_, p, pos, max_messages - out.size(), out);
  }
  consumed_ += out.size();
  return out;
}

void Consumer::commit() {
  for (const auto& [p, pos] : positions_) {
    coordinator_.commit(topic_, group_, p, pos);
  }
}

}  // namespace pa::stream
