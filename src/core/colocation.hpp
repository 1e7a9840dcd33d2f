// Co-location grouping shared by the task loops.
//
// Meetings happen between agents standing on the same node. The grouping
// is the load-bearing input of the group-parallel exchange phase
// (common/agent_parallel.hpp): groups are disjoint by construction —
// every agent index appears in at most one group — so distinct groups can
// pool and merge concurrently, while the group *order* (ascending venue
// node id) fixes the serial order fault draws, counters and trace events
// replay in. Within a group, members stay in ascending agent-index order
// (the sort key packs (location, index), so tie order never depends on the
// sort implementation). Meeting outcomes are member-order independent —
// pooling is a commutative max/merge — so pinning the tie order only
// fixes the per-member event sequence.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace agentnet {

/// Meeting groups in flat form: group g's members are
/// members[offsets[g], offsets[g + 1]). The buffers are caller-owned and
/// reused across steps, so a warm grouping allocates nothing.
struct MeetingGroups {
  std::vector<std::uint64_t> keys;  ///< (venue << 32) | index, sort scratch.
  std::vector<std::size_t> members;
  std::vector<std::size_t> offsets;  ///< Group starts, then members.size().

  std::size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const std::size_t> operator[](std::size_t g) const {
    return std::span<const std::size_t>(members).subspan(
        offsets[g], offsets[g + 1] - offsets[g]);
  }

  /// Sorts `keys` and keeps every run of two or more equal venues (high
  /// 32 bits) as one group, venues ascending, members (low 32 bits)
  /// ascending within a group.
  void group_keys() {
    std::sort(keys.begin(), keys.end());
    members.clear();
    offsets.clear();
    std::size_t i = 0;
    while (i < keys.size()) {
      std::size_t j = i + 1;
      while (j < keys.size() && (keys[j] >> 32) == (keys[i] >> 32)) ++j;
      if (j - i >= 2) {
        offsets.push_back(members.size());
        for (std::size_t k = i; k < j; ++k)
          members.push_back(static_cast<std::size_t>(keys[k] & 0xffffffffu));
      }
      i = j;
    }
    if (!offsets.empty()) offsets.push_back(members.size());
  }
};

/// Groups agent indices by location into `out`; keeps only groups of two
/// or more (singletons have nobody to meet). Groups are ordered by venue
/// node id; members by ascending agent index.
template <typename Agent>
void colocated_groups(const std::vector<Agent>& agents, MeetingGroups& out) {
  AGENTNET_ASSERT(agents.size() <= 0xffffffffu);
  out.keys.clear();
  for (std::size_t i = 0; i < agents.size(); ++i)
    out.keys.push_back(
        (static_cast<std::uint64_t>(agents[i].location()) << 32) | i);
  out.group_keys();
}

}  // namespace agentnet
