// colocated_groups() is the load-bearing input of the group-parallel
// exchange phase (common/agent_parallel.hpp): the engine relies on groups
// being disjoint (so distinct groups can pool concurrently) and on the
// (venue, member) ordering being a pure function of the roster (so the
// serial commit pass replays fault draws, counters and trace events in the
// historical order).
#include "core/colocation.hpp"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "net/graph.hpp"

namespace agentnet {
namespace {

struct StubAgent {
  NodeId where = 0;
  NodeId location() const { return where; }
};

std::vector<StubAgent> roster(std::initializer_list<NodeId> locations) {
  std::vector<StubAgent> agents;
  for (NodeId v : locations) agents.push_back({v});
  return agents;
}

/// colocated_groups' flat output as one vector per group.
std::vector<std::vector<std::size_t>> groups_of(
    const std::vector<StubAgent>& agents) {
  MeetingGroups flat;
  colocated_groups(agents, flat);
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t g = 0; g < flat.size(); ++g)
    groups.emplace_back(flat[g].begin(), flat[g].end());
  return groups;
}

TEST(ColocationTest, EmptyRosterHasNoGroups) {
  EXPECT_TRUE(groups_of(std::vector<StubAgent>{}).empty());
}

TEST(ColocationTest, SingletonsAreFiltered) {
  // Everyone alone on their node: nobody to meet.
  const auto agents = roster({4, 9, 1, 7});
  EXPECT_TRUE(groups_of(agents).empty());
}

TEST(ColocationTest, GroupsOrderedByVenueMembersByIndex) {
  // Node 2 hosts agents {1, 4}, node 7 hosts {0, 3, 5}; agent 2 is alone.
  const auto agents = roster({7, 2, 11, 7, 2, 7});
  const auto groups = groups_of(agents);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(groups[1], (std::vector<std::size_t>{0, 3, 5}));
}

TEST(ColocationTest, GroupsAreDisjointAndCoverAllMeetings) {
  // Random rosters: every agent index appears in at most one group, member
  // lists are strictly increasing, venues strictly increase across groups,
  // and an index is grouped iff its location is shared.
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<StubAgent> agents(1 + rng.index(40));
    for (auto& agent : agents)
      agent.where = static_cast<NodeId>(rng.index(12));
    std::vector<std::size_t> occupancy(12, 0);
    for (const auto& agent : agents) ++occupancy[agent.where];

    const auto groups = groups_of(agents);
    std::vector<char> grouped(agents.size(), 0);
    NodeId previous_venue = 0;
    bool first_group = true;
    for (const auto& group : groups) {
      ASSERT_GE(group.size(), 2u);
      const NodeId venue = agents[group.front()].location();
      if (!first_group) {
        EXPECT_GT(venue, previous_venue);
      }
      previous_venue = venue;
      first_group = false;
      for (std::size_t k = 0; k < group.size(); ++k) {
        EXPECT_EQ(agents[group[k]].location(), venue);
        if (k > 0) {
          EXPECT_GT(group[k], group[k - 1]);
        }
        EXPECT_FALSE(grouped[group[k]]) << "index in two groups";
        grouped[group[k]] = 1;
      }
    }
    for (std::size_t i = 0; i < agents.size(); ++i)
      EXPECT_EQ(grouped[i] != 0, occupancy[agents[i].where] >= 2)
          << "agent " << i;
  }
}

TEST(ColocationTest, OrderIndependentOfRosterPermutation) {
  // Same multiset of locations, different index assignment: the venue
  // order is identical and each group holds the permuted indices.
  const auto agents = roster({5, 3, 5, 3, 8, 8, 8});
  const auto swapped = roster({3, 5, 3, 5, 8, 8, 8});
  const auto a = groups_of(agents);
  const auto b = groups_of(swapped);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g)
    EXPECT_EQ(agents[a[g].front()].location(),
              swapped[b[g].front()].location());
  EXPECT_EQ(b[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(b[1], (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(b[2], (std::vector<std::size_t>{4, 5, 6}));
}

TEST(ColocationTest, ReusedBuffersRegroupFromScratch) {
  // One MeetingGroups across rosters of different sizes: each call
  // replaces the previous grouping entirely, and a roster with no
  // meetings leaves no groups behind.
  MeetingGroups flat;
  colocated_groups(roster({7, 2, 11, 7, 2, 7}), flat);
  ASSERT_EQ(flat.size(), 2u);
  colocated_groups(roster({4, 4}), flat);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(std::vector<std::size_t>(flat[0].begin(), flat[0].end()),
            (std::vector<std::size_t>{0, 1}));
  colocated_groups(roster({1, 2, 3}), flat);
  EXPECT_EQ(flat.size(), 0u);
  EXPECT_TRUE(flat.members.empty());
}

}  // namespace
}  // namespace agentnet
