#include "core/map_knowledge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace agentnet {
namespace {

TEST(MapKnowledgeTest, StartsEmpty) {
  MapKnowledge k(5);
  EXPECT_EQ(k.known_edge_count(), 0u);
  EXPECT_EQ(k.first_hand_edge_count(), 0u);
  for (NodeId v = 0; v < 5; ++v)
    EXPECT_EQ(k.last_visit_first_hand(v), kNeverVisited);
}

TEST(MapKnowledgeTest, ObserveRecordsEdgesAndVisit) {
  MapKnowledge k(5);
  const std::vector<NodeId> out{1, 3};
  k.observe_node(0, out, 7);
  EXPECT_TRUE(k.knows_edge(0, 1));
  EXPECT_TRUE(k.knows_edge_first_hand(0, 3));
  EXPECT_FALSE(k.knows_edge(1, 0));
  EXPECT_EQ(k.known_edge_count(), 2u);
  EXPECT_EQ(k.last_visit_first_hand(0), 7);
  EXPECT_EQ(k.last_visit_any(0), 7);
}

TEST(MapKnowledgeTest, RepeatObservationDoesNotDoubleCount) {
  MapKnowledge k(4);
  const std::vector<NodeId> out{1};
  k.observe_node(0, out, 1);
  k.observe_node(0, out, 5);
  EXPECT_EQ(k.known_edge_count(), 1u);
  EXPECT_EQ(k.last_visit_first_hand(0), 5);
}

TEST(MapKnowledgeTest, LearnFromKeepsHandsSeparate) {
  MapKnowledge a(4), b(4);
  const std::vector<NodeId> out_b{2};
  b.observe_node(1, out_b, 3);
  a.learn_from(b);
  EXPECT_TRUE(a.knows_edge(1, 2));
  EXPECT_FALSE(a.knows_edge_first_hand(1, 2))
      << "peer knowledge must land in the second-hand store";
  EXPECT_EQ(a.first_hand_edge_count(), 0u);
  EXPECT_EQ(a.known_edge_count(), 1u);
}

TEST(MapKnowledgeTest, LearnFromPropagatesVisitTimes) {
  MapKnowledge a(4), b(4);
  const std::vector<NodeId> none{};
  b.observe_node(2, none, 9);
  a.learn_from(b);
  EXPECT_EQ(a.last_visit_any(2), 9);
  EXPECT_EQ(a.last_visit_first_hand(2), kNeverVisited);
}

TEST(MapKnowledgeTest, LearnFromTakesMaxVisitTime) {
  MapKnowledge a(4), b(4);
  const std::vector<NodeId> none{};
  a.observe_node(2, none, 10);
  b.observe_node(2, none, 4);
  a.learn_from(b);
  EXPECT_EQ(a.last_visit_any(2), 10);
}

TEST(MapKnowledgeTest, TransitiveSecondHandSpreads) {
  // a learns from b who learned from c: c's edge reaches a.
  MapKnowledge a(4), b(4), c(4);
  const std::vector<NodeId> out{0};
  c.observe_node(3, out, 1);
  b.learn_from(c);
  a.learn_from(b);
  EXPECT_TRUE(a.knows_edge(3, 0));
}

TEST(MapKnowledgeTest, AdoptPoolMatchesLearnFrom) {
  MapKnowledge a1(4), a2(4), b(4);
  const std::vector<NodeId> out{1, 2};
  b.observe_node(0, out, 6);
  a1.learn_from(b);
  a2.adopt_pool(b.combined_edges(), b.any_visits());
  EXPECT_EQ(a1.known_edge_count(), a2.known_edge_count());
  EXPECT_EQ(a1.last_visit_any(0), a2.last_visit_any(0));
}

TEST(MapKnowledgeTest, CompletenessFraction) {
  MapKnowledge k(4);
  const std::vector<NodeId> out{1, 2};
  k.observe_node(0, out, 0);
  EXPECT_DOUBLE_EQ(k.completeness(4), 0.5);
  EXPECT_DOUBLE_EQ(k.completeness(0), 1.0);
}

TEST(MapKnowledgeTest, KnownEdgeCountInIgnoresVanishedEdges) {
  MapKnowledge k(3);
  const std::vector<NodeId> out{1, 2};
  k.observe_node(0, out, 0);
  Graph truth(3);
  truth.add_edge(0, 1);  // 0→2 no longer exists
  EXPECT_EQ(k.known_edge_count_in(truth), 1u);
  EXPECT_EQ(k.known_edge_count(), 2u);
}

TEST(MapKnowledgeTest, SerializedSizeTracksContents) {
  MapKnowledge k(6);
  EXPECT_EQ(k.serialized_size_bytes(), 0u);
  const std::vector<NodeId> out{1, 2, 3};
  k.observe_node(0, out, 5);
  // 3 edges x 8 bytes + 1 visited node x 12 bytes.
  EXPECT_EQ(k.serialized_size_bytes(), 3u * 8 + 12);
  // Second-hand knowledge counts too (the agent carries it when moving).
  MapKnowledge peer(6);
  const std::vector<NodeId> peer_out{0};
  peer.observe_node(4, peer_out, 1);
  k.learn_from(peer);
  EXPECT_EQ(k.serialized_size_bytes(), 4u * 8 + 2 * 12);
}

TEST(MapKnowledgeTest, SizeMismatchThrows) {
  MapKnowledge a(3), b(4);
  EXPECT_THROW(a.learn_from(b), ConfigError);
}

TEST(MapKnowledgeTest, RejectsZeroNodes) {
  EXPECT_THROW(MapKnowledge(0), ConfigError);
}

// Stale-knowledge expiry (resilience policy): hearsay survives the epoch
// rotation that closes its epoch and drops at the next one, so its
// effective age is in [ttl, 2*ttl). First-hand observations never expire.
TEST(MapKnowledgeExpiryTest, HearsayExpiresAfterTwoRotations) {
  MapKnowledge k(5);
  MapKnowledge peer(5);
  const std::vector<NodeId> peer_out{4};
  peer.observe_node(3, peer_out, 2);
  k.expire_second_hand(0, 10);  // first call activates the epoch clock
  k.learn_from(peer);           // hearsay learned inside epoch [0, 10)
  const std::vector<NodeId> own_out{1};
  k.observe_node(0, own_out, 1);  // first-hand
  EXPECT_EQ(k.known_edge_count(), 2u);
  k.expire_second_hand(9, 10);  // same epoch: nothing happens
  EXPECT_EQ(k.known_edge_count(), 2u);
  k.expire_second_hand(10, 10);  // rotation 1: hearsay still fresh enough
  EXPECT_EQ(k.known_edge_count(), 2u);
  k.expire_second_hand(20, 10);  // rotation 2: hearsay aged out
  EXPECT_EQ(k.known_edge_count(), 1u);
  EXPECT_EQ(k.first_hand_edge_count(), 1u)
      << "first-hand knowledge never expires";
}

TEST(MapKnowledgeExpiryTest, RefreshedHearsayStaysAlive) {
  MapKnowledge k(5);
  MapKnowledge peer(5);
  const std::vector<NodeId> peer_out{4};
  peer.observe_node(3, peer_out, 2);
  k.expire_second_hand(0, 10);
  k.learn_from(peer);
  k.expire_second_hand(10, 10);  // rotation 1
  k.learn_from(peer);            // re-heard in the new epoch
  k.expire_second_hand(20, 10);  // rotation 2: refreshed copy survives
  EXPECT_EQ(k.known_edge_count(), 1u);
  k.expire_second_hand(40, 10);  // no refresh since: gone
  EXPECT_EQ(k.known_edge_count(), 0u);
}

TEST(MapKnowledgeExpiryTest, ZeroTtlDisablesExpiry) {
  MapKnowledge k(5);
  MapKnowledge peer(5);
  const std::vector<NodeId> peer_out{4};
  peer.observe_node(3, peer_out, 2);
  k.learn_from(peer);
  k.expire_second_hand(1000, 0);
  EXPECT_EQ(k.known_edge_count(), 1u) << "ttl 0 must be a no-op";
}

TEST(MapKnowledgeTest, AdoptPoolRejectsNonSuperset) {
  MapKnowledge a(4), b(4);
  const std::vector<NodeId> out{1, 2, 3};
  a.observe_node(0, out, 1);
  EXPECT_THROW(a.adopt_pool(b.combined_edges(), b.any_visits()), ConfigError)
      << "a pool smaller than the agent's own map cannot be a superset";
  MapKnowledge small(3);
  EXPECT_THROW(a.adopt_pool(small.combined_edges(), b.any_visits()),
               ConfigError);
  EXPECT_THROW(a.adopt_pool(b.combined_edges(), small.any_visits()),
               ConfigError);
}

// --- Randomized checks -------------------------------------------------

/// Random out-neighbour lists over `n` nodes (sorted, no self-loops).
std::vector<std::vector<NodeId>> random_adjacency(std::size_t n, Rng& rng) {
  std::vector<std::vector<NodeId>> out(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v)
      if (v != u && rng.bernoulli(0.15)) out[u].push_back(v);
  }
  return out;
}

/// Random disjoint meeting groups of size >= 2 over `agents` indices.
std::vector<std::vector<std::size_t>> random_groups(std::size_t agents,
                                                    Rng& rng) {
  std::vector<std::size_t> order(agents);
  for (std::size_t i = 0; i < agents; ++i) order[i] = i;
  rng.shuffle(std::span<std::size_t>(order));
  std::vector<std::vector<std::size_t>> groups;
  std::size_t at = 0;
  while (at + 1 < order.size()) {
    const std::size_t size =
        std::min(order.size() - at, 2 + rng.index(4));
    if (rng.bernoulli(0.6))
      groups.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(at),
                          order.begin() +
                              static_cast<std::ptrdiff_t>(at + size));
    at += size;
  }
  return groups;
}

std::size_t recounted_size(const MapKnowledge& k) {
  const auto visits = k.any_visits();
  const auto visited = static_cast<std::size_t>(
      std::count_if(visits.begin(), visits.end(),
                    [](std::int64_t t) { return t != kNeverVisited; }));
  return 8 * k.combined_edges().count() + 12 * visited;
}

void expect_same_knowledge(const MapKnowledge& fast, const MapKnowledge& ref,
                           const std::string& where) {
  EXPECT_TRUE(fast.combined_edges() == ref.combined_edges()) << where;
  EXPECT_TRUE(std::equal(fast.any_visits().begin(), fast.any_visits().end(),
                         ref.any_visits().begin(), ref.any_visits().end()))
      << where;
  EXPECT_EQ(fast.known_edge_count(), ref.known_edge_count()) << where;
  EXPECT_EQ(fast.serialized_size_bytes(), ref.serialized_size_bytes())
      << where;
  const auto n = static_cast<NodeId>(fast.node_count());
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = 0; v < n; ++v)
      ASSERT_EQ(fast.knows_edge_first_hand(u, v),
                ref.knows_edge_first_hand(u, v))
          << where << " edge " << u << "->" << v;
}

// The exchange path (pool + adopt_pool) must leave every agent exactly as
// the historical semantics would: a group's maps folded together through
// pairwise learn_from into one carrier, which every member then learns
// from. Expiry on and off, across several epoch rotations.
TEST(MapKnowledgeRandomizedTest, AdoptPoolEqualsPairwiseLearnFrom) {
  constexpr std::size_t kNodes = 23;
  constexpr std::size_t kAgents = 9;
  for (const std::size_t ttl : {std::size_t{0}, std::size_t{3}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 101 + ttl);
      const auto adjacency = random_adjacency(kNodes, rng);
      std::vector<MapKnowledge> fast(kAgents, MapKnowledge(kNodes));
      std::vector<MapKnowledge> ref(kAgents, MapKnowledge(kNodes));
      KnowledgePool pool(kNodes);
      for (std::size_t t = 0; t < 40; ++t) {
        const std::string where = "ttl=" + std::to_string(ttl) + " seed=" +
                                  std::to_string(seed) +
                                  " t=" + std::to_string(t);
        for (std::size_t a = 0; a < kAgents; ++a) {
          if (!rng.bernoulli(0.7)) continue;
          const auto node = static_cast<NodeId>(rng.index(kNodes));
          fast[a].observe_node(node, adjacency[node], t);
          ref[a].observe_node(node, adjacency[node], t);
        }
        for (const auto& group : random_groups(kAgents, rng)) {
          pool.seed(fast[group.front()]);
          for (std::size_t m = 1; m < group.size(); ++m)
            pool.absorb(fast[group[m]]);
          for (std::size_t idx : group)
            fast[idx].adopt_pool(pool.edges(), pool.visits());

          MapKnowledge carrier(kNodes);
          for (std::size_t idx : group) carrier.learn_from(ref[idx]);
          for (std::size_t idx : group) ref[idx].learn_from(carrier);
        }
        for (std::size_t a = 0; a < kAgents; ++a) {
          fast[a].expire_second_hand(t, ttl);
          ref[a].expire_second_hand(t, ttl);
          expect_same_knowledge(fast[a], ref[a],
                                where + " agent=" + std::to_string(a));
        }
      }
    }
  }
}

// serialized_size_bytes() is kept incrementally; after every mutating
// operation it must equal a full recount of the visit times.
TEST(MapKnowledgeRandomizedTest, SerializedSizeMatchesRecount) {
  constexpr std::size_t kNodes = 17;
  Rng rng(77);
  const auto adjacency = random_adjacency(kNodes, rng);
  std::vector<MapKnowledge> agents(5, MapKnowledge(kNodes));
  KnowledgePool pool(kNodes);
  for (std::size_t t = 0; t < 200; ++t) {
    MapKnowledge& k = agents[rng.index(agents.size())];
    MapKnowledge& peer = agents[rng.index(agents.size())];
    switch (rng.index(4)) {
      case 0: {
        const auto node = static_cast<NodeId>(rng.index(kNodes));
        k.observe_node(node, adjacency[node], t);
        break;
      }
      case 1:
        k.learn_from(peer);
        break;
      case 2:
        pool.seed(k);
        pool.absorb(peer);
        k.adopt_pool(pool.edges(), pool.visits());
        peer.adopt_pool(pool.edges(), pool.visits());
        ASSERT_EQ(peer.serialized_size_bytes(), recounted_size(peer))
            << "t=" << t;
        break;
      default:
        k.expire_second_hand(t, 1 + rng.index(5));
        break;
    }
    ASSERT_EQ(k.serialized_size_bytes(), recounted_size(k)) << "t=" << t;
  }
  // load_state recomputes the count from the restored visit times.
  for (const MapKnowledge& k : agents) {
    snapshot::ByteWriter w;
    k.save_state(w);
    snapshot::ByteReader r(w.bytes());
    MapKnowledge restored(kNodes);
    restored.load_state(r);
    EXPECT_EQ(restored.serialized_size_bytes(), k.serialized_size_bytes());
    EXPECT_TRUE(restored.combined_edges() == k.combined_edges());
  }
}

}  // namespace
}  // namespace agentnet
