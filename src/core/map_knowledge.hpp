// An agent's model of the network topology: first-hand knowledge (edges the
// agent observed itself, nodes it visited) and its full map (first-hand plus
// whatever it learned from peers during direct communication). The paper
// separates the hands because movement policies differ in which they may
// consult: conscientious agents use first-hand only, super-conscientious
// agents use both. Hearsay on its own is tracked only for expiry.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/dense_bitset.hpp"
#include "core/selection.hpp"
#include "net/graph.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

class MapKnowledge {
 public:
  explicit MapKnowledge(std::size_t node_count);

  std::size_t node_count() const { return node_count_; }

  /// First-hand observation: the agent stands on `node` at time `now` and
  /// sees all of its out-edges.
  void observe_node(NodeId node, std::span<const NodeId> out_neighbors,
                    std::size_t now);

  /// Direct communication: absorbs everything `peer` knows (both hands)
  /// as second-hand knowledge.
  void learn_from(const MapKnowledge& peer);

  /// Direct communication in a co-located group: adopts the group's pooled
  /// map. `pool` is the union of every member's combined edge set and
  /// `visits` the element-wise max of their visit times (see MappingTask),
  /// so both are supersets of this agent's own and the agent's full map
  /// becomes exactly the pool — one copy, no merge. Only the O(1) part of
  /// that precondition is checked (sizes, pool.count() >= own count).
  void adopt_pool(const DenseBitset& pool,
                  std::span<const std::int64_t> visits);

  /// Resilience policy (fault subsystem): forgets second-hand knowledge
  /// older than `ttl` steps. Implemented as epoch rotation — hearsay
  /// survives the rotation that closes the epoch it was learned in and
  /// drops at the next one, so its effective age at expiry is in
  /// [ttl, 2·ttl). First-hand observations never expire. Call once per
  /// step with the current time; `ttl` 0 is a no-op, and the first call
  /// lazily allocates the epoch bookkeeping (fault-free agents pay no
  /// memory for this).
  void expire_second_hand(std::size_t now, std::size_t ttl);

  /// The agent's full (first ∪ second hand) edge set; used to pool group
  /// knowledge without exposing internals for mutation.
  const DenseBitset& combined_edges() const { return combined_; }
  /// Last-visit times over both hands, indexed by node.
  std::span<const std::int64_t> any_visits() const { return any_visit_; }

  bool knows_edge_first_hand(NodeId u, NodeId v) const;
  /// Either hand.
  bool knows_edge(NodeId u, NodeId v) const;

  std::size_t first_hand_edge_count() const { return first_hand_.count(); }
  /// Size of (first ∪ second) hand edge sets — the agent's full map.
  std::size_t known_edge_count() const { return combined_.count(); }

  /// |known ∩ truth| — for dynamic topologies where stale knowledge may
  /// reference edges that no longer exist.
  std::size_t known_edge_count_in(const Graph& truth) const;
  /// CSR variant — identical count over the frozen snapshot.
  std::size_t known_edge_count_in(const CsrView& truth) const;

  std::int64_t last_visit_first_hand(NodeId node) const;
  /// Includes visit times learned from peers (what super-conscientious
  /// movement consults).
  std::int64_t last_visit_any(NodeId node) const;
  bool visited_first_hand(NodeId node) const {
    return last_visit_first_hand(node) != kNeverVisited;
  }

  /// Fraction of `truth_edge_count` edges known; truth must be the count of
  /// the graph the observations came from.
  double completeness(std::size_t truth_edge_count) const;

  /// Serialized size of this knowledge store if the agent migrated now:
  /// 8 bytes per known edge plus 12 per node with a known visit time. The
  /// paper cares about agent overhead ("due to cost of trans[portation an]
  /// agent should be small in size"); tasks meter migration traffic with
  /// this on every hop, so both counts are kept incrementally (O(1)).
  std::size_t serialized_size_bytes() const {
    return 8 * combined_.count() + 12 * visited_nodes_;
  }

  /// Checkpoint support: first-hand and combined edge sets, visit times and
  /// the expiry-epoch bookkeeping. load_state validates every size against
  /// node_count() — a CRC-valid stream from another network must fail with
  /// ConfigError, never index out of bounds.
  void save_state(snapshot::ByteWriter& w) const {
    w.size(node_count_);
    first_hand_.save_state(w);
    combined_.save_state(w);
    w.pod_vec(first_hand_visit_);
    w.pod_vec(any_visit_);
    w.boolean(expiry_enabled_);
    w.size(last_rotation_);
    second_recent_.save_state(w);
    w.pod_vec(learned_visit_prev_);
    w.pod_vec(learned_visit_recent_);
  }
  void load_state(snapshot::ByteReader& r);

 private:
  std::size_t bit_index(NodeId u, NodeId v) const {
    AGENTNET_ASSERT(u < node_count_ && v < node_count_);
    return static_cast<std::size_t>(u) * node_count_ + v;
  }

  std::size_t node_count_;
  DenseBitset first_hand_;
  DenseBitset combined_;  // first hand ∪ live hearsay
  std::vector<std::int64_t> first_hand_visit_;
  std::vector<std::int64_t> any_visit_;
  std::size_t visited_nodes_ = 0;  // entries of any_visit_ != kNeverVisited
  // Expiry epoch bookkeeping, allocated on the first expire_second_hand
  // call: hearsay learned in the current epoch, and learned-visit times
  // split by epoch so any_visit_ can be rebuilt at rotation.
  bool expiry_enabled_ = false;
  std::size_t last_rotation_ = 0;
  DenseBitset second_recent_;
  std::vector<std::int64_t> learned_visit_prev_;
  std::vector<std::int64_t> learned_visit_recent_;
};

/// A co-located group's pooled knowledge, built for MapKnowledge::adopt_pool:
/// the union of the members' combined edge sets and the element-wise max of
/// their visit times. Seeding copies the first member's map, so a meeting of
/// m agents costs one copy plus m−1 counted merges.
class KnowledgePool {
 public:
  explicit KnowledgePool(std::size_t node_count)
      : edges_(node_count * node_count), visits_(node_count) {}

  /// Resets the pool to a copy of `first`'s map.
  void seed(const MapKnowledge& first);
  /// Folds another member's map into the pool.
  void absorb(const MapKnowledge& member);

  const DenseBitset& edges() const { return edges_; }
  std::span<const std::int64_t> visits() const { return visits_; }

 private:
  DenseBitset edges_;
  std::vector<std::int64_t> visits_;
};

}  // namespace agentnet
