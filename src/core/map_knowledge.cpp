#include "core/map_knowledge.hpp"

#include <algorithm>

namespace agentnet {

MapKnowledge::MapKnowledge(std::size_t node_count)
    : node_count_(node_count),
      first_hand_(node_count * node_count),
      combined_(node_count * node_count),
      first_hand_visit_(node_count, kNeverVisited),
      any_visit_(node_count, kNeverVisited) {
  AGENTNET_REQUIRE(node_count > 0, "knowledge needs >= 1 node");
}

void MapKnowledge::observe_node(NodeId node,
                                std::span<const NodeId> out_neighbors,
                                std::size_t now) {
  AGENTNET_ASSERT(node < node_count_);
  const auto t = static_cast<std::int64_t>(now);
  if (any_visit_[node] == kNeverVisited) ++visited_nodes_;
  first_hand_visit_[node] = std::max(first_hand_visit_[node], t);
  any_visit_[node] = std::max(any_visit_[node], t);
  for (NodeId v : out_neighbors) {
    const std::size_t bit = bit_index(node, v);
    first_hand_.set(bit);
    combined_.set(bit);
  }
}

void MapKnowledge::learn_from(const MapKnowledge& peer) {
  AGENTNET_REQUIRE(peer.node_count_ == node_count_,
                   "knowledge node-count mismatch");
  combined_.merge(peer.combined_);
  for (std::size_t i = 0; i < node_count_; ++i) {
    if (any_visit_[i] == kNeverVisited && peer.any_visit_[i] != kNeverVisited)
      ++visited_nodes_;
    any_visit_[i] = std::max(any_visit_[i], peer.any_visit_[i]);
  }
  if (expiry_enabled_) {
    second_recent_.merge(peer.combined_);
    for (std::size_t i = 0; i < node_count_; ++i)
      learned_visit_recent_[i] =
          std::max(learned_visit_recent_[i], peer.any_visit_[i]);
  }
}

void MapKnowledge::adopt_pool(const DenseBitset& pool,
                              std::span<const std::int64_t> visits) {
  AGENTNET_REQUIRE(pool.size() == combined_.size(),
                   "pooled edge bitset size mismatch");
  AGENTNET_REQUIRE(visits.size() == node_count_,
                   "pooled visit vector size mismatch");
  AGENTNET_REQUIRE(pool.count() >= combined_.count(),
                   "pooled edge set is not a superset of the agent's map");
  combined_ = pool;
  std::size_t visited = 0;
  for (std::size_t i = 0; i < node_count_; ++i) {
    any_visit_[i] = visits[i];
    visited += visits[i] != kNeverVisited;
  }
  visited_nodes_ = visited;
  if (expiry_enabled_) {
    second_recent_.merge(pool);
    for (std::size_t i = 0; i < node_count_; ++i)
      learned_visit_recent_[i] =
          std::max(learned_visit_recent_[i], visits[i]);
  }
}

void MapKnowledge::expire_second_hand(std::size_t now, std::size_t ttl) {
  if (ttl == 0) return;
  if (!expiry_enabled_) {
    // Lazy activation: hearsay absorbed before this point belongs to an
    // epoch that is already ending, so it ages out at the first rotation.
    expiry_enabled_ = true;
    last_rotation_ = now;
    second_recent_ = DenseBitset(node_count_ * node_count_);
    learned_visit_prev_.assign(node_count_, kNeverVisited);
    learned_visit_recent_.assign(node_count_, kNeverVisited);
    return;
  }
  if (now < last_rotation_ + ttl) return;
  // Epoch rotation: the closing epoch's hearsay is the only second-hand
  // knowledge that survives; everything older is forgotten.
  combined_ = first_hand_;
  combined_.merge(second_recent_);
  second_recent_.clear();
  learned_visit_prev_ = learned_visit_recent_;
  std::fill(learned_visit_recent_.begin(), learned_visit_recent_.end(),
            kNeverVisited);
  std::size_t visited = 0;
  for (std::size_t i = 0; i < node_count_; ++i) {
    any_visit_[i] = std::max(first_hand_visit_[i], learned_visit_prev_[i]);
    visited += any_visit_[i] != kNeverVisited;
  }
  visited_nodes_ = visited;
  last_rotation_ = now;
}

void MapKnowledge::load_state(snapshot::ByteReader& r) {
  const std::size_t n = r.size();
  AGENTNET_REQUIRE(n == node_count_,
                   "snapshot: map knowledge node count mismatch");
  const std::size_t bits = n * n;
  first_hand_.load_state(r);
  combined_.load_state(r);
  AGENTNET_REQUIRE(first_hand_.size() == bits && combined_.size() == bits,
                   "snapshot: map knowledge edge set size mismatch");
  r.pod_vec(first_hand_visit_);
  r.pod_vec(any_visit_);
  AGENTNET_REQUIRE(first_hand_visit_.size() == n && any_visit_.size() == n,
                   "snapshot: map knowledge visit vector size mismatch");
  expiry_enabled_ = r.boolean();
  last_rotation_ = r.size();
  second_recent_.load_state(r);
  r.pod_vec(learned_visit_prev_);
  r.pod_vec(learned_visit_recent_);
  // The expiry bookkeeping exists exactly when expiry is on.
  const std::size_t epoch_nodes = expiry_enabled_ ? n : 0;
  AGENTNET_REQUIRE(second_recent_.size() == (expiry_enabled_ ? bits : 0),
                   "snapshot: map knowledge hearsay set size mismatch");
  AGENTNET_REQUIRE(learned_visit_prev_.size() == epoch_nodes &&
                       learned_visit_recent_.size() == epoch_nodes,
                   "snapshot: map knowledge learned-visit size mismatch");
  visited_nodes_ = static_cast<std::size_t>(
      std::count_if(any_visit_.begin(), any_visit_.end(),
                    [](std::int64_t t) { return t != kNeverVisited; }));
}

bool MapKnowledge::knows_edge_first_hand(NodeId u, NodeId v) const {
  return first_hand_.test(bit_index(u, v));
}

bool MapKnowledge::knows_edge(NodeId u, NodeId v) const {
  return combined_.test(bit_index(u, v));
}

namespace {

template <class AnyGraph>
std::size_t known_in(const MapKnowledge& k, const AnyGraph& truth) {
  AGENTNET_REQUIRE(truth.node_count() == k.node_count(),
                   "truth graph node-count mismatch");
  std::size_t n = 0;
  for (NodeId u = 0; u < k.node_count(); ++u)
    for (NodeId v : truth.out_neighbors(u))
      if (k.knows_edge(u, v)) ++n;
  return n;
}

}  // namespace

std::size_t MapKnowledge::known_edge_count_in(const Graph& truth) const {
  return known_in(*this, truth);
}

std::size_t MapKnowledge::known_edge_count_in(const CsrView& truth) const {
  return known_in(*this, truth);
}

std::int64_t MapKnowledge::last_visit_first_hand(NodeId node) const {
  AGENTNET_ASSERT(node < node_count_);
  return first_hand_visit_[node];
}

std::int64_t MapKnowledge::last_visit_any(NodeId node) const {
  AGENTNET_ASSERT(node < node_count_);
  return any_visit_[node];
}

double MapKnowledge::completeness(std::size_t truth_edge_count) const {
  if (truth_edge_count == 0) return 1.0;
  return static_cast<double>(known_edge_count()) /
         static_cast<double>(truth_edge_count);
}

void KnowledgePool::seed(const MapKnowledge& first) {
  AGENTNET_REQUIRE(first.node_count() == visits_.size(),
                   "knowledge node-count mismatch");
  edges_ = first.combined_edges();
  std::copy(first.any_visits().begin(), first.any_visits().end(),
            visits_.begin());
}

void KnowledgePool::absorb(const MapKnowledge& member) {
  AGENTNET_REQUIRE(member.node_count() == visits_.size(),
                   "knowledge node-count mismatch");
  edges_.merge(member.combined_edges());
  const auto visits = member.any_visits();
  for (std::size_t i = 0; i < visits_.size(); ++i)
    visits_[i] = std::max(visits_[i], visits[i]);
}

}  // namespace agentnet
