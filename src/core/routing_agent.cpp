#include "core/routing_agent.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace agentnet {

const char* to_string(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kRandom:
      return "random";
    case RoutingPolicy::kOldestNode:
      return "oldest-node";
  }
  return "?";
}

RoutingAgent::RoutingAgent(int id, NodeId start, RoutingAgentConfig config,
                           Rng rng)
    : id_(id), location_(start), config_(config), rng_(rng) {
  AGENTNET_REQUIRE(config.history_size >= 1, "history size must be >= 1");
}

void RoutingAgent::remember_visit(NodeId node, std::size_t now) {
  history_[node] = now;
  trim_history();
}

void RoutingAgent::trim_history() {
  while (history_.size() > config_.history_size) {
    // Evict the oldest entry; ties broken by lowest node id, which sorted
    // iteration order makes deterministic.
    auto oldest = history_.begin();
    for (auto it = std::next(history_.begin()); it != history_.end(); ++it)
      if (it->second < oldest->second) oldest = it;
    history_.erase(oldest);
  }
}

void RoutingAgent::merge_histories(const History& a, const History& b,
                                   History& out) {
  out.clear();
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (i->first < j->first) {
      out.append(i->first, i->second);
      ++i;
    } else if (j->first < i->first) {
      out.append(j->first, j->second);
      ++j;
    } else {
      out.append(i->first, std::max(i->second, j->second));
      ++i;
      ++j;
    }
  }
  for (; i != a.end(); ++i) out.append(i->first, i->second);
  for (; j != b.end(); ++j) out.append(j->first, j->second);
}

void RoutingAgent::trim_into(const History& pool, std::size_t cap,
                             History& out) {
  if (pool.size() <= cap) {
    out = pool;
    return;
  }
  // The (step, node) pair of rank k − 1 in ascending order is the cut:
  // the entries at or below it are the k oldest, lowest node ids first on
  // equal steps — exactly what k rounds of evict-oldest remove.
  const std::size_t k = pool.size() - cap;
  thread_local std::vector<std::pair<std::size_t, NodeId>> keys;
  keys.clear();
  for (const auto& [node, step] : pool) keys.emplace_back(step, node);
  std::nth_element(keys.begin(), keys.begin() + (k - 1), keys.end());
  const auto cut = keys[k - 1];
  out.clear();
  for (const auto& [node, step] : pool)
    if (std::pair(step, node) > cut) out.append(node, step);
}

void RoutingAgent::arrive(const std::vector<bool>& is_gateway,
                          std::size_t now) {
  AGENTNET_ASSERT(location_ < is_gateway.size());
  remember_visit(location_, now);
  if (is_gateway[location_]) {
    // Standing on a gateway: the reverse route is trivial and fresh.
    hint_ = RouteHint{location_, 0, kInvalidNode, now};
  }
}

NodeId RoutingAgent::decide(const Graph& graph, const StigmergyBoard& board,
                            std::size_t now) {
  const auto neighbors = graph.out_neighbors(location_);
  if (neighbors.empty()) return location_;
  switch (config_.policy) {
    case RoutingPolicy::kRandom:
      return select_target(
          neighbors, [](NodeId) { return std::int64_t{0}; },
          config_.stigmergy, board, location_, now, rng_);
    case RoutingPolicy::kOldestNode:
      return select_target(
          neighbors,
          [&](NodeId v) {
            const auto it = history_.find(v);
            // Never visited or forgotten → most attractive.
            return it == history_.end()
                       ? kNeverVisited
                       : static_cast<std::int64_t>(it->second);
          },
          config_.stigmergy, board, location_, now, rng_,
          TieBreak::kSharedHash);
  }
  return location_;
}

bool RoutingAgent::hint_better(const RouteHint& a, const RouteHint& b) {
  if (a.valid() != b.valid()) return a.valid();
  if (!a.valid()) return false;
  if (a.hops != b.hops) return a.hops < b.hops;
  if (a.updated != b.updated) return a.updated > b.updated;
  return a.gateway < b.gateway;
}

void RoutingAgent::adopt(const RouteHint& best, const History& peer_history) {
  if (hint_better(best, hint_)) hint_ = best;
  thread_local History merged;
  merge_histories(history_, peer_history, merged);
  trim_into(merged, config_.history_size, history_);
}

void RoutingAgent::adopt_pool(const RouteHint& best,
                              const History& trimmed_pool) {
  AGENTNET_ASSERT(trimmed_pool.size() <= config_.history_size);
  if (hint_better(best, hint_)) hint_ = best;
  history_ = trimmed_pool;
}

void RoutingAgent::move_to(NodeId target) {
  if (target == location_) return;  // waited in place; hint unchanged
  const NodeId prev = location_;
  location_ = target;
  if (!hint_.valid()) return;
  // The walk got one hop longer; the reverse route now starts through the
  // node just left. Past the memory bound the agent forgets the path.
  hint_.hops += 1;
  hint_.next_hop = prev;
  if (hint_.hops > config_.history_size) hint_ = RouteHint{};
}

bool RoutingAgent::install(RoutingTables& tables,
                           const std::vector<bool>& is_gateway,
                           std::size_t now) {
  AGENTNET_ASSERT(location_ < is_gateway.size());
  if (is_gateway[location_]) return false;  // gateways need no route
  if (!hint_.valid() || hint_.next_hop == kInvalidNode) return false;
  RouteEntry entry;
  entry.next_hop = hint_.next_hop;
  entry.gateway = hint_.gateway;
  entry.hops = hint_.hops;
  entry.installed_at = now;
  return tables.offer(location_, entry, now);
}

}  // namespace agentnet
