// Routing agents (paper §III): mobile programs that keep per-node routing
// tables pointing toward gateways in a mobile ad hoc network.
//
// An agent carries (a) a bounded history of recently visited nodes — its
// working memory, used by the oldest-node policy and merged wholesale during
// meetings — and (b) a "route hint": the reverse of its walk back to the
// last gateway it passed through. The hint grows one hop per move and
// expires when it exceeds the history size (the agent can no longer
// remember the path). Landing on a node, the agent offers the hint to that
// node's routing table.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "core/selection.hpp"
#include "core/stigmergy.hpp"
#include "net/graph.hpp"
#include "routing/routing_table.hpp"

namespace agentnet {

enum class RoutingPolicy {
  kRandom,     ///< Uniform random reachable neighbour.
  kOldestNode  ///< Neighbour last visited longest ago / never / forgotten.
};

const char* to_string(RoutingPolicy policy);

struct RoutingAgentConfig {
  RoutingPolicy policy = RoutingPolicy::kOldestNode;
  /// Bounded memory: number of (node, last-visit) entries remembered, and
  /// the maximum length of a carried reverse route.
  std::size_t history_size = 10;
  /// Direct communication: meeting agents adopt the group's best route
  /// hint and merge visit histories (becoming identical — the mechanism
  /// behind the paper's Fig. 11 negative result).
  bool communicate = false;
  /// Paper's future work: footprint-based dispersion for routing agents.
  StigmergyMode stigmergy = StigmergyMode::kOff;
};

class RoutingAgent {
 public:
  /// The carried reverse route toward the last gateway seen.
  struct RouteHint {
    NodeId gateway = kInvalidNode;
    std::uint32_t hops = 0;        ///< Current node → gateway, in hops.
    NodeId next_hop = kInvalidNode;  ///< First hop from the current node.
    std::size_t updated = 0;       ///< Step of last refresh (gateway visit).
    bool valid() const { return gateway != kInvalidNode; }
  };

  /// Bounded visit history: node → last visit step.
  using History = FlatMap<NodeId, std::size_t>;

  RoutingAgent(int id, NodeId start, RoutingAgentConfig config, Rng rng);

  int id() const { return id_; }
  NodeId location() const { return location_; }
  const RoutingAgentConfig& config() const { return config_; }
  const RouteHint& hint() const { return hint_; }
  bool stigmergic() const {
    return config_.stigmergy != StigmergyMode::kOff;
  }
  /// Bounded visit history (node → last visit step), oldest evicted first.
  /// Flat sorted table; iterates in ascending node order like the std::map
  /// it replaced (the bit-identical invariant, docs/ARCHITECTURE.md).
  const History& history() const { return history_; }

  /// Records arrival at the current location: history update plus hint
  /// refresh when standing on a gateway.
  void arrive(const std::vector<bool>& is_gateway, std::size_t now);

  /// Chooses the next node from the live graph (see RoutingPolicy).
  NodeId decide(const Graph& graph, const StigmergyBoard& board,
                std::size_t now);

  /// Meeting exchange, receive side: adopt `best` if it beats the carried
  /// hint, and absorb `peer_history` (keeping the freshest entries, bounded
  /// by history_size).
  void adopt(const RouteHint& best, const History& peer_history);

  /// adopt() when the peer side is a meeting's pool: the max-merge of
  /// every talker's history (this agent's included) already passed through
  /// trim_into(pool, history_size). Absorbing the untrimmed pool would
  /// leave exactly that trimmed pool — every own entry is covered by a
  /// pool entry at least as fresh — so it is copied.
  void adopt_pool(const RouteHint& best, const History& trimmed_pool);

  /// `out` = the max-merge of `a` and `b` (latest step per node), by one
  /// merge walk over the two sorted tables.
  static void merge_histories(const History& a, const History& b,
                              History& out);

  /// `out` = `pool` minus its pool.size() − cap oldest entries, lowest
  /// node ids first on equal steps: one pass that removes the same entries
  /// as pool.size() − cap rounds of evict-oldest.
  static void trim_into(const History& pool, std::size_t cap, History& out);

  /// Moves to `target` (a current neighbour or the same node), extending
  /// the carried hint by one hop or expiring it past the memory bound.
  void move_to(NodeId target);

  /// Offers the carried hint to the routing table of the current node.
  /// Returns true when a route was installed.
  bool install(RoutingTables& tables, const std::vector<bool>& is_gateway,
               std::size_t now);

  /// True when `a` beats `b` as a meeting's best hint (fewer hops, then
  /// fresher, then lower gateway id for determinism).
  static bool hint_better(const RouteHint& a, const RouteHint& b);

  /// Serialized agent size if it migrated now: 12 bytes per history entry,
  /// 16 for the route hint, plus a fixed 64-byte code/descriptor stub —
  /// the paper's overhead yardstick (history size is THE knob).
  std::size_t state_size_bytes() const {
    return 64 + 12 * history_.size() + (hint_.valid() ? 16 : 0);
  }

  /// Checkpoint support: id, location, history, hint and RNG. The config
  /// is not carried — a restored roster is rebuilt from the task config.
  void save_state(snapshot::ByteWriter& w) const {
    w.scalar(id_);
    w.scalar(location_);
    history_.save_state(
        w, [](snapshot::ByteWriter& out, std::size_t v) { out.size(v); });
    w.scalar(hint_.gateway);
    w.scalar(hint_.hops);
    w.scalar(hint_.next_hop);
    w.size(hint_.updated);
    rng_.save_state(w);
  }
  void load_state(snapshot::ByteReader& r) {
    id_ = r.scalar<int>();
    location_ = r.scalar<NodeId>();
    history_.load_state(
        r, [](snapshot::ByteReader& in, std::size_t& v) { v = in.size(); });
    hint_.gateway = r.scalar<NodeId>();
    hint_.hops = r.scalar<std::uint32_t>();
    hint_.next_hop = r.scalar<NodeId>();
    hint_.updated = r.size();
    rng_.load_state(r);
  }

 private:
  void remember_visit(NodeId node, std::size_t now);
  void trim_history();

  int id_;
  NodeId location_;
  RoutingAgentConfig config_;
  History history_;
  RouteHint hint_;
  Rng rng_;
};

}  // namespace agentnet
