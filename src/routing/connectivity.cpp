#include "routing/connectivity.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace agentnet {

namespace {

/// Walk memo: state[v] is 0 unknown, 1 good, 2 bad (or visiting, while a
/// walk is under way). One set per thread for the serial walk, one per
/// engine chunk for the parallel one, so a warm measurement allocates
/// nothing.
struct WalkScratch {
  std::vector<char> state;
  std::vector<NodeId> path;
};

WalkScratch& serial_walk_scratch() {
  thread_local WalkScratch scratch;
  return scratch;
}

// Templated over Graph / CsrView: both expose node_count() and has_edge()
// and the walk logic is identical, so either representation yields the same
// flags bit for bit.

/// Exact walk from `start` under a hop budget tighter than node_count:
/// validity then depends on the budget left at each node, so verdicts
/// cannot be shared between walks (the budget bounds each one).
template <class AnyGraph>
bool budget_walk(const AnyGraph& graph, const RoutingTables& tables,
                 const std::vector<bool>& is_gateway, NodeId start,
                 std::size_t max_hops) {
  NodeId u = start;
  std::size_t hops = 0;
  while (!is_gateway[u] && hops < max_hops) {
    const RouteEntry& e = tables.entry(u);
    if (!e.valid() || !graph.has_edge(u, e.next_hop)) break;
    u = e.next_hop;
    ++hops;
  }
  return is_gateway[u];
}

/// Memoised walk from `start`: afterwards state[start] and every node on
/// its chain hold their verdict (1 good, 2 bad).
template <class AnyGraph>
void memo_walk(const AnyGraph& graph, const RoutingTables& tables,
               const std::vector<bool>& is_gateway, NodeId start,
               WalkScratch& s) {
  if (s.state[start] != 0) return;
  const std::size_t max_hops = graph.node_count();
  s.path.clear();
  NodeId u = start;
  std::size_t hops = 0;
  char verdict = 2;
  while (true) {
    if (is_gateway[u] || s.state[u] == 1) {
      verdict = 1;
      break;
    }
    if (s.state[u] == 2) break;  // known dead end, or a loop
    const RouteEntry& e = tables.entry(u);
    if (!e.valid() || hops >= max_hops) break;
    if (!graph.has_edge(u, e.next_hop)) break;  // link is gone right now
    s.state[u] = 2;  // mark visiting: revisiting it means a loop
    s.path.push_back(u);
    u = e.next_hop;
    ++hops;
  }
  for (NodeId v : s.path) s.state[v] = verdict;
  if (s.state[start] == 0) s.state[start] = verdict;  // start was a gateway
}

/// Fills s.state with every node's verdict: state[v] == 1 iff v has a
/// valid gateway route (gateways always do).
template <class AnyGraph>
void route_states(const AnyGraph& graph, const RoutingTables& tables,
                  const std::vector<bool>& is_gateway, std::size_t max_hops,
                  WalkScratch& s) {
  const std::size_t n = graph.node_count();
  AGENTNET_REQUIRE(tables.size() == n, "tables/graph size mismatch");
  AGENTNET_REQUIRE(is_gateway.size() == n, "gateway mask size mismatch");
  s.state.assign(n, 0);
  if (max_hops != 0 && max_hops < n) {
    for (NodeId start = 0; start < n; ++start)
      s.state[start] =
          budget_walk(graph, tables, is_gateway, start, max_hops) ? 1 : 2;
    return;
  }
  for (NodeId start = 0; start < n; ++start)
    memo_walk(graph, tables, is_gateway, start, s);
}

template <class AnyGraph>
std::vector<bool> valid_route_flags_impl(const AnyGraph& graph,
                                         const RoutingTables& tables,
                                         const std::vector<bool>& is_gateway,
                                         std::size_t max_hops) {
  WalkScratch& s = serial_walk_scratch();
  route_states(graph, tables, is_gateway, max_hops, s);
  std::vector<bool> valid(s.state.size(), false);
  for (std::size_t v = 0; v < valid.size(); ++v) valid[v] = s.state[v] == 1;
  return valid;
}

template <class AnyGraph>
ConnectivityResult measure_connectivity_impl(
    const AnyGraph& graph, const RoutingTables& tables,
    const std::vector<bool>& is_gateway, std::size_t max_hops) {
  WalkScratch& s = serial_walk_scratch();
  route_states(graph, tables, is_gateway, max_hops, s);
  ConnectivityResult result;
  result.total = s.state.size();
  result.connected = static_cast<std::size_t>(
      std::count(s.state.begin(), s.state.end(), char{1}));
  return result;
}

// Parallel walk: roots fan over the agent engine, each chunk carrying its
// own memo. A verdict is an exact property of (graph, tables, mask) — the
// memo only short-circuits walks that would reach the same answer — so the
// flags match the serial walk bit for bit. Workers write byte slots
// (vector<bool> packs bits into shared words and would race).
template <class AnyGraph>
std::vector<bool> valid_route_flags_par_impl(
    const AnyGraph& graph, const RoutingTables& tables,
    const std::vector<bool>& is_gateway, std::size_t max_hops,
    const AgentParallel& par) {
  const std::size_t n = graph.node_count();
  if (!par.active() || n < 2)
    return valid_route_flags_impl(graph, tables, is_gateway, max_hops);
  AGENTNET_REQUIRE(tables.size() == n, "tables/graph size mismatch");
  AGENTNET_REQUIRE(is_gateway.size() == n, "gateway mask size mismatch");
  std::vector<char> flags(n, 0);
  if (max_hops != 0 && max_hops < n) {
    par.for_each(n, [&](std::size_t root) {
      flags[root] = budget_walk(graph, tables, is_gateway,
                                static_cast<NodeId>(root), max_hops)
                        ? 1
                        : 0;
    });
  } else {
    par.for_each_scratch(
        n, [n] { return WalkScratch{std::vector<char>(n, 0), {}}; },
        [&](std::size_t root, WalkScratch& s) {
          memo_walk(graph, tables, is_gateway, static_cast<NodeId>(root), s);
          flags[root] = s.state[root] == 1 ? 1 : 0;
        });
  }
  std::vector<bool> valid(n, false);
  for (NodeId v = 0; v < n; ++v)
    valid[v] = is_gateway[v] || flags[v] != 0;
  return valid;
}

template <class AnyGraph>
ConnectivityResult measure_connectivity_par_impl(
    const AnyGraph& graph, const RoutingTables& tables,
    const std::vector<bool>& is_gateway, std::size_t max_hops,
    const AgentParallel& par) {
  if (!par.active() || graph.node_count() < 2)
    return measure_connectivity_impl(graph, tables, is_gateway, max_hops);
  const auto valid =
      valid_route_flags_par_impl(graph, tables, is_gateway, max_hops, par);
  ConnectivityResult result;
  result.total = valid.size();
  for (bool v : valid)
    if (v) ++result.connected;
  return result;
}

}  // namespace

std::vector<bool> valid_route_flags(const Graph& graph,
                                    const RoutingTables& tables,
                                    const std::vector<bool>& is_gateway,
                                    std::size_t max_hops) {
  return valid_route_flags_impl(graph, tables, is_gateway, max_hops);
}

std::vector<bool> valid_route_flags(const CsrView& graph,
                                    const RoutingTables& tables,
                                    const std::vector<bool>& is_gateway,
                                    std::size_t max_hops) {
  return valid_route_flags_impl(graph, tables, is_gateway, max_hops);
}

ConnectivityResult measure_connectivity(const Graph& graph,
                                        const RoutingTables& tables,
                                        const std::vector<bool>& is_gateway,
                                        std::size_t max_hops) {
  return measure_connectivity_impl(graph, tables, is_gateway, max_hops);
}

ConnectivityResult measure_connectivity(const CsrView& graph,
                                        const RoutingTables& tables,
                                        const std::vector<bool>& is_gateway,
                                        std::size_t max_hops) {
  return measure_connectivity_impl(graph, tables, is_gateway, max_hops);
}

std::vector<bool> valid_route_flags(const Graph& graph,
                                    const RoutingTables& tables,
                                    const std::vector<bool>& is_gateway,
                                    std::size_t max_hops,
                                    const AgentParallel& par) {
  return valid_route_flags_par_impl(graph, tables, is_gateway, max_hops, par);
}

std::vector<bool> valid_route_flags(const CsrView& graph,
                                    const RoutingTables& tables,
                                    const std::vector<bool>& is_gateway,
                                    std::size_t max_hops,
                                    const AgentParallel& par) {
  return valid_route_flags_par_impl(graph, tables, is_gateway, max_hops, par);
}

ConnectivityResult measure_connectivity(const Graph& graph,
                                        const RoutingTables& tables,
                                        const std::vector<bool>& is_gateway,
                                        std::size_t max_hops,
                                        const AgentParallel& par) {
  return measure_connectivity_par_impl(graph, tables, is_gateway, max_hops,
                                       par);
}

ConnectivityResult measure_connectivity(const CsrView& graph,
                                        const RoutingTables& tables,
                                        const std::vector<bool>& is_gateway,
                                        std::size_t max_hops,
                                        const AgentParallel& par) {
  return measure_connectivity_par_impl(graph, tables, is_gateway, max_hops,
                                       par);
}

ConnectivityResult oracle_connectivity(const Graph& graph,
                                       const std::vector<bool>& is_gateway) {
  OracleConnectivityCache oracle;
  return oracle.measure(kNoCacheEpoch, graph, is_gateway);
}

ConnectivityResult ConnectivityCache::measure(
    const World& world, const RoutingTables& tables,
    const std::vector<bool>& is_gateway, std::size_t max_hops) {
  return measure(world, tables, is_gateway, max_hops, AgentParallel());
}

ConnectivityResult ConnectivityCache::measure(
    const World& world, const RoutingTables& tables,
    const std::vector<bool>& is_gateway, std::size_t max_hops,
    const AgentParallel& par) {
  if (epoch_ != kNoCacheEpoch && epoch_ == world.epoch() &&
      max_hops_ == max_hops && entries_ == tables.entries()) {
    AGENTNET_COUNT(kDerivedCacheHits);
    return result_;
  }
  result_ =
      measure_connectivity(world.csr(), tables, is_gateway, max_hops, par);
  epoch_ = world.epoch();
  max_hops_ = max_hops;
  entries_ = tables.entries();  // assign reuses capacity across steps
  return result_;
}

ConnectivityResult OracleConnectivityCache::measure(
    std::uint64_t epoch, const Graph& graph,
    const std::vector<bool>& is_gateway) {
  if (epoch != kNoCacheEpoch && epoch == epoch_) {
    AGENTNET_COUNT(kDerivedCacheHits);
    return result_;
  }
  const std::size_t n = graph.node_count();
  AGENTNET_REQUIRE(is_gateway.size() == n, "gateway mask size mismatch");
  // Transpose into CSR: count in-degrees into in_offsets_[w], prefix-sum
  // them into row ends, then place each source by decrementing its row's
  // cursor — which leaves in_offsets_[w] at the row's start.
  in_offsets_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId w : graph.out_neighbors(u)) ++in_offsets_[w];
  std::partial_sum(in_offsets_.begin(), in_offsets_.end(),
                   in_offsets_.begin());
  in_sources_.resize(in_offsets_[n]);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId w : graph.out_neighbors(u)) in_sources_[--in_offsets_[w]] = u;
  // A node is potentially connected iff it reaches a gateway along edge
  // directions: BFS from all gateways over incoming edges. Each reached
  // node enters the queue once, so the queue length is the count.
  reach_.assign(n, 0);
  queue_.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (is_gateway[v]) {
      reach_[v] = 1;
      queue_.push_back(v);
    }
  }
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const NodeId u = queue_[head];
    for (std::size_t k = in_offsets_[u]; k < in_offsets_[u + 1]; ++k) {
      const NodeId w = in_sources_[k];
      if (!reach_[w]) {
        reach_[w] = 1;
        queue_.push_back(w);
      }
    }
  }
  result_ = ConnectivityResult{queue_.size(), n};
  epoch_ = epoch;
  return result_;
}

}  // namespace agentnet
