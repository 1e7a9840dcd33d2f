// Shared movement-selection rule for all agent types.
//
// Every policy in the paper reduces to "pick uniformly among the neighbours
// minimising some key", with stigmergy demoting footprinted targets:
//   random:              key ≡ 0 (all tie)
//   conscientious:       key = last first-hand visit time (never = -∞)
//   super-conscientious: key = last visit time over both hands
//   oldest-node:         key = last visit in bounded history (forgot = -∞)
//
// Stigmergy precedence is configurable:
//   kFilterFirst — unmarked neighbours are preferred before the key is
//     applied (the paper's description: the agent "did not use its last
//     path; it chose instead another one").
//   kTieBreak — the key is applied first; footprints only split ties.
// The ablation bench (extB) compares the two.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/stigmergy.hpp"
#include "net/graph.hpp"
#include "obs/obs.hpp"

namespace agentnet {

enum class StigmergyMode { kOff, kFilterFirst, kTieBreak };

/// Selection-key sentinel for "never visited / forgotten": smaller than any
/// simulation step, so unexplored neighbours always win a minimisation.
inline constexpr std::int64_t kNeverVisited = -1;

/// How ties among equally-preferred targets are resolved.
///
/// Knowledge-driven agents (conscientious, super-conscientious,
/// oldest-node) are deterministic programs: two agents holding identical
/// knowledge at the same node make the *same* choice — the paper's
/// explanation for both the Fig. 5 crossover and the Fig. 11 visiting
/// penalty ("chances are that the next target node that they choose will
/// be identical due to their using the same information"). kSharedHash
/// models this faithfully: the pick is a pseudo-random function of
/// (node, step, tie set), so it is unbiased across the network yet
/// identical for identical deciders. Random-walk agents use genuinely
/// independent per-agent randomness (kRandom) — that is their definition.
enum class TieBreak {
  kSharedHash,  ///< Deterministic in (node, step, tie set); unbiased.
  kRandom       ///< Uniform over the minimisers, per-agent randomness.
};

namespace detail {
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Per-thread candidate buffers for select_target: a warm decision
/// allocates nothing. One set per thread keeps the agent engine's fan-out
/// (common/agent_parallel.hpp) race-free; select_target never re-enters
/// itself, so one set per thread suffices.
struct SelectionScratch {
  std::vector<NodeId> unmarked;
  std::vector<NodeId> best;
};
inline SelectionScratch& selection_scratch() {
  thread_local SelectionScratch scratch;
  return scratch;
}
}  // namespace detail

/// Picks a movement target among `neighbors` (minimisers of `key`, with
/// footprint demotion per `mode`, ties per `tie_break`). Returns
/// kInvalidNode when `neighbors` is empty. `key` maps NodeId → int64
/// (lower = preferred).
template <typename KeyFn>
NodeId select_target(std::span<const NodeId> neighbors, KeyFn&& key,
                     StigmergyMode mode, const StigmergyBoard& board,
                     NodeId at, std::size_t now, Rng& rng,
                     TieBreak tie_break = TieBreak::kRandom) {
  if (neighbors.empty()) return kInvalidNode;
  detail::SelectionScratch& scratch = detail::selection_scratch();

  std::span<const NodeId> pool = neighbors;
  if (mode == StigmergyMode::kFilterFirst) {
    scratch.unmarked.clear();
    for (NodeId v : pool)
      if (!board.marked(at, v, now)) scratch.unmarked.push_back(v);
    if (!scratch.unmarked.empty()) {
      if (scratch.unmarked.size() < pool.size())
        AGENTNET_COUNT(kStigmergyAvoidances);
      pool = scratch.unmarked;
    }
  }

  std::vector<NodeId>& best = scratch.best;
  best.clear();
  std::int64_t best_key = 0;
  // The shared-hash tie-break folds the FULL decision context — every
  // candidate and its key — into the hash. Two agents therefore pick the
  // same target only when their decision-relevant knowledge is identical
  // (the paper's chasing mechanism); agents that merely share a tie set
  // while disagreeing elsewhere stay decorrelated.
  std::uint64_t context_hash = 0x9e3779b97f4a7c15ULL;
  context_hash = detail::mix64(context_hash ^ at);
  for (NodeId v : pool) {
    const std::int64_t k = key(v);
    context_hash = detail::mix64(context_hash ^ v);
    context_hash = detail::mix64(context_hash ^ static_cast<std::uint64_t>(k));
    if (best.empty() || k < best_key) {
      best_key = k;
      best.clear();
      best.push_back(v);
    } else if (k == best_key) {
      best.push_back(v);
    }
  }

  // kTieBreak never filters the pool above, so `unmarked` is free here.
  std::span<const NodeId> winners = best;
  if (mode == StigmergyMode::kTieBreak && best.size() > 1) {
    scratch.unmarked.clear();
    for (NodeId v : best)
      if (!board.marked(at, v, now)) scratch.unmarked.push_back(v);
    if (!scratch.unmarked.empty()) {
      if (scratch.unmarked.size() < best.size())
        AGENTNET_COUNT(kStigmergyAvoidances);
      winners = scratch.unmarked;
    }
  }

  if (tie_break == TieBreak::kSharedHash) {
    const std::uint64_t h = detail::mix64(context_hash ^ now);
    const auto idx = static_cast<std::size_t>(
        (static_cast<__uint128_t>(h) * winners.size()) >> 64);
    return winners[idx];
  }
  return winners[rng.index(winners.size())];
}

}  // namespace agentnet
