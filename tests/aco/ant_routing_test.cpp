#include "aco/ant_routing.hpp"
#include "aco/ant_routing_task.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/error.hpp"
#include "routing/connectivity.hpp"

namespace agentnet {
namespace {

// Line 0(gw)-1-2-3-4, bidirectional.
struct LineWorld {
  Graph graph{5};
  std::vector<bool> is_gateway{true, false, false, false, false};
  LineWorld() {
    for (NodeId i = 0; i + 1 < 5; ++i) graph.add_undirected_edge(i, i + 1);
  }
};

AntRoutingConfig eager() {
  AntRoutingConfig cfg;
  cfg.launch_probability = 1.0;
  return cfg;
}

TEST(AntRoutingTest, RejectsBadConfig) {
  AntRoutingConfig bad;
  bad.launch_probability = 2.0;
  EXPECT_THROW(AntRoutingSystem(4, std::vector<bool>(4, false), bad, Rng(1)),
               ConfigError);
  bad = AntRoutingConfig{};
  bad.evaporation = 1.0;
  EXPECT_THROW(AntRoutingSystem(4, std::vector<bool>(4, false), bad, Rng(1)),
               ConfigError);
  bad = AntRoutingConfig{};
  bad.exploration = 0.0;
  EXPECT_THROW(AntRoutingSystem(4, std::vector<bool>(4, false), bad, Rng(1)),
               ConfigError);
  EXPECT_THROW(AntRoutingSystem(4, std::vector<bool>(3, false),
                                AntRoutingConfig{}, Rng(1)),
               ConfigError);
}

TEST(AntRoutingTest, PheromoneStartsEmpty) {
  LineWorld w;
  AntRoutingSystem system(5, w.is_gateway, eager(), Rng(1));
  for (NodeId u = 0; u < 5; ++u)
    for (NodeId v = 0; v < 5; ++v)
      EXPECT_DOUBLE_EQ(system.pheromone(u, v), 0.0);
  EXPECT_FALSE(system.snapshot_tables(0).entry(1).valid());
}

TEST(AntRoutingTest, ConvergesToGatewayRoutesOnLine) {
  LineWorld w;
  AntRoutingSystem system(5, w.is_gateway, eager(), Rng(2));
  for (std::size_t t = 0; t < 200; ++t) system.step(w.graph, t);
  // Every node's strongest pheromone must point toward the gateway.
  EXPECT_GT(system.pheromone(1, 0), system.pheromone(1, 2));
  EXPECT_GT(system.pheromone(2, 1), system.pheromone(2, 3));
  EXPECT_GT(system.pheromone(3, 2), system.pheromone(3, 4));
  const RoutingTables tables = system.snapshot_tables(200);
  const auto conn = measure_connectivity(w.graph, tables, w.is_gateway);
  EXPECT_EQ(conn.connected, 5u);
}

TEST(AntRoutingTest, AntsCompleteRoundTrips) {
  LineWorld w;
  AntRoutingSystem system(5, w.is_gateway, eager(), Rng(3));
  for (std::size_t t = 0; t < 100; ++t) system.step(w.graph, t);
  EXPECT_GT(system.ants_launched(), 0u);
  EXPECT_GT(system.ants_completed(), 0u);
  EXPECT_LE(system.ants_completed(), system.ants_launched());
  EXPECT_GT(system.ant_hops(), system.ants_completed());
  EXPECT_GT(system.control_bytes(), system.ant_hops() * 16);
}

TEST(AntRoutingTest, EvaporationFadesStaleRoutes) {
  LineWorld w;
  auto cfg = eager();
  cfg.evaporation = 0.2;
  AntRoutingSystem system(5, w.is_gateway, cfg, Rng(4));
  for (std::size_t t = 0; t < 100; ++t) system.step(w.graph, t);
  const double before = system.pheromone(1, 0);
  ASSERT_GT(before, 0.0);
  // Cut node 1 off entirely; no reinforcement can reach it, so its
  // pheromone must decay toward zero.
  Graph cut(5);
  cut.add_undirected_edge(2, 3);
  cut.add_undirected_edge(3, 4);
  auto quiet = cfg;
  (void)quiet;
  for (std::size_t t = 100; t < 300; ++t) system.step(cut, t);
  EXPECT_LT(system.pheromone(1, 0), before * 0.01);
}

TEST(AntRoutingTest, DeadEndAntsDie) {
  // Star with no gateway anywhere: every ant eventually dies, none complete.
  Graph g(4);
  g.add_undirected_edge(0, 1);
  g.add_undirected_edge(0, 2);
  g.add_undirected_edge(0, 3);
  AntRoutingSystem system(4, std::vector<bool>(4, false), eager(), Rng(5));
  for (std::size_t t = 0; t < 100; ++t) system.step(g, t);
  EXPECT_EQ(system.ants_completed(), 0u);
  // Loop avoidance kills ants fast; the population must not grow without
  // bound.
  EXPECT_LT(system.active_ants(), 4096u);
  // Exact counts: a leaf ant hops to the hub, then to another leaf, and
  // dies there at a dead end (its only neighbour is on its path); a hub ant
  // dies after one hop. An ant that outlived its dead end would shift all
  // three.
  EXPECT_EQ(system.ants_launched(), 400u);
  EXPECT_EQ(system.ant_hops(), 697u);
  EXPECT_EQ(system.active_ants(), 7u);
}

TEST(AntRoutingTest, TtlBoundsForwardWalks) {
  LineWorld w;
  auto cfg = eager();
  cfg.ant_ttl = 1;  // only the gateway's direct neighbour can ever succeed
  AntRoutingSystem system(5, w.is_gateway, cfg, Rng(6));
  for (std::size_t t = 0; t < 100; ++t) system.step(w.graph, t);
  EXPECT_GT(system.pheromone(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(system.pheromone(3, 2), 0.0);
  // Exact counts pin where walks stop: a TTL that let one more hop through,
  // or an ant surviving past it, changes every figure below.
  EXPECT_EQ(system.ants_launched(), 400u);
  EXPECT_EQ(system.ants_completed(), 98u);
  EXPECT_EQ(system.ant_hops(), 498u);
  EXPECT_EQ(system.control_bytes(), 15936u);
  EXPECT_EQ(system.pheromone(1, 0), 43.095608293692543);
}

TEST(AntRoutingTest, StalePheromoneKeysAreSkipped) {
  // Pheromone rows outlive links: after the graph rewires, rows hold keys
  // for nodes that are no longer neighbours, interleaved with the live
  // ones. Sampling must weigh only current neighbours (a stale key's τ
  // must neither be read for a live neighbour nor make a stale node a
  // candidate). The exact counters and τ values pin this behaviour.
  Graph before(6);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {1, 5}, {2, 4}})
    before.add_undirected_edge(u, v);
  Graph after(6);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 3}, {3, 5}, {5, 2}, {2, 4}, {4, 1}, {1, 0}})
    after.add_undirected_edge(u, v);
  const std::vector<bool> is_gateway{true, false, false, false, false, false};
  AntRoutingSystem system(6, is_gateway, eager(), Rng(10));
  for (std::size_t t = 0; t < 60; ++t) system.step(before, t);
  // Precondition: rows hold keys that `after` no longer links.
  ASSERT_GT(system.pheromone(3, 1), 0.0);
  ASSERT_GT(system.pheromone(4, 3), 0.0);
  ASSERT_FALSE(after.has_edge(3, 1));
  ASSERT_FALSE(after.has_edge(4, 3));
  for (std::size_t t = 60; t < 90; ++t) system.step(after, t);
  EXPECT_EQ(system.ants_launched(), 450u);
  EXPECT_EQ(system.ants_completed(), 425u);
  EXPECT_EQ(system.ant_hops(), 1624u);
  EXPECT_EQ(system.pheromone(3, 0), 34.93803496125215);
  EXPECT_EQ(system.pheromone(4, 1), 14.095664157174863);
  EXPECT_EQ(system.pheromone(2, 4), 5.7223378717083015);
}

TEST(AntRoutingTest, MaxAntsCapsPopulation) {
  LineWorld w;
  auto cfg = eager();
  cfg.max_ants = 3;
  AntRoutingSystem system(5, w.is_gateway, cfg, Rng(7));
  for (std::size_t t = 0; t < 50; ++t) {
    system.step(w.graph, t);
    EXPECT_LE(system.active_ants(), 3u);
  }
}

TEST(AntRoutingTest, DeterministicForSameSeed) {
  LineWorld w;
  AntRoutingSystem a(5, w.is_gateway, eager(), Rng(8));
  AntRoutingSystem b(5, w.is_gateway, eager(), Rng(8));
  for (std::size_t t = 0; t < 100; ++t) {
    a.step(w.graph, t);
    b.step(w.graph, t);
  }
  EXPECT_EQ(a.ant_hops(), b.ant_hops());
  for (NodeId u = 0; u < 5; ++u)
    for (NodeId v = 0; v < 5; ++v)
      EXPECT_DOUBLE_EQ(a.pheromone(u, v), b.pheromone(u, v));
}

TEST(AntRoutingTest, GatewaysDoNotLaunch) {
  Graph g(2);
  g.add_undirected_edge(0, 1);
  AntRoutingSystem system(2, {true, true}, eager(), Rng(9));
  for (std::size_t t = 0; t < 20; ++t) system.step(g, t);
  EXPECT_EQ(system.ants_launched(), 0u);
}

TEST(AntRoutingTaskTest, RunsOnScenarioAndConnects) {
  RoutingScenarioParams params;
  params.node_count = 80;
  params.gateway_count = 5;
  params.bounds = {{0.0, 0.0}, {500.0, 500.0}};
  params.node_range = 95.0;
  params.trace_steps = 120;
  const RoutingScenario scenario(params, 31);
  AntRoutingTaskConfig cfg;
  cfg.steps = 120;
  cfg.measure_from = 60;
  const auto result = run_ant_routing_task(scenario, cfg, Rng(1));
  ASSERT_EQ(result.connectivity.size(), 120u);
  EXPECT_GT(result.mean_connectivity, 0.2);
  EXPECT_GT(result.ants_completed, 0u);
  EXPECT_GT(result.control_bytes, 0u);
}

TEST(AntRoutingTaskTest, Deterministic) {
  RoutingScenarioParams params;
  params.node_count = 60;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {400.0, 400.0}};
  params.trace_steps = 60;
  const RoutingScenario scenario(params, 32);
  AntRoutingTaskConfig cfg;
  cfg.steps = 60;
  cfg.measure_from = 30;
  const auto a = run_ant_routing_task(scenario, cfg, Rng(2));
  const auto b = run_ant_routing_task(scenario, cfg, Rng(2));
  EXPECT_EQ(a.connectivity, b.connectivity);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
}

}  // namespace
}  // namespace agentnet
