// End-to-end benchmark harness: runs one workload with a fixed amount of
// work, checks every op's output, and prints one JSON record of raw
// measurements (op times, set-up times, digests, telemetry totals, run
// context) on stdout. perfbench/run.py builds this binary, pins the
// environment, and turns the record into the benchmark's metrics; see
// perfbench/README.md for the workloads and the metric map.
//
//   perfbench_harness --workload <name> --seed <n> --ops <n> --setups <n>
//                     [--trace-out <path>]
//   perfbench_harness --self-test
//   perfbench_harness --canary
//
// The run is serial by construction: run.py sets AGENTNET_THREADS,
// AGENTNET_AGENT_THREADS and AGENTNET_TOPO_SHARD_THREADS to 1 and clears
// every other AGENTNET_* variable, and this binary refuses to run otherwise.
//
// Run shape (every workload):
//   set-up 1 (inputs + one untimed warm-up op), timed ops 0..n-1;
//   with --trace-out: a second instance, set up first, repeats each op
//   right after the timed one with spans on, digests compared;
//   set-ups 2..k, each on a fresh instance followed by a replay of op 0,
//   digests compared (spread through the timed pass unless the world is
//   too large to hold twice).
// Spans are recorded only here, around the library's public calls, held in
// memory and written as a Chrome trace (Perfetto) at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <span>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "aco/ant_routing.hpp"
#include "common/agent_parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/mapping_task.hpp"
#include "core/routing_task.hpp"
#include "energy/battery.hpp"
#include "experiments/paper.hpp"
#include "experiments/traffic_experiments.hpp"
#include "fault/fault_injector.hpp"
#include "mobility/mobility.hpp"
#include "net/generators.hpp"
#include "obs/obs.hpp"
#include "radio/range_model.hpp"
#include "routing/connectivity.hpp"
#include "routing/gateway_balancer.hpp"
#include "sim/world.hpp"
#include "traffic/flow_traffic.hpp"

extern char** environ;

namespace agentnet::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Process CPU time in nanoseconds. The harness is serial, so an interval's
/// CPU time is its wall time minus the time the host kept the process off
/// the CPU (vCPU steal on a shared host), which would otherwise dominate the
/// tail. Both clocks are recorded; the metrics use this one.
std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Times one interval on both clocks.
class Stopwatch {
 public:
  std::int64_t cpu() const { return cpu_ns() - cpu_; }
  std::int64_t wall() const { return ns_between(wall_, Clock::now()); }

 private:
  Clock::time_point wall_ = Clock::now();
  std::int64_t cpu_ = cpu_ns();
};

// ---- Digest ---------------------------------------------------------------

/// FNV-1a over the exact bytes of an op's outputs: equal digests mean
/// bit-identical results.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void f64s(const std::vector<double>& v) {
    u64(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(double));
  }
  void u64s(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(std::uint64_t));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest_routing(const RoutingTaskResult& r) {
  Digest d;
  d.f64s(r.connectivity);
  d.f64s(r.oracle);
  d.f64(r.mean_connectivity);
  d.f64(r.stddev_connectivity);
  d.u64(r.migration_bytes);
  d.u64(r.agents_lost);
  d.u64(r.agents_respawned);
  d.u64(r.final_population);
  return d.value();
}

std::uint64_t digest_mapping(const MappingTaskResult& r) {
  Digest d;
  d.u64(r.finished);
  d.u64(r.finishing_time);
  d.u64(r.truth_edges);
  d.f64s(r.mean_knowledge);
  d.f64s(r.min_knowledge);
  d.u64(r.migration_bytes);
  d.u64(r.final_population);
  return d.value();
}

std::uint64_t digest_traffic(const TrafficTaskResult& r) {
  const FlowTrafficStats& s = r.traffic;
  Digest d;
  for (const std::uint64_t v :
       {s.flows_started, s.flows_completed, s.generated, s.delivered,
        s.dropped_no_route, s.dropped_link_down, s.dropped_ttl,
        s.dropped_queue_full, s.in_flight, s.latency_sum})
    d.u64(v);
  d.u64s(s.latency_histogram);
  d.f64(r.mean_connectivity);
  d.f64(r.offered_load);
  d.f64(r.carried_load);
  d.u64(r.ants_launched);
  d.u64(r.ants_completed);
  d.u64(r.ant_hops);
  return d.value();
}

std::uint64_t digest_world(const World& world) {
  Digest d;
  d.u64(world.step());
  d.u64(world.epoch());
  d.u64(world.state_epoch());
  d.u64(world.graph().edge_count());
  return d.value();
}

// ---- Spans ----------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  int parent;  ///< Index into the span list; -1 for a root.
  int op;      ///< Op index, -1 outside ops (set-up).
};

/// In-memory span recorder. Inactive (nullptr) tracers cost one branch.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(const char* name, int op) {
    spans_.push_back(Span{name, ns_between(origin_, Clock::now()), -1,
                          stack_.empty() ? -1 : stack_.back(), op});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].dur_ns =
        ns_between(origin_, Clock::now()) -
        spans_[static_cast<std::size_t>(id)].start_ns;
    stack_.pop_back();
  }
  /// Chrome Trace Event JSON ("X" complete events, microseconds); opens
  /// in Perfetto (ui.perfetto.dev) and chrome://tracing.
  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);  // microseconds, to the ns
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int op)
      : tracer_(tracer), id_(tracer ? tracer->open(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- Workloads --------------------------------------------------------------

/// What one op produced. `cpu_ns`/`wall_ns` time the op's interval;
/// `steps` is the simulated steps it covered; `error` is empty when every
/// output check passed.
struct OpOutcome {
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t digest = 0;
  double steps = 0.0;
  std::string error;
};

/// Exact simulation outputs aggregated over the timed ops, by name; printed
/// as the record's "sim" object.
using SimTotals = std::vector<std::pair<const char*, double>>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the run seed and runs the untimed warm-up op.
  /// Returns the seconds the world construction took (sim.build_s).
  virtual double setup(std::uint64_t seed) = 0;
  /// Runs op `index` of the run's fixed op list from the current state.
  virtual OpOutcome run_op(std::size_t index, Tracer* tracer) = 0;
  /// Releases the inputs (before the next set-up, so worlds never overlap).
  virtual void teardown() = 0;
  /// Folds a timed op into the exact simulation totals.
  virtual void account() {}
  virtual SimTotals sim_totals() const = 0;
  /// World::memory_bytes() / node count after set-up.
  virtual double bytes_per_node() const = 0;
  /// True when two instances' inputs must never be held at once.
  virtual bool large() const { return false; }
};

constexpr std::size_t kWarmupIndex = static_cast<std::size_t>(-1);

/// Per-op seed: op i of run seed s. Distinct ops get distinct streams. The
/// warm-up op is the same at every run seed (op costs vary by seed, and
/// set-up time must compare across seeds).
std::uint64_t op_seed(std::uint64_t run_seed, std::size_t index) {
  if (index == kWarmupIndex) run_seed = 0;
  return Rng(run_seed * 0x9e3779b97f4a7c15ULL + 0x5EED)
      .fork(static_cast<std::uint64_t>(index))();
}

// paper-routing: the paper's Fig. 7–11 protocol, one replication per op.
class PaperRouting final : public Workload {
 public:
  static RoutingTaskConfig task_config() {
    RoutingTaskConfig task;
    task.population = 100;
    task.agent.policy = RoutingPolicy::kOldestNode;
    task.agent.communicate = true;
    task.agent.stigmergy = StigmergyMode::kFilterFirst;
    task.steps = paper::kRoutingSteps;
    task.measure_from = paper::kRoutingMeasureFrom;
    task.record_oracle = true;
    return task;
  }

  double setup(std::uint64_t seed) override {
    seed_ = seed;
    scenario_.emplace(RoutingScenarioParams{}, paper::kRoutingScenarioSeed);
    const Stopwatch watch;
    const World world = scenario_->make_world();
    const double build_s = static_cast<double>(watch.cpu()) / 1e9;
    bytes_per_node_ = static_cast<double>(world.memory_bytes()) /
                      static_cast<double>(world.node_count());
    run_op(kWarmupIndex, nullptr);
    return build_s;
  }

  OpOutcome run_op(std::size_t index, Tracer* tracer) override {
    OpOutcome out;
    const Stopwatch watch;
    {
      ScopedSpan span(tracer, "core.run_routing_task", static_cast<int>(index));
      last_ = run_routing_task(*scenario_, task_, Rng(op_seed(seed_, index)));
    }
    out.cpu_ns = watch.cpu();
    out.wall_ns = watch.wall();
    out.digest = digest_routing(last_);
    out.steps = static_cast<double>(task_.steps);
    if (last_.connectivity.size() != task_.steps ||
        last_.oracle.size() != task_.steps)
      out.error = "routing series length mismatch";
    for (std::size_t t = 0; out.error.empty() && t < task_.steps; ++t) {
      const double c = last_.connectivity[t];
      const double o = last_.oracle[t];
      if (!(c >= 0.0 && c <= o && o <= 1.0))
        out.error = "step " + std::to_string(t) + ": not 0 <= connectivity " +
                    std::to_string(c) + " <= oracle " + std::to_string(o) +
                    " <= 1";
    }
    return out;
  }

  void teardown() override { scenario_.reset(); }
  void account() override { connectivity_.add(last_.mean_connectivity); }
  SimTotals sim_totals() const override {
    return {{"sim_connectivity", connectivity_.mean()}};
  }
  double bytes_per_node() const override { return bytes_per_node_; }

 private:
  const RoutingTaskConfig task_ = task_config();
  std::uint64_t seed_ = 0;
  std::optional<RoutingScenario> scenario_;
  RoutingTaskResult last_;
  RunningStats connectivity_;
  double bytes_per_node_ = 0.0;
};

// paper-mapping: the paper's Fig. 6 team on the static mapping network.
class PaperMapping final : public Workload {
 public:
  static MappingTaskConfig task_config() {
    MappingTaskConfig task;
    task.population = 100;
    task.agent = {MappingPolicy::kSuperConscientious,
                  StigmergyMode::kFilterFirst};
    task.communication = true;
    return task;
  }

  double setup(std::uint64_t seed) override {
    seed_ = seed;
    network_.emplace(paper_mapping_network(paper::kMappingNetworkSeed));
    const Stopwatch watch;
    const World world = World::frozen(*network_);
    const double build_s = static_cast<double>(watch.cpu()) / 1e9;
    bytes_per_node_ = static_cast<double>(world.memory_bytes()) /
                      static_cast<double>(world.node_count());
    run_op(kWarmupIndex, nullptr);
    return build_s;
  }

  OpOutcome run_op(std::size_t index, Tracer* tracer) override {
    OpOutcome out;
    // The frozen world is built outside the timed interval: sim does no
    // work inside an op, which keeps this the control workload for sim.
    World world = World::frozen(*network_);
    const Stopwatch watch;
    {
      ScopedSpan span(tracer, "core.run_mapping_task", static_cast<int>(index));
      last_ = run_mapping_task(world, task_, Rng(op_seed(seed_, index)));
    }
    out.cpu_ns = watch.cpu();
    out.wall_ns = watch.wall();
    out.digest = digest_mapping(last_);
    out.steps = static_cast<double>(last_.finishing_time);
    if (!last_.finished || last_.finishing_time > task_.max_steps)
      out.error = "mapping did not finish within max_steps";
    return out;
  }

  void teardown() override { network_.reset(); }
  void account() override {
    finish_.add(static_cast<double>(last_.finishing_time));
  }
  SimTotals sim_totals() const override {
    return {{"sim_finish_steps", finish_.mean()}};
  }
  double bytes_per_node() const override { return bytes_per_node_; }

 private:
  const MappingTaskConfig task_ = task_config();
  std::uint64_t seed_ = 0;
  std::optional<GeneratedNetwork> network_;
  MappingTaskResult last_;
  RunningStats finish_;
  double bytes_per_node_ = 0.0;
};

// traffic-antnet: AntNet control plane + flow data plane at congested load
// under a moderate fault plan.
class TrafficAntnet final : public Workload {
 public:
  static TrafficTaskConfig task_config() {
    TrafficTaskConfig task;
    task.steps = paper::kRoutingSteps;
    task.measure_from = paper::kRoutingMeasureFrom;
    task.workload.offered_load = 0.3;
    task.ants.reinforcement = AntReinforcement::kDelay;
    task.balance_gateways = true;
    task.faults.node_crash_probability = 0.02;
    task.faults.crash_persistence = 20;
    task.faults.burst_drop_probability = 0.05;
    task.faults.burst_persistence = 5;
    task.faults.blackouts.push_back(Blackout{{500.0, 500.0}, 150.0, 100, 60});
    return task;
  }

  double setup(std::uint64_t seed) override {
    seed_ = seed;
    scenario_.emplace(RoutingScenarioParams{}, paper::kRoutingScenarioSeed);
    const Stopwatch watch;
    const World world = scenario_->make_world();
    const double build_s = static_cast<double>(watch.cpu()) / 1e9;
    bytes_per_node_ = static_cast<double>(world.memory_bytes()) /
                      static_cast<double>(world.node_count());
    run_op(kWarmupIndex, nullptr);
    return build_s;
  }

  OpOutcome run_op(std::size_t index, Tracer* tracer) override {
    OpOutcome out;
    const Rng rng(op_seed(seed_, index));
    const Stopwatch watch;
    last_ = tracer ? traced_task(rng, tracer, static_cast<int>(index))
                   : run_traffic_task(*scenario_, task_, rng);
    out.cpu_ns = watch.cpu();
    out.wall_ns = watch.wall();
    out.digest = digest_traffic(last_);
    out.steps = static_cast<double>(task_.steps);
    const FlowTrafficStats& s = last_.traffic;
    if (s.generated != s.delivered + s.dropped() + s.in_flight)
      out.error = "traffic conservation violated: generated " +
                  std::to_string(s.generated) + " != delivered + dropped + " +
                  "in_flight " +
                  std::to_string(s.delivered + s.dropped() + s.in_flight);
    else if (!(last_.mean_connectivity >= 0.0 &&
               last_.mean_connectivity <= 1.0))
      out.error = "connectivity outside [0,1]";
    return out;
  }

  void teardown() override { scenario_.reset(); }
  void account() override {
    merged_ += last_.traffic;
    connectivity_.add(last_.mean_connectivity);
    ants_launched_ += last_.ants_launched;
    ants_completed_ += last_.ants_completed;
  }
  SimTotals sim_totals() const override {
    return {{"sim_delivery_ratio", merged_.delivery_ratio()},
            {"sim_latency_p99_steps",
             static_cast<double>(merged_.latency_quantile(0.99))},
            {"sim_connectivity", connectivity_.mean()},
            {"packets_delivered", static_cast<double>(merged_.delivered)},
            {"ants_launched", static_cast<double>(ants_launched_)},
            {"ants_completed", static_cast<double>(ants_completed_)}};
  }
  double bytes_per_node() const override { return bytes_per_node_; }

 private:
  /// run_traffic_task's loop, driven here so each public call it makes
  /// gets its own span. Same calls in the same order with the same RNG
  /// forks, so its result must be bit-identical to run_traffic_task's —
  /// the harness compares the digests of every traced op.
  TrafficTaskResult traced_task(Rng rng, Tracer* tracer, int op) {
    const TrafficTaskConfig& config = task_;
    const RoutingScenario& scenario = *scenario_;
    const FaultPlan& plan = config.faults;
    std::optional<ScopedSpan> setup_span;
    setup_span.emplace(tracer, "experiments.setup", op);
    plan.validate();
    World world = scenario.make_world();
    std::optional<FaultInjector> injector;
    if (plan.any()) injector.emplace(plan, rng.fork(0xFA11));
    AntRoutingConfig ant_config = config.ants;
    if (plan.agent_loss_probability > 0.0 &&
        ant_config.ant_loss_probability == 0.0)
      ant_config.ant_loss_probability = plan.agent_loss_probability;
    Rng traffic_stream = rng.fork(0xF10A);
    AntRoutingSystem ants(world.node_count(), scenario.is_gateway(),
                          ant_config, rng);
    FlowTrafficSimulator traffic(world.node_count(), scenario.is_gateway(),
                                 config.workload, config.queue,
                                 traffic_stream);
    const AgentParallel par(config.agent_parallel);
    ants.set_parallel(par);
    traffic.set_parallel(par);
    GatewayBalancer balancer(world.node_count(), scenario.is_gateway(),
                             config.balancer);
    ConnectivityCache conn_cache;
    RunningStats window;
    setup_span.reset();

    for (std::size_t t = 0; t < config.steps; ++t) {
      if (t == config.measure_from) traffic.reset_stats();
      const Graph* live = &world.graph();
      if (injector) {
        ScopedSpan span(tracer, "fault.live_graph", op);
        live = &injector->live_graph(world, world.step());
      }
      {
        ScopedSpan span(tracer, "aco.step", op);
        ants.step(*live, t, traffic.hop_delays(),
                  config.balance_gateways
                      ? std::span<const double>(balancer.bias())
                      : std::span<const double>{});
      }
      std::optional<RoutingTables> tables;
      {
        ScopedSpan span(tracer, "aco.snapshot_tables", op);
        tables.emplace(ants.snapshot_tables(t));
      }
      {
        ScopedSpan span(tracer, "traffic.step", op);
        traffic.step(*live, *tables, t);
      }
      if (config.balance_gateways) {
        ScopedSpan span(tracer, "routing.balancer_observe", op);
        balancer.observe(traffic.gateway_deliveries());
      }
      if (t >= config.measure_from) {
        ScopedSpan span(tracer, "routing.measure_connectivity", op);
        const double fraction =
            injector && plan.topology_faults()
                ? measure_connectivity(*live, *tables, scenario.is_gateway(),
                                       0, par)
                      .fraction()
                : conn_cache.measure(world, *tables, scenario.is_gateway(), 0,
                                     par)
                      .fraction();
        window.add(fraction);
      }
      {
        ScopedSpan span(tracer, "sim.advance", op);
        world.advance();
      }
    }
    traffic.finish();
    TrafficTaskResult result;
    result.traffic = traffic.stats();
    result.mean_connectivity = window.mean();
    const auto window_steps =
        static_cast<double>(config.steps - config.measure_from);
    double sources = 0.0;
    for (const bool gw : scenario.is_gateway())
      if (!gw) sources += 1.0;
    const double denom = window_steps * sources;
    if (denom > 0.0) {
      result.offered_load =
          static_cast<double>(result.traffic.generated) / denom;
      result.carried_load =
          static_cast<double>(result.traffic.delivered) / denom;
    }
    result.ants_launched = ants.ants_launched();
    result.ants_completed = ants.ants_completed();
    result.ant_hops = ants.ant_hops();
    return result;
  }

  const TrafficTaskConfig task_ = task_config();
  std::uint64_t seed_ = 0;
  std::optional<RoutingScenario> scenario_;
  TrafficTaskResult last_;
  FlowTrafficStats merged_;
  RunningStats connectivity_;
  std::uint64_t ants_launched_ = 0;
  std::uint64_t ants_completed_ = 0;
  double bytes_per_node_ = 0.0;
};

// megacity-1m: a million-node mains-powered static field with a 0.1%
// battery-powered mobile convoy (perf_macro's BM_Scale1MAdvanceSharded
// world), advanced one step per op. Sharded automatically at this size.
class Megacity final : public Workload {
 public:
  static constexpr std::size_t kNodes = 1'000'000;

  double setup(std::uint64_t seed) override {
    Rng rng(seed);
    const double side = 1000.0 * std::sqrt(static_cast<double>(kNodes) / 250.0);
    const Aabb bounds{{0.0, 0.0}, {side, side}};
    std::vector<Vec2> positions = random_positions(kNodes, bounds, rng);
    std::vector<double> ranges =
        heterogeneous_ranges(kNodes, 110.0 * 0.85, 110.0 * 1.15, rng);
    const std::size_t movers = kNodes / 1000;
    std::vector<bool> mobile(kNodes, false);
    // Convoy: movers clustered in a corner box an eighth of the arena wide,
    // so dirty tiles stay localised.
    const Aabb convoy{{0.0, 0.0}, {side / 8.0, side / 8.0}};
    for (std::size_t i = 0; i < movers; ++i) {
      mobile[i] = true;
      positions[i] = {rng.uniform_real(convoy.lo.x, convoy.hi.x),
                      rng.uniform_real(convoy.lo.y, convoy.hi.y)};
    }
    auto mobility = std::make_unique<RandomDirectionMobility>(
        bounds, mobile, RandomDirectionMobility::Params{0.5, 3.0, 0.05},
        rng.fork(0x30B));
    BatteryBank batteries(kNodes, mobile, BatteryParams{1.0, 0.001});
    const Stopwatch watch;
    world_.emplace(bounds, std::move(positions),
                   RadioModel(std::move(ranges), RangeScaling{0.6}),
                   std::move(batteries), std::move(mobility),
                   LinkPolicy::kSymmetricAnd);
    const double build_s = static_cast<double>(watch.cpu()) / 1e9;
    if (!world_->sharded())
      throw std::runtime_error("megacity world is not sharded");
    last_epoch_ = world_->epoch();
    last_state_epoch_ = world_->state_epoch();
    run_op(kWarmupIndex, nullptr);
    return build_s;
  }

  OpOutcome run_op(std::size_t index, Tracer* tracer) override {
    OpOutcome out;
    const Stopwatch watch;
    {
      ScopedSpan span(tracer, "sim.advance", static_cast<int>(index));
      world_->advance();
    }
    out.cpu_ns = watch.cpu();
    out.wall_ns = watch.wall();
    out.digest = digest_world(*world_);
    out.steps = 1.0;
    if (world_->epoch() < last_epoch_ ||
        world_->state_epoch() < last_state_epoch_)
      out.error = "world epoch went backwards";
    last_epoch_ = world_->epoch();
    last_state_epoch_ = world_->state_epoch();
    return out;
  }

  void teardown() override { world_.reset(); }
  void account() override {
    edges_.add(static_cast<double>(world_->graph().edge_count()));
  }
  SimTotals sim_totals() const override {
    return {{"sim_mean_edges", edges_.mean()}};
  }
  double bytes_per_node() const override {
    return static_cast<double>(world_->memory_bytes()) /
           static_cast<double>(kNodes);
  }
  bool large() const override { return true; }

 private:
  std::optional<World> world_;
  std::uint64_t last_epoch_ = 0;
  std::uint64_t last_state_epoch_ = 0;
  RunningStats edges_;
};

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "paper-routing") return std::make_unique<PaperRouting>();
  if (name == "paper-mapping") return std::make_unique<PaperMapping>();
  if (name == "traffic-antnet") return std::make_unique<TrafficAntnet>();
  if (name == "megacity-1m") return std::make_unique<Megacity>();
  return nullptr;
}

// ---- Environment, host and telemetry ------------------------------------

/// The pinned environment: these three set to "1", no other AGENTNET_*.
constexpr const char* kPinnedVars[] = {"AGENTNET_THREADS",
                                       "AGENTNET_AGENT_THREADS",
                                       "AGENTNET_TOPO_SHARD_THREADS"};

/// Every way `env` (NAME=VALUE entries) departs from the pinned settings.
std::vector<std::string> env_violations(const std::vector<std::string>& env) {
  std::vector<std::string> out;
  for (const char* pinned : kPinnedVars) {
    const std::string want = std::string(pinned) + "=1";
    if (std::find(env.begin(), env.end(), want) == env.end())
      out.push_back(std::string(pinned) + " is not pinned to 1");
  }
  for (const std::string& entry : env) {
    if (entry.rfind("AGENTNET_", 0) != 0) continue;
    const std::string name = entry.substr(0, entry.find('='));
    const bool pinned = std::any_of(
        std::begin(kPinnedVars), std::end(kPinnedVars),
        [&](const char* p) { return name == p; });
    if (!pinned) out.push_back(name + " is set");
  }
  return out;
}

std::vector<std::string> process_env() {
  std::vector<std::string> env;
  for (char** e = environ; *e; ++e) env.emplace_back(*e);
  return env;
}

/// Host-noise canaries: fixed work whose time moves only with the host
/// (frequency, contention from other tenants), never with the program under
/// test. The ALU loop sees frequency and execution-port contention; the
/// pointer chase over a 4 MiB ring (past L2, inside L3) sees cache and
/// memory contention, which the ALU loop misses.
double alu_canary_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return static_cast<double>(ns_between(t0, Clock::now())) / 1e6;
}

double memory_canary_ms() {
  constexpr std::uint32_t kSlots = 1u << 20;
  // One random cycle through every slot (Sattolo), so each load depends on
  // the previous one and the hardware prefetcher cannot help.
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  for (std::uint32_t i = 0; i < kSlots; ++i) at = next[at];
  volatile std::uint32_t sink = at;
  (void)sink;
  return static_cast<double>(ns_between(t0, Clock::now())) / 1e6;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Counter and phase totals over the ops one pass ran, read from the
/// library's own telemetry (src/obs) through a per-op run slot.
struct ObsTotals {
  obs::MetricsSnapshot counters;
  obs::PhaseSnapshot phases;
  void add(const obs::RunObs& run) {
    counters += obs::snapshot(run.counters);
    phases += obs::snapshot(run.phases);
  }
};

// ---- Record output ----------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

template <typename T>
void json_array(std::ostream& os, const std::vector<T>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << ']';
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t ops = 0;
  std::size_t setups = 1;
  std::string trace_out;
};

int run(const Options& opt) {
  const auto violations = env_violations(process_env());
  if (!violations.empty()) {
    for (const auto& v : violations)
      std::cerr << "perfbench_harness: environment not pinned: " << v << "\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(opt.workload);
  if (!workload) {
    std::cerr << "perfbench_harness: unknown workload " << opt.workload << "\n";
    return 2;
  }
  const auto origin = Clock::now();

  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::vector<double> build_s;
  const auto timed_setup = [&](Workload& w) {
    const Stopwatch watch;
    build_s.push_back(w.setup(opt.seed));
    setup_s.push_back(static_cast<double>(watch.cpu()) / 1e9);
    setup_wall_s.push_back(static_cast<double>(watch.wall()) / 1e9);
  };

  // Every op run is checked, whichever pass ran it; an op fails on a bad
  // output or on a digest that differs from the timed op it repeats.
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto check = [&](const char* pass, std::size_t i, const OpOutcome& o,
                         const std::uint64_t* expected_digest) {
    ++attempted;
    std::string error = o.error;
    if (error.empty() && expected_digest && o.digest != *expected_digest)
      error = "digest differs from the timed op";
    if (error.empty()) return;
    ++failed;
    failures.push_back(std::string(pass) + " op " + std::to_string(i) + ": " +
                       error);
  };

  // An extra set-up: a fresh instance, set up and replaying op 0.
  std::vector<std::uint64_t> digests;
  std::size_t replays = 0;
  const auto replay = [&] {
    std::unique_ptr<Workload> fresh = make_workload(opt.workload);
    timed_setup(*fresh);
    check("replay", 0, fresh->run_op(0, nullptr), &digests.front());
    ++replays;
  };
  // Small workloads spread their extra set-ups through the timed pass, so
  // host drift over the run reaches set-up and op samples alike. A world
  // too large to hold twice is set up again only after the timed one is
  // gone.
  const bool interleave = !workload->large();

  // With tracing, a second instance repeats each op right after the timed
  // one, spans on. Interleaving op by op exposes both to the same host
  // conditions, so their ratio is the tracing overhead, not host drift.
  std::unique_ptr<Workload> traced;
  std::optional<Tracer> tracer;
  if (!opt.trace_out.empty()) {
    traced = make_workload(opt.workload);
    tracer.emplace(origin);
    ScopedSpan span(&*tracer, "bench.setup", -1);
    traced->setup(opt.seed);
  }
  std::vector<std::int64_t> traced_ns;
  ObsTotals traced_obs;

  // Timed pass.
  timed_setup(*workload);
  const double bytes_per_node = workload->bytes_per_node();
  std::vector<std::int64_t> op_ns;
  std::vector<std::int64_t> op_wall_ns;
  double sim_steps = 0.0;
  ObsTotals timed_obs;
  const Stopwatch pass_watch;
  for (std::size_t i = 0; i < opt.ops; ++i) {
    obs::RunObs slot;
    OpOutcome o;
    {
      obs::ObsRunScope scope(slot);
      o = workload->run_op(i, nullptr);
    }
    timed_obs.add(slot);
    op_ns.push_back(o.cpu_ns);
    op_wall_ns.push_back(o.wall_ns);
    digests.push_back(o.digest);
    sim_steps += o.steps;
    check("timed", i, o, nullptr);
    workload->account();
    if (traced) {
      obs::RunObs traced_slot;
      OpOutcome t;
      {
        obs::ObsRunScope scope(traced_slot);
        ScopedSpan span(&*tracer, "bench.op", static_cast<int>(i));
        t = traced->run_op(i, &*tracer);
      }
      traced_obs.add(traced_slot);
      traced_ns.push_back(t.cpu_ns);
      check("traced", i, t, &digests[i]);
    }
    // Extra set-up r runs after the first (r + 1) / setups of the ops.
    if (interleave && replays + 1 < opt.setups &&
        (i + 1) * opt.setups >= (replays + 1) * opt.ops)
      replay();
  }
  const double cpu_busy = static_cast<double>(pass_watch.cpu()) /
                          static_cast<double>(pass_watch.wall());
  const SimTotals sim = workload->sim_totals();
  if (traced) traced->teardown();

  workload->teardown();
  while (replays + 1 < opt.setups) replay();

  if (tracer) tracer->write_chrome(opt.trace_out);

  // One JSON object on stdout.
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
     << ",\"ops\":" << opt.ops << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed;
  os << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
    os << (i ? "," : "") << '"' << json_escape(failures[i]) << '"';
  os << "],\"op_ns\":";
  json_array(os, op_ns);
  os << ",\"op_wall_ns\":";
  json_array(os, op_wall_ns);
  os << ",\"traced_op_ns\":";
  json_array(os, traced_ns);
  os << ",\"setup_s\":";
  json_array(os, setup_s);
  os << ",\"setup_wall_s\":";
  json_array(os, setup_wall_s);
  os << ",\"build_s\":";
  json_array(os, build_s);
  os << ",\"digest0\":\"" << std::hex << digests.front() << std::dec << '"';
  os << ",\"sim_steps\":" << sim_steps << ",\"cpu_busy_ratio\":" << cpu_busy
     << ",\"peak_rss_mb\":" << peak_rss_mb()
     << ",\"bytes_per_node\":" << bytes_per_node;
  os << ",\"sim\":{";
  for (std::size_t i = 0; i < sim.size(); ++i)
    os << (i ? "," : "") << '"' << sim[i].first << "\":" << sim[i].second;
  // Per-layer telemetry comes from the traced pass when there is one.
  const ObsTotals& layer_obs = tracer ? traced_obs : timed_obs;
  os << "},\"counters\":{";
  for (std::size_t c = 0; c < obs::kCounterCount; ++c)
    os << (c ? "," : "") << '"'
       << obs::counter_name(static_cast<obs::Counter>(c))
       << "\":" << layer_obs.counters.values[c];
  os << "},\"phase_ns\":{";
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p)
    os << (p ? "," : "") << '"' << obs::phase_name(static_cast<obs::Phase>(p))
       << "\":" << layer_obs.phases.entries[p].ns;
  os << "},\"context\":{\"version\":\"" << AGENTNET_VERSION
     << "\",\"build_type\":\"" << AGENTNET_BUILD_TYPE << "\",\"ndebug\":"
#ifdef NDEBUG
     << "true"
#else
     << "false"
#endif
     << ",\"obs_level\":" << AGENTNET_OBS_LEVEL
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"agent_threads\":" << AgentParallelConfig::from_env().threads
     << ",\"compiler\":\"" << json_escape(__VERSION__) << "\"}}";
  std::cout << os.str() << std::endl;
  return 0;
}

// ---- Self-test ----------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "self-test FAILED: " << what << "\n";
      ++failures;
    }
  };

  // The digest is FNV-1a 64: pin a known vector so the hash never drifts.
  Digest d;
  d.bytes("a", 1);
  expect(d.value() == 0xaf63dc4c8601ec8cULL, "FNV-1a reference vector");

  // Same inputs, same digest; different seeds, different digest.
  RoutingScenarioParams params;
  params.node_count = 60;
  params.gateway_count = 3;
  params.trace_steps = 20;
  const RoutingScenario scenario(params, 7);
  RoutingTaskConfig task = PaperRouting::task_config();
  task.population = 10;
  task.steps = 20;
  task.measure_from = 10;
  const auto once = [&](std::uint64_t seed) {
    return digest_routing(run_routing_task(scenario, task, Rng(seed)));
  };
  expect(once(1) == once(1), "routing digest stable across identical runs");
  expect(once(1) != once(2), "routing digest separates different seeds");

  // Environment pinning.
  const std::vector<std::string> pinned = {
      "AGENTNET_THREADS=1", "AGENTNET_AGENT_THREADS=1",
      "AGENTNET_TOPO_SHARD_THREADS=1", "PATH=/bin"};
  expect(env_violations(pinned).empty(), "pinned environment accepted");
  auto extra = pinned;
  extra.push_back("AGENTNET_TRAFFIC_LOAD=0.9");
  expect(env_violations(extra).size() == 1, "stray AGENTNET_* rejected");
  auto threaded = pinned;
  threaded[0] = "AGENTNET_THREADS=4";
  expect(!env_violations(threaded).empty(), "unpinned thread count rejected");

  std::cout << (failures == 0 ? "self-test ok" : "self-test failed") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace agentnet::perfbench

int main(int argc, char** argv) {
  using agentnet::perfbench::Options;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--self-test") return agentnet::perfbench::self_test();
      if (arg == "--canary") {
        // Its own process, so the canary's buffer never shows in a run's
        // peak RSS.
        const double alu = agentnet::perfbench::alu_canary_ms();
        const double memory = agentnet::perfbench::memory_canary_ms();
        std::cout << "{\"alu_ms\":" << alu << ",\"memory_ms\":" << memory
                  << "}" << std::endl;
        return 0;
      }
      if (i + 1 >= argc) throw std::invalid_argument("missing value");
      const std::string value = argv[++i];
      if (arg == "--workload")
        opt.workload = value;
      else if (arg == "--seed")
        opt.seed = std::stoull(value);
      else if (arg == "--ops")
        opt.ops = std::stoul(value);
      else if (arg == "--setups")
        opt.setups = std::stoul(value);
      else if (arg == "--trace-out")
        opt.trace_out = value;
      else
        throw std::invalid_argument("unknown option " + std::string(arg));
    }
    if (opt.workload.empty() || opt.ops == 0 || opt.setups == 0)
      throw std::invalid_argument("--workload, --ops >= 1, --setups >= 1");
    return agentnet::perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
