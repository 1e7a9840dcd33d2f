#!/usr/bin/env python3
"""End-to-end benchmark: one workload, fixed work, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_harness (a Release build of ../src plus harness.cpp) under
.bench_build/ in the checkout, runs it once with a pinned serial environment,
and prints the run context on one line and, as the last line of stdout, the
result: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (from a separate traced
pass of the same ops). perfbench/README.md maps metrics to layers.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")

# Ops per second of --seconds, and set-ups per run. The op count is a pure
# function of --seconds (never of elapsed time), so every run of a workload
# does the same work. Rates are the measured single-core op costs rounded
# down; set-ups are repeated (and their median reported) where one set-up
# takes well under a second.
WORKLOADS = {
    "paper-routing": {"ops_per_s": 12, "setups": 15},
    "paper-mapping": {"ops_per_s": 25, "setups": 15},
    "traffic-antnet": {"ops_per_s": 8, "setups": 15},
    "megacity-1m": {"ops_per_s": 100, "setups": 3},
}

# Derived-state cache lookups per simulated step (World CSR snapshot, the
# fault mask and the connectivity/oracle caches each workload consults);
# routing.cache_hit_ratio is derived_cache_hits over these lookups.
CACHE_LOOKUPS_PER_STEP = {
    "paper-routing": 3,
    "paper-mapping": 0,
    "traffic-antnet": 2,
    "megacity-1m": 1,
}

PINNED_ENV = {
    "AGENTNET_THREADS": "1",
    "AGENTNET_AGENT_THREADS": "1",
    "AGENTNET_TOPO_SHARD_THREADS": "1",
}


# Per-layer metric -> (span name, library phase name). A layer's time
# is the self time of its span when the traced pass recorded one (the calls
# run_traffic_task makes, World::advance), else the library's own phase
# timer (layers reachable only inside run_routing_task/run_mapping_task).
LAYER_TIMES = {
    "sim.advance_ms": ("sim.advance", "world_advance"),
    "routing.measure_ms": ("routing.measure_connectivity", "measure"),
    "core.sense_ms": (None, "sense"),
    "core.exchange_ms": (None, "exchange"),
    "core.decide_ms": (None, "decide"),
    "core.move_ms": (None, "move"),
    "core.commit_ms": (None, "commit"),
    "aco.step_ms": ("aco.step", None),
    "aco.snapshot_tables_ms": ("aco.snapshot_tables", None),
    "traffic.step_ms": ("traffic.step", None),
    "fault.live_graph_ms": ("fault.live_graph", None),
    "experiments.setup_ms": ("experiments.setup", "setup"),
}

# Per-layer metric -> library counter, reported per op.
LAYER_COUNTS = {
    "sim.topo_nodes_dirty": "topo_nodes_dirty",
    "sim.shard_tiles_dirty": "shard_tiles_dirty",
    "sim.shard_halo_rows": "shard_halo_rows",
    "routing.route_table_updates": "route_table_updates",
    "core.agent_hops": "agent_hops",
    "core.agent_meetings": "agent_meetings",
    "core.knowledge_merges": "knowledge_merges",
    "core.stigmergy_avoidances": "stigmergy_avoidances",
    "aco.ant_hops": "ant_hops",
    "traffic.packets_generated": "packets_generated",
    "traffic.packets_delivered": "packets_delivered",
    "fault.link_drops": "fault_link_drops",
}


# ---- Statistics ----------------------------------------------------------------

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank p-th percentile: the k-th smallest value, k = ceil(p*n/100)."""
    ordered = sorted(values)
    k = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[k - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile position."""
    return n - max(1, math.ceil(p * n / 100.0))


def tail_percentile(n):
    """The highest candidate percentile with at least MIN_BEYOND samples beyond it."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return 50.0


def self_times(spans):
    """Self time per span: its duration minus the union of its children's intervals.

    `spans` are dicts with id, parent, start, dur (any one time unit).
    Returns {id: self_time}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        end_reached = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], end_reached, s["start"])
            hi = min(c["start"] + c["dur"], s["start"] + s["dur"])
            if hi > lo:
                covered += hi - lo
                end_reached = hi
        out[s["id"]] = s["dur"] - covered
    return out


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [
        {
            "id": e["args"]["id"],
            "parent": e["args"]["parent"],
            "op": e["args"]["op"],
            "name": e["name"],
            "start": e["ts"] * 1e3,
            "dur": e["dur"] * 1e3,
        }
        for e in events
    ]


# ---- Environment and build -----------------------------------------------------


def host_steal_s():
    """Seconds of CPU time the hypervisor stole from this host's CPUs, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def pinned_env(base):
    """`base` without any AGENTNET_* variable, plus the serial pins."""
    env = {k: v for k, v in base.items() if not k.startswith("AGENTNET_")}
    env.update(PINNED_ENV)
    return env


def build():
    """Configures (once) and builds the harness; returns False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness", "-j", jobs]
    return subprocess.call(cmd, stdout=log, stderr=log) == 0


# ---- Metrics -------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(rec):
    op_ms = [ns / 1e6 for ns in rec["op_ns"]]
    tail_p = tail_percentile(len(op_ms))
    return {
        "setup_s": metric(statistics.median(rec["setup_s"]), "s"),
        "steps_per_s": metric(rec["sim_steps"] / (sum(op_ms) / 1e3), "1/s"),
        "op_ms_p50": metric(statistics.median(op_ms), "ms"),
        "op_ms_tail": metric(percentile(op_ms, tail_p), "ms"),
        "peak_rss_mb": metric(rec["peak_rss_mb"], "MB"),
    }


def per_layer_metrics(rec, spans, workload):
    ops = rec["ops"]
    selfs = self_times(spans)
    span_ns = {}
    for s in spans:
        span_ns[s["name"]] = span_ns.get(s["name"], 0.0) + selfs[s["id"]]
    counters = rec["counters"]
    phases = rec["phase_ns"]
    out = {}
    for name, (span, phase) in LAYER_TIMES.items():
        if span and span in span_ns:
            ns = span_ns[span]
        else:
            ns = phases.get(phase, 0) if phase else 0
        out[name] = metric(ns / ops / 1e6, "ms/op")
    for name, counter in LAYER_COUNTS.items():
        out[name] = metric(counters[counter] / ops, "count/op")

    def ratio(num, den):
        return num / den if den else 0.0

    core_ns = sum(phases[p] for p in ("sense", "exchange", "decide", "move", "commit"))
    out["core.ns_per_agent_hop"] = metric(ratio(core_ns, counters["agent_hops"]), "ns")
    out["aco.ns_per_ant_hop"] = metric(
        ratio(span_ns.get("aco.step", 0.0), counters["ant_hops"]), "ns"
    )
    out["aco.completion_ratio"] = metric(
        ratio(rec["sim"].get("ants_completed", 0), rec["sim"].get("ants_launched", 0)),
        "ratio",
    )
    out["traffic.ns_per_packet"] = metric(
        ratio(span_ns.get("traffic.step", 0.0), counters["packets_generated"]), "ns"
    )
    lookups = rec["sim_steps"] * CACHE_LOOKUPS_PER_STEP[workload]
    out["routing.cache_hit_ratio"] = metric(
        ratio(counters["derived_cache_hits"], lookups), "ratio"
    )
    out["sim.bytes_per_node"] = metric(rec["bytes_per_node"], "B")
    out["sim.build_s"] = metric(statistics.median(rec["build_s"]), "s")
    out["obs.trace_overhead_ratio"] = metric(
        statistics.median(rec["traced_op_ns"]) / statistics.median(rec["op_ns"]),
        "ratio",
    )
    out["bench.cpu_busy_ratio"] = metric(rec["cpu_busy_ratio"], "ratio")
    op_spans = [s for s in spans if s["name"] == "bench.op"]
    op_total = sum(s["dur"] for s in op_spans)
    op_self = sum(selfs[s["id"]] for s in op_spans)
    out["bench.span_coverage"] = metric(ratio(op_total - op_self, op_total), "ratio")
    return out


def context(rec, args, ops, host):
    ctx = dict(rec["context"])
    build_type = ctx.get("build_type", "")
    ctx.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ops": ops,
            "setups": len(rec["setup_s"]),
            "nproc": os.cpu_count(),
            "env": dict(PINNED_ENV),
            "unoptimised_build": not (ctx.get("ndebug") and build_type in ("Release", "RelWithDebInfo")),
            "op_ms_tail_percentile": tail_percentile(len(rec["op_ns"])),
            "op_samples": len(rec["op_ns"]),
            "cpu_busy_ratio": rec["cpu_busy_ratio"],
            "wall_op_ms_p50": statistics.median(rec["op_wall_ns"]) / 1e6,
            "wall_setup_s": statistics.median(rec["setup_wall_s"]),
            "sim": rec["sim"],
            "digest0": rec["digest0"],
            "failures": rec["failures"],
        }
    )
    if "packets_delivered" in rec["sim"]:
        ctx["pkts_per_s"] = rec["sim"]["packets_delivered"] / (sum(rec["op_ns"]) / 1e9)
    ctx.update(host)
    return ctx


def harness_json(cmd, env):
    """Runs the harness; its last stdout line as JSON, or None if it failed."""
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        print(f"perfbench: {os.path.basename(cmd[0])} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    spec = WORKLOADS[args.workload]
    ops = max(1, args.seconds * spec["ops_per_s"])
    cmd = [
        HARNESS,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--ops", str(ops),
        "--setups", str(spec["setups"]),
    ]
    trace_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json")
        cmd += ["--trace-out", trace_path]
    env = pinned_env(os.environ)
    steal0 = host_steal_s()
    canary0 = harness_json([HARNESS, "--canary"], env)
    rec = harness_json(cmd, env)
    canary1 = harness_json([HARNESS, "--canary"], env)
    steal1 = host_steal_s()
    if rec is None or canary0 is None or canary1 is None:
        return 4
    host = {
        "alu_canary_ms": [canary0["alu_ms"], canary1["alu_ms"]],
        "memory_canary_ms": [canary0["memory_ms"], canary1["memory_ms"]],
        "host_steal_s": steal1 - steal0 if steal0 is not None and steal1 is not None else None,
    }

    if args.trace:
        metrics = per_layer_metrics(rec, load_spans(trace_path), args.workload)
    else:
        metrics = end_to_end_metrics(rec)
    ctx = context(rec, args, ops, host)
    if ctx["unoptimised_build"]:
        print("perfbench: WARNING: unoptimised build", file=sys.stderr)
    print(json.dumps({"context": ctx}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": rec["failed"] == 0,
                "attempted": rec["attempted"],
                "failed": rec["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
