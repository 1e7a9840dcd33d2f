"""Self-tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The digest test builds the harness (as run.py does) and runs its C++
self-test; it is skipped when the library sources are not there to build.
"""

import json
import os
import subprocess
import unittest

import run


def span(id_, parent, start, dur, name="x"):
    return {"id": id_, "parent": parent, "start": start, "dur": dur, "name": name, "op": 0}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile([7.0], 99), 7.0)

    def test_at_least_ten_samples_beyond(self):
        # Exactly at the edge: p90 of 100 leaves 10 beyond, p95 only 5.
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(99), 75.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        for n in (20, 100, 240, 1000, 2500):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(run.samples_beyond(n, p), run.MIN_BEYOND)

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(run.tail_percentile(5), 50.0)


class SelfTime(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 20), span(2, 0, 40, 30)]
        self.assertEqual(run.self_times(spans), {0: 50, 1: 20, 2: 30})

    def test_overlapping_children_counted_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 20, 30)]
        self.assertEqual(run.self_times(spans)[0], 60)

    def test_child_clipped_to_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 30)]
        self.assertEqual(run.self_times(spans)[0], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 60), span(2, 1, 10, 50)]
        self.assertEqual(run.self_times(spans), {0: 40, 1: 10, 2: 50})


class EnvironmentPinning(unittest.TestCase):
    def test_clears_and_pins(self):
        env = run.pinned_env(
            {
                "PATH": "/bin",
                "AGENTNET_THREADS": "8",
                "AGENTNET_TRAFFIC_LOAD": "0.9",
                "AGENTNET_TRACE": "out.jsonl",
                "AGENTNET_TOPO_SHARD": "0",
            }
        )
        self.assertEqual(env["PATH"], "/bin")
        agentnet = {k: v for k, v in env.items() if k.startswith("AGENTNET_")}
        self.assertEqual(agentnet, run.PINNED_ENV)
        self.assertTrue(all(v == "1" for v in agentnet.values()))


class Contract(unittest.TestCase):
    def test_reports_every_declared_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        rec = {
            "ops": 2,
            "op_ns": [1_000_000, 3_000_000],
            "traced_op_ns": [2_000_000, 4_000_000],
            "setup_s": [0.5, 0.7, 0.6],
            "build_s": [0.1],
            "sim_steps": 600.0,
            "peak_rss_mb": 12.0,
            "bytes_per_node": 100.0,
            "cpu_busy_ratio": 1.0,
            "sim": {},
            "counters": {c: 4 for c in run.LAYER_COUNTS.values()} | {"derived_cache_hits": 3},
            "phase_ns": {p: 2_000_000 for p in
                         ("setup", "sense", "exchange", "decide", "move", "commit",
                          "measure", "world_advance")},
        }
        spans = [span(0, -1, 0, 100, "bench.op"), span(1, 0, 0, 95, "sim.advance")]
        e2e = run.end_to_end_metrics(rec)
        layer = run.per_layer_metrics(rec, spans, "paper-routing")
        self.assertEqual(sorted(e2e), sorted(m["name"] for m in spec["end_to_end"]))
        self.assertEqual(sorted(layer), sorted(m["name"] for m in spec["per_layer"]))
        for m in spec["end_to_end"] + spec["per_layer"]:
            got = (e2e | layer)[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
        self.assertAlmostEqual(e2e["setup_s"]["value"], 0.6)
        self.assertAlmostEqual(e2e["steps_per_s"]["value"], 600.0 / 0.004)
        self.assertAlmostEqual(layer["bench.span_coverage"]["value"], 0.95)
        self.assertAlmostEqual(layer["obs.trace_overhead_ratio"]["value"], 1.5)
        self.assertAlmostEqual(layer["routing.cache_hit_ratio"]["value"], 3 / 1800)


class HarnessSelfTest(unittest.TestCase):
    def test_digests_and_env_checks(self):
        if not run.build():
            self.skipTest("harness does not build here (no library sources)")
        proc = subprocess.run(
            [run.HARNESS, "--self-test"],
            env=run.pinned_env(os.environ),
            capture_output=True,
            text=True,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_refuses_unpinned_environment(self):
        if not run.build():
            self.skipTest("harness does not build here (no library sources)")
        env = run.pinned_env(os.environ) | {"AGENTNET_TRAFFIC_LOAD": "0.9"}
        proc = subprocess.run(
            [run.HARNESS, "--workload", "paper-routing", "--seed", "1", "--ops", "1",
             "--setups", "1"],
            env=env,
            capture_output=True,
            text=True,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("AGENTNET_TRAFFIC_LOAD", proc.stderr)


if __name__ == "__main__":
    unittest.main()
