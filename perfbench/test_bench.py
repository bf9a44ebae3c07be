#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py            # every workload (~10 min)
    python3 perfbench/test_bench.py svc-a      # one workload

Run from the root of the repository. For each workload it checks that:
- two runs with one seed print byte-identical simulated metrics;
- a held-out seed, used nowhere else, runs and passes every check;
- the metric names and units printed equal those in BENCHMARK.json, for
  the end-to-end run and for the traced run.
"""

import functools
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7
HELD_OUT_SEED = 424242

# End-to-end metrics that come from the simulation, and so must repeat
# exactly for one seed; the others are host measurements.
SIMULATED = ["sim_mops", "sim_mean_ns", "sim_p999_ns", "space_bytes_per_key"]


def run(workload, seed, trace):
    """Run the benchmark with the shortest budget and return its parsed
    result line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(
            f"{workload} seed {seed} exited {out.returncode}:\n"
            f"{out.stdout[-3000:]}{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


cached_run = functools.lru_cache(maxsize=None)(run)


def names(metrics):
    return sorted((n, m["unit"]) for n, m in metrics.items())


class Cases:
    workload = None

    def test_same_seed_same_simulated_metrics(self):
        a = cached_run(self.workload, SEED, 0)
        b = run(self.workload, SEED, 0)
        for n in SIMULATED:
            self.assertEqual(json.dumps(a["metrics"][n]),
                             json.dumps(b["metrics"][n]), n)

    def test_held_out_seed_passes_every_check(self):
        r = run(self.workload, HELD_OUT_SEED, 0)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)

    def test_names_match_benchmark_json(self):
        e2e = cached_run(self.workload, SEED, 0)
        self.assertEqual(names(e2e["metrics"]),
                         sorted((m["name"], m["unit"])
                                for m in SPEC["end_to_end"]))
        layers = run(self.workload, SEED, 1)
        self.assertTrue(layers["correct"])
        self.assertEqual(names(layers["metrics"]),
                         sorted((m["name"], m["unit"])
                                for m in SPEC["per_layer"]))


def suite(workloads):
    s = unittest.TestSuite()
    for w in workloads:
        case = type("Benchmark_" + w.replace("-", "_"),
                    (Cases, unittest.TestCase), {"workload": w})
        s.addTests(unittest.defaultTestLoader.loadTestsFromTestCase(case))
    return s


if __name__ == "__main__":
    chosen = sys.argv[1:] or WORKLOADS
    unknown = [w for w in chosen if w not in WORKLOADS]
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(unknown)}")
    result = unittest.TextTestRunner(verbosity=2).run(suite(chosen))
    sys.exit(0 if result.wasSuccessful() else 1)
