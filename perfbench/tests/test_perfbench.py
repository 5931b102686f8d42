#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, at smoke size.

    python3 perfbench/tests/test_perfbench.py

Builds qdv_perfbench through perfbench/run.py (into .bench_build, or
$CARGO_TARGET_DIR) and checks that
  * every workload emits all end-to-end metrics of BENCHMARK.json, with
    their units and attempted/failed counts, and all per-layer metrics when
    traced;
  * a deliberately wrong expected answer fails verification;
  * a second seed produces different inputs but the same metric set.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed=1, trace=0, *extra):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    stamp = next((json.loads(l[len("# stamp "):]) for l in lines
                  if l.startswith("# stamp ")), None)
    return done.returncode, result, stamp, done


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class PerfbenchSelfTest(unittest.TestCase):
    # explore is kept runnable (and tested) though BENCHMARK.json does not
    # gate it; see perfbench/README.md.
    workloads = [w["name"] for w in SPEC["workloads"]] + ["explore"]

    def check_result(self, result, kind):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, expected(kind))
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_emits_every_metric(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                code, result, stamp, done = run(w)
                self.assertEqual(code, 0, done.stderr)
                self.check_result(result, "end_to_end")
                for name in ("steps_per_s", "step_p50_ms", "step_p95_ms",
                             "setup_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0)
                for key in ("nproc", "simd_isa", "compiler", "git_sha", "seed",
                            "particles", "timesteps", "steps",
                            "p95_tail_samples"):
                    self.assertIn(key, stamp)
            with self.subTest(workload=w, trace=1):
                code, result, _, done = run(w, trace=1)
                self.assertEqual(code, 0, done.stderr)
                self.check_result(result, "per_layer")
                self.assertIn("# tracing overhead:", done.stdout)

    def test_wrong_expected_answer_fails_verification(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                code, result, stamp, _ = run(w, 1, 0, "--corrupt-expected")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreaterEqual(stamp["verify_mismatches"], 1)

    def test_second_seed_changes_inputs_not_metric_set(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                _, first, stamp1, _ = run(w, seed=1)
                _, second, stamp2, _ = run(w, seed=2)
                self.assertNotEqual(stamp1["input_digest"], stamp2["input_digest"])
                self.assertEqual(set(first["metrics"]), set(second["metrics"]))


if __name__ == "__main__":
    unittest.main()
