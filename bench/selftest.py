"""Self-test of the benchmark harness: span self time on hand-built nested
spans, host-speed normalisation on hand-built samples, a minimal-size run
of every workload traced and untraced, and the refusal to report anything
without the program's sources.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

run.pin_threads()
sys.path.insert(0, os.path.join(run.ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        S = spans.Span
        hand = [
            S("root", 0.0, 10.0, None, 1),
            S("a", 1.0, 4.0, 0, 1),
            S("b", 3.0, 6.0, 0, 1),     # overlaps a: the union counts once
            S("a.leaf", 1.0, 2.0, 1, 1),
            S("c", 8.0, 12.0, 0, 1),    # clipped to its parent's end
            S("other", 20.0, 21.0, None, 2),
        ]
        self.assertEqual(spans.self_times(hand),
                         [3.0, 2.0, 3.0, 1.0, 4.0, 1.0])

    def test_grouping_and_ratios(self):
        S = spans.Span
        hand = [S("spp.spp_forward", 0.0, 4.0, None, 1),
                S("spp.spp_forward_batch", 1.0, 3.0, 0, 1),
                S("detection.nms", 5.0, 6.0, None, 1)]
        counters = {"net.trunk_passes": 2.0, "spp.windows_pooled": 10.0,
                    "detection.nms_in": 8.0, "detection.nms_kept": 2.0}
        m = spans.per_layer_metrics(hand, counters, cycles=2)
        self.assertEqual(m["spp.forward_s"], 2.0)   # (2 + 2) / 2 passes
        self.assertEqual(m["detection.nms_s"], 0.5)
        self.assertEqual(m["spp.windows_per_map"], 5.0)
        self.assertEqual(m["detection.nms_kept_ratio"], 0.25)
        self.assertEqual(m["tensor.conv_backward_s"], 0.0)


class NormalisedTimeTest(unittest.TestCase):
    def test_gaps_between_kernel_runs(self):
        import calibrate
        speed = run.HostSpeed()
        speed.starts = [0.0, 1.0, 2.0, 3.0]
        speed.ends = [0.1, 1.1, 2.1, 3.1]
        speed.seconds = [0.002, 0.002, 0.004, 0.004]
        # 0.5-2.5 s overlaps the gaps after kernel runs 0, 1 and 2; each is
        # scaled by the median of the kernel times at most two runs away on
        # either side, and the kernel's own time is left out
        wall, norm = speed.times(0.5, 2.5)
        self.assertAlmostEqual(wall, 0.5 + 0.9 + 0.4)
        self.assertAlmostEqual(
            norm, calibrate.REF_S * (0.5 / 0.002 + 0.9 / 0.003 + 0.4 / 0.004))


class SmokeTest(unittest.TestCase):
    """Each workload at minimal size: every check passes, every declared
    metric is reported, and a second run with the same seed reproduces the
    output digests."""

    def _run(self, name, traced):
        result, record = run.run_workload(name, 3, 0, traced,
                                          workloads.small_params())
        self.assertEqual(result["failed"], 0, record["errors"])
        self.assertTrue(result["correct"])
        declared = [m["name"] for m in
                    BENCHMARK["per_layer" if traced else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(declared))
        for m in result["metrics"].values():
            self.assertTrue(math.isfinite(m["value"]))
        return result, record

    def test_workloads(self):
        for name in ("train", "classify", "detect"):
            with self.subTest(workload=name):
                plain, rec = self._run(name, False)
                traced, rec_traced = self._run(name, True)
                self.assertEqual(rec["digests"], rec_traced["digests"])
                layer = {k: v["value"] for k, v in traced["metrics"].items()}
                backward = layer["tensor.conv_backward_s"]
                if name == "train":
                    self.assertGreater(backward, 0.0)
                else:
                    self.assertEqual(backward, 0.0)
                    self.assertGreater(layer["net.trunk_passes"], 0)


class NoProgramTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        scratch = os.path.join(run.ROOT, ".bench_tmp")
        os.makedirs(scratch, exist_ok=True)
        top = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), top)
            shutil.copytree(run.HERE, os.path.join(top, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "train",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=top, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(top, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
