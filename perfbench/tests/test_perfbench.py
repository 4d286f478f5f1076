"""Tests of the repository benchmark itself. Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

They build the benchmark like run.py does (into .bench_build), run the
C++ self-tests (seeded inputs, exact-metric repeatability, the correctness
gate), and check run.py's own contract: the result line, the refusal of
Debug and sanitizer builds, and failure outside a source tree.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.perfbench, cls.dsf, cls.cache = run.build(ROOT)

    def test_selftest(self):
        selftest = self.perfbench.parent / "perfbench_selftest"
        done = subprocess.run([str(selftest)], capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertNotIn("FAIL", done.stdout)

    def test_result_line(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "congest-paper",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_missing_metric_fails_unless_bypassed(self):
        wanted = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]
        reported = {"a_ms": {"value": 1.5, "unit": "ms"}}
        metrics = run.select_metrics(wanted, {"metrics": reported, "bypassed": ["b"]})
        self.assertEqual(metrics["b"], {"value": 0, "unit": "count"})
        for bypassed in ([], ["a_ms", "b"], ["b", "c"]):
            with self.assertRaises(SystemExit) as exit_:
                run.select_metrics(wanted, {"metrics": reported, "bypassed": bypassed})
            self.assertEqual(exit_.exception.code, 4)

    def test_refuses_debug_and_sanitizer_builds(self):
        for cache in ({"CMAKE_BUILD_TYPE": "Debug"},
                      {"CMAKE_BUILD_TYPE": "Release", "DSF_SANITIZE": "ON"},
                      {"CMAKE_BUILD_TYPE": "RelWithDebInfo",
                       "CMAKE_CXX_FLAGS": "-fsanitize=thread"}):
            with self.assertRaises(SystemExit) as exit_:
                run.provenance(ROOT, cache)
            self.assertEqual(exit_.exception.code, 3)
        stamp = run.provenance(ROOT, {"CMAKE_BUILD_TYPE": "RelWithDebInfo"})
        self.assertEqual(stamp["cmake_build_type"], "RelWithDebInfo")

    def test_fails_outside_a_source_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
