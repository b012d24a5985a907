#!/usr/bin/env python3
"""Unit tests for the bench tooling (bench_to_json.py, compare_bench.py).

These two scripts are the regression gate guarding every performance claim
in the repo: bench_to_json folds raw Google Benchmark output into the
touch-bench-v1 schema, and compare_bench decides whether a PR's numbers
regressed past the checked-in baseline. Run via ctest (bench_tools_test)
or directly:

    python3 -m unittest discover -s tools -p test_bench_tools.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_to_json  # noqa: E402
import compare_bench  # noqa: E402


def _write_json(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def _gbench_doc(rows, context=None):
    doc = {"benchmarks": rows}
    if context is not None:
        doc["context"] = context
    return doc


def _touch_doc(benchmarks):
    return {
        "schema": "touch-bench-v1",
        "context": {"host": "test"},
        "benchmarks": {
            name: {"real_time_ms": ms, "cpu_time_ms": ms}
            for name, ms in benchmarks.items()
        },
    }


class BenchToJsonTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.dir = self._tmp.name

    def convert(self, *docs):
        paths = [_write_json(self.dir, f"in{i}.json", d)
                 for i, d in enumerate(docs)]
        return bench_to_json.convert(paths)

    def test_repetitions_fold_to_minimum(self):
        doc = self.convert(_gbench_doc([
            {"name": "k/collect", "run_type": "iteration",
             "real_time": 5.0, "cpu_time": 5.0, "time_unit": "ms"},
            {"name": "k/collect", "run_type": "iteration",
             "real_time": 3.0, "cpu_time": 3.5, "time_unit": "ms"},
            {"name": "k/collect", "run_type": "iteration",
             "real_time": 4.0, "cpu_time": 4.0, "time_unit": "ms"},
        ]))
        # The fastest repetition wins, and real/cpu stay paired from that
        # same sample (no cross-repetition min mixing).
        self.assertEqual(doc["benchmarks"]["k/collect"],
                         {"real_time_ms": 3.0, "cpu_time_ms": 3.5})

    def test_aggregate_rows_are_skipped(self):
        doc = self.convert(_gbench_doc([
            {"name": "k/sweep", "run_type": "iteration",
             "real_time": 2.0, "cpu_time": 2.0, "time_unit": "ms"},
            {"name": "k/sweep_mean", "run_type": "aggregate",
             "real_time": 99.0, "cpu_time": 99.0, "time_unit": "ms"},
            {"name": "k/sweep_stddev", "run_type": "aggregate",
             "real_time": 99.0, "cpu_time": 99.0, "time_unit": "ms"},
        ]))
        self.assertEqual(sorted(doc["benchmarks"]), ["k/sweep"])

    def test_time_units_normalize_to_milliseconds(self):
        doc = self.convert(_gbench_doc([
            {"name": "a", "run_type": "iteration",
             "real_time": 1500000.0, "cpu_time": 1500000.0,
             "time_unit": "ns"},
            {"name": "b", "run_type": "iteration",
             "real_time": 250.0, "cpu_time": 250.0, "time_unit": "us"},
            {"name": "c", "run_type": "iteration",
             "real_time": 0.5, "cpu_time": 0.5, "time_unit": "s"},
        ]))
        self.assertEqual(doc["benchmarks"]["a"]["real_time_ms"], 1.5)
        self.assertEqual(doc["benchmarks"]["b"]["real_time_ms"], 0.25)
        self.assertEqual(doc["benchmarks"]["c"]["real_time_ms"], 500.0)

    def test_unknown_time_unit_rejected(self):
        with self.assertRaises(SystemExit):
            self.convert(_gbench_doc([
                {"name": "a", "run_type": "iteration",
                 "real_time": 1.0, "cpu_time": 1.0, "time_unit": "fortnight"},
            ]))

    def test_schema_and_context_recorded(self):
        with mock.patch.dict(os.environ, {"TOUCH_BENCH_SCALE": "0.25"}):
            doc = self.convert(_gbench_doc(
                [{"name": "a", "run_type": "iteration",
                  "real_time": 1.0, "cpu_time": 1.0, "time_unit": "ms"}],
                context={"date": "2026-08-08", "host_name": "vm",
                         "num_cpus": 8, "library_build_type": "release"}))
        self.assertEqual(doc["schema"], "touch-bench-v1")
        self.assertEqual(doc["context"]["host"], "vm")
        self.assertEqual(doc["context"]["scale"], "0.25")
        self.assertEqual(doc["context"]["library_build_type"], "release")
        self.assertNotIn("build_type", doc["context"])

    def test_multiple_inputs_merge(self):
        doc = self.convert(
            _gbench_doc([{"name": "a", "run_type": "iteration",
                          "real_time": 1.0, "cpu_time": 1.0,
                          "time_unit": "ms"}]),
            _gbench_doc([{"name": "b", "run_type": "iteration",
                          "real_time": 2.0, "cpu_time": 2.0,
                          "time_unit": "ms"},
                         # Same name across files also folds to the min.
                         {"name": "a", "run_type": "iteration",
                          "real_time": 0.5, "cpu_time": 0.5,
                          "time_unit": "ms"}]))
        self.assertEqual(doc["benchmarks"]["a"]["real_time_ms"], 0.5)
        self.assertEqual(doc["benchmarks"]["b"]["real_time_ms"], 2.0)


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.dir = self._tmp.name

    def run_compare(self, baseline, current, *extra_args):
        base_path = _write_json(self.dir, "baseline.json", baseline)
        cur_path = _write_json(self.dir, "current.json", current)
        argv = ["compare_bench.py", base_path, cur_path, *extra_args]
        out = io.StringIO()
        with mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(out):
            code = compare_bench.main()
        return code, out.getvalue()

    def test_rejects_non_touch_bench_documents(self):
        path = _write_json(self.dir, "bad.json", {"benchmarks": {}})
        with self.assertRaises(SystemExit):
            compare_bench.load(path)

    def test_gate_passes_within_threshold(self):
        code, out = self.run_compare(
            _touch_doc({"a": 10.0, "b": 10.0}),
            _touch_doc({"a": 10.0, "b": 12.0}),
            "--normalize", "none")
        self.assertEqual(code, 0)
        self.assertIn("OK", out)

    def test_gate_fails_beyond_25_percent(self):
        code, out = self.run_compare(
            _touch_doc({"a": 10.0, "b": 10.0, "c": 10.0}),
            _touch_doc({"a": 10.0, "b": 10.0, "c": 20.0}),
            "--normalize", "none")
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("FAIL", out)

    def test_median_normalization_cancels_uniform_slowdown(self):
        # Every benchmark 2x slower (slower CI machine): median
        # normalization divides it out and the gate passes...
        baseline = _touch_doc({"a": 10.0, "b": 20.0, "c": 30.0})
        current = _touch_doc({"a": 20.0, "b": 40.0, "c": 60.0})
        code, out = self.run_compare(baseline, current)
        self.assertEqual(code, 0)
        self.assertIn("normalization: 2.000x", out)
        # ...while --normalize none flags all three.
        code, _ = self.run_compare(baseline, current, "--normalize", "none")
        self.assertEqual(code, 1)

    def test_relative_regression_survives_normalization(self):
        # Uniform 2x slowdown plus one benchmark an *additional* 2x slower:
        # normalization cancels the machine factor but not the outlier.
        code, out = self.run_compare(
            _touch_doc({"a": 10.0, "b": 10.0, "c": 10.0, "d": 10.0}),
            _touch_doc({"a": 20.0, "b": 20.0, "c": 20.0, "d": 40.0}))
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_min_ms_excludes_noisy_benchmarks_from_gate(self):
        # 0.1 ms baseline is below the 0.5 ms floor: a 10x "regression"
        # there is scheduler noise and must not gate.
        code, out = self.run_compare(
            _touch_doc({"fast": 0.1, "slow": 10.0}),
            _touch_doc({"fast": 1.0, "slow": 10.0}),
            "--normalize", "none")
        self.assertEqual(code, 0)
        self.assertIn("below min-ms", out)
        # Lowering the floor brings it back into the gate.
        code, _ = self.run_compare(
            _touch_doc({"fast": 0.1, "slow": 10.0}),
            _touch_doc({"fast": 1.0, "slow": 10.0}),
            "--normalize", "none", "--min-ms", "0.05")
        self.assertEqual(code, 1)

    def test_added_and_removed_benchmarks_never_gate(self):
        code, out = self.run_compare(
            _touch_doc({"shared": 10.0, "old": 10.0}),
            _touch_doc({"shared": 10.0, "new": 9999.0}),
            "--normalize", "none")
        self.assertEqual(code, 0)
        self.assertIn("added (no baseline, not gated): new", out)
        self.assertIn("removed from current results:   old", out)

    def test_no_shared_benchmarks_is_an_error(self):
        with self.assertRaises(SystemExit):
            self.run_compare(_touch_doc({"a": 1.0}), _touch_doc({"b": 1.0}))

    def test_max_slowdown_flag_overrides_default(self):
        baseline = _touch_doc({"a": 10.0, "b": 10.0, "c": 10.0})
        current = _touch_doc({"a": 10.0, "b": 10.0, "c": 14.0})
        code, _ = self.run_compare(baseline, current, "--normalize", "none")
        self.assertEqual(code, 1)  # 1.4x > default 1.25x
        code, _ = self.run_compare(baseline, current,
                                   "--normalize", "none",
                                   "--max-slowdown", "1.5")
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
