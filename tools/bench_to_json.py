#!/usr/bin/env python3
"""Convert Google Benchmark JSON output into the repo's bench-trajectory schema.

Usage:
    bench_to_json.py RESULTS.json [MORE.json ...] --out BENCH_pr.json

Reads one or more files produced with `--benchmark_format=json`, merges
them, normalizes every timing to milliseconds, and writes a compact
`touch-bench-v1` document:

    {
      "schema": "touch-bench-v1",
      "context": {"date": ..., "host": ..., "scale": ...},
      "benchmarks": {"engine_planner/uniform/auto_cold":
                     {"real_time_ms": 12.3, "cpu_time_ms": 11.9}, ...}
    }

This is what the bench-regression CI job uploads as its BENCH_pr.json
artifact and what tools/compare_bench.py consumes. Refreshing the checked-in
baseline is the same command pointed at bench/baseline.json (run the same
binaries with the same TOUCH_BENCH_SCALE the CI job uses).

Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
skipped; only plain iteration rows are recorded. Repeated iteration rows
for one name (from --benchmark_repetitions=N) are folded to their MINIMUM:
the fastest of N runs is the least noise-contaminated sample a shared CI
runner can produce, which is what makes a 25% regression gate hold with
single-iteration benchmarks. Run the benches with at least
--benchmark_repetitions=3 when producing gating documents.
"""

import argparse
import json
import os
import sys

_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def _to_ms(value, unit):
    try:
        return float(value) * _UNIT_TO_MS[unit]
    except KeyError:
        raise SystemExit(f"unknown time_unit '{unit}' in benchmark output")


def convert(paths):
    benchmarks = {}
    context = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        if not context and "context" in doc:
            raw = doc["context"]
            context = {
                "date": raw.get("date", ""),
                "host": raw.get("host_name", ""),
                "num_cpus": raw.get("num_cpus", 0),
                # How the benchmark library itself was built, not this
                # repo's bench binaries.
                "library_build_type": raw.get("library_build_type", ""),
            }
        for row in doc.get("benchmarks", []):
            if row.get("run_type", "iteration") != "iteration":
                continue  # skip mean/median/stddev aggregates
            name = row["name"]
            unit = row.get("time_unit", "ns")
            sample = {
                "real_time_ms": round(_to_ms(row["real_time"], unit), 4),
                "cpu_time_ms": round(_to_ms(row["cpu_time"], unit), 4),
            }
            previous = benchmarks.get(name)
            if previous is None or sample["real_time_ms"] < \
                    previous["real_time_ms"]:
                # Repetitions fold to the minimum (least-noise sample).
                benchmarks[name] = sample
    scale = os.environ.get("TOUCH_BENCH_SCALE", "1")
    context["scale"] = scale
    return {
        "schema": "touch-bench-v1",
        "context": context,
        "benchmarks": benchmarks,
    }


def main():
    parser = argparse.ArgumentParser(
        description="Merge Google Benchmark JSON files into touch-bench-v1.")
    parser.add_argument("inputs", nargs="+",
                        help="files from --benchmark_format=json")
    parser.add_argument("--out", required=True, help="output path")
    args = parser.parse_args()

    doc = convert(args.inputs)
    if not doc["benchmarks"]:
        raise SystemExit("no iteration benchmarks found in the input files")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(doc['benchmarks'])} benchmarks to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
