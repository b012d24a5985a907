#!/usr/bin/env python3
"""Builds and runs the engine benchmark.

Usage (from the repository root):

    python3 enginebench/run.py --workload serving-warm --seed 1 --seconds 20 --trace 0
    python3 enginebench/run.py --self-test

The benchmark is compiled from the library sources under src/ into
$CARGO_TARGET_DIR/enginebench (default .bench_build/enginebench) as a
Release build, then its arithmetic self-tests run, then the benchmark. The last
line of standard output is the result object; the lines before it are JSON
records of the run context, latency details, the span table (traced runs) and
the exact work counters. Exact counters are kept in a ledger next to the
build, keyed by workload, seed, seconds, trace mode and source digest; a
later run of the same key whose counters differ is reported as drift.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "enginebench"
WORKLOADS = ("oneshot-neuro", "serving-warm", "sharded-gather",
             "continuous-fleet")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "enginebench"


def build(out_dir):
    """Configures (once) and builds the Release benchmark; False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("enginebench: build step failed: " + " ".join(step))
            return False
    return True


def source_id():
    """A digest of the benchmarked sources, prefixed with the git commit
    when run from a clone (a dirty tree keeps the commit but not the
    digest)."""
    digest = hashlib.sha256()
    for directory in (ROOT / "src", BENCH_DIR):
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = "sha256:" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            ident = "git:%s,%s" % (head.stdout.strip()[:12], ident)
    return ident


def check_drift(out_dir, key, exact):
    """Compares exact counters with the ledger entry for `key` (recording
    them when new); returns the names of the counters that differ."""
    ledger_path = out_dir / "exact_ledger.json"
    try:
        ledger = json.loads(ledger_path.read_text())
    except (OSError, ValueError):
        ledger = {}
    previous = ledger.get(key)
    if previous is None:
        ledger[key] = exact
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(ledger_path)
        return []
    return sorted(k for k in set(previous) | set(exact)
                  if previous.get(k) != exact.get(k))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run only the arithmetic self-tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "engine" / "engine.h").is_file():
        log("enginebench: library sources (src/) not found next to "
            "enginebench/; run from a full checkout")
        return 2
    out_dir = build_dir()
    if not build(out_dir):
        return 2
    if subprocess.run([str(out_dir / "engine_bench_selftest")]).returncode:
        log("enginebench: arithmetic self-tests failed")
        return 3
    if args.self_test:
        return 0

    source = source_id()
    proc = subprocess.run(
        [str(out_dir / "engine_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace), "--source", source],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        log("enginebench: benchmark printed nothing (exit %d)" % proc.returncode)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("enginebench: last benchmark line is not JSON (exit %d)"
            % proc.returncode)
        return proc.returncode or 4
    for line in lines[:-1]:
        print(line)

    exact = {}
    for line in lines[:-1]:
        record = json.loads(line)
        if "exact" in record:
            exact = record["exact"]
    key = "%s/seed=%d/seconds=%r/trace=%d/%s" % (
        args.workload, args.seed, args.seconds, args.trace, source)
    drifted = check_drift(out_dir, key, exact)
    if drifted:
        log("enginebench: exact counters drifted from an earlier run of %s: %s"
            % (key, ", ".join(drifted)))
    print(json.dumps({"drift": {"key": key, "counters": drifted}}))
    if args.trace:
        result["metrics"]["exact.drift"] = {
            "value": len(drifted) + exact.get("drift_within_run", 0),
            "unit": "count"}
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
