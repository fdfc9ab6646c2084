#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs it once.

    python3 e2ebench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is built with CMake into the
directory named by $CARGO_TARGET_DIR (default `.bench_build`); later runs
rebuild only what changed. The last line of standard output is the
benchmark's JSON result. The exit code is 0 only when the build and the run
succeeded and every answer the run checked was correct.

Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("hot_read", "cold_batch", "mixed_rw", "wide_batch")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out_dir):
    """Configures (once) and builds the benchmark; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    # The default target is the benchmark alone (the library is built only
    # as its dependency), and building it re-runs CMake when a CMakeLists
    # changed.
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"run.py: build step failed: {e}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = out_dir / "e2ebench"
    return binary if binary.exists() else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    try:
        spec = json.loads(BENCHMARK_JSON.read_text())
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-check", action="store_true",
                    help="make every in-run check compare a corrupted "
                         "answer, to show that the checks fail the run")
    args = ap.parse_args(argv)

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_check:
        cmd.append("--corrupt-check")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if not lines:
        print(f"run.py: the benchmark printed nothing (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 3
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("run.py: last line is not JSON", file=sys.stderr)
        return 3
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print("run.py: metric names differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ want)}", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
