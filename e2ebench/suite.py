#!/usr/bin/env python3
"""Runs the end-to-end benchmark many times and summarizes it.

Repetitions (from the root of a checkout):

    python3 e2ebench/suite.py --reps 10            # every workload, seeds 1..10
    python3 e2ebench/suite.py --reps 10 --write    # ...and record the baseline

Each repetition is one `run.py --trace 0` invocation with its own seed;
after them one `--trace 1` invocation per workload gives the per-layer
split. Every metric is printed with its unit, median and interquartile
range as a share of the median, next to its bound from BENCHMARK.json.
`--write` records the summary in e2ebench/results/baseline.json, and
refuses when the 1-minute load average is at or above 1.0 or when an
end-to-end metric's spread exceeds its bound.

Interleaved A/B of two checkouts (e.g. the parent commit cloned beside
the change):

    python3 e2ebench/suite.py --ab ../parent . --pairs 10

Pair i runs both trees on seed i, the first tree first in even pairs and
the second first in odd ones. A metric counts as improved when the second
tree wins at least 9 of 10 pairs (ties count for neither) and the medians
differ by more than the first tree's interquartile range; as unresolved
when the first tree's own spread exceeds the bound (unless every run of
the second beats every run of the first); as worse when its median is
worse by more than the bound; otherwise as no worse.

    python3 e2ebench/suite.py --self-test      # checks the statistics

Stdlib only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results" / "baseline.json"
MAX_LOAD = 1.0


# ------------------------------------------------------------- statistics

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    """Classifies tree B against tree A from paired runs of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    q1a, med_a, q3a = quartiles(a)
    med_b = statistics.median(b)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    if wins >= 0.9 * len(a) and sign * (med_b - med_a) > q3a - q1a:
        return "improved"
    every_run_better = sign * (min(b) if sign > 0 else max(b)) > \
        sign * (max(a) if sign > 0 else min(a))
    if spread(a) > bound and not every_run_better:
        return "unresolved"
    if med_a and sign * (med_b - med_a) / abs(med_a) < -bound:
        return "worse"
    return "no worse"


# ------------------------------------------------------------------ runs

def load_spec(tree=ROOT):
    return json.loads((Path(tree) / "BENCHMARK.json").read_text())


def run_once(tree, workload, seed, seconds, trace, env=None):
    """One run.py invocation in `tree`; returns its parsed result."""
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"suite.py: {' '.join(cmd)} failed in {tree} "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"suite.py: {workload} seed {seed}: incorrect "
                         "answers or failed operations")
    return result


def provenance(tree=ROOT):
    """Where and on what the numbers were taken."""
    def git_sha():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def simd():
        cache = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        cache = (Path(tree) / cache / "CMakeCache.txt")
        try:
            for line in cache.read_text().splitlines():
                if line.startswith("XPV_SIMD:"):
                    return line.split("=", 1)[1]
        except OSError:
            pass
        return "unknown"

    return {"nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
            "git_sha": git_sha(), "cpu_model": cpu_model(), "simd": simd(),
            "date": time.strftime("%Y-%m-%d")}


def summarize(values, unit):
    q1, med, q3 = quartiles(values)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "spread": spread(values), "values": values}


def cmd_reps(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    # The load before the runs says whether the machine was quiet; during
    # them it mostly measures the benchmark itself.
    load = os.getloadavg()[0]
    if args.write and load >= MAX_LOAD:
        raise SystemExit(f"suite.py: load average {load:.2f} >= {MAX_LOAD}; "
                         "not recording results")
    out = {"provenance": None, "seconds": args.seconds,
           "seeds": list(range(args.seed, args.seed + args.reps)),
           "workloads": {}}
    too_wide = []
    for w in (w["name"] for w in spec["workloads"]):
        per_metric = {}
        for seed in out["seeds"]:
            result = run_once(ROOT, w, seed, args.seconds, trace=False)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, ([], m["unit"]))[0].append(
                    m["value"])
        entry = {"end_to_end": {}, "per_layer": {}}
        print(f"{w}")
        for name, (values, unit) in per_metric.items():
            s = summarize(values, unit)
            entry["end_to_end"][name] = s
            bound = bounds[name]["bound"]
            flag = ""
            if s["spread"] > bound:
                flag = "  SPREAD > BOUND"
                too_wide.append(f"{w}/{name}")
            print(f"  {name:28s} {s['median']:14.6g} {unit:8s} "
                  f"iqr {100 * s['spread']:5.1f}%  bound "
                  f"{100 * bound:4.0f}%{flag}")
        traced = run_once(ROOT, w, args.seed, args.seconds, trace=True)
        for name, m in traced["metrics"].items():
            entry["per_layer"][name] = {"unit": m["unit"], "value": m["value"]}
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
        out["workloads"][w] = entry
    out["provenance"] = dict(provenance(), loadavg_1m=load)
    if args.write:
        if too_wide:
            raise SystemExit("suite.py: spread exceeds the bound for "
                             f"{', '.join(too_wide)}; not recording results")
        RESULTS.parent.mkdir(exist_ok=True)
        RESULTS.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {RESULTS.relative_to(ROOT)}")


def cmd_ab(args):
    tree_a, tree_b = (str(Path(t).resolve()) for t in args.ab)
    spec = load_spec(tree_a)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"A = {tree_a} ({provenance(tree_a)['git_sha'][:12]})")
    print(f"B = {tree_b} ({provenance(tree_b)['git_sha'][:12]})")
    for w in (w["name"] for w in spec["workloads"]):
        a_vals, b_vals = {}, {}
        for i in range(args.pairs):
            seed = args.seed + i
            order = [(tree_a, a_vals), (tree_b, b_vals)]
            if i % 2:
                order.reverse()
            for tree, into in order:
                # Each tree builds into its own directory.
                env = dict(os.environ,
                           CARGO_TARGET_DIR=str(Path(tree) / ".bench_build"))
                result = run_once(tree, w, seed, args.seconds, trace=False,
                                  env=env)
                for name, m in result["metrics"].items():
                    into.setdefault(name, []).append(m["value"])
        print(f"{w}")
        for name, spec_m in metrics.items():
            a, b = a_vals[name], b_vals[name]
            q1a, med_a, q3a = quartiles(a)
            q1b, med_b, q3b = quartiles(b)
            change = (med_b - med_a) / med_a if med_a else 0.0
            print(f"  {name:18s} A {med_a:12.5g} [{q1a:.5g}, {q3a:.5g}]  "
                  f"B {med_b:12.5g} [{q1b:.5g}, {q3b:.5g}]  "
                  f"{100 * change:+6.1f}%  "
                  f"{verdict(a, b, spec_m['better'], spec_m['bound'])}")


def self_test():
    failures = []

    def check(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    check("quartiles", quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
          (2.75, 5.5, 8.25))
    check("spread", round(spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 6),
          round(5.5 / 5.5, 6))
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    check("improved", verdict(base, [v * 1.2 for v in base], "higher", 0.1),
          "improved")
    check("improved lower", verdict(base, [v * 0.8 for v in base], "lower",
                                    0.1), "improved")
    check("worse", verdict(base, [v * 0.8 for v in base], "higher", 0.1),
          "worse")
    check("no worse", verdict(base, [v * 0.97 for v in base], "higher", 0.1),
          "no worse")
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    check("unresolved", verdict(noisy, [v * 0.97 for v in noisy], "higher",
                                0.1), "unresolved")
    check("every run better", verdict(noisy, [200 + v for v in range(10)],
                                      "higher", 0.1), "improved")
    for f in failures:
        print("FAIL", f)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, default=None,
                    help="per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--write", action="store_true",
                    help=f"record the summary in {RESULTS.relative_to(ROOT)}")
    ap.add_argument("--ab", nargs=2, metavar=("TREE_A", "TREE_B"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.ab:
        cmd_ab(args)
    else:
        cmd_reps(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
