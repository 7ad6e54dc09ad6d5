#!/usr/bin/env python3
"""Steadiness self-check of the end-to-end benchmark.

    python3 perfbench/selfcheck.py [--runs 5] [--vary-seeds] [--traced 2]

Runs each workload of BENCHMARK.json --runs times untraced through
perfbench/run.py, for its run_seconds, and prints, for every end-to-end
metric, the median, the quartiles and the spread (Q3 - Q1) / median
against the metric's bound. Then it makes --traced traced runs and
compares their per-phase counts.

It fails (exit 1) when
  * a run fails, reports a wrong output, or attempts a failed operation;
  * a spread exceeds its bound;
  * with seed 1 for every run (the default): train_mb, train_rounds, or
    a train- or predict-phase Ce/Cd/Cs/Cc count differs between runs, or
    pool hits/misses do on a workload run with crypto_threads = 1.
Serve-phase counts are not compared: open-loop serving cuts its batches
by arrival timing. With --vary-seeds run i gets seed 1 + i, and only
spreads are checked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"

# Workloads whose crypto kernels run on one thread (perfbench/src/workload.cc);
# only there are the offline randomness pool's hits and misses deterministic.
SEQUENTIAL_CRYPTO = {"dt-enhanced"}
EXACT_PHASES = ("train", "predict")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ok = (proc.returncode == 0 and result is not None and result["correct"]
          and result["failed"] == 0)
    return ok, result


def exact_keys(workload, metrics):
    keys = []
    for name in metrics:
        parts = name.split(".")
        if len(parts) != 3 or parts[1] not in EXACT_PHASES:
            continue
        if parts[0] in ("crypto", "mpc") and parts[2] in ("ce", "cd", "cs",
                                                          "cc"):
            keys.append(name)
        if (parts[0] == "crypto" and parts[2] in ("pool_hits", "pool_misses")
                and workload in SEQUENTIAL_CRYPTO):
            keys.append(name)
    return keys


def main():
    sys.stdout.reconfigure(line_buffering=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--vary-seeds", action="store_true")
    parser.add_argument("--traced", type=int, default=2)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.runs):
            seed = 1 + i if args.vary_seeds else 1
            ok, result = run_once(workload, seed, seconds, False)
            if not ok:
                failures.append(f"{workload} seed {seed}: run failed")
                continue
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"\n{workload}: {len(runs)} untraced runs")
        for name in bounds:
            print(f"  {name:<20} " + " ".join(
                f"{r[name]:.4g}" for r in runs if name in r))
        print(f"  {'metric':<20} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs if name in r]
            if len(values) < 2:
                failures.append(f"{workload} {name}: too few values")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "" if spread <= bound / 3 else (
                " wide" if spread <= bound else " OVER")
            print(f"  {name:<20} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {bound:>6.2f}{flag}")
            if spread > bound:
                failures.append(f"{workload} {name}: spread {spread:.3f} "
                                f"over bound {bound}")
        if args.vary_seeds:
            continue
        for name in ("train_mb", "train_rounds"):
            if len({r.get(name) for r in runs}) > 1:
                failures.append(f"{workload} {name} differs between runs")

        traced = []
        for _ in range(args.traced):
            ok, result = run_once(workload, 1, seconds, True)
            if not ok:
                failures.append(f"{workload}: traced run failed")
                continue
            traced.append({k: v["value"]
                           for k, v in result["metrics"].items()})
        if traced:
            keys = exact_keys(workload, traced[0])
            differ = [k for k in keys if len({t[k] for t in traced}) > 1]
            print(f"  {len(traced)} traced runs: {len(keys) - len(differ)} "
                  f"of {len(keys)} per-phase counts repeat exactly")
            failures += [f"{workload} {k} differs between traced runs"
                         for k in differ]

    print()
    for failure in failures:
        print("FAIL:", failure)
    print("selfcheck:", "FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
