#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark in a fresh process.

    python3 perfbench/run.py --workload dt-basic --seed 1 --seconds 20 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
repository's src/ from source) into .bench_build/ at the root of the
checkout, then runs one 3-party in-process federation: set-up, training,
bulk prediction of a held-out set and open-loop serving. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. A traced run also writes its spans as Chrome trace-event
JSON to .bench_build/trace-<workload>-<seed>.json (open it in Perfetto).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark binary; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no sources at {ROOT / 'src'}", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        trace = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-out", str(trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
