#!/usr/bin/env python3
"""Benchmark entry point: runs each workload in its own fresh process, one at
a time, and prints its result.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With --workload the last line of standard output is that workload's result
object: {"correct", "attempted", "failed", "metrics"}.  Without it every
workload runs in turn, each metric is printed by name and unit, and the last
line maps workload names to their result objects.  --trace 1 reports the
per-layer metrics of a traced run instead of the end-to-end ones.

The workload process gets BLAS and OpenMP pinned to one thread, so runs
measure the program rather than the scheduler, and imports the program from
the checkout's src/.  Outputs go under .bench_out/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
TIMEOUT_S = 175  # a run must end within 180 s
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict | None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.update({v: "1" for v in THREAD_VARS})
    argv = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {name} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    # the program's own printing goes to stderr so stdout ends with the result
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"bench: {name} printed no result", file=sys.stderr)
        return None
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "innerseries" / "__init__.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'innerseries'}", file=sys.stderr)
        return 2
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']!s:>22} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
