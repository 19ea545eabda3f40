#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/paired_bench.py PARENT CHANGE --workload W --seeds 3000-3009

For each seed, runs `python3 bench/run.py --workload W --seed S` once in each
checkout, the parent first at even positions in the seed list and the change
first at odd ones.  Each checkout runs its own bench/ on its own src/.  For
every end-to-end metric of BENCHMARK.json it then prints each pair, the
number of pairs in which the change is better, the median and quartiles of
each side, and whether a gain may be claimed: the change must be better in
at least nine tenths of all pairs (a tie is no win), and its median better
than the parent's by more than the distance between the parent's
quartiles.  Seeds are integers or inclusive ranges such as 3000-3009.
Exits 1 if any run fails or reports an incorrect result or a failed
operation.

With --out PATH it also writes the run as JSON to PATH, under the
workload's name beside any other workloads PATH already holds: the seeds,
each side's result objects in seed order, and per metric each side's
median and quartiles and the claim verdict with its reason.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_seeds(tokens: list[str]) -> list[int]:
    seeds = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_bench(root: Path, workload: str, seed: int) -> dict:
    """The result object bench/run.py prints for one workload run in root."""
    argv = [
        sys.executable,
        str(root / "bench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{root}: bench/run.py exited {proc.returncode} at seed {seed}:\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summary(values: list[float]) -> str:
    q = quartiles(values)
    return f"median {q['median']:.6g}, quartiles [{q['q1']:.6g}, {q['q3']:.6g}]"


def claim(parent: list[float], change: list[float], lower: bool) -> tuple[bool, str]:
    """Whether the change may claim a gain on one metric, and why: it must
    be better in at least nine tenths of the pairs, ties counting for
    neither side, and its median better than the parent's by more than the
    parent's interquartile spread."""
    wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
    q1, q3 = np.percentile(parent, [25, 75])
    gap = np.median(parent) - np.median(change)
    gap = float(gap if lower else -gap)
    holds = wins >= 0.9 * len(parent) and gap > q3 - q1
    why = (
        f"better in {wins} of {len(parent)} pairs (needs {np.ceil(0.9 * len(parent)):.0f}), "
        f"median gap {gap:.6g} against a parent spread of {q3 - q1:.6g}"
    )
    return holds, why


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", nargs="+", required=True, help="integers or ranges a-b")
    ap.add_argument("--out", type=Path, default=None, help="JSON file to record the run in")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = parse_seeds(args.seeds)
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    results = {side: [] for side in roots}
    ok = True
    for i, seed in enumerate(seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_bench(roots[side], args.workload, seed)
            results[side].append(result)
            if not result["correct"] or result["failed"]:
                ok = False
                print(
                    f"{side} seed {seed}: correct={result['correct']} failed={result['failed']}",
                    file=sys.stderr,
                )

    verdicts = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        print(f"{args.workload} {name} ({metric['unit']}, {metric['better']} is better)")
        for seed, p, c in zip(seeds, parent, change):
            mark = "better" if (c < p if lower else c > p) else ""
            print(f"  seed {seed:>6}  parent {p:<12.6g} change {c:<12.6g} {mark}")
        holds, why = claim(parent, change, lower)
        print(f"  parent {summary(parent)}")
        print(f"  change {summary(change)}")
        print(f"  claim {'holds' if holds else 'does not hold'}: {why}")
        verdicts[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "claim": {"holds": bool(holds), "why": why},
        }
    if args.out:
        trail = json.loads(args.out.read_text()) if args.out.exists() else {}
        trail[args.workload] = {"seeds": seeds, "results": results, "metrics": verdicts}
        args.out.write_text(json.dumps(trail, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
