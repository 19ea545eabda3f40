#!/usr/bin/env python3
"""Print a sha256 digest of each artifact of a fixed set of runs, then one
total, so two checkouts, or two BLAS thread counts, can be compared byte
for byte.

    python3 scripts/digests.py [--set full|small] [--threads K]

Each line is `<sha256>  <artifact>`; the last is `<sha256>  total`, the
digest of the lines before it.  The `full` set (the default) holds:

- the four experiments at seed 0, every file `run_experiment` writes, each
  report with its `runtime_seconds` metric and criterion value masked and
  the output directory spelled `<out>`;
- the `highdim-6d` benchmark input at seeds 0-2 (six independent walks of
  200 000 samples, 3^6 bins, min_count 100), fitted by `run_pipeline`: the
  moments, the field and the weights, each as the bytes of its arrays;
- the staged `cli-files` commands (`moments`, `frames`, `weights` on two
  arms, the second scaled by (8, 0.25), then `align` and `reconstruct`) on
  a 20 000-sample walk at seed 0 on 6x6 bins, every file they write.

The `small` set is a 1-D walk of 60 000 samples at seed 0 on 2 bins and
on 5 bins, fitted by `run_pipeline`: bins of tens of thousands of samples,
where a BLAS reduction would split its sums across threads.

With --threads K the set runs in a child process with
OPENBLAS_NUM_THREADS=K, importing the package from this checkout's src/,
and its lines are printed as they are; without it, in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_bytes(*arrays) -> bytes:
    """The arrays' dtypes, shapes and bytes, one after another."""
    return b"".join(
        f"{a.dtype.str}{a.shape}".encode() + np.ascontiguousarray(a).tobytes()
        for a in map(np.asarray, arrays)
    )


def fit_digests(name: str, res) -> list[tuple[str, str]]:
    """The moments, field and weights of one run_pipeline fit."""
    m, f, w = res.moments, res.field, res.weights
    components = np.array([f.component_ids[k] for k in f.frames], dtype=np.int64)
    fallback = w.fallback_mask if w.fallback_mask is not None else np.zeros(0, dtype=bool)
    return [
        (sha(array_bytes(m.keys, m.count, m.c2, m.t)), f"{name}.moments"),
        (sha(array_bytes(f.keys, f.m, f.v, f.d, components)), f"{name}.field"),
        (sha(array_bytes(w.values, w.valid_mask, fallback)), f"{name}.weights"),
    ]


def file_digests(out: Path, prefix: str) -> list[tuple[str, str]]:
    """Every file under out, reports masked (see the module docstring)."""
    lines = []
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".report.json"):
            report = json.loads(data)
            report["metrics"]["runtime_seconds"] = None
            for c in report["criteria"]:
                if c["name"] == "runtime_seconds":
                    c["value"] = None
            data = json.dumps(report, sort_keys=True).replace(str(out), "<out>").encode()
        lines.append((sha(data), f"{prefix}{path.name}"))
    return lines


def experiment_digests() -> list[tuple[str, str]]:
    from innerseries.experiments import EXPERIMENT_NAMES, ExperimentConfig, run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        for name in EXPERIMENT_NAMES:
            run_experiment(name, ExperimentConfig(seed=0), out_dir=tmp)
        return file_digests(Path(tmp), "experiments/")


def highdim_digests() -> list[tuple[str, str]]:
    from innerseries.experiments import run_pipeline
    from innerseries.ingest import gen_bounded_walk
    from innerseries.model import Trajectory

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import HIGHDIM_CHANNELS  # the benchmark's own input table

    lines = []
    for seed in range(3):
        cols = [
            gen_bounded_walk(200_000, seed=6 * seed + j, noise=kind, smooth=smooth).samples[:, 0]
            for j, (kind, smooth) in enumerate(HIGHDIM_CHANNELS)
        ]
        traj = Trajectory(np.stack(cols, axis=1), 1.0)
        lines += fit_digests(f"highdim-6d/seed{seed}", run_pipeline(traj, (3,) * 6, 100))
    return lines


def cli_digests() -> list[tuple[str, str]]:
    from innerseries import cli, ingest
    from innerseries.model import Trajectory

    walk = ingest.gen_bounded_walk(20_000, seed=0, dim=2, noise=("laplace", "uniform"))
    scaled = Trajectory(walk.samples * np.array([8.0, 0.25]), walk.dt, walk.channel_names)
    x0 = ",".join(repr(float(v)) for v in walk.samples[0])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        ingest.write_csv_trajectory(walk, out / "a.csv")
        ingest.write_csv_trajectory(scaled, out / "b.csv")
        commands = []
        for arm in ("a", "b"):
            suffixes = ("csv", "moments.json", "field.json", "weights.csv")
            traj, mom, fld, wts = (str(out / f"{arm}.{s}") for s in suffixes)
            commands += [
                ["moments", "--in", traj, "--bins", "6,6", "--out", mom],
                ["frames", "--moments", mom, "--out", fld],
                ["weights", "--in", traj, "--field", fld, "--out", wts],
            ]
        commands += [
            ["align", "--a", str(out / "a.weights.csv"), "--b", str(out / "b.weights.csv"),
             "--out", str(out / "align.json")],
            ["reconstruct", "--weights", str(out / "a.weights.csv"), "--field",
             str(out / "a.field.json"), f"--x0={x0}", "--steps", "500",
             "--out", str(out / "a.reconstructed.csv")],
        ]
        for argv in commands:
            if cli.main(argv) != 0:
                raise SystemExit(f"digests: innerseries {' '.join(argv)} failed")
        return file_digests(out, "cli-files/")


def small_digests() -> list[tuple[str, str]]:
    from innerseries.experiments import run_pipeline
    from innerseries.ingest import gen_bounded_walk

    walk = gen_bounded_walk(60_000, seed=0)
    return [
        *fit_digests("walk-1d/2-bins", run_pipeline(walk, (2,), None)),
        *fit_digests("walk-1d/5-bins", run_pipeline(walk, (5,), None)),
    ]


def digest_lines(which: str) -> list[str]:
    if which == "small":
        pairs = small_digests()
    else:
        pairs = experiment_digests() + highdim_digests() + cli_digests()
    lines = [f"{digest}  {name}" for digest, name in pairs]
    return lines + [f"{sha(''.join(line + chr(10) for line in lines).encode())}  total"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", choices=("full", "small"), default="full")
    ap.add_argument("--threads", type=int, default=None, help="OPENBLAS_NUM_THREADS of a child run")
    args = ap.parse_args()
    if args.threads is None:
        print("\n".join(digest_lines(args.set)))
        return
    if args.threads < 1:
        ap.error("--threads must be at least 1")
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(args.threads),
        "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else ""),
    }
    done = subprocess.run([sys.executable, __file__, "--set", args.set], env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
