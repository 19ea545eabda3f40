#!/usr/bin/env python3
"""Time the stages of one fit in-process, on fixed inputs.

    python3 scripts/stage_timings.py

For each input it prints the median of 5 runs, in ms, of the binning
(`bin_samples`), the moments (`accumulate_moments`, which form the
velocities from the trajectory), `fit_field`, the weights
(`compute_weights`), the save of the field (`field_to_dict` and
`dump_json`, to a temporary file) and its load (`serialize.load` with
`field_from_dict`), each stage run on the output of the one before.  The
`peak` column is the `tracemalloc` peak, in MB, of one more `run_pipeline`
fit of the input, untimed and traced alone: what the fit allocates above
its input trajectory.  It also prints the input's
occupied bins and aligned components.  The grid is built once per input
and not timed.

The inputs: the six-channel `highdim-6d` benchmark input at seed 0 (3^6
bins, min_count 100); the 200 000-sample 2-D walk of the `cli-files`
benchmark at seed 0, on 8x8 bins (default min_count), on 100x100 bins with
min_count 20 and on 300x300 bins with min_count 5; and a 500 000-sample 1-D
walk at seed 0 on 10 000 bins with min_count 5.

Last it writes the `cli-files` walk and its weights from the 8x8 fit as CSV
files and prints the median of 5 reads of each (`read_csv_trajectory`,
`read_csv_weights`), in ms, at one usable CPU and at all of them.  The
reader cuts a large file into one part per usable CPU, so this shows what
the forked parts buy.  One CPU is set by `os.sched_setaffinity` on this
process alone, and the CPU mask is restored after the reads.
"""

import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from innerseries import serialize
from innerseries.estimate import accumulate_moments, bin_samples, build_grid
from innerseries.experiments import run_pipeline
from innerseries.frames import fit_field
from innerseries.ingest import gen_bounded_walk, read_csv_trajectory, write_csv_trajectory
from innerseries.model import Trajectory
from innerseries.weights import compute_weights, read_csv_weights, write_csv_weights

REPEATS = 5


def inputs():
    """(name, trajectory, bins, min_count) of each input."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import HIGHDIM_CHANNELS  # the benchmark's own input table

    cols = [
        gen_bounded_walk(200_000, seed=j, noise=kind, smooth=smooth).samples[:, 0]
        for j, (kind, smooth) in enumerate(HIGHDIM_CHANNELS)
    ]
    yield "highdim-6d", Trajectory(np.stack(cols, axis=1), 1.0), (3,) * 6, 100
    walk = gen_bounded_walk(200_000, seed=0, dim=2, noise=("laplace", "uniform"))
    yield "cli-files 8x8", walk, (8, 8), None
    yield "cli-files 100x100 min 20", walk, (100, 100), 20
    yield "cli-files 300x300 min 5", walk, (300, 300), 5
    yield "1-D 500k, 10^4 bins min 5", gen_bounded_walk(500_000, seed=0, dim=1), (10_000,), 5


def timed(fn):
    """fn's result and the median of REPEATS calls, in ms."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return out, 1e3 * statistics.median(times)


def fit_peak_mb(traj, bins, min_count) -> float:
    """The tracemalloc peak of one run_pipeline fit of traj, in MB."""
    tracemalloc.start()
    try:
        run_pipeline(traj, bins, min_count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def csv_reads(traj, w) -> None:
    """Print the median read times of traj and w as CSV files, at one
    usable CPU and at all of this process's CPUs."""
    cpus = os.sched_getaffinity(0)
    with tempfile.TemporaryDirectory() as tmp:
        walk, weights = Path(tmp) / "walk.csv", Path(tmp) / "walk.weights.csv"
        write_csv_trajectory(traj, walk)
        write_csv_weights(w, weights)
        print(f"\nCSV reads of the cli-files walk, median of {REPEATS} runs, ms")
        print("{:>5}{:>12}{:>10}".format("cpus", "trajectory", "weights"))
        for mask in ({min(cpus)}, cpus):
            os.sched_setaffinity(0, mask)
            try:
                _, t_traj = timed(lambda: read_csv_trajectory(walk))
                _, t_weights = timed(lambda: read_csv_weights(weights))
            finally:
                os.sched_setaffinity(0, cpus)
            print(f"{len(mask):>5}{t_traj:>12.1f}{t_weights:>10.1f}")


def main() -> None:
    print(f"median of {REPEATS} runs, ms")
    header = ("input", "bins", "components")
    header += ("binning", "moments", "fit_field", "weights", "save", "load", "peak")
    print("{:<27}{:>7}{:>11}{:>9}{:>9}{:>10}{:>9}{:>7}{:>7}{:>7}".format(*header))
    for name, traj, bins, min_count in inputs():
        grid = build_grid(traj, bins, min_count)
        binning, t_bin = timed(lambda: bin_samples(traj, grid))
        moments, t_moments = timed(lambda: accumulate_moments(traj, binning))
        (field, _), t_fit = timed(lambda: fit_field(grid, moments))
        w, t_weights = timed(lambda: compute_weights(traj, field, binning))
        if name == "cli-files 8x8":
            csv_input = traj, w
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "field.json"
            _, t_save = timed(lambda: serialize.dump_json(serialize.field_to_dict(field), path))
            _, t_load = timed(lambda: serialize.load(path, serialize.field_from_dict))
        components = len(np.unique(field.component))
        peak = fit_peak_mb(traj, bins, min_count)
        print(
            f"{name:<27}{len(moments):>7}{components:>11}"
            f"{t_bin:>9.1f}{t_moments:>9.1f}{t_fit:>10.1f}{t_weights:>9.1f}{t_save:>7.1f}{t_load:>7.1f}"
            f"{peak:>7.1f}"
        )
    csv_reads(*csv_input)


if __name__ == "__main__":
    main()
