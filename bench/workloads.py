"""The benchmark's three workloads.

Each workload makes its inputs from the seed in set-up, then runs rounds of
the same operations: timed steps that call the program, followed by
independent checks of what the steps produced (see checks.py).  Every round
attempts the same operations, whatever the seed.

  paper-experiments  the four experiments at default size with artifacts,
                     through ``innerseries.cli.main``; how a user
                     reproduces the paper.  Mostly CSV writing and walk
                     generation; the moment and frame math is 1-D/2-D.
  highdim-6d         one ``run_pipeline`` fit on six channels over a 3^6
                     grid, then saving the frame field.  Per-bin tensor
                     work and per-bin Python loops dominate; no CSV.
  cli-files          the staged CLI through files on two sensor arms (a 2-D
                     walk and the same walk with power-of-two channel
                     scales), then align and reconstruct.  Exercises CSV and
                     JSON reads as well as writes.  Commands run in-process:
                     a process per command would add interpreter and numpy
                     start-up, which measures the machine, not the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from innerseries import cli, experiments, ingest, serialize
from innerseries.model import Trajectory

import checks

# highdim-6d: one independent 1-D walk per channel; noise kind and smoothing
# differ per channel so that no two channels share velocity kurtosis
HIGHDIM_CHANNELS = (
    ("laplace", 0.2),
    ("uniform", 0.2),
    ("laplace", 0.5),
    ("uniform", 0.5),
    ("laplace", 0.8),
    ("gauss", 0.5),
)
CLI_SCALES = (8.0, 0.25)  # powers of two: scaling is exact in floating point


@dataclass(frozen=True)
class Sizes:
    experiment_samples: int | None  # None: each experiment's default
    highdim_samples: int
    highdim_min_count: int
    cli_samples: int
    cli_bins: tuple[int, int]
    cli_steps: int


FULL = Sizes(None, 200_000, 100, 200_000, (8, 8), 5000)
# reduced sizes for the benchmark's own tests
SMALL = Sizes(20_000, 20_000, 10, 20_000, (6, 6), 500)


@dataclass
class Round:
    """Timed steps, then checks; each is (name, callable) and fails by raising."""

    steps: list[tuple[str, Callable]] = field(default_factory=list)
    checks: list[tuple[str, Callable]] = field(default_factory=list)


def run_cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"innerseries {' '.join(argv)} exited {rc}")


# ---------------------------------------------------------------------------
# paper-experiments
# ---------------------------------------------------------------------------

class PaperExperiments:
    name = "paper-experiments"

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed, self.sizes = seed, sizes

    def setup(self) -> None:
        pass  # the experiments make their inputs from the seed themselves

    def round(self, out: Path) -> Round:
        r = Round()
        for name in experiments.EXPERIMENT_NAMES:
            argv = ["experiment", name, "--seed", str(self.seed), "--out-dir", str(out)]
            if self.sizes.experiment_samples:
                argv += ["--samples", str(self.sizes.experiment_samples)]
            r.steps.append((name, lambda argv=argv: run_cli(argv)))
            r.checks.append(
                (f"{name}.report", lambda n=name: checks.check_report(out / f"{n}.report.json", n))
            )
        r.checks.append(("sine.signs", lambda: checks.check_sine_signs(out / "sine.x.weights.csv")))
        r.checks.append(
            (
                "mixture-2d.separability",
                lambda: checks.check_separability(
                    out / "mixture-2d.mixture.weights.csv",
                    [out / "mixture-2d.s1.weights.csv", out / "mixture-2d.s2.weights.csv"],
                ),
            )
        )
        return r


# ---------------------------------------------------------------------------
# highdim-6d
# ---------------------------------------------------------------------------

class Highdim6d:
    name = "highdim-6d"
    bins = (3,) * 6

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed, self.sizes = seed, sizes

    def setup(self) -> None:
        n = self.sizes.highdim_samples
        cols = [
            ingest.gen_bounded_walk(n, seed=6 * self.seed + j, noise=kind, smooth=smooth).samples[:, 0]
            for j, (kind, smooth) in enumerate(HIGHDIM_CHANNELS)
        ]
        self.traj = Trajectory(np.stack(cols, axis=1), 1.0)

    def round(self, out: Path) -> Round:
        path = out / "highdim.field.json"
        self.fit = None
        r = Round()

        def fit():
            self.fit = experiments.run_pipeline(self.traj, self.bins, self.sizes.highdim_min_count)

        def save():
            serialize.dump_json(serialize.field_to_dict(self.fit.field), path)

        r.steps += [("fit", fit), ("save", save)]

        def frames():
            field = self.fit.field
            m = {k: f.m for k, f in field.frames.items()}
            checks.check_frames(
                self.traj.samples, self.traj.dt, field.grid.edges, m, self.sizes.highdim_min_count
            )

        def weights():
            field, w = self.fit.field, self.fit.weights
            m = {k: f.m for k, f in field.frames.items()}
            checks.check_weights(
                self.traj.samples, self.traj.dt, field.grid.edges, m, w.values, w.valid_mask, w.fallback_mask
            )

        def reload():
            loaded = serialize.field_from_dict(serialize.load_json(path))
            checks.check_same_field(self.fit.field, loaded)

        r.checks += [("frames", frames), ("weights", weights), ("reload", reload)]
        return r


# ---------------------------------------------------------------------------
# cli-files
# ---------------------------------------------------------------------------

class CliFiles:
    name = "cli-files"

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed, self.sizes = seed, sizes
        self.inputs = work / "inputs"

    def setup(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        walk = ingest.gen_bounded_walk(
            self.sizes.cli_samples, seed=self.seed, dim=2, noise=("laplace", "uniform")
        )
        scaled = Trajectory(walk.samples * np.array(CLI_SCALES), walk.dt, walk.channel_names)
        ingest.write_csv_trajectory(walk, self.inputs / "a.csv")
        ingest.write_csv_trajectory(scaled, self.inputs / "b.csv")
        # repr gives the exact start point; "--x0=" keeps a leading minus
        # sign from being read as an option
        self.x0 = ",".join(repr(float(v)) for v in walk.samples[0])

    def round(self, out: Path) -> Round:
        bins = ",".join(str(b) for b in self.sizes.cli_bins)
        steps = self.sizes.cli_steps
        wa, wb = str(out / "a.weights.csv"), str(out / "b.weights.csv")
        align, rec = out / "align.json", out / "a.reconstructed.csv"
        commands = []
        for arm in ("a", "b"):
            traj = str(self.inputs / f"{arm}.csv")
            mom, fld, wts = (str(out / f"{arm}.{s}") for s in ("moments.json", "field.json", "weights.csv"))
            commands += [
                (f"{arm}.moments", ["moments", "--in", traj, "--bins", bins, "--out", mom]),
                (f"{arm}.frames", ["frames", "--moments", mom, "--out", fld]),
                (f"{arm}.weights", ["weights", "--in", traj, "--field", fld, "--out", wts]),
            ]
        commands += [
            ("align", ["align", "--a", wa, "--b", wb, "--out", str(align)]),
            (
                "reconstruct",
                ["reconstruct", "--weights", wa, "--field", str(out / "a.field.json"),
                 f"--x0={self.x0}", "--steps", str(steps), "--out", str(rec)],
            ),
        ]
        r = Round(steps=[(name, lambda argv=argv: run_cli(argv)) for name, argv in commands])

        def field_a():
            field = serialize.field_from_dict(serialize.load_json(out / "a.field.json"))
            return field.grid.edges, set(field.frames)

        def arms():
            checks.check_arm_weights(self.inputs / "a.csv", wa, wb, *field_a(), align)

        def path():
            checks.check_reconstruction(self.inputs / "a.csv", wa, *field_a(), rec, steps)

        r.checks += [("arms", arms), ("reconstruct", path)]
        return r


WORKLOADS = {w.name: w for w in (PaperExperiments, Highdim6d, CliFiles)}
