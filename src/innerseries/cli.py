"""Command-line surface: composable pipeline stages that read/write the
documented CSV/WAV/JSON formats, plus the four-experiment harness.
A trajectory path ending in .wav is read and written as WAV, any other as
CSV.

Exit code is 0 iff the invoked command succeeded and, for `experiment`, all
its acceptance thresholds passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import ingest, serialize, svgplot
from .estimate import accumulate_moments, bin_samples, build_grid
from .experiments import EXPERIMENT_NAMES, ExperimentConfig, run_experiment
from .frames import fit_field
from .model import Trajectory
from .reconstruct import integrate_weights
from .weights import (
    align_weight_series,
    compute_weights,
    read_csv_weights,
    separability_report,
    write_csv_weights,
)


def _comma_separated(kind, what: str):
    """An argparse type: a tuple of comma-separated kind values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(p) for p in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: expected {what}") from None
    return parse


def _read_traj(path: str, dt: float | None):
    path = Path(path)
    if path.suffix.lower() == ".wav":
        if dt is not None:
            raise ValueError(f"{path}: a WAV file's sample rate sets dt; --dt cannot be given")
        return ingest.read_wav_trajectory(path)
    return ingest.read_csv_trajectory(path, dt=dt)


def _write_traj(traj, path: str):
    if Path(path).suffix.lower() == ".wav":
        # PCM is integer-valued; synthetic reals are rounded and clipped to
        # the 16-bit range (level adjustment is the caller's concern)
        samples = np.clip(np.rint(traj.samples), -(2**15), 2**15 - 1)
        ingest.write_wav_trajectory(Trajectory(samples, traj.dt), path)
    else:
        ingest.write_csv_trajectory(traj, path)


def cmd_synth(args) -> int:
    if args.kind == "sine":
        traj = ingest.gen_sine(args.amplitude, args.dt, args.samples)
    elif args.kind == "broadband":
        traj = ingest.gen_broadband(
            args.samples, dt=args.dt, seed=args.seed, amplitude=args.amplitude
        )
    elif args.kind == "walk":
        traj = ingest.gen_bounded_walk(
            args.samples,
            seed=args.seed,
            dim=args.dim,
            box=args.amplitude,
            dt=args.dt,
            noise=args.noise.split(",") if "," in args.noise else args.noise,
        )
    elif args.kind == "lifted-latent":
        latent, lifted = ingest.gen_lifted_latent(args.samples, args.seed, dt=args.dt)
        _write_traj(lifted, args.out)
        if args.latent_out:
            _write_traj(latent, args.latent_out)
        return 0
    else:
        raise ValueError(args.kind)
    _write_traj(traj, args.out)
    return 0


def cmd_moments(args) -> int:
    traj = _read_traj(args.input, args.dt)
    try:
        grid = build_grid(traj, args.bins, args.min_count)
    except ValueError as err:
        raise ValueError(f"{args.input}: {err}") from None
    moments = accumulate_moments(traj, bin_samples(traj, grid))
    serialize.dump_json(serialize.moments_to_dict(grid, moments), args.out)
    return 0


def cmd_frames(args) -> int:
    grid, moments = serialize.load(args.moments, serialize.moments_from_dict)
    field, skipped = fit_field(grid, moments)
    for key, reason in skipped.items():
        print(f"skipping bin {key}: {reason}", file=sys.stderr)
    serialize.dump_json(serialize.field_to_dict(field), args.out)
    return 0


def cmd_weights(args) -> int:
    traj = _read_traj(args.input, args.dt)
    field = serialize.load(args.field, serialize.field_from_dict)
    if traj.dim != field.grid.dim:
        raise ValueError(
            f"{args.input}: trajectory dimension {traj.dim} does not match "
            f"the dimension {field.grid.dim} of the field {args.field}"
        )
    w = compute_weights(traj, field, bin_samples(traj, field.grid))
    write_csv_weights(w, args.out)
    return 0


def cmd_align(args) -> int:
    w = read_csv_weights(args.a)
    wp = read_csv_weights(args.b)
    perm, signs, corrs = align_weight_series(w, wp)
    out = {
        "perm": perm.tolist(),
        "signs": signs.tolist(),
        "correlations": [float(c) for c in corrs],
    }
    _emit_json(out, args.out)
    return 0


def cmd_separability(args) -> int:
    mix = read_csv_weights(args.mixture)
    sources = [read_csv_weights(s) for s in args.sources]
    rep = separability_report(mix, sources)
    out = {
        "perm": rep.perm.tolist(),
        "signs": rep.signs.tolist(),
        "channel_correlations": [float(c) for c in rep.channel_correlations],
        "cross_correlation": rep.mixture_cross_correlation.tolist(),
        "min_channel_corr": rep.min_channel_corr,
        "max_cross_corr": rep.max_cross_corr,
        "passed": rep.passed,
    }
    _emit_json(out, args.out)
    return 0 if rep.passed else 1


def cmd_reconstruct(args) -> int:
    w = read_csv_weights(args.weights)
    field = serialize.load(args.field, serialize.field_from_dict)
    steps = len(w) if args.steps is None else args.steps
    traj, truncated = integrate_weights(w, field, args.x0, steps)
    ingest.write_csv_trajectory(traj, args.out)
    if truncated:
        print("warning: integration left the occupied region early", file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig(seed=args.seed, samples=args.samples)
    report = run_experiment(args.name, cfg, out_dir=args.out_dir)
    for c in report.criteria:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: {c.value:.6g} {c.op} {c.threshold:g}")
    if args.out_dir is None:
        _emit_json(report.to_dict(), None)
    return 0 if report.passed else 1


def cmd_plot(args) -> int:
    traj = _read_traj(args.input, args.dt)
    t = traj.times
    series = [
        svgplot.PlotSeries(name, t, traj.samples[:, i])
        for i, name in enumerate(traj.channel_names)
    ]
    window = (args.window[0], args.window[1]) if args.window else (float(t[0]), float(t[-1]))
    svgplot.plot_svg(series, window, args.out)
    return 0


def _emit_json(obj: dict, out: str | None):
    text = json.dumps(obj, sort_keys=True, indent=2, default=serialize.json_default)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _add_common(p):
    """--in and --dt, for the commands that read a trajectory."""
    p.add_argument("--in", dest="input", required=True, help="trajectory CSV or WAV")
    p.add_argument("--dt", type=float, default=None, help="fixed dt when the CSV has no time column")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="innerseries",
        description="Sensor-independent inner time series of measured trajectories",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trajectory")
    p.add_argument("--kind", choices=("sine", "broadband", "walk", "lifted-latent"), required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--noise", default="laplace", help="laplace, uniform or gauss; a,b: per channel")
    p.add_argument("--out", required=True)
    p.add_argument("--latent-out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("moments", help="per-bin velocity moments")
    _add_common(p)
    p.add_argument("--bins", type=_comma_separated(int, "comma-separated integers"), required=True)
    p.add_argument("--min-count", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("frames", help="solve and align local frames from moments")
    p.add_argument("--moments", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("weights", help="inner time series from a frame field")
    _add_common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("align", help="signed-permutation alignment of two weight series")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("separability", help="match mixture weights against source weights")
    p.add_argument("--mixture", required=True)
    p.add_argument("--sources", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_separability)

    p = sub.add_parser("reconstruct", help="integrate weights back into measurement space")
    p.add_argument("--weights", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--x0", type=_comma_separated(float, "comma-separated numbers"), required=True,
                   help="comma-separated start point")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("experiment", help="run one of the named experiments")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plot", help="SVG line plot of a trajectory window")
    _add_common(p)
    p.add_argument("--window", type=float, nargs=2, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value such as -0.5,0.2 for an option: glue it to --x0
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--x0":
            argv[i : i + 2] = [f"--x0={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:
        print(f"error [{args.command}]: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
