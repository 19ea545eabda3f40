"""The four-experiment harness: full pipelines on both "sensor" arms, weight
alignment, metrics, JSON reports, and SVG figures.

Experiments:
  sine         analytic 1-D oracle; the inner series is the sign of the
               signal's derivative
  monotone-1d  broadband 1-D signal vs a monotone nonlinear re-sensing of it
  lifted-2d    2-D latent lifted into 6-D two different ways, reduced by PCA
  mixture-2d   two independent non-Gaussian sources vs their fixed nonlinear
               mixture
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import ingest, serialize, svgplot
from .estimate import accumulate_moments, bin_samples, build_grid
from .frames import fit_field, frame_residuals
from .model import BinMoments, FrameField, Trajectory, WeightSeries
from .reconstruct import integrate_weights
from .weights import (
    MAX_CROSS_CORR,
    MIN_MATCH_CORR,
    align_weight_series,
    compute_weights,
    separability_report,
    write_csv_weights,
)

REPORT_SCHEMA = 1


@dataclass
class ExperimentConfig:
    seed: int = 0
    samples: int | None = None


@dataclass(frozen=True)
class Criterion:
    name: str
    value: float
    threshold: float
    op: str  # ">=" or "<"

    @property
    def passed(self) -> bool:
        return bool(
            self.value >= self.threshold if self.op == ">=" else self.value < self.threshold
        )


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    metrics: dict
    criteria: list[Criterion]
    artifacts: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "experiment": self.experiment,
            "config": self.config,
            "metrics": self.metrics,
            "criteria": [{**asdict(c), "passed": c.passed} for c in self.criteria],
            "artifacts": self.artifacts,
            "passed": self.passed,
        }


@dataclass
class PipelineResult:
    field: FrameField
    weights: WeightSeries
    moments: BinMoments
    max_whiten_residual: float
    max_offdiag_residual: float
    n_skipped_bins: int


def run_pipeline(
    traj: Trajectory, bins: tuple[int, ...], min_count: int | None
) -> PipelineResult:
    """trajectory -> grid -> moments -> aligned frames -> weights, on the
    grid build_grid(traj, bins, min_count) makes.  The moments and the
    weights form their velocities from the trajectory, a block of bins at a
    time, so no velocity series is held."""
    grid = build_grid(traj, bins, min_count)
    binning = bin_samples(traj, grid)
    moments = accumulate_moments(traj, binning)
    field, skipped = fit_field(grid, moments)
    r1, r2 = frame_residuals(field, moments)
    w = compute_weights(traj, field, binning)
    return PipelineResult(field, w, moments, r1, r2, len(skipped))


def analytic_sine_weights(a: float, times: np.ndarray) -> WeightSeries:
    """Closed-form inner series of a sine signal: sgn(a cos t), with the +
    sign convention; exact zeros are kept as 0 and excluded from scoring."""
    if a == 0:
        raise ValueError("amplitude must be nonzero")
    times = np.asarray(times, dtype=float)
    vals = np.sign(a * np.cos(times))[:, None]
    dt = float(times[1] - times[0]) if len(times) > 1 else 1.0
    return WeightSeries(vals, np.ones(len(times), dtype=bool), dt=dt)


def sine_sign_match(traj: Trajectory, w: WeightSeries, a: float) -> float:
    """Fraction of scored samples (valid, |x| < 0.95 |a|, analytic sign
    nonzero) whose weight sign matches the analytic sign of a cos(t), after
    one global reflection."""
    ref = analytic_sine_weights(a, traj.times)
    score_mask = (
        w.valid_mask
        & (np.abs(traj.samples[:, 0]) < 0.95 * abs(a))
        & (ref.values[:, 0] != 0)
    )
    if not score_mask.any():
        raise ValueError("no samples to score")
    wv = w.values[score_mask, 0]
    rv = ref.values[score_mask, 0]
    flip = np.sign(np.sum(wv * rv)) or 1.0
    return float(np.mean(np.sign(flip * wv) == rv))


# ---------------------------------------------------------------------------
# the experiments: each runner takes (seed, samples) and returns its metrics,
# its arms as (name, PipelineResult), its plot series and its plot window
# ---------------------------------------------------------------------------

def _sine(seed: int, n: int):
    a = 1.0
    traj = ingest.gen_sine(a, 0.01, n)
    res = run_pipeline(traj, (128,), None)
    edges, k = res.field.grid.edges[0], res.moments.keys[:, 0]
    xc = 0.5 * (edges[k] + edges[k + 1])  # the bin centres

    k0 = int(np.flatnonzero(res.weights.valid_mask)[0])
    w_tail = WeightSeries(res.weights.values[k0:], res.weights.valid_mask[k0:], dt=res.weights.dt)
    steps = min(1000, len(res.weights) - k0)
    rec, truncated = integrate_weights(w_tail, res.field, traj.samples[k0], steps)
    true = traj.samples[k0 : k0 + rec.n_samples, 0]
    rmse = np.sqrt(np.mean((rec.samples[:, 0] - true) ** 2))

    metrics = {
        "sign_match_fraction": sine_sign_match(traj, res.weights, a),
        "c11_max_abs_error": float(np.abs(res.moments.c2[:, 0, 0] - (a * a - xc * xc)).max()),
        "reconstruction_rel_rmse": float(rmse / np.sqrt(np.mean(true**2))),
        "reconstruction_truncated": truncated,
        "n_occupied_bins": len(res.field.keys),
    }
    t = traj.times
    plot = [
        ("x", t, traj.samples[:, 0]),
        ("w", t, res.weights.values[:, 0]),
        ("w_analytic", t, analytic_sine_weights(a, t).values[:, 0]),
    ]
    return metrics, [("x", res)], plot, (1.0, 2.0)


def _two_arms(traj: Trajectory, traj_p: Trajectory, bins: tuple[int, ...]):
    """Both arms fitted on bins, and the correlations of their aligned weights."""
    res, res_p = run_pipeline(traj, bins, None), run_pipeline(traj_p, bins, None)
    *_, corrs = align_weight_series(res.weights, res_p.weights)
    return res, res_p, corrs


def _middle(t: np.ndarray, span: int) -> tuple[float, float]:
    """The plot window of span samples (at most a quarter of t) from t's middle."""
    n = len(t)
    return t[n // 2], t[n // 2 + min(span, n // 4)]


def _monotone_1d(seed: int, n: int):
    traj = ingest.gen_broadband(n, seed=seed, amplitude=1.0)
    traj_p = ingest.apply_transform(traj, [0.0, 1.0, 0.0, 0.5], (-1.2, 1.2))
    res, res_p, corrs = _two_arms(traj, traj_p, (128,))
    t = traj.times
    plot = [
        ("x", t, traj.samples[:, 0]),
        ("xprime", t, traj_p.samples[:, 0]),
        ("w", t, res.weights.values[:, 0]),
        ("wprime", t, res_p.weights.values[:, 0]),
    ]
    metrics = {"aligned_weight_correlation": float(np.min(corrs))}
    return metrics, [("x", res), ("xprime", res_p)], plot, _middle(t, 2000)


def _lifted_2d(seed: int, n: int):
    lifted = ingest.gen_lifted_latent(n, seed)[1]  # the latent is not held
    x, frac_a = ingest.pca_embed(lifted, 2)
    distorted = Trajectory(ingest.distort_lift(lifted.samples), lifted.dt, lifted.channel_names)
    del lifted  # each 6-D input is freed after its last use, before the fits
    xp, frac_b = ingest.pca_embed(distorted, 2)
    del distorted
    res, res_p, corrs = _two_arms(x, xp, (4, 4))
    metrics = {
        "aligned_weight_correlation_min": float(np.min(corrs)),
        "per_channel_correlations": [float(c) for c in corrs],
        "pca_top2_fraction_arm1": float(np.sum(frac_a)),
        "pca_top2_fraction_arm2": float(np.sum(frac_b)),
    }
    t = x.times
    plot = [
        ("w1", t, res.weights.values[:, 0]),
        ("wprime1", t, res_p.weights.values[:, 0]),
        ("w2", t, res.weights.values[:, 1]),
        ("wprime2", t, res_p.weights.values[:, 1]),
    ]
    return metrics, [("x", res), ("xprime", res_p)], plot, _middle(t, 1500)


def _fit_and_mix_sources(seed: int, n: int) -> tuple[PipelineResult, PipelineResult, Trajectory]:
    """Fit both sources of mixture-2d, then mix them; the source walks are
    freed once stacked, so the mixing holds their stacked copy alone."""
    dt = 1.0 / 16000
    box = 2.0e4  # keeps both sources inside the +-2^15 mixing domain
    s1 = ingest.gen_bounded_walk(n, seed=seed, dim=1, box=box, dt=dt, noise="laplace")
    s2 = ingest.gen_bounded_walk(n, seed=seed + 1, dim=1, box=box, dt=dt, noise="uniform")
    res1 = run_pipeline(s1, (16,), None)
    res2 = run_pipeline(s2, (16,), None)
    sources = Trajectory(np.hstack([s1.samples, s2.samples]), dt)
    del s1, s2
    return res1, res2, ingest.mix_two_sources(sources)


def _mixture_2d(seed: int, n: int):
    res1, res2, mixed = _fit_and_mix_sources(seed, n)
    xprime, _ = ingest.pca_embed(mixed, 2)
    del mixed  # not held through the mixture fit, where a run peaks
    res_mix = run_pipeline(xprime, (16, 16), None)
    del xprime  # freed before the plot's time axis, xprime.times, is built
    rep = separability_report(res_mix.weights, [res1.weights, res2.weights])
    metrics = {
        "min_channel_corr": rep.min_channel_corr,
        "max_cross_corr": rep.max_cross_corr,
        "per_channel_correlations": [float(c) for c in rep.channel_correlations],
        "matched_perm": rep.perm.tolist(),
        "matched_signs": rep.signs.tolist(),
    }
    t = np.arange(n, dtype=float) * res_mix.weights.dt
    plot = [
        ("w_s1", t, res1.weights.values[:, 0]),
        ("wprime1", t, res_mix.weights.values[:, 0]),
        ("w_s2", t, res2.weights.values[:, 0]),
        ("wprime2", t, res_mix.weights.values[:, 1]),
    ]
    arms = [("s1", res1), ("s2", res2), ("mixture", res_mix)]
    return metrics, arms, plot, _middle(t, 2000)


# name -> (runner, default samples, runtime limit in seconds, its own criteria
# as (metric, op, threshold)); every experiment is also held to _FRAME_CRITERIA
_EXPERIMENTS = {
    "sine": (_sine, 100_000, 10.0, [
        ("sign_match_fraction", ">=", 0.95),
        ("c11_max_abs_error", "<", 0.05),
        ("reconstruction_rel_rmse", "<", 0.05),
    ]),
    "monotone-1d": (_monotone_1d, 500_000, 30.0, [("aligned_weight_correlation", ">=", 0.95)]),
    "lifted-2d": (_lifted_2d, 150_000, 60.0, [
        ("pca_top2_fraction_arm1", ">=", 0.99),
        ("pca_top2_fraction_arm2", ">=", 0.99),
        ("aligned_weight_correlation_min", ">=", 0.9),
    ]),
    "mixture-2d": (_mixture_2d, 500_000, 60.0, [
        ("min_channel_corr", ">=", MIN_MATCH_CORR),
        ("max_cross_corr", "<", MAX_CROSS_CORR),
    ]),
}

_FRAME_CRITERIA = [("max_whiten_residual", "<", 1e-10), ("max_offdiag_residual", "<", 1e-8)]

EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(
    name: str, cfg: ExperimentConfig | None = None, out_dir=None
) -> ExperimentReport:
    """Run one named experiment; optionally serialize intermediates, SVG
    figures, and the JSON report into out_dir.

    Every experiment is also held to the frame conditions over all its arms
    (max |M c2 M^T - I| < 1e-10, relative off-diagonal < 1e-8) and to its
    runtime limit, after its own criteria."""
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    cfg = cfg or ExperimentConfig()
    runner, default_samples, limit, own = _EXPERIMENTS[name]
    n = default_samples if cfg.samples is None else cfg.samples
    if n < 1:
        raise ValueError(f"samples must be at least 1, got {n}")
    t_start = time.perf_counter()
    try:
        metrics, arms, plot, window = runner(cfg.seed, n)
    except Exception as err:
        raise RuntimeError(f"experiment {name!r} failed during pipeline: {err}") from err
    metrics["max_whiten_residual"] = max(res.max_whiten_residual for _, res in arms)
    metrics["max_offdiag_residual"] = max(res.max_offdiag_residual for _, res in arms)
    metrics["runtime_seconds"] = time.perf_counter() - t_start
    report = ExperimentReport(
        experiment=name,
        config=asdict(cfg),
        metrics=metrics,
        criteria=[
            Criterion(m, metrics[m], threshold, op)
            for m, op, threshold in [*own, *_FRAME_CRITERIA, ("runtime_seconds", "<", limit)]
        ],
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for arm_name, res in arms:
            wpath = out / f"{name}.{arm_name}.weights.csv"
            fpath = out / f"{name}.{arm_name}.field.json"
            write_csv_weights(res.weights, wpath)
            serialize.dump_json(serialize.field_to_dict(res.field), fpath)
            report.artifacts[f"{arm_name}.weights"] = str(wpath)
            report.artifacts[f"{arm_name}.field"] = str(fpath)
        svg_path = out / f"{name}.weights.svg"
        svgplot.plot_svg([svgplot.PlotSeries(*s) for s in plot], window, svg_path)
        report.artifacts["figure"] = str(svg_path)
        rpath = out / f"{name}.report.json"
        serialize.dump_json(report.to_dict(), rpath)
        report.artifacts["report"] = str(rpath)
    return report
