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

EXPERIMENT_NAMES = ("sine", "monotone-1d", "lifted-2d", "mixture-2d")

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
            "criteria": [
                {
                    "name": c.name,
                    "value": float(c.value),
                    "threshold": float(c.threshold),
                    "op": c.op,
                    "passed": c.passed,
                }
                for c in self.criteria
            ],
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
# the experiments
# ---------------------------------------------------------------------------

def _sine(cfg: ExperimentConfig) -> tuple[dict, list[Criterion], dict]:
    a = 1.0
    n = cfg.samples or 100_000
    traj = ingest.gen_sine(a, 0.01, n)
    res = run_pipeline(traj, (128,), None)

    match = sine_sign_match(traj, res.weights, a)
    edges, k = res.field.grid.edges[0], res.moments.keys[:, 0]
    xc = 0.5 * (edges[k] + edges[k + 1])  # the bin centres
    c11_err = float(np.abs(res.moments.c2[:, 0, 0] - (a * a - xc * xc)).max())

    k0 = int(np.flatnonzero(res.weights.valid_mask)[0])
    steps = min(1000, len(res.weights) - k0)
    w_tail = WeightSeries(
        res.weights.values[k0:],
        res.weights.valid_mask[k0:],
        dt=res.weights.dt,
    )
    rec, truncated = integrate_weights(
        w_tail, res.field, traj.samples[k0], steps
    )
    true = traj.samples[k0 : k0 + rec.n_samples, 0]
    rel_rmse = float(
        np.sqrt(np.mean((rec.samples[:, 0] - true) ** 2))
        / np.sqrt(np.mean(true**2))
    )

    metrics = {
        "sign_match_fraction": match,
        "c11_max_abs_error": c11_err,
        "reconstruction_rel_rmse": rel_rmse,
        "reconstruction_truncated": truncated,
        "n_occupied_bins": len(res.field.frames),
    }
    criteria = [
        Criterion("sign_match_fraction", match, 0.95, ">="),
        Criterion("c11_max_abs_error", c11_err, 0.05, "<"),
        Criterion("reconstruction_rel_rmse", rel_rmse, 0.05, "<"),
    ]
    extras = {
        "arms": [("x", res)],
        "plot": [
            ("x", traj.times, traj.samples[:, 0]),
            ("w", traj.times, res.weights.values[:, 0]),
            ("w_analytic", traj.times, analytic_sine_weights(a, traj.times).values[:, 0]),
        ],
        "window": (1.0, 2.0),
    }
    return metrics, criteria, extras


def _monotone_1d(cfg: ExperimentConfig) -> tuple[dict, list[Criterion], dict]:
    n = cfg.samples or 500_000
    traj = ingest.gen_broadband(n, seed=cfg.seed, amplitude=1.0)
    traj_p = ingest.apply_transform(traj, [0.0, 1.0, 0.0, 0.5], (-1.2, 1.2))
    res = run_pipeline(traj, (128,), None)
    res_p = run_pipeline(traj_p, (128,), None)
    *_, corrs = align_weight_series(res.weights, res_p.weights)
    corr = float(np.min(corrs))
    metrics = {"aligned_weight_correlation": corr}
    criteria = [Criterion("aligned_weight_correlation", corr, 0.95, ">=")]
    t = traj.times
    extras = {
        "arms": [("x", res), ("xprime", res_p)],
        "plot": [
            ("x", t, traj.samples[:, 0]),
            ("xprime", t, traj_p.samples[:, 0]),
            ("w", t, res.weights.values[:, 0]),
            ("wprime", t, res_p.weights.values[:, 0]),
        ],
        "window": (t[n // 2], t[n // 2 + min(2000, n // 4)]),
    }
    return metrics, criteria, extras


def _lifted_2d(cfg: ExperimentConfig) -> tuple[dict, list[Criterion], dict]:
    n = cfg.samples or 150_000
    _, lifted = ingest.gen_lifted_latent(n, cfg.seed)
    x, frac_a = ingest.pca_embed(lifted, 2)
    distorted = Trajectory(
        ingest.distort_lift(lifted.samples), lifted.dt, lifted.channel_names
    )
    xp, frac_b = ingest.pca_embed(distorted, 2)
    res = run_pipeline(x, (4, 4), None)
    res_p = run_pipeline(xp, (4, 4), None)
    *_, corrs = align_weight_series(res.weights, res_p.weights)
    corr = float(np.min(corrs))
    top2_a = float(np.sum(frac_a))
    top2_b = float(np.sum(frac_b))
    metrics = {
        "aligned_weight_correlation_min": corr,
        "per_channel_correlations": [float(c) for c in corrs],
        "pca_top2_fraction_arm1": top2_a,
        "pca_top2_fraction_arm2": top2_b,
    }
    criteria = [
        Criterion("pca_top2_fraction_arm1", top2_a, 0.99, ">="),
        Criterion("pca_top2_fraction_arm2", top2_b, 0.99, ">="),
        Criterion("aligned_weight_correlation_min", corr, 0.9, ">="),
    ]
    t = x.times
    extras = {
        "arms": [("x", res), ("xprime", res_p)],
        "plot": [
            ("w1", t, res.weights.values[:, 0]),
            ("wprime1", t, res_p.weights.values[:, 0]),
            ("w2", t, res.weights.values[:, 1]),
            ("wprime2", t, res_p.weights.values[:, 1]),
        ],
        "window": (t[n // 2], t[n // 2 + min(1500, n // 4)]),
    }
    return metrics, criteria, extras


def _fit_and_mix_sources(
    cfg: ExperimentConfig, n: int
) -> tuple[PipelineResult, PipelineResult, Trajectory]:
    """Fit both sources of mixture-2d, then mix them; the source walks are
    freed on return, before the mixture is embedded and fitted."""
    dt = 1.0 / 16000
    box = 2.0e4  # keeps both sources inside the +-2^15 mixing domain
    s1 = ingest.gen_bounded_walk(
        n, seed=cfg.seed, dim=1, box=box, dt=dt, noise="laplace"
    )
    s2 = ingest.gen_bounded_walk(
        n, seed=cfg.seed + 1, dim=1, box=box, dt=dt, noise="uniform"
    )
    res1 = run_pipeline(s1, (16,), None)
    res2 = run_pipeline(s2, (16,), None)
    return res1, res2, ingest.mix_two_sources(Trajectory(np.hstack([s1.samples, s2.samples]), dt))


def _mixture_2d(cfg: ExperimentConfig) -> tuple[dict, list[Criterion], dict]:
    n = cfg.samples or 500_000
    res1, res2, mixed = _fit_and_mix_sources(cfg, n)
    xprime, _ = ingest.pca_embed(mixed, 2)
    del mixed  # not held through the mixture fit, where a run peaks
    res_mix = run_pipeline(xprime, (16, 16), None)
    rep = separability_report(res_mix.weights, [res1.weights, res2.weights])
    metrics = {
        "min_channel_corr": rep.min_channel_corr,
        "max_cross_corr": rep.max_cross_corr,
        "per_channel_correlations": [float(c) for c in rep.channel_correlations],
        "matched_perm": rep.perm.tolist(),
        "matched_signs": rep.signs.tolist(),
    }
    criteria = [
        Criterion("min_channel_corr", rep.min_channel_corr, MIN_MATCH_CORR, ">="),
        Criterion("max_cross_corr", rep.max_cross_corr, MAX_CROSS_CORR, "<"),
    ]
    t = xprime.times
    extras = {
        "arms": [("s1", res1), ("s2", res2), ("mixture", res_mix)],
        "plot": [
            ("w_s1", t, res1.weights.values[:, 0]),
            ("wprime1", t, res_mix.weights.values[:, 0]),
            ("w_s2", t, res2.weights.values[:, 0]),
            ("wprime2", t, res_mix.weights.values[:, 1]),
        ],
        "window": (t[n // 2], t[n // 2 + min(2000, n // 4)]),
    }
    return metrics, criteria, extras


_RUNNERS = {
    "sine": _sine,
    "monotone-1d": _monotone_1d,
    "lifted-2d": _lifted_2d,
    "mixture-2d": _mixture_2d,
}

_RUNTIME_LIMITS = {"sine": 10.0, "monotone-1d": 30.0, "lifted-2d": 60.0, "mixture-2d": 60.0}


def run_experiment(
    name: str, cfg: ExperimentConfig | None = None, out_dir=None
) -> ExperimentReport:
    """Run one named experiment; optionally serialize intermediates, SVG
    figures, and the JSON report into out_dir.

    Every experiment is also held to the frame conditions over all its arms
    (max |M c2 M^T - I| < 1e-10, relative off-diagonal < 1e-8) and to its
    runtime limit, after its own criteria."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    cfg = cfg or ExperimentConfig()
    t_start = time.perf_counter()
    try:
        metrics, criteria, extras = _RUNNERS[name](cfg)
    except Exception as err:
        raise RuntimeError(f"experiment {name!r} failed during pipeline: {err}") from err
    arms = [res for _, res in extras["arms"]]
    white = metrics["max_whiten_residual"] = max(r.max_whiten_residual for r in arms)
    off = metrics["max_offdiag_residual"] = max(r.max_offdiag_residual for r in arms)
    criteria += [
        Criterion("max_whiten_residual", white, 1e-10, "<"),
        Criterion("max_offdiag_residual", off, 1e-8, "<"),
    ]
    elapsed = time.perf_counter() - t_start
    metrics["runtime_seconds"] = elapsed
    criteria.append(Criterion("runtime_seconds", elapsed, _RUNTIME_LIMITS[name], "<"))

    report = ExperimentReport(
        experiment=name,
        config=asdict(cfg),
        metrics=metrics,
        criteria=criteria,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for arm_name, res in extras["arms"]:
            wpath = out / f"{name}.{arm_name}.weights.csv"
            fpath = out / f"{name}.{arm_name}.field.json"
            write_csv_weights(res.weights, wpath)
            serialize.dump_json(serialize.field_to_dict(res.field), fpath)
            report.artifacts[f"{arm_name}.weights"] = str(wpath)
            report.artifacts[f"{arm_name}.field"] = str(fpath)
        svg_path = out / f"{name}.weights.svg"
        svgplot.plot_svg(
            [svgplot.PlotSeries(lbl, t, v) for lbl, t, v in extras["plot"]],
            extras["window"],
            svg_path,
        )
        report.artifacts["figure"] = str(svg_path)
        rpath = out / f"{name}.report.json"
        serialize.dump_json(report.to_dict(), rpath)
        report.artifacts["report"] = str(rpath)
    return report
