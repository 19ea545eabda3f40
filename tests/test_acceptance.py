"""Acceptance suite: the eight headline claims, each printed as one
pass/fail line.  The four named experiments are run once per session and
shared across criteria."""

import time

import numpy as np
import pytest

from innerseries.estimate import estimate_velocity
from innerseries.experiments import ExperimentConfig, run_experiment, run_pipeline
from innerseries.frames import _canonical, _gauge
from innerseries.ingest import gen_bounded_walk
from innerseries.model import LocalFrame, Trajectory
from innerseries.weights import align_weight_series
from signed_gauge import (
    all_signed_permutations,
    apply_to_array,
    apply_to_frame,
    linear_map_law_check,
)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def experiments():
    out = {}
    for name in ("sine", "monotone-1d", "lifted-2d", "mixture-2d"):
        t0 = time.perf_counter()
        out[name] = (run_experiment(name, ExperimentConfig()), time.perf_counter() - t0)
    return out


def _crit(report, name):
    return next(c for c in report.criteria if c.name == name)


def test_criterion_1_sine_oracle(experiments):
    report, elapsed = experiments["sine"]
    match = _crit(report, "sign_match_fraction")
    c11 = _crit(report, "c11_max_abs_error")
    ok = match.value >= 0.95 and c11.value < 0.05 and elapsed < 10
    _report(
        "1 sine oracle",
        ok,
        f"sign match {match.value:.4f} >= 0.95, C11 err {c11.value:.4f} < 0.05, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_2_monotone_invariance(experiments):
    report, elapsed = experiments["monotone-1d"]
    corr = _crit(report, "aligned_weight_correlation")
    ok = corr.value >= 0.95 and elapsed < 30
    _report(
        "2 monotone-transform invariance",
        ok,
        f"aligned corr {corr.value:.4f} >= 0.95, {elapsed:.1f}s < 30s",
    )


def test_criterion_3_lifted_invariance(experiments):
    report, elapsed = experiments["lifted-2d"]
    pca = min(
        _crit(report, "pca_top2_fraction_arm1").value,
        _crit(report, "pca_top2_fraction_arm2").value,
    )
    corr = _crit(report, "aligned_weight_correlation_min")
    ok = pca >= 0.99 and corr.value >= 0.9 and elapsed < 60
    _report(
        "3 lifted-2d invariance",
        ok,
        f"PCA top-2 {pca:.4f} >= 0.99, min corr {corr.value:.4f} >= 0.9, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_4_mixture_separability(experiments):
    report, elapsed = experiments["mixture-2d"]
    corr = _crit(report, "min_channel_corr")
    cross = _crit(report, "max_cross_corr")
    ok = corr.value >= 0.9 and cross.value < 0.05 and elapsed < 60
    _report(
        "4 mixture separability",
        ok,
        f"min channel corr {corr.value:.4f} >= 0.9, max |cross| {cross.value:.2e} "
        f"< 0.05, {elapsed:.1f}s < 60s",
    )


def test_criterion_5_frame_conditions(experiments):
    worst_white = worst_off = 0.0
    for report, _ in experiments.values():
        worst_white = max(worst_white, report.metrics["max_whiten_residual"])
        worst_off = max(worst_off, report.metrics["max_offdiag_residual"])
    ok = worst_white < 1e-10 and worst_off < 1e-8
    _report(
        "5 frame conditions",
        ok,
        f"whiten {worst_white:.2e} < 1e-10, off-diag {worst_off:.2e} < 1e-8 "
        "(every occupied bin, every experiment)",
    )


def test_criterion_6_transform_law():
    worst, checked = linear_map_law_check(seed=0)
    ok = worst < 1e-6 and checked > 0
    _report(
        "6 transformation law",
        ok,
        f"max residual {worst:.2e} < 1e-6 over {checked} bins",
    )


def test_criterion_7_reconstruction(experiments):
    report, _ = experiments["sine"]
    rmse = _crit(report, "reconstruction_rel_rmse")
    truncated = report.metrics["reconstruction_truncated"]
    ok = rmse.value < 0.05 and not truncated
    _report(
        "7 reconstruction round-trip",
        ok,
        f"rel RMSE {rmse.value:.4f} < 0.05 over 1000 steps (truncated={truncated})",
    )


def test_criterion_8_exact_invariances():
    traj = gen_bounded_walk(40_000, seed=0, dim=2, noise=("laplace", "uniform"))
    res = run_pipeline(traj, (3, 3), None)

    # scale covariance: power-of-two axis scaling leaves w invariant
    scale = np.array([4.0, 0.5])
    res_s = run_pipeline(Trajectory(traj.samples * scale, traj.dt), (3, 3), None)
    perm, signs, _ = align_weight_series(res.weights, res_s.weights)
    aligned = apply_to_array((perm, signs), res_s.weights.values)
    joint = res.weights.valid_mask & res_s.weights.valid_mask
    wscale = max(float(np.max(np.abs(res.weights.values[joint]))), 1.0)
    scale_err = float(np.max(np.abs(aligned[joint] - res.weights.values[joint]))) / wscale

    # resubstitution: w equals M xdot recomputed bin by bin
    grid = res.field.grid
    flat = grid.flat_index(traj.samples)
    vel = estimate_velocity(traj)
    resub_err = 0.0
    sel = res.weights.valid_mask & ~res.weights.fallback_mask
    for t in np.flatnonzero(sel):
        key = tuple(int(i) for i in np.unravel_index(flat[t], grid.shape))
        expect = res.field.frames[key].m @ vel[t]
        resub_err = max(resub_err, float(np.max(np.abs(res.weights.values[t] - expect))))
    resub_err /= wscale

    # canonicalization collapses every signed-permutation orbit, N <= 3:
    # the whole orbit canonicalized as one stack
    rng = np.random.default_rng(0)
    orbit_ok = True
    for n in (1, 2, 3):
        m = rng.standard_normal((n, n)) + 2 * np.eye(n)
        d = np.sort(rng.random(n) + 0.5)[::-1]
        frame = LocalFrame(m, np.linalg.inv(m), d)
        orbit = [apply_to_frame(q, frame) for q in all_signed_permutations(n)]
        stacks = [np.array([getattr(g, a) for g in orbit]) for a in "mvd"]
        cm, _, cd = _gauge(*_canonical(stacks[0], stacks[2]), *stacks)
        if not (np.allclose(cm, cm[0], atol=1e-12) and np.allclose(cd, cd[0])):
            orbit_ok = False

    ok = scale_err < 1e-10 and resub_err < 1e-12 and orbit_ok
    _report(
        "8 exact invariances",
        ok,
        f"scale covariance {scale_err:.2e} < 1e-10, resubstitution {resub_err:.2e} "
        f"< 1e-12, orbit collapse exhaustive N<=3 {'ok' if orbit_ok else 'FAILED'}",
    )
