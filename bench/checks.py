"""Correctness checks of workload outputs, computed apart from the program.

Each check recomputes what it needs from the inputs and the written outputs
with plain numpy (its own CSV parse, binning, central difference, moments and
signed-permutation search) and raises CheckFailed with a reason when the
output is wrong.  No check compares against a stored copy of earlier output,
and none reads the fourth-moment tensor or the per-bin member lists, so they
hold across changes to how the program stores those.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

# the experiments' own tolerances for the two frame conditions
WHITEN_TOL = 1e-10
OFFDIAG_TOL = 1e-8
# relative rounding allowed where two computations should agree exactly
ROUNDING = 1e-9

EXPECTED_CRITERIA = {
    "sine": {
        "sign_match_fraction",
        "c11_max_abs_error",
        "max_whiten_residual",
        "max_offdiag_residual",
        "reconstruction_rel_rmse",
        "runtime_seconds",
    },
    "monotone-1d": {
        "aligned_weight_correlation",
        "max_whiten_residual",
        "max_offdiag_residual",
        "runtime_seconds",
    },
    "lifted-2d": {
        "pca_top2_fraction_arm1",
        "pca_top2_fraction_arm2",
        "aligned_weight_correlation_min",
        "max_whiten_residual",
        "max_offdiag_residual",
        "runtime_seconds",
    },
    "mixture-2d": {
        "min_channel_corr",
        "max_cross_corr",
        "max_whiten_residual",
        "max_offdiag_residual",
        "runtime_seconds",
    },
}


class CheckFailed(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent building blocks
# ---------------------------------------------------------------------------

def read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV file."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(data.shape[1] == len(header), f"{path}: rows do not match the header")
    return header, data


def read_weights(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, weights, valid) of a weight CSV: t, <channels...>, valid."""
    header, data = read_table(path)
    require(header[0] == "t" and header[-1] == "valid", f"{path}: not a weight CSV")
    return data[:, 0], data[:, 1:-1], data[:, -1] != 0


def central_velocity(x: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    v = np.zeros_like(x)
    v[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    valid = np.ones(len(x), dtype=bool)
    valid[[0, -1]] = False
    return v, valid


def bin_index(x: np.ndarray, edges) -> np.ndarray:
    """Per-axis bin of each row; the top edge belongs to the last bin; -1
    outside the grid."""
    idx = np.empty(x.shape, dtype=np.int64)
    for a, e in enumerate(edges):
        e = np.asarray(e)
        i = np.searchsorted(e, x[:, a], side="right") - 1
        i[x[:, a] == e[-1]] = len(e) - 2
        i[(x[:, a] < e[0]) | (x[:, a] > e[-1])] = -1
        idx[:, a] = i
    return idx


def corr_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    return (ac.T @ bc) / np.sqrt(np.outer((ac**2).sum(axis=0), (bc**2).sum(axis=0)))


def best_signed_match(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive permutation maximizing sum |c[i, perm[i]]|; signs follow
    the matched entries."""
    n = c.shape[0]
    perm = max(
        itertools.permutations(range(n)),
        key=lambda p: sum(abs(c[i, p[i]]) for i in range(n)),
    )
    perm = np.array(perm)
    return perm, np.where(c[np.arange(n), perm] >= 0, 1, -1)


# ---------------------------------------------------------------------------
# paper-experiments
# ---------------------------------------------------------------------------

def check_report(path, experiment: str) -> None:
    """Every criterion present and passing, judged from its value."""
    report = json.loads(Path(path).read_text())
    names = {c["name"] for c in report["criteria"]}
    expected = EXPECTED_CRITERIA[experiment]
    require(names == expected, f"{experiment}: criteria {sorted(names ^ expected)} differ")
    for c in report["criteria"]:
        value, threshold = c["value"], c["threshold"]
        ok = value >= threshold if c["op"] == ">=" else value < threshold
        require(c["op"] in (">=", "<") and ok, f"{experiment}: {c['name']}={value} fails")
    require(report["passed"] is True, f"{experiment}: report not passed")


def check_sine_signs(path, amplitude: float = 1.0, min_match: float = 0.95) -> None:
    """Weight signs agree with the analytic sign(a cos t) after one global
    reflection, away from the turning points."""
    t, w, valid = read_weights(path)
    x = amplitude * np.sin(t)
    ref = np.sign(amplitude * np.cos(t))
    scored = valid & (np.abs(x) < 0.95 * abs(amplitude)) & (ref != 0)
    require(scored.sum() > len(t) // 2, "sine: too few scored samples")
    wv, rv = w[scored, 0], ref[scored]
    flip = np.sign(np.sum(wv * rv)) or 1.0
    match = float(np.mean(np.sign(flip * wv) == rv))
    require(match >= min_match, f"sine: sign match {match:.4f} < {min_match}")


def check_separability(
    mixture_path, source_paths, min_corr: float = 0.9, max_cross: float = 0.05
) -> None:
    """Each mixture weight channel matches one source weight channel, and
    the mixture channels are uncorrelated with each other."""
    _, wm, valid = read_weights(mixture_path)
    cols = []
    for p in source_paths:
        _, ws, vs = read_weights(p)
        cols.append(ws)
        valid = valid & vs
    src = np.concatenate(cols, axis=1)[valid]
    mix = wm[valid]
    c = corr_columns(src, mix)
    perm, _ = best_signed_match(c)
    matched = np.abs(c[np.arange(len(perm)), perm])
    require(matched.min() >= min_corr, f"mixture: matched |corr| {matched.min():.4f} < {min_corr}")
    cross = corr_columns(mix, mix)
    off = np.abs(cross[~np.eye(len(cross), dtype=bool)])
    require(off.max() < max_cross, f"mixture: cross-channel |corr| {off.max():.4f}")


# ---------------------------------------------------------------------------
# highdim-6d
# ---------------------------------------------------------------------------

def check_frames(x: np.ndarray, dt: float, edges, frames: dict, min_count: int) -> None:
    """For each frame's bin, recompute the members' c2 and the contraction
    T = E[(dv' c2^-1 dv) dv dv'] and check M c2 M' = I and that M T M' is
    diagonal relative to its largest diagonal entry.  frames maps bin
    tuples to M."""
    v, valid = central_velocity(x, dt)
    idx = bin_index(x, edges)
    shape = tuple(len(e) - 1 for e in edges)
    flat = np.ravel_multi_index(idx.T, shape)
    order = np.argsort(flat, kind="stable")
    order = order[valid[order]]
    starts = np.searchsorted(flat[order], np.arange(np.prod(shape) + 1))
    n = x.shape[1]
    eye = np.eye(n)
    for key, m in frames.items():
        k = np.ravel_multi_index(key, shape)
        sel = order[starts[k] : starts[k + 1]]
        require(len(sel) >= min_count, f"bin {key}: {len(sel)} valid samples < {min_count}")
        dv = v[sel] - v[sel].mean(axis=0)
        c2 = dv.T @ dv / len(sel)
        q = np.einsum("ti,ij,tj->t", dv, np.linalg.inv(c2), dv)
        t = (dv * q[:, None]).T @ dv / len(sel)
        white = np.max(np.abs(m @ c2 @ m.T - eye))
        require(white < WHITEN_TOL, f"bin {key}: |M c2 M' - I| = {white:.3e}")
        contr = m @ t @ m.T
        off = np.max(np.abs(contr - np.diag(np.diag(contr)))) / np.max(np.abs(np.diag(contr)))
        require(off < OFFDIAG_TOL, f"bin {key}: off-diagonal M T M' = {off:.3e}")


def check_weights(
    x: np.ndarray, dt: float, edges, frames: dict, w: np.ndarray, valid: np.ndarray, fallback
) -> None:
    """w = M_bin(x) xdot on every sample whose own bin has a frame, and every
    such sample is valid and not a fallback."""
    v, vel_ok = central_velocity(x, dt)
    idx = bin_index(x, edges)
    own = np.array([tuple(i) in frames for i in idx.tolist()]) & vel_ok
    require(np.all(valid[own]), f"{int((~valid[own]).sum())} samples in occupied bins invalid")
    require(not np.any(fallback[own]), "samples in their own occupied bin flagged fallback")
    keys = sorted(frames)
    slot = {k: s for s, k in enumerate(keys)}
    m = np.stack([frames[k] for k in keys])
    slots = np.array([slot[tuple(i)] for i in idx[own].tolist()], dtype=np.int64)
    expect = np.einsum("nij,nj->ni", m[slots], v[own])
    scale = np.abs(m[slots]).max(axis=(1, 2)) * np.abs(v[own]).max(axis=1)
    err = np.abs(w[own] - expect).max(axis=1)
    bad = int(np.sum(err > ROUNDING * np.maximum(scale, 1e-300)))
    require(bad == 0, f"{bad} samples with w != M xdot")


def check_same_field(a, b) -> None:
    """Two FrameFields hold bit-identical edges, frames and components."""
    require(
        all(np.array_equal(ea, eb) for ea, eb in zip(a.grid.edges, b.grid.edges))
        and len(a.grid.edges) == len(b.grid.edges),
        "grid edges differ",
    )
    require(a.grid.min_count == b.grid.min_count, "min_count differs")
    require(set(a.frames) == set(b.frames), "occupied bins differ")
    for k, fa in a.frames.items():
        fb = b.frames[k]
        require(
            np.array_equal(fa.m, fb.m)
            and np.array_equal(fa.d, fb.d)
            and fa.degenerate_flag == fb.degenerate_flag,
            f"frame {k} differs after reload",
        )
    require(dict(a.component_ids) == dict(b.component_ids), "component ids differ")


# ---------------------------------------------------------------------------
# cli-files
# ---------------------------------------------------------------------------

def check_arm_weights(traj_a, path_a, path_b, edges, occupied, align_json=None) -> None:
    """Power-of-two channel scaling leaves w invariant up to one signed
    permutation: on samples in their own occupied bin of arm a, matched
    correlations are 1 and the values agree, both to rounding.  Samples
    served by a neighbouring bin are left out: the program picks that
    neighbour by distance in measurement units, which scaling changes.  The
    align command's answer, if given, must match the same search over all
    jointly valid samples."""
    _, traj = read_table(traj_a)
    own = np.array([tuple(i) in occupied for i in bin_index(traj[:, 1:], edges).tolist()])
    _, wa, va = read_weights(path_a)
    _, wb, vb = read_weights(path_b)
    require(np.array_equal(va, vb), "arms have different valid samples")
    sel = va & own
    c = corr_columns(wa[sel], wb[sel])
    perm, signs = best_signed_match(c)
    corr = np.abs(c[np.arange(len(perm)), perm])
    require(np.all(np.abs(corr - 1.0) <= ROUNDING), f"arm correlations {corr} != 1")
    diff = np.abs(wa[sel] - wb[sel][:, perm] * signs).max()
    require(diff <= ROUNDING * np.abs(wa[sel]).max(), f"arm weights differ by {diff:.3e}")
    if align_json is not None:
        out = json.loads(Path(align_json).read_text())
        c = corr_columns(wa[va], wb[va])
        p, sg = best_signed_match(c)
        require(
            out["perm"] == p.tolist() and out["signs"] == sg.tolist(),
            f"align chose {out['perm']}/{out['signs']}, expected {p.tolist()}/{sg.tolist()}",
        )
        expect = np.abs(c[np.arange(len(p)), p])
        require(
            np.allclose(out["correlations"], expect, rtol=0, atol=ROUNDING),
            f"align correlations {out['correlations']}, expected {expect}",
        )


def check_reconstruction(
    traj_path, weights_path, edges, occupied, rec_path, steps: int
) -> int:
    """Each step taken from a state in the sample's own occupied bin advances
    by dt * xdot of that sample; a step on an invalid weight does not move.
    Returns the number of steps checked."""
    _, traj = read_table(traj_path)
    t, x = traj[:, 0], traj[:, 1:]
    dt = t[1] - t[0]
    v, _ = central_velocity(x, dt)
    _, _, wvalid = read_weights(weights_path)
    _, rec = read_table(rec_path)
    rec = rec[:, 1:]
    require(len(rec) == steps + 1, f"{len(rec) - 1} steps, expected {steps}")
    require(np.array_equal(rec[0], x[0]), "path does not start at x0")
    lo = np.array([e[0] for e in edges])
    hi = np.array([e[-1] for e in edges])
    state_bin = bin_index(np.clip(rec[:-1], lo, hi), edges)
    own_bin = bin_index(x[:steps], edges)
    own_occ = np.array([tuple(i) in occupied for i in own_bin.tolist()])
    same = np.all(state_bin == own_bin, axis=1) & own_occ & wvalid[:steps]
    inc = rec[1:] - rec[:-1]
    require(np.all(inc[~wvalid[:steps]] == 0), "path moved on an invalid weight")
    expect = dt * v[:steps][same]
    err = np.abs(inc[same] - expect)
    tol = ROUNDING * (np.abs(rec[:-1][same]) + np.abs(expect))
    bad = int(np.sum(np.any(err > tol, axis=1)))
    require(bad == 0, f"{bad} of {int(same.sum())} steps do not advance by dt * xdot")
    require(same.sum() >= steps // 2, f"only {int(same.sum())} of {steps} steps checkable")
    return int(same.sum())
