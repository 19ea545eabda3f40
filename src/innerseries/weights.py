"""Derive the inner time series from a trajectory and a frame field, align
weight series across sensors, and score separability."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ingest import _read_csv_table, _time_step, _write_csv_columns
from .model import (
    DimensionMismatchError,
    FrameField,
    SignedPermutation,
    Trajectory,
    VelocitySeries,
    WeightSeries,
    apply_signed_permutation,
)

MIN_OVERLAP = 100


class AlignmentError(ValueError):
    pass


def _bin_lookup(field: FrameField):
    """Flat-bin -> frame-slot map, with a one-step nearest-occupied fallback
    for unoccupied bins."""
    grid = field.grid
    shape = grid.shape
    keys = sorted(field.frames)
    slot_of = {k: i for i, k in enumerate(keys)}
    n_bins = int(np.prod(shape))
    flat_to_slot = np.full(n_bins, -1, dtype=np.int64)
    fallback = np.zeros(n_bins, dtype=bool)
    for k, i in slot_of.items():
        flat_to_slot[np.ravel_multi_index(k, shape)] = i
    # unoccupied bins borrow the nearest occupied bin within one grid step
    steps = grid.step_sizes()
    for flat in range(n_bins):
        if flat_to_slot[flat] >= 0:
            continue
        idx = np.unravel_index(flat, shape)
        best, best_dist = -1, np.inf
        for offset in itertools.product((-1, 0, 1), repeat=len(shape)):
            nb = tuple(i + o for i, o in zip(idx, offset))
            if any(j < 0 or j >= s for j, s in zip(nb, shape)):
                continue
            if nb in slot_of:
                dist = float(
                    np.sum(((np.array(nb) - np.array(idx)) * steps) ** 2)
                )
                if dist < best_dist:
                    best, best_dist = slot_of[nb], dist
        if best >= 0:
            flat_to_slot[flat] = best
            fallback[flat] = True
    m_stack = np.stack([field.frames[k].m for k in keys])
    v_stack = np.stack([field.frames[k].v for k in keys])
    return flat_to_slot, fallback, m_stack, v_stack


def compute_weights(
    traj: Trajectory, vel: VelocitySeries, field: FrameField
) -> WeightSeries:
    """w(t) = M_bin(x(t)) . xdot(t) per valid sample.

    Samples in unoccupied bins fall back to the nearest occupied bin within
    one grid step (flagged); samples with no such bin, or landing outside the
    grid, are invalid.
    """
    if not field.frames:
        raise ValueError("empty frame field")
    if len(vel) != traj.n_samples:
        raise ValueError("velocity not aligned with trajectory")
    grid = field.grid
    idx = grid.locate(traj.samples)
    in_range = np.all(idx >= 0, axis=1)
    flat_to_slot, fallback_bins, m_stack, _ = _bin_lookup(field)
    slots = np.full(traj.n_samples, -1, dtype=np.int64)
    flat = np.ravel_multi_index(
        np.clip(idx, 0, None).T, grid.shape, mode="clip"
    )
    slots[in_range] = flat_to_slot[flat[in_range]]
    valid = vel.valid_mask & in_range & (slots >= 0)
    fallback = np.zeros(traj.n_samples, dtype=bool)
    fallback[valid] = fallback_bins[flat[valid]]
    values = np.zeros((traj.n_samples, traj.dim))
    values[valid] = np.einsum(
        "nij,nj->ni", m_stack[slots[valid]], vel.values[valid]
    )
    return WeightSeries(values, valid, dt=traj.dt, fallback_mask=fallback)


def _joint_valid(w: WeightSeries, wprime: WeightSeries) -> np.ndarray:
    if w.dim != wprime.dim:
        raise DimensionMismatchError("weight series dimensions differ")
    if len(w) != len(wprime):
        raise AlignmentError("weight series lengths differ")
    return w.valid_mask & wprime.valid_mask

def _corr_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlations between columns of a and columns of b."""
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    sa = np.sqrt((ac**2).mean(axis=0))
    sb = np.sqrt((bc**2).mean(axis=0))
    if np.any(sa == 0) or np.any(sb == 0):
        raise AlignmentError("zero-variance channel")
    return (ac.T @ bc) / len(a) / np.outer(sa, sb)


def align_weight_series(
    w: WeightSeries, wprime: WeightSeries
) -> tuple[SignedPermutation, np.ndarray]:
    """Signed permutation p maximizing the summed per-channel correlation of
    w with apply(p, wprime), over jointly valid samples.

    The search over permutations is exhaustive for N <= 4 and a greedy
    assignment on |corr| beyond; both pick signs from the correlation signs.
    Returns p and the achieved per-channel correlations.
    """
    joint = _joint_valid(w, wprime)
    if joint.sum() < MIN_OVERLAP:
        raise AlignmentError(
            f"only {int(joint.sum())} jointly valid samples (need {MIN_OVERLAP})"
        )
    c = _corr_matrix(w.values[joint], wprime.values[joint])
    n = w.dim
    if n <= 4:
        best, best_score = None, -np.inf
        for perm in itertools.permutations(range(n)):
            score = sum(abs(c[i, perm[i]]) for i in range(n))
            if score > best_score:
                best_score, best = score, perm
        perm = np.array(best)
    else:
        perm = np.full(n, -1)
        work = np.abs(c).copy()
        for _ in range(n):
            i, j = np.unravel_index(np.argmax(work), work.shape)
            perm[i] = j
            work[i, :] = -np.inf
            work[:, j] = -np.inf
    picked = c[np.arange(n), perm]
    signs = np.where(picked >= 0, 1, -1)
    return SignedPermutation(perm, signs), np.abs(picked) * 1.0


def cross_channel_correlation(w: WeightSeries) -> np.ndarray:
    """Pearson correlation matrix across channels over valid samples; the
    diagonal is exactly 1."""
    vals = w.values[w.valid_mask]
    c = _corr_matrix(vals, vals)
    np.fill_diagonal(c, 1.0)
    return c


@dataclass(frozen=True)
class SeparabilityReport:
    permutation: SignedPermutation
    channel_correlations: np.ndarray  # |corr| of each mixture channel with its match
    mixture_cross_correlation: np.ndarray
    min_channel_corr: float
    max_cross_corr: float
    passed: bool


def separability_report(
    w_mixture: WeightSeries,
    w_source_list: list[WeightSeries],
    min_match_corr: float = 0.9,
    max_abs_cross_corr: float = 0.05,
) -> SeparabilityReport:
    """Match each mixture weight channel to one source weight channel and
    score the mixture's cross-channel correlations."""
    if sum(s.dim for s in w_source_list) != w_mixture.dim:
        raise DimensionMismatchError("source dimensions do not sum to mixture dimension")
    lengths = {len(s) for s in w_source_list}
    if lengths != {len(w_mixture)}:
        raise AlignmentError("source and mixture weight series lengths differ")
    concat = np.concatenate([s.values for s in w_source_list], axis=1)
    mask = w_mixture.valid_mask.copy()
    for s in w_source_list:
        mask &= s.valid_mask
    sources = WeightSeries(concat, mask, dt=w_mixture.dt)
    p, corrs = align_weight_series(sources, w_mixture)
    cross = cross_channel_correlation(w_mixture)
    off = cross[~np.eye(w_mixture.dim, dtype=bool)]
    max_cross = float(np.max(np.abs(off))) if off.size else 0.0
    min_corr = float(np.min(corrs))
    passed = min_corr >= min_match_corr and max_cross < max_abs_cross_corr
    return SeparabilityReport(p, corrs, cross, min_corr, max_cross, passed)


# ---------------------------------------------------------------------------
# serialization: weight CSV mirrors the trajectory schema, plus a valid flag
# ---------------------------------------------------------------------------

def write_csv_weights(w: WeightSeries, path, channel_names=None) -> None:
    names = channel_names or [f"w{i + 1}" for i in range(w.dim)]
    columns = [*w.values.T, w.valid_mask.astype(np.int8)]
    _write_csv_columns(path, ["t", *names, "valid"], w.dt, columns)


def read_csv_weights(path) -> WeightSeries:
    """Read a weight CSV; the time column must be uniform to 1e-9 relative
    and every valid flag 0 or 1."""
    header, data = _read_csv_table(path)
    if header[0] != "t" or header[-1] != "valid":
        raise ValueError(f"{path}: expected columns t, <channels...>, valid")
    flags = data[:, -1]
    bad = np.flatnonzero((flags != 0) & (flags != 1))
    if bad.size:
        raise ValueError(
            f"{path}: row {bad[0] + 2}, column 'valid': expected 0 or 1, got {flags[bad[0]]:g}"
        )
    dt = _time_step(path, data[:, 0], "t") if len(data) > 1 else 1.0
    return WeightSeries(np.ascontiguousarray(data[:, 1:-1]), flags == 1, dt=dt)
