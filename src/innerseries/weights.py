"""Derive the inner time series from a trajectory and a frame field, align
weight series across sensors, and score separability."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ingest import _CHUNK, TIME_COLUMN, _read_csv_table, _time_step, _write_csv_columns
from .model import (
    Binning,
    DimensionMismatchError,
    FrameField,
    Trajectory,
    VelocitySeries,
    WeightSeries,
    best_signed_assignments,
)

MIN_OVERLAP = 100
# a separability report passes when every matched |corr| is at least the
# first and every cross-correlation of the mixture's channels below the second
MIN_MATCH_CORR, MAX_CROSS_CORR = 0.9, 0.05


class AlignmentError(ValueError):
    pass


def _bin_lookup(field: FrameField) -> tuple[np.ndarray, np.ndarray]:
    """The flat-bin -> row map over the field's stacks, with a one-step
    nearest-occupied fallback for unoccupied bins, and the mask of the bins
    that fall back.

    An unoccupied bin borrows the occupied bin among its 3^N neighbours
    that is fewest axes away, ties going to the first offset in
    itertools.product((-1, 0, 1), repeat=N) order.  Distance is counted in
    grid steps, so the choice does not depend on the measurement units.
    """
    shape = field.grid.shape
    slots = np.full(shape, -1, dtype=np.int64)
    slots[tuple(field.keys.T)] = np.arange(len(field.keys))
    padded = np.pad(slots, 1, constant_values=-1)
    chosen = slots.copy()
    # fewest moved axes first; the sort is stable
    offsets = sorted(itertools.product((-1, 0, 1), repeat=len(shape)), key=lambda o: -o.count(0))
    unresolved = chosen < 0
    for offset in offsets[1:]:  # offsets[0] is the bin itself
        if not unresolved.any():  # the rest of the sweep would change nothing
            break
        shifted = padded[tuple(slice(1 + o, 1 + o + s) for o, s in zip(offset, shape))]
        take = unresolved & (shifted >= 0)
        chosen[take] = shifted[take]
        unresolved &= ~take
    flat_to_slot = chosen.ravel()
    return flat_to_slot, (flat_to_slot >= 0) & (slots.ravel() < 0)


# A bin of at least this many samples takes one product with its frame;
# the samples of smaller bins take a per-sample product, _CHUNK sorted rows
# at a time, so the loop over bins runs at most n / _PRODUCT_ROWS times on
# any grid.  Below about this size a product costs more per sample than the
# per-sample gather.
_PRODUCT_ROWS = 128


def compute_weights(
    traj: Trajectory, vel: VelocitySeries, field: FrameField, binning: Binning
) -> WeightSeries:
    """w(t) = M_bin(x(t)) . xdot(t) per valid sample, from
    binning = bin_samples(traj, vel, field.grid) of this same vel: the
    binning holds the samples with a valid velocity, and only those can be
    valid weights.

    Samples in unoccupied bins fall back to the nearest occupied bin within
    one grid step (flagged); samples with no such bin, or landing outside the
    grid, are invalid.  Each bin of at least _PRODUCT_ROWS samples gets its
    frame applied as one product; the samples of smaller bins each get
    their frame gathered.
    """
    if not len(vel) == binning.n_samples == traj.n_samples:
        raise ValueError("velocity or binning not aligned with trajectory")
    if not (
        binning.grid.dim == field.grid.dim
        and all(map(np.array_equal, binning.grid.edges, field.grid.edges))
    ):
        raise ValueError("samples binned on another grid than the field's")
    flat_to_slot, fallback_bins = _bin_lookup(field)
    order, starts = binning.order, binning.starts
    slot = flat_to_slot[binning.flat]  # per listed bin; -1: no occupied bin within one step
    counts = np.diff(starts)
    values = np.zeros((traj.n_samples, traj.dim))
    valid = np.zeros(traj.n_samples, dtype=bool)
    fallback = np.zeros(traj.n_samples, dtype=bool)
    valid[order] = np.repeat(slot >= 0, counts)
    fallback[order] = np.repeat(fallback_bins[binning.flat], counts)
    large = (slot >= 0) & (counts >= _PRODUCT_ROWS)
    bounds = zip(starts[:-1][large].tolist(), starts[1:][large].tolist())
    for s, (lo, hi) in zip(slot[large].tolist(), bounds):
        rows = order[lo:hi]
        values[rows] = vel.values[rows] @ field.m[s].T
    small = np.where(large, -1, slot)  # the slot of each small bin
    if np.any(small >= 0):
        for lo in range(0, len(order), _CHUNK):
            hi = min(lo + _CHUNK, len(order))
            # the bins that overlap sorted rows lo:hi, and the rows of each
            first, stop = np.searchsorted(starts, lo, side="right") - 1, np.searchsorted(starts, hi)
            block = np.repeat(small[first:stop], np.diff(np.clip(starts[first : stop + 1], lo, hi)))
            pick = np.flatnonzero(block >= 0)
            rows = order[lo + pick]
            values[rows] = np.einsum("nij,nj->ni", field.m[block[pick]], vel.values[rows])
    return WeightSeries(values, valid, dt=traj.dt, fallback_mask=fallback)


def _corr_matrix(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Pearson correlations between the columns of a and of b over the rows
    in mask, in two passes over blocks of _CHUNK rows (column means, then
    centered sums of products), so no n-row copy is made.  Clipped to
    [-1, 1], which rounding in the sums can overstep."""
    def blocks():
        for lo in range(0, len(mask), _CHUNK):
            yield np.hstack([a[lo : lo + _CHUNK], b[lo : lo + _CHUNK]])[mask[lo : lo + _CHUNK]]

    mean = sum(x.sum(axis=0) for x in blocks()) / np.count_nonzero(mask)
    s = sum(xc.T @ xc for xc in (x - mean for x in blocks()))
    sd = np.sqrt(np.diag(s))
    if np.any(sd == 0):
        raise AlignmentError("zero-variance channel")
    na = a.shape[1]
    return np.clip(s[:na, na:] / np.outer(sd[:na], sd[na:]), -1.0, 1.0)


def _match_channels(sources: list[np.ndarray], target: np.ndarray, joint: np.ndarray):
    """Best signed assignment (perm, signs) of the stacked source columns to
    the target columns over the rows in joint, and the |corr| of each
    matched pair."""
    count = np.count_nonzero(joint)
    if count < MIN_OVERLAP:
        raise AlignmentError(f"only {count} jointly valid samples (need {MIN_OVERLAP})")
    c = np.vstack([_corr_matrix(x, target, joint) for x in sources])
    (perm,), (signs,) = best_signed_assignments(c[None])
    return perm, signs, np.abs(c[np.arange(len(c)), perm])


def align_weight_series(
    w: WeightSeries, wprime: WeightSeries
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed permutation (perm, signs) maximizing the summed per-channel
    correlation of w with wprime.values[:, perm] * signs, over jointly valid
    samples.

    The assignment is exact at every N (see best_signed_assignments); signs
    come from the correlation signs.  Returns perm, signs and the achieved
    per-channel correlations.
    """
    if w.dim != wprime.dim:
        raise DimensionMismatchError("weight series dimensions differ")
    if len(w) != len(wprime):
        raise AlignmentError("weight series lengths differ")
    return _match_channels([w.values], wprime.values, w.valid_mask & wprime.valid_mask)


def cross_channel_correlation(w: WeightSeries) -> np.ndarray:
    """Pearson correlation matrix across channels over valid samples; the
    diagonal is exactly 1."""
    c = _corr_matrix(w.values, w.values, w.valid_mask)
    np.fill_diagonal(c, 1.0)
    return c


@dataclass(frozen=True)
class SeparabilityReport:
    perm: np.ndarray  # stacked source channel j matches mixture channel perm[j]
    signs: np.ndarray
    channel_correlations: np.ndarray  # |corr| of each source channel with its match
    mixture_cross_correlation: np.ndarray
    min_channel_corr: float
    max_cross_corr: float
    passed: bool


def separability_report(
    w_mixture: WeightSeries, w_source_list: list[WeightSeries]
) -> SeparabilityReport:
    """Match each mixture weight channel to one source weight channel and
    score the mixture's cross-channel correlations against MIN_MATCH_CORR
    and MAX_CROSS_CORR."""
    if sum(s.dim for s in w_source_list) != w_mixture.dim:
        raise DimensionMismatchError("source dimensions do not sum to mixture dimension")
    lengths = {len(s) for s in w_source_list}
    if lengths != {len(w_mixture)}:
        raise AlignmentError("source and mixture weight series lengths differ")
    joint = np.logical_and.reduce([w_mixture.valid_mask, *(s.valid_mask for s in w_source_list)])
    perm, signs, corrs = _match_channels([s.values for s in w_source_list], w_mixture.values, joint)
    cross = cross_channel_correlation(w_mixture)
    off = cross[~np.eye(w_mixture.dim, dtype=bool)]
    max_cross = float(np.max(np.abs(off))) if off.size else 0.0
    min_corr = float(np.min(corrs))
    passed = min_corr >= MIN_MATCH_CORR and max_cross < MAX_CROSS_CORR
    return SeparabilityReport(perm, signs, corrs, cross, min_corr, max_cross, passed)


# ---------------------------------------------------------------------------
# serialization: weight CSV mirrors the trajectory schema, plus a valid flag
# ---------------------------------------------------------------------------

def write_csv_weights(w: WeightSeries, path) -> None:
    header = [TIME_COLUMN, *(f"w{i + 1}" for i in range(w.dim)), "valid"]
    _write_csv_columns(path, header, w.dt, [*w.values.T, w.valid_mask.view(np.int8)])


def read_csv_weights(path) -> WeightSeries:
    """Read a weight CSV; the time column must be uniform to 1e-9 relative
    and every valid flag 0 or 1."""
    header, data = _read_csv_table(path)
    if header[0] != TIME_COLUMN or header[-1] != "valid":
        raise ValueError(f"{path}: expected columns t, <channels...>, valid")
    flags = data[:, -1]
    bad = np.flatnonzero((flags != 0) & (flags != 1))
    if bad.size:
        raise ValueError(
            f"{path}: row {bad[0] + 2}, column 'valid': expected 0 or 1, got {flags[bad[0]]:g}"
        )
    dt = _time_step(path, data[:, 0])
    return WeightSeries(np.ascontiguousarray(data[:, 1:-1]), flags == 1, dt=dt)
