"""Velocity estimation, state-space binning, and per-bin velocity moments."""

from __future__ import annotations

import math

import numpy as np

from .model import BinGrid, BinMoments, Binning, Trajectory, VelocitySeries


def default_min_count(dim: int) -> int:
    # c2 and the contracted fourth moment t are N x N: keep several samples
    # per matrix entry
    return 50 * dim * dim


def central_difference(
    ahead: np.ndarray, behind: np.ndarray, dt: float, out: np.ndarray | None = None
) -> np.ndarray:
    """(ahead - behind) / (2 dt), into out if given: the velocity at the
    samples between the rows ahead and the rows behind.  Every velocity of
    the package is formed here, so each one is the same to the bit.
    """
    out = np.subtract(ahead, behind, out=out)
    out /= 2.0 * dt
    return out


def estimate_velocity(traj: Trajectory) -> VelocitySeries:
    """Central-difference velocity aligned with the trajectory:
    v[k] = (x[k+1]-x[k-1])/(2 dt), endpoints invalid."""
    x = traj.samples
    n = traj.n_samples
    if n < 3:
        raise ValueError("need at least 3 samples")
    v = np.empty_like(x)
    v[0] = v[-1] = 0.0
    central_difference(x[2:], x[:-2], traj.dt, out=v[1:-1])
    mask = np.ones(n, dtype=bool)
    mask[0] = mask[-1] = False
    return VelocitySeries(v, mask)


def build_grid(
    traj: Trajectory, bins_per_axis: list[int] | tuple[int, ...], min_count: int | None = None
) -> BinGrid:
    """Equal-width bin grid spanning the observed range per axis.

    Lower bins are half-open; the top edge is inclusive so every sample of
    traj lands in exactly one bin.
    """
    counts = tuple(int(b) for b in bins_per_axis)
    if len(counts) != traj.dim:
        raise ValueError("need one bin count per axis")
    if any(c < 1 for c in counts):
        raise ValueError("bin counts must be >= 1")
    x = traj.samples
    edges = []
    for a, nb in enumerate(counts):
        lo, hi = x[:, a].min(), x[:, a].max()
        if not hi > lo:
            raise ValueError(f"axis {a} has zero range")
        edges.append(np.linspace(lo, hi, nb + 1))
    if min_count is None:
        min_count = default_min_count(traj.dim)
    return BinGrid(tuple(edges), int(min_count))


def bin_samples(traj: Trajectory, vel: VelocitySeries, grid: BinGrid) -> Binning:
    """Group the samples with a valid velocity inside grid by bin (see
    Binning), from one pass of grid.flat_index.

    The first and last samples are left out whatever vel's mask says: they
    have no central difference, and compute_weights forms each binned
    sample's velocity from the samples either side of it.

    The samples are stable-sorted on the narrowest unsigned key that holds
    every flat index of the grid: numpy radix-sorts 8- and 16-bit keys, and
    a stable order is unique, so it is the order an int64 key gives.  Only
    that order (int32 below 2^31 samples) and each listed bin's flat index
    and row range are kept, not the n-long flat index.
    """
    if len(vel) != traj.n_samples:
        raise ValueError("velocity series not aligned with trajectory")
    flat = grid.flat_index(traj.samples)
    keep = vel.valid_mask & (flat >= 0)
    keep[0] = keep[-1] = False
    key = flat[keep].astype(np.min_scalar_type(math.prod(grid.shape) - 1))
    del flat  # the n-long int64 index is not held through the sort
    index_type = np.int32 if traj.n_samples < 2**31 else np.int64
    sel = np.flatnonzero(keep).astype(index_type)
    perm = np.argsort(key, kind="stable")  # keeps samples ascending per bin
    key = key[perm]
    first = np.ones(len(key), dtype=bool)  # the first row of each bin
    first[1:] = key[1:] != key[:-1]
    first = np.flatnonzero(first)
    return Binning(
        grid, traj.n_samples, sel[perm], key[first].astype(np.int64), np.append(first, len(key))
    )


def accumulate_moments(vel: VelocitySeries, binning: Binning) -> BinMoments:
    """Centered second moment c2 and contracted fourth moment t of each
    occupied bin (see BinMoments), the bins in ascending flat-index order.

    Samples with invalid velocity or outside the grid are skipped; bins
    whose valid count is below the grid's min_count are left out.  Each
    bin's samples are accumulated in ascending sample order, so the result
    is independent of how the samples were originally ordered.
    """
    if len(vel) != binning.n_samples:
        raise ValueError("velocity series not aligned with the binned trajectory")
    grid = binning.grid
    occupied = [(f, rows) for f, rows in binning.groups() if len(rows) >= grid.min_count]
    if not occupied:
        raise ValueError("no occupied bins (min_count too high or data too sparse)")
    flat, groups = zip(*occupied)
    counts = np.array([len(g) for g in groups])
    # two passes over each bin's rows, gathered afresh each time, so no
    # centred copy of all rows is held: c2 first, then t through one
    # stacked pinv; each stack is divided by the counts and symmetrised once
    means, c2 = [], []
    for group in groups:
        v = vel.values.take(group, axis=0)
        means.append(np.add.reduce(v) / len(group))  # v.mean(axis=0), less its call overhead
        dvl = v - means[-1]
        c2.append(dvl.T @ dvl)
    c2 = _symmetric_mean(c2, counts)
    # pinv, not inv: a bin of equal velocities (c2 = 0) is still stored,
    # and the frame solve rejects it
    c2_pinv = np.linalg.pinv(c2, hermitian=True)
    t = []
    for group, mean, p in zip(groups, means, c2_pinv):
        dvl = vel.values.take(group, axis=0) - mean
        q = ((dvl @ p) * dvl).sum(axis=1)
        t.append((dvl * q[:, None]).T @ dvl)
    keys = np.stack(np.unravel_index(flat, grid.shape), axis=1)
    return BinMoments(keys, counts, c2, _symmetric_mean(t, counts))


def _symmetric_mean(sums: list[np.ndarray], counts: np.ndarray) -> np.ndarray:
    """The (B, N, N) stack of per-bin sums divided by counts, then
    symmetrised."""
    a = np.stack(sums) / counts[:, None, None]
    return 0.5 * (a + a.transpose(0, 2, 1))
