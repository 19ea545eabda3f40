"""Velocity estimation, state-space binning, and per-bin velocity moments."""

from __future__ import annotations

import math

import numpy as np

from .ingest import _CHUNK
from .model import BinGrid, BinMoments, Binning, Trajectory


def default_min_count(dim: int) -> int:
    # c2 and the contracted fourth moment t are N x N: keep several samples
    # per matrix entry
    return 50 * dim * dim


def estimate_velocity(traj: Trajectory) -> np.ndarray:
    """The (n, N) central-difference velocity of traj: rows 1..n-2 as
    _velocities forms them, and rows 0 and n - 1, which have no central
    difference, zero.  No fit calls it: the moments and the weights call
    _velocities at the binned rows only, one block at a time."""
    if traj.n_samples < 3:
        raise ValueError("need at least 3 samples")
    return np.pad(_velocities(traj, np.arange(1, traj.n_samples - 1)), ((1, 1), (0, 0)))


def build_grid(
    traj: Trajectory, bins_per_axis: list[int] | tuple[int, ...], min_count: int | None = None
) -> BinGrid:
    """Equal-width bin grid spanning the observed range per axis.

    Lower bins are half-open; the top edge is inclusive so every sample of
    traj lands in exactly one bin.
    """
    counts = tuple(int(b) for b in bins_per_axis)
    if len(counts) != traj.dim:
        raise ValueError(f"need one bin count per axis, got {len(counts)} for dimension {traj.dim}")
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


def bin_samples(traj: Trajectory, grid: BinGrid) -> Binning:
    """Group the samples inside grid by bin (see Binning), from one pass of
    grid.flat_index.

    The first and last samples are left out: they have no central
    difference, and the moments and the weights form each binned sample's
    velocity from the samples either side of it.

    The samples are stable-sorted on the narrowest unsigned key that holds
    every flat index of the grid: numpy radix-sorts 8- and 16-bit keys, and
    a stable order is unique, so it is the order an int64 key gives.  Only
    that order (int32 below 2^31 samples) and each listed bin's flat index
    and row range are kept, not the n-long flat index.
    """
    flat = grid.flat_index(traj.samples)
    keep = flat >= 0
    keep[[0, -1]] = False
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


def _check_binned(traj: Trajectory, binning: Binning) -> None:
    """Raise a ValueError unless binning groups samples of traj that each
    have a central difference: a hand-built Binning may list row 0 or
    n - 1, and row 0's would wrap to x[n - 1] - x[n - 3]."""
    if binning.n_samples != traj.n_samples:
        raise ValueError("binning not aligned with trajectory")
    order = binning.order
    if len(order) and not (0 < order.min() and order.max() < traj.n_samples - 1):
        raise ValueError(
            "binning lists the first or last sample, which have no central"
            " difference; bin_samples never lists them"
        )


def _velocities(traj: Trajectory, rows: np.ndarray) -> np.ndarray:
    """The central-difference velocity (x[r + 1] - x[r - 1]) / (2 dt) at
    each of rows, none of them the first or last sample.  Every velocity of
    the package is formed here, so each one is the same to the bit.
    Gathered _CHUNK rows at a time straight into the result, beside one
    _CHUNK-row block of the rows behind."""
    x = traj.samples
    out = np.empty((len(rows), traj.dim))
    for lo in range(0, len(rows), _CHUNK):
        k = np.subtract(rows[lo : lo + _CHUNK], 1, dtype=np.intp)  # row k of x[2:] - x[:-2]
        # every k is in range (see _check_binned), so "clip" changes
        # nothing; it spares take a buffered copy of out
        ahead = x[2:].take(k, axis=0, out=out[lo : lo + _CHUNK], mode="clip")
        ahead -= x[:-2].take(k, axis=0, mode="clip")
        ahead /= 2.0 * traj.dt
    return out


def _block_cuts(starts: np.ndarray) -> list[int]:
    """Cut the bins whose rows starts bounds into blocks: block b holds bins
    cuts[b]:cuts[b + 1], whole bins of at most _CHUNK rows in all, or one
    larger bin."""
    cuts = [0]
    while cuts[-1] < len(starts) - 1:
        end = int(np.searchsorted(starts, starts[cuts[-1]] + _CHUNK, side="right")) - 1
        cuts.append(max(end, cuts[-1] + 1))
    return cuts


def accumulate_moments(traj: Trajectory, binning: Binning) -> BinMoments:
    """Centered second moment c2 and contracted fourth moment t of the
    central-difference velocities of each occupied bin of binning (see
    BinMoments), the bins in ascending flat-index order.

    A bin is occupied when binning lists at least the grid's min_count of
    its samples; the others are left out.  The occupied bins go in blocks
    of whole bins of at most _CHUNK rows, or one larger bin, and each sum
    runs over a bin's samples in ascending sample order, by np.add.reduceat
    or np.add.reduce, never by a BLAS product: so the result does not
    depend on how the samples were ordered, nor on the BLAS thread count.
    """
    _check_binned(traj, binning)
    grid = binning.grid
    counts = np.diff(binning.starts)
    occupied = counts >= grid.min_count
    if not occupied.any():
        raise ValueError("no occupied bins (min_count too high or data too sparse)")
    pairs = np.triu_indices(traj.dim)
    c2, t = [], []
    cuts = _block_cuts(binning.starts)
    for b0, b1 in zip(cuts, cuts[1:]):
        keep = occupied[b0:b1]
        if not keep.any():
            continue
        rows = binning.order[binning.starts[b0] : binning.starts[b1]]
        if not keep.all():
            rows = rows[np.repeat(keep, counts[b0:b1])]
        moments = _block_moments if len(rows) <= _CHUNK else _large_bin_moments
        block_c2, block_t = moments(traj, rows, counts[b0:b1][keep], pairs)
        c2.append(block_c2)
        t.append(block_t)
    keys = np.stack(np.unravel_index(binning.flat[occupied], grid.shape), axis=1)
    return BinMoments(keys, counts[occupied], np.concatenate(c2), np.concatenate(t))


def _block_moments(traj, rows, counts, pairs):
    """The (c2, t) stacks of a block of whole bins, rows listing their
    samples bin after bin, counts[b] of them in bin b.  One gather of the
    velocities; then per-bin sums by np.add.reduceat of the velocities, of
    the pair products dv_i dv_j (i <= j) for c2, and of the same products
    times q = dv^T c2^+ dv for t."""
    at = np.cumsum(counts) - counts  # each bin's first row in the block
    dv = _velocities(traj, rows)
    dv -= np.repeat(np.add.reduceat(dv, at) / counts[:, None], counts, axis=0)
    prod = _pair_products(dv, pairs)
    del dv
    c2 = _unpack(np.add.reduceat(prod, at) / counts[:, None], pairs)
    coefficients = np.repeat(_q_coefficients(c2, pairs), counts, axis=0)
    prod *= np.einsum("nk,nk->n", prod, coefficients)[:, None]  # times q
    return c2, _unpack(np.add.reduceat(prod, at) / counts[:, None], pairs)


def _large_bin_moments(traj, rows, counts, pairs):
    """The (c2, t) stacks, of one matrix each, of one bin of more than
    _CHUNK samples: each sum is taken over _CHUNK-row pieces in turn (the
    mean, then c2, then t), each piece's velocities gathered afresh, so no
    temporary holds more than _CHUNK rows."""
    pieces = [rows[lo : lo + _CHUNK] for lo in range(0, len(rows), _CHUNK)]
    mean = sum(np.add.reduce(_velocities(traj, p)) for p in pieces) / counts[0]

    def products():
        for p in pieces:
            yield _pair_products(_velocities(traj, p) - mean, pairs)

    c2 = _unpack(sum(np.add.reduce(prod) for prod in products())[None] / counts[0], pairs)
    coefficients = _q_coefficients(c2, pairs)[0]
    t = sum(
        np.add.reduce(prod * np.einsum("nk,k->n", prod, coefficients)[:, None])
        for prod in products()
    )
    return c2, _unpack(t[None] / counts[0], pairs)


def _pair_products(dv: np.ndarray, pairs) -> np.ndarray:
    """dv_i dv_j for each pair (i, j) of pairs, one column per pair."""
    i, j = pairs
    prod = dv[:, i]
    prod *= dv[:, j]
    return prod


def _unpack(sums: np.ndarray, pairs) -> np.ndarray:
    """The (B, N, N) symmetric stack whose (i, j) and (j, i) entries are
    column k of sums, (i, j) the k-th pair of pairs."""
    n = pairs[0][-1] + 1
    out = np.empty((len(sums), n, n))
    out[:, pairs[0], pairs[1]] = sums
    out[:, pairs[1], pairs[0]] = sums
    return out


def _q_coefficients(c2: np.ndarray, pairs) -> np.ndarray:
    """The (B, K) coefficients of q = dv^T c2^+ dv on the K pair products
    of pairs: p_ii for a pair (i, i), p_ij + p_ji for i < j, p = pinv(c2).

    pinv, not inv: a bin of equal velocities (c2 = 0) is still stored,
    and the frame solve rejects it.  The pinv is np.linalg.pinv's with
    hermitian=True, eigenvalues at most 1e-15 of the largest magnitude
    dropped, but from one stacked eigh without its sorting steps, which
    cost more than the solve on stacks of small matrices."""
    i, j = pairs
    w, u = np.linalg.eigh(c2)
    kept = np.abs(w) > 1e-15 * np.abs(w).max(axis=1, keepdims=True)
    p = (u * np.divide(1.0, w, out=np.zeros_like(w), where=kept)[:, None, :]) @ u.transpose(0, 2, 1)
    coefficients = p[:, i, j] + p[:, j, i]
    coefficients[:, i == j] /= 2  # p_ii + p_ii halved: exact
    return coefficients
