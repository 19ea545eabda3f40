"""Core domain types: trajectories, grids, moments, frames and weights, and
the exact assignment that fixes their residual gauge, a signed permutation
held as a (perm, signs) pair of arrays.

All types are immutable after construction and safe to share across workers.
Weights are dimensionless: rows of a local frame matrix carry inverse-velocity
scale, so multiplying them into a velocity cancels the units.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands have incompatible channel counts."""


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled multichannel measurement time series.

    samples has shape (n, N); dt is the sample interval in seconds.
    """

    samples: np.ndarray
    dt: float
    channel_names: tuple[str, ...] = ()

    def __post_init__(self):
        samples = _as_float_array(self.samples, "samples")
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2:
            raise ValueError("samples must be a (n_samples, n_channels) array")
        if samples.shape[0] < 1:
            raise ValueError("need at least 1 sample")
        if samples.shape[1] < 1:
            raise ValueError("need at least 1 channel")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        names = tuple(self.channel_names) or tuple(
            f"ch{i + 1}" for i in range(samples.shape[1])
        )
        if len(names) != samples.shape[1]:
            raise ValueError("channel_names length does not match sample dimension")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channel_names", names)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt

    def channel(self, i: int) -> np.ndarray:
        return self.samples[:, i]


@dataclass(frozen=True)
class VelocitySeries:
    """Per-sample velocity estimates aligned index-for-index with a Trajectory.

    Boundary samples that the difference scheme cannot cover are masked invalid
    and excluded from every downstream statistic.
    """

    values: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.valid_mask, dtype=bool)
        if values.ndim != 2:
            raise ValueError("values must be (n_samples, n_channels)")
        if mask.shape != (values.shape[0],):
            raise ValueError("valid_mask must be one flag per sample")
        if np.any(mask & ~np.isfinite(values).all(axis=1)):
            raise ValueError("valid velocity samples must be finite")
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid_mask", mask)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class BinGrid:
    """Axis-aligned equal-width partition of measurement space.

    edges: one strictly increasing edge array per axis, spanning the data
    range; the last bin includes its upper edge.  A bin is occupied when it
    holds at least min_count samples with a valid velocity.  The grid holds
    no samples: bin counts live with the moments estimated from them.
    """

    edges: tuple[np.ndarray, ...]
    min_count: int

    def __post_init__(self):
        edges = tuple(np.asarray(e, dtype=float) for e in self.edges)
        for e in edges:
            if e.ndim != 1 or len(e) < 2 or not np.all(np.diff(e) > 0):
                raise ValueError("each axis needs >= 2 strictly increasing edges")
            e.setflags(write=False)
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        object.__setattr__(self, "edges", edges)

    @property
    def dim(self) -> int:
        return len(self.edges)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(e) - 1 for e in self.edges)

    def flat_index(self, points: np.ndarray) -> np.ndarray:
        """Row-major flat bin index of each point, or -1 outside the grid.

        Lower bins are half-open; a point exactly on the top edge lands in
        the last bin.  Built axis by axis and in place, so it holds O(n)
        numbers: the index itself, one axis's bin and a contiguous copy of
        that axis's column, on which the comparisons and the search run
        faster than on a strided column.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError("point dimension does not match grid")
        flat = np.zeros(len(pts), dtype=np.int64)
        inside = np.ones(len(pts), dtype=bool)
        for e, x in zip(self.edges, pts.T):
            x = np.ascontiguousarray(x)
            inside &= x >= e[0]
            inside &= x <= e[-1]
            # a bin is the count of inner edges at or below the point, so
            # the inclusive top edge falls in the last bin
            flat *= len(e) - 1
            flat += np.searchsorted(e[1:-1], x, side="right")
        flat[~inside] = -1
        return flat

    def step_sizes(self) -> np.ndarray:
        return np.array([e[1] - e[0] for e in self.edges])


@dataclass(frozen=True)
class Binning:
    """The samples of an n_samples-long trajectory that have a valid
    velocity and lie inside grid, grouped by bin: the bin of flat index
    flat[b] (row-major, ascending in b) holds the samples
    order[starts[b]:starts[b + 1]], ascending.  Every listed bin holds at
    least one sample, whether or not it reaches the grid's min_count.
    """

    grid: BinGrid
    n_samples: int
    order: np.ndarray
    flat: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        for a in (self.order, self.flat, self.starts):
            a.setflags(write=False)

    def groups(self):
        """(flat index, sample rows) of each listed bin, in ascending bin
        order; the rows are views of order."""
        bounds = self.starts.tolist()
        return ((f, self.order[lo:hi]) for f, lo, hi in zip(self.flat.tolist(), bounds, bounds[1:]))


@dataclass(frozen=True)
class BinMoments:
    """Velocity statistics of B occupied bins, one row per bin: its grid
    index keys (B, N), valid-sample count (B,), centered second moment c2
    (B, N, N) and contracted fourth moment t = E[(dv^T c2^-1 dv) dv dv^T]
    (B, N, N), dv = v - the bin's mean, which is not kept.
    """

    keys: np.ndarray
    count: np.ndarray
    c2: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        keys = np.asarray(self.keys, dtype=np.int64)
        count = np.asarray(self.count, dtype=np.int64)
        c2 = _as_float_array(self.c2, "c2")
        t = _as_float_array(self.t, "t")
        if keys.ndim != 2 or count.shape != keys.shape[:1] or not (
            c2.shape == t.shape == keys.shape + keys.shape[1:]
        ):
            raise ValueError("moment shapes inconsistent with dimension")
        uniq, seen = np.unique(keys, axis=0, return_counts=True)
        if np.any(seen > 1):
            raise ValueError(f"bin {tuple(uniq[seen > 1][0].tolist())} has more than one row")
        for name, a in zip(("keys", "count", "c2", "t"), (keys, count, c2, t)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.keys)


class LocalFrame(NamedTuple):
    """Per-bin matrix m whitening c2 and diagonalizing the contracted fourth
    moment; v holds the columns of m^-1 (the local basis vectors); d is the
    diagnostic diagonal, stored descending.  Holds its arrays as given: the
    FrameField built from it checks them.
    """

    m: np.ndarray
    v: np.ndarray
    d: np.ndarray
    degenerate_flag: bool = False


def _stack(keys: list, parts: tuple, shape: tuple[int, ...], name: str) -> np.ndarray:
    """The parts, one per bin of keys, as one read-only (B, *shape) array.
    The ValueError for a part of another shape, or one not finite, names
    its bin."""
    for key, p in zip(keys, parts):
        if np.shape(p) != shape:
            raise ValueError(f"frame bin {key}: {name} has shape {np.shape(p)}, expected {shape}")
    a = np.array(parts, dtype=float)
    bad = np.flatnonzero(~np.isfinite(a.reshape(len(a), -1)).all(axis=1))
    if len(bad):
        raise ValueError(f"frame bin {keys[bad[0]]}: {name} contains non-finite values")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FrameField:
    """Globally sign/permutation-consistent frames over the occupied bins of a
    grid.  Disconnected occupancy components are aligned independently;
    component_ids records which component each bin belongs to.

    The frames are checked once and stacked in the mapping's order: row i of
    keys (B, N), m, v (B, N, N) and d (B, N) is the i-th bin of frames, and
    frames maps each bin to a LocalFrame of views of its row.  All of them
    are read-only.
    """

    grid: BinGrid
    frames: Mapping[tuple[int, ...], LocalFrame]
    component_ids: Mapping[tuple[int, ...], int] = field(default_factory=dict)
    keys: np.ndarray = field(init=False)
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    d: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.frames:
            raise ValueError("frame field has no occupied bins")
        keys, (m, v, d, flags) = list(self.frames), zip(*self.frames.values())
        n, shape = self.grid.dim, self.grid.shape
        for key in keys:
            if len(key) != n:
                raise ValueError(f"frame bin {key}: key length {len(key)}, grid dimension {n}")
        idx = np.array(keys, dtype=np.int64)
        idx.setflags(write=False)
        outside = np.flatnonzero(np.any((idx < 0) | (idx >= shape), axis=1))
        if len(outside):
            raise ValueError(f"frame bin {keys[outside[0]]}: outside the grid of shape {shape}")
        m, v, d = (
            _stack(keys, m, (n, n), "m"), _stack(keys, v, (n, n), "v"), _stack(keys, d, (n,), "d")
        )
        frames = dict(zip(keys, map(LocalFrame, m, v, d, flags)))
        for name, value in zip(
            ("keys", "m", "v", "d", "frames", "component_ids"),
            (idx, m, v, d, frames, dict(self.component_ids)),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class WeightSeries:
    """The inner time series: dimensionless per-sample weights.

    fallback_mask marks samples served by a neighboring occupied bin instead
    of their own.
    """

    values: np.ndarray
    valid_mask: np.ndarray
    dt: float = 1.0
    fallback_mask: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.valid_mask, dtype=bool)
        if values.ndim != 2:
            raise ValueError("values must be (n_samples, n_channels)")
        if mask.shape != (values.shape[0],):
            raise ValueError("valid_mask must be one flag per sample")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if np.any(mask & ~np.isfinite(values).all(axis=1)):
            raise ValueError("valid weights must be finite")
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "valid_mask", mask)
        if self.fallback_mask is not None:
            fb = np.asarray(self.fallback_mask, dtype=bool)
            fb.setflags(write=False)
            object.__setattr__(self, "fallback_mask", fb)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]


# candidate entries (matrices x column sets x last columns) per block of the
# assignment program; bounds its working set at large N
_DP_BLOCK = 1 << 16


@functools.lru_cache(maxsize=None)
def _assignment_tables(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each row k: each column set of size k + 1 (in ascending bitmask
    order) as its columns, and for each of those columns the index of the
    set without it among the sets of size k.  Read-only: every caller
    shares them."""
    sets = [[s for s in range(1 << n) if s.bit_count() == k] for k in range(n + 1)]
    index = {s: i for level in sets for i, s in enumerate(level)}
    tables = []
    for level in sets[1:]:
        cols = np.array([[c for c in range(n) if s >> c & 1] for s in level])
        parents = np.array([[index[s ^ 1 << c] for c in cs] for s, cs in zip(level, cols.tolist())])
        cols.setflags(write=False)
        parents.setflags(write=False)
        tables.append((cols, parents))
    return tables


def best_signed_assignments(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix score of an (E, N, N) stack, the signed permutation
    maximizing sum_j |score[j, perm[j]]|, each sign taken from the picked
    entry (+1 at zero), as perms and signs, both (E, N).  Applied to the
    rows of an (n, N) array w it gives w[:, perm] * signs.  Exact at every
    N; pass score[None] for one matrix.

    One dynamic program over the set of columns taken by rows 0..k-1, run
    on every matrix at once, O(N 2^N) per matrix.  A set's partial sum runs
    left to right, and of equal sums it keeps the lexicographically smaller
    prefix (ranked among the prefixes of the same length), so each pick is
    the first optimum in itertools.permutations order.  A tie that only
    rounding makes (two prefixes of unequal sums whose completions round to
    one total) goes to the prefix of the larger partial sum.  The matrices go
    in blocks of about _DP_BLOCK candidate entries.
    """
    scores = np.asarray(scores, dtype=float)
    e, n = scores.shape[:2]
    tables = _assignment_tables(n)
    perms = np.empty((e, n), dtype=np.int64)
    step = max(1, _DP_BLOCK // (n << (n - 1)))
    for lo in range(0, e, step):
        absr = np.abs(scores[lo : lo + step])
        total = np.zeros((len(absr), 1))
        rank = np.zeros((len(absr), 1), dtype=np.int64)
        picks = []
        for k, (cols, parents) in enumerate(tables):
            cand = total[:, parents] + absr[:, k, cols]
            total = cand.max(axis=2)
            ranks = np.where(cand == total[..., None], rank[:, parents], 1 << n)
            pick = ranks.argmin(axis=2)
            picks.append(pick)
            if k + 1 < n:
                # rank the kept prefixes, (prefix rank, last column), for row k + 1
                key = ranks.min(axis=2) * n + cols[np.arange(len(cols)), pick]
                rank = np.argsort(np.argsort(key, axis=1), axis=1)
        at = np.zeros(len(absr), dtype=np.int64)  # the full set, then each parent
        rows = np.arange(len(absr))
        for k in reversed(range(n)):
            cols, parents = tables[k]
            pick = picks[k][rows, at]
            perms[lo : lo + step, k] = cols[at, pick]
            at = parents[at, pick]
    picked = scores[np.arange(e)[:, None], np.arange(n), perms]
    return perms, np.where(picked >= 0, 1, -1)
