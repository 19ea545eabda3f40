"""Core domain types: trajectories, grids, moments, frames and weights, and
the exact assignment that fixes their residual gauge, a signed permutation
held as a (perm, signs) pair of arrays.

All types are immutable after construction.
Weights are dimensionless: rows of a local frame matrix carry inverse-velocity
scale, so multiplying them into a velocity cancels the units.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
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
        t = np.arange(self.n_samples, dtype=float)
        t *= self.dt
        return t

    def channel(self, i: int) -> np.ndarray:
        return self.samples[:, i]


# An axis of at most this many inner edges is binned by comparisons, one
# pass per inner edge, a longer one by np.searchsorted.  On 500k-point
# columns a comparison pass took about 0.7 ms, and a search 11-16 ms on a
# walk column and 12-27 ms on uniform random data, at up to 16 bins; the
# comparisons won up to 16-24 bins on the walk and about 48 on random data.
_COMPARE_EDGES = 10


@dataclass(frozen=True)
class BinGrid:
    """Axis-aligned equal-width partition of measurement space.

    edges: one strictly increasing edge array per axis, spanning the data
    range; the last bin includes its upper edge.  A bin is occupied when it
    holds at least min_count binned samples (see Binning).  The grid holds
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
        faster than on a strided column.  An axis of at most _COMPARE_EDGES
        inner edges counts them by comparisons, a longer one by a search.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if (dim := pts.shape[1]) != self.dim:
            raise DimensionMismatchError(f"point dimension {dim}, grid dimension {self.dim}")
        flat = np.zeros(len(pts), dtype=np.int64)
        inside = np.ones(len(pts), dtype=bool)
        for e, x in zip(self.edges, pts.T):
            x = np.ascontiguousarray(x)
            inside &= x >= e[0]
            inside &= x <= e[-1]
            # a bin is the count of inner edges at or below the point, so
            # the inclusive top edge falls in the last bin
            flat *= len(e) - 1
            if len(e) - 2 <= _COMPARE_EDGES:
                for c in e[1:-1]:
                    flat += x >= c
            else:
                flat += np.searchsorted(e[1:-1], x, side="right")
        flat[~inside] = -1
        return flat

    def step_sizes(self) -> np.ndarray:
        return np.array([e[1] - e[0] for e in self.edges])


@dataclass(frozen=True)
class Binning:
    """The samples of an n_samples-long trajectory that lie inside grid,
    less the first and last sample, which have no central difference,
    grouped by bin: the bin of flat index flat[b] (row-major, ascending in
    b) holds the samples order[starts[b]:starts[b + 1]], ascending.  Every
    listed bin holds at least one sample, whether or not it reaches the
    grid's min_count.  A hand-built Binning may list fewer samples, say to
    leave some out of the moments and the weights.
    """

    grid: BinGrid
    n_samples: int
    order: np.ndarray
    flat: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        for a in (self.order, self.flat, self.starts):
            a.setflags(write=False)


def _repeated(keys: np.ndarray) -> tuple[int, ...] | None:
    """The least row that the (B, N) keys hold more than once, or None."""
    ranked = keys[np.lexsort(keys.T[::-1])]  # ascending, the first column leading
    twice = np.flatnonzero((ranked[1:] == ranked[:-1]).all(axis=1))
    return tuple(ranked[twice[0]].tolist()) if len(twice) else None


@dataclass(frozen=True)
class BinMoments:
    """Velocity statistics of B occupied bins, one row per bin: its grid
    index keys (B, N), binned-sample count (B,), centered second moment c2
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
        if keys.ndim != 2 or not keys.shape[1] or count.shape != keys.shape[:1] or not (
            c2.shape == t.shape == keys.shape + keys.shape[1:]
        ):
            raise ValueError("moment shapes inconsistent with dimension")
        if (key := _repeated(keys)) is not None:
            raise ValueError(f"bin {key} has more than one row")
        for name, a in zip(("keys", "count", "c2", "t"), (keys, count, c2, t)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.keys)


class LocalFrame(NamedTuple):
    """One bin's frame, as solve_frame returns it and FrameField.frames views
    it: m whitens c2 and diagonalizes the contracted fourth moment, v = m^-1
    (its columns the local basis vectors) and d is the diagnostic diagonal,
    stored descending.  Holds its arrays as given."""

    m: np.ndarray
    v: np.ndarray
    d: np.ndarray
    degenerate_flag: bool = False


@dataclass(frozen=True, init=False)
class FrameField:
    """Globally sign/permutation-consistent frames over the occupied bins of a
    grid, as read-only stacks: row i of keys (B, N), m (B, N, N), d (B, N),
    degenerate (B,) and component (B,) is one bin, its frame and the
    occupancy component it was aligned in.  No m^-1 is kept.

    from_stacks takes the stacks, FrameField(grid, frames, component_ids)
    the mappings bin -> LocalFrame, in its order, and bin -> component id;
    both check them in _hold.  Those mappings are built on first read.
    """

    grid: BinGrid
    keys: np.ndarray
    m: np.ndarray
    d: np.ndarray
    degenerate: np.ndarray
    component: np.ndarray

    def __init__(self, grid: BinGrid, frames: Mapping, component_ids: Mapping):
        if stray := frames.keys() ^ component_ids.keys():
            key = next(k for k in (*frames, *component_ids) if k in stray)
            why = "no component id" if key in frames else "component id but no frame"
            raise ValueError(f"frame bin {key}: {why}")
        m, _, d, flags = [*zip(*frames.values())] or [()] * 4
        self._hold(grid, list(frames), m, d, flags, list(map(component_ids.__getitem__, frames)))

    @classmethod
    def from_stacks(cls, grid: BinGrid, keys, m, d, degenerate, component) -> FrameField:
        """The field of the stacks, held as given where their dtypes allow."""
        field = cls.__new__(cls)
        field._hold(grid, keys, m, d, degenerate, component)
        return field

    def _hold(self, grid: BinGrid, keys, m, d, degenerate, component) -> None:
        """Check the stacks, arrays or sequences of B rows, each error naming
        the first bad bin, and hold them read-only: keys (B, N) inside grid and
        none twice, m (B, N, N) and d (B, N) finite, degenerate and component."""
        if not (b := len(keys)):
            raise ValueError("frame field has no occupied bins")
        n = grid.dim

        def at(i: int) -> tuple[int, ...]:  # the bin of row i
            return tuple(np.ravel(keys[i]).tolist())

        specs = dict(keys=(keys, np.int64, (n,)), m=(m, float, (n, n)), d=(d, float, (n,)))
        specs.update(degenerate=(degenerate, bool, ()), component=(component, np.int64, ()))
        stacks = {}
        for name, (rows, dtype, want) in specs.items():
            if len(rows) != b:
                raise ValueError(f"frame field: {len(rows)} {name} rows for {b} bins")
            try:
                stacks[name] = a = np.asarray(rows, dtype=dtype)
            except ValueError:  # rows of unequal shapes
                a = None
            if a is None or a.shape[1:] != want:
                i, got = next((i, np.shape(r)) for i, r in enumerate(rows) if np.shape(r) != want)
                raise ValueError(f"frame bin {at(i)}: {name} has shape {got}, expected {want}")
        keys, m, d = stacks["keys"], stacks["m"], stacks["d"]
        outside = ((keys < 0) | (keys >= grid.shape)).any(axis=1)
        for bad, why in (
            (outside, f"outside the grid of shape {grid.shape}"),
            (~np.isfinite(m).all(axis=(1, 2)), "m contains non-finite values"),
            (~np.isfinite(d).all(axis=1), "d contains non-finite values"),
        ):
            if bad.any():
                raise ValueError(f"frame bin {at(bad.argmax())}: {why}")
        if (key := _repeated(keys)) is not None:
            raise ValueError(f"frame bin {key}: listed more than once")
        object.__setattr__(self, "grid", grid)
        for name, a in stacks.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @functools.cached_property
    def frames(self) -> Mapping[tuple[int, ...], LocalFrame]:
        """Each bin -> its LocalFrame of views of its rows; v = m^-1, inverted here."""
        v = np.linalg.inv(self.m)
        v.setflags(write=False)
        frames = map(LocalFrame, self.m, v, self.d, self.degenerate.tolist())
        return MappingProxyType(dict(zip(map(tuple, self.keys.tolist()), frames)))

    @functools.cached_property
    def component_ids(self) -> Mapping[tuple[int, ...], int]:
        """Each bin -> its component id."""
        return MappingProxyType(dict(zip(map(tuple, self.keys.tolist()), self.component.tolist())))


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
        # a row marked invalid need not be finite; the per-row reduction
        # runs only when some value is not
        if not np.isfinite(values).all() and np.any(mask & ~np.isfinite(values).all(axis=1)):
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
