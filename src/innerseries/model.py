"""Core domain types: trajectories, grids, moments, frames, weights, and the
signed permutation that describes their residual gauge freedom.

All types are immutable after construction and safe to share across workers.
Weights are dimensionless: rows of a local frame matrix carry inverse-velocity
scale, so multiplying them into a velocity cancels the units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

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

    def center(self, idx: tuple[int, ...]) -> np.ndarray:
        return np.array(
            [0.5 * (self.edges[a][i] + self.edges[a][i + 1]) for a, i in enumerate(idx)]
        )

    def flat_index(self, points: np.ndarray) -> np.ndarray:
        """Row-major flat bin index of each point, or -1 outside the grid.

        Lower bins are half-open; a point exactly on the top edge lands in
        the last bin.  Built axis by axis, so it holds O(n) integers.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError("point dimension does not match grid")
        flat = np.zeros(len(pts), dtype=np.int64)
        inside = np.ones(len(pts), dtype=bool)
        for e, x in zip(self.edges, pts.T):
            inside &= (x >= e[0]) & (x <= e[-1])
            idx = np.searchsorted(e, x, side="right") - 1
            # the top edge is inclusive: clamp it into the last bin
            flat = flat * (len(e) - 1) + np.minimum(idx, len(e) - 2)
        return np.where(inside, flat, -1)

    def step_sizes(self) -> np.ndarray:
        return np.array([e[1] - e[0] for e in self.edges])


@dataclass(frozen=True)
class LocalMoments:
    """Per-bin velocity statistics: centered second moment c2 and the
    contracted fourth moment t = E[(dv^T c2^-1 dv) dv dv^T], dv = v - mean.
    The mean only centers them and is not kept.
    """

    count: int
    c2: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        c2 = _as_float_array(self.c2, "c2")
        t = _as_float_array(self.t, "t")
        if c2.ndim != 2 or c2.shape[0] != c2.shape[1] or t.shape != c2.shape:
            raise ValueError("moment shapes inconsistent with dimension")
        for a in (c2, t):
            a.setflags(write=False)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "t", t)

    @property
    def dim(self) -> int:
        return self.c2.shape[0]


@dataclass(frozen=True)
class LocalFrame:
    """Per-bin matrix m whitening c2 and diagonalizing the contracted fourth
    moment; v holds the columns of m^-1 (the local basis vectors); d is the
    diagnostic diagonal, stored descending.
    """

    m: np.ndarray
    v: np.ndarray
    d: np.ndarray
    degenerate_flag: bool = False

    def __post_init__(self):
        m = _as_float_array(self.m, "m")
        v = _as_float_array(self.v, "v")
        d = _as_float_array(self.d, "d")
        n = m.shape[0]
        if m.shape != (n, n) or v.shape != (n, n) or d.shape != (n,):
            raise ValueError("frame shapes inconsistent")
        for a in (m, v, d):
            a.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "d", d)

    @property
    def dim(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class FrameField:
    """Globally sign/permutation-consistent frames over the occupied bins of a
    grid.  Disconnected occupancy components are aligned independently;
    component_ids records which component each bin belongs to.
    """

    grid: BinGrid
    frames: Mapping[tuple[int, ...], LocalFrame]
    component_ids: Mapping[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "frames", dict(self.frames))
        object.__setattr__(self, "component_ids", dict(self.component_ids))
        if not self.frames:
            raise ValueError("frame field has no occupied bins")

    @property
    def dim(self) -> int:
        return self.grid.dim


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


@dataclass(frozen=True)
class SignedPermutation:
    """Permutation composed with per-channel reflections (0-based).

    Applying p to a vector w gives out[j] = signs[j] * w[perm[j]].
    """

    perm: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        signs = np.asarray(self.signs, dtype=np.int64)
        n = perm.shape[0]
        if sorted(perm.tolist()) != list(range(n)):
            raise ValueError("perm must be a permutation of 0..N-1")
        if signs.shape != (n,) or not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +-1 per channel")
        perm.setflags(write=False)
        signs.setflags(write=False)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    @property
    def dim(self) -> int:
        return self.perm.shape[0]

    def inverse(self) -> "SignedPermutation":
        inv_perm = np.argsort(self.perm)
        return SignedPermutation(inv_perm, self.signs[inv_perm])

    def apply_to_array(self, values: np.ndarray) -> np.ndarray:
        """Apply along the last axis."""
        if values.shape[-1] != self.dim:
            raise DimensionMismatchError("array dimension does not match")
        return values[..., self.perm] * self.signs

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return bool(
            np.all(self.perm == other.perm) and np.all(self.signs == other.signs)
        )


def best_signed_assignment(score: np.ndarray) -> SignedPermutation:
    """Signed permutation p maximizing sum_j |score[j, perm[j]]|, with each
    sign taken from the picked entry (+1 at zero).

    Exact at every N: a dynamic program over the set of columns taken by
    rows 0..k-1, O(N 2^N).  Partial sums run left to right and equal totals
    go to the lexicographically first perm, so the pick is the first
    optimum in itertools.permutations order.
    """
    score = np.asarray(score, dtype=float)
    n = score.shape[0]
    best = {0: (0.0, ())}  # columns taken -> (best partial sum, its perm)
    for row in np.abs(score).tolist():
        nxt: dict[int, tuple[float, tuple[int, ...]]] = {}
        for taken, (total, perm) in best.items():
            for col in range(n):
                if taken >> col & 1:
                    continue
                cand = (total + row[col], perm + (col,))
                key = taken | 1 << col
                old = nxt.get(key)
                if old is None or cand[0] > old[0] or (cand[0] == old[0] and cand[1] < old[1]):
                    nxt[key] = cand
        best = nxt
    perm = np.array(best[(1 << n) - 1][1])
    signs = np.where(score[np.arange(n), perm] >= 0, 1, -1)
    return SignedPermutation(perm, signs)
