"""Solve, canonicalize, and globally align local velocity-moment frames.

The per-bin solve is closed form, in two stages.  Stage 1 whitens the
second-order moment: c2 = E L E^T, W = L^{-1/2} E^T, so W c2 W^T = I.  Stage 2
reads the fourth moment contracted with c2^-1, T = E[(dv^T c2^-1 dv) dv dv^T]
(BinMoments.t, dv the centered velocity), forms the symmetric S = W T W^T,
and eigendecomposes S = O D O^T.  For any M = O^T W the whitening condition
holds, and the M-transformed fourth-order contraction equals O^T S O, so
choosing O's columns as S's eigenvectors makes it diagonal.  The remaining
freedom is exactly a signed permutation of rows (plus arbitrary rotations
inside degenerate eigenspaces of D).

fit_field keeps the bins stacked from their moments (BinMoments) to the
aligned field: it solves every bin at once (solve_frame is the same code on
one bin) and aligns them on arrays; the returned FrameField keeps them as
stacks, in visiting order, and each bin's LocalFrame is a view of its row.
A signed permutation (perm, signs) acts on a stack of frames by gathers
alone: row j of M becomes signs[j] * row perm[j], d follows its row, and
V = M^-1 becomes V[:, perm] * signs, its exact inverse.
"""

from __future__ import annotations

import numpy as np

from .model import (
    BinGrid,
    BinMoments,
    FrameField,
    LocalFrame,
    best_signed_assignments,
)

GAP_TOL = 1e-3  # adjacent d closer than this times max|d|: degenerate
COND_TOL = 1e-10  # smallest accepted eigenvalue ratio of c2


class FrameSolveError(ValueError):
    pass


def _solve_stack(c2: np.ndarray, t: np.ndarray):
    """Stacks of m, v, d and the degenerate flags of the frames of the
    (B, N, N) moments c2 and t, the mask of bins whose c2 passes the COND_TOL
    test, and c2's eigenvalues.  A bin that fails is whitened by its
    eigenvectors alone, so the stack solves without warnings."""
    evals, evecs = np.linalg.eigh(c2)
    ok = (evals[:, 0] > COND_TOL * evals[:, -1]) & (evals[:, -1] > 0)
    w = np.swapaxes(evecs, 1, 2) / np.sqrt(np.where(ok[:, None], evals, 1.0))[:, :, None]
    s = w @ t @ np.swapaxes(w, 1, 2)
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    d_asc, o = np.linalg.eigh(s)
    order = np.argsort(d_asc, axis=1)[:, ::-1]
    d = np.take_along_axis(d_asc, order, axis=1)
    m = np.swapaxes(np.take_along_axis(o, order[:, None, :], axis=2), 1, 2) @ w
    scale = np.maximum(np.abs(d).max(axis=1), np.finfo(float).tiny)
    degenerate = np.any(np.abs(np.diff(d, axis=1)) < GAP_TOL * scale[:, None], axis=1)
    return m, np.linalg.inv(m), d, degenerate, ok, evals


def solve_frame(c2: np.ndarray, t: np.ndarray) -> LocalFrame:
    """Closed-form local frame from one bin's N x N moments c2 and t.

    Returns M with M c2 M^T = I and the M-transformed fourth-order contraction
    diagonal (= diag(d), sorted descending).  degenerate_flag is set when two
    adjacent d values are closer than GAP_TOL * max|d|.
    """
    m, v, d, degenerate, ok, evals = _solve_stack(np.array([c2]), np.array([t]))
    if not ok[0]:
        raise FrameSolveError(
            f"c2 ill-conditioned: eigenvalues {evals[0, 0]:.3e} .. {evals[0, -1]:.3e}"
        )
    return LocalFrame(m[0], v[0], d[0], bool(degenerate[0]))


def frame_residuals(field: FrameField, moments: BinMoments) -> tuple[float, float]:
    """Largest over the field's bins of max |M c2 M^T - I| and of the max
    off-diagonal of the transformed fourth-order contraction, relative to
    the bin's max |d|; each frame against its own bin's moments."""
    row = {k: i for i, k in enumerate(map(tuple, moments.keys.tolist()))}
    rows = [row[k] for k in map(tuple, field.keys.tolist())]
    m = field.m
    mt = np.swapaxes(m, 1, 2)
    white = m @ moments.c2[rows] @ mt - np.eye(m.shape[1])
    off = np.abs(m @ moments.t[rows] @ mt)
    off[:, np.arange(m.shape[1]), np.arange(m.shape[1])] = 0.0
    scale = np.maximum(np.abs(field.d).max(axis=1), np.finfo(float).tiny)
    return float(np.abs(white).max()), float((off.max(axis=(1, 2)) / scale).max())


def _canonical(m: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (perm, signs), each (B, N), that put each frame of the stacks m
    and d in its canonical gauge: each row's largest-magnitude entry (the
    first, of equal magnitudes) made positive, then the rows ordered by
    descending d, ties by lexicographic comparison of the sign-fixed rows.
    Idempotent and constant on signed-permutation orbits."""
    big = np.take_along_axis(m, np.abs(m).argmax(axis=2)[..., None], axis=2)[..., 0]
    flip = np.where(big < 0, -1, 1)
    fixed = m * flip[..., None]
    perm = np.lexsort((*np.moveaxis(fixed[..., ::-1], 2, 0), -d))
    return perm, np.take_along_axis(flip, perm, axis=1)


def _gauge(perm: np.ndarray, signs: np.ndarray, m: np.ndarray, v: np.ndarray, d: np.ndarray):
    """Stacks of frames with the b-th (perm, signs) applied to frame b: row j
    of m becomes signs[j] * row perm[j], d follows its row, v = m^-1 its
    column."""
    rows = np.arange(len(perm))[:, None]
    vt = v.swapaxes(1, 2)
    return (
        m[rows, perm] * signs[..., None],
        (vt[rows, perm] * signs[..., None]).swapaxes(1, 2),
        d[rows, perm],
    )


def align_frame_field(
    grid: BinGrid,
    keys: np.ndarray,
    counts: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    d: np.ndarray,
    degenerate: np.ndarray,
) -> FrameField:
    """Make the frames of B bins sign/permutation consistent across the grid.

    Row i of the stacks is bin keys[i] (B, N), with counts[i] valid samples
    and frame m[i], v[i] = m[i]^-1, d[i], degenerate[i].  Breadth-first over
    the occupied-bin face adjacency starting from the most populated bin;
    each newly visited bin is corrected by the signed permutation minimizing
    ||P M_new M_ref^-1 - I||_F against an already aligned neighbor
    (non-degenerate reference preferred, then the most populated, then the
    smallest key).  Disconnected components are aligned independently and
    tagged with component ids; the frames are in visiting order.

    The search tree comes first, from the keys, counts and flags alone:
    face neighbours differ in the parity of their index sum, so the
    adjacency is bipartite and every aligned neighbour of a bin at depth k
    lies at depth k - 1.  Each bin's reference is its best-ranked neighbour
    there.  Then every component's root is put in its canonical gauge, all
    as one stack, and the bins at each depth k >= 1, of every component,
    are solved with one assignment against their references, which are
    aligned by then.  Each bin is corrected against the same reference as
    in the bin-by-bin search, so the result is that search's.
    """
    b, n = keys.shape
    if not b:
        raise ValueError("no frames to align")
    # each bin's row in the grid padded by one empty bin on every side, so
    # every face neighbour has an entry
    slot = np.full(tuple(s + 2 for s in grid.shape), -1, dtype=np.int64)
    slot[tuple(keys.T + 1)] = np.arange(b)
    # the face offsets axis by axis, the lower neighbour first, plus the padding
    offsets = (np.eye(n, dtype=np.int64)[:, None] * [[-1], [1]]).reshape(2 * n, n) + 1
    flat = np.ravel_multi_index(keys.T, grid.shape)
    # the reference rank: non-degenerate first, then the most populated, then by key
    by_rank = np.lexsort((flat, -counts, degenerate))
    rank = np.empty(b, dtype=np.int64)
    rank[by_rank] = np.arange(b)
    best = np.full(b, b)  # each bin's best reference rank, set at its level
    component = np.full(b, -1)
    depth = np.zeros(b, dtype=np.int64)
    roots, visited = [], []  # visited: the levels' rows, in visiting order
    for root in np.lexsort((flat, -counts)).tolist():
        if component[root] >= 0:
            continue
        component[root] = len(roots)
        roots.append(root)
        level = np.array([root])
        while len(level):
            visited.append(level)
            nbs = slot[tuple((keys[level][:, None] + offsets).transpose(2, 0, 1))]
            new = (nbs >= 0) & (component[nbs] < 0)
            src, dst = level[np.nonzero(new)[0]], nbs[new]
            _, first = np.unique(dst, return_index=True)  # first in, first out
            next_level = dst[np.sort(first)]
            component[next_level] = component[root]
            depth[next_level] = depth[level[0]] + 1
            np.minimum.at(best, dst, rank[src])
            level = next_level
    m, v, d = np.array(m, dtype=float), np.array(v, dtype=float), np.array(d, dtype=float)
    m[roots], v[roots], d[roots] = _gauge(
        *_canonical(m[roots], d[roots]), m[roots], v[roots], d[roots]
    )
    by_depth = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[by_depth], np.arange(1, depth.max() + 2)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        rows = by_depth[lo:hi]
        perms, signs = best_signed_assignments(m[rows] @ v[by_rank[best[rows]]])
        # undo each pick: row j of the frame becomes row inv[j], with its sign
        inv = np.argsort(perms, axis=1)
        m[rows], v[rows], d[rows] = _gauge(
            inv, np.take_along_axis(signs, inv, axis=1), m[rows], v[rows], d[rows]
        )
    order = np.concatenate(visited)
    key_list = list(map(tuple, keys[order].tolist()))
    frames = map(LocalFrame, m[order], v[order], d[order], degenerate[order].tolist())
    return FrameField(
        grid, dict(zip(key_list, frames)), dict(zip(key_list, component[order].tolist()))
    )


def fit_field(grid: BinGrid, moments: BinMoments) -> tuple[FrameField, dict[tuple[int, ...], str]]:
    """Solve every bin's frame, all as one stack, and align them into a field.

    A bin with an ill-conditioned c2 is left out of the field; the second
    value maps each such bin to the reason solve_frame gives.  When every
    bin is left out, the ValueError names their number and the first bin's
    reason.
    """
    m, v, d, degenerate, ok, _ = _solve_stack(moments.c2, moments.t)
    skipped = {}
    for key, c2, t in zip(moments.keys[~ok].tolist(), moments.c2[~ok], moments.t[~ok]):
        try:
            solve_frame(c2, t)  # raises, worded as for one bin
        except FrameSolveError as err:
            skipped[tuple(key)] = str(err)
    if skipped and not ok.any():
        key, reason = next(iter(skipped.items()))
        raise ValueError(
            f"no frames to align: all {len(skipped)} bins skipped; {key}: {reason}"
        )
    field = align_frame_field(
        grid, moments.keys[ok], moments.count[ok], m[ok], v[ok], d[ok], degenerate[ok]
    )
    return field, skipped
