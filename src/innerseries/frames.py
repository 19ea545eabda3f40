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
one bin) and aligns them on arrays; only the returned FrameField holds
LocalFrames.  A signed permutation acts on frames by gathers alone: row j of
M becomes signs[j] * row perm[j], d follows its row, and V = M^-1 becomes
V[:, perm] * signs, its exact inverse.
"""

from __future__ import annotations

import numpy as np

from .model import (
    BinGrid,
    BinMoments,
    FrameField,
    LocalFrame,
    SignedPermutation,
    best_signed_assignments,
)

DEFAULT_GAP_TOL = 1e-3
COND_TOL = 1e-10  # smallest accepted eigenvalue ratio of c2


class FrameSolveError(ValueError):
    pass


def _solve_stack(c2: np.ndarray, t: np.ndarray, gap_tol: float):
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
    degenerate = np.any(np.abs(np.diff(d, axis=1)) < gap_tol * scale[:, None], axis=1)
    return m, np.linalg.inv(m), d, degenerate, ok, evals


def solve_frame(c2: np.ndarray, t: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL) -> LocalFrame:
    """Closed-form local frame from one bin's N x N moments c2 and t.

    Returns M with M c2 M^T = I and the M-transformed fourth-order contraction
    diagonal (= diag(d), sorted descending).  degenerate_flag is set when two
    adjacent d values are closer than gap_tol * max|d|.
    """
    m, v, d, degenerate, ok, evals = _solve_stack(np.array([c2]), np.array([t]), gap_tol)
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
    rows = [row[k] for k in field.frames]
    frames = list(field.frames.values())
    m = np.array([f.m for f in frames])
    mt = np.swapaxes(m, 1, 2)
    white = m @ moments.c2[rows] @ mt - np.eye(m.shape[1])
    off = np.abs(m @ moments.t[rows] @ mt)
    off[:, np.arange(m.shape[1]), np.arange(m.shape[1])] = 0.0
    scale = np.maximum(np.abs([f.d for f in frames]).max(axis=1), np.finfo(float).tiny)
    return float(np.abs(white).max()), float((off.max(axis=(1, 2)) / scale).max())


def _permute_frames(p: SignedPermutation, m, v, d):
    """A frame's arrays, or stacks of them and of p: row j of m becomes
    signs[j] * row perm[j], d follows its row, v = m^-1 its column."""
    return (
        np.swapaxes(p.apply_to_array(np.swapaxes(m, -1, -2)), -1, -2),
        p.apply_to_array(v),
        np.take_along_axis(d, p.perm, axis=-1),
    )


def apply_signed_permutation_to_frame(
    p: SignedPermutation, frame: LocalFrame
) -> LocalFrame:
    """Row-relabel/reflect a frame; d follows its row, v its column."""
    return LocalFrame(*_permute_frames(p, frame.m, frame.v, frame.d), frame.degenerate_flag)


def canonicalize_frame(frame: LocalFrame) -> LocalFrame:
    """Fix the signed-permutation gauge: rows ordered by descending d (ties by
    lexicographic sign-fixed row comparison), each row's largest-magnitude
    entry made positive.  Idempotent and constant on signed-permutation
    orbits."""
    rows = np.arange(frame.dim)
    signs = np.where(frame.m[rows, np.argmax(np.abs(frame.m), axis=1)] < 0, -1, 1)
    m = frame.m * signs[:, None]
    order = sorted(rows, key=lambda i: (-frame.d[i], tuple(m[i])))
    return apply_signed_permutation_to_frame(
        SignedPermutation(order, signs[order]), frame
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

    The search runs one level at a time, on arrays.  Face neighbours differ
    in the parity of their index sum, so the adjacency is bipartite and
    every aligned neighbour of a bin at depth d lies at depth d - 1: a
    level's references are all fixed before it starts.  Its bins are found
    in first-in first-out order, and its assignments are solved and applied
    as one stack, so the result is that of the bin-by-bin search.
    """
    b, n = keys.shape
    if not b:
        raise ValueError("no frames to align")
    m, v, d = np.array(m, dtype=float), np.array(v, dtype=float), np.array(d, dtype=float)
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
    visited = []  # the levels' rows, in visiting order
    comp = 0
    for root in np.lexsort((flat, -counts)).tolist():
        if component[root] >= 0:
            continue
        component[root] = comp
        c = canonicalize_frame(LocalFrame(m[root], v[root], d[root], bool(degenerate[root])))
        m[root], v[root], d[root] = c.m, c.v, c.d
        level = np.array([root])
        while True:
            visited.append(level)
            nbs = slot[tuple(np.moveaxis(keys[level][:, None] + offsets, -1, 0))]
            new = (nbs >= 0) & (component[nbs] < 0)
            src, dst = np.broadcast_to(level[:, None], nbs.shape)[new], nbs[new]
            _, first = np.unique(dst, return_index=True)  # first in, first out
            level = dst[np.sort(first)]
            if not len(level):
                break
            component[level] = comp
            np.minimum.at(best, dst, rank[src])
            perms, signs = best_signed_assignments(m[level] @ v[by_rank[best[level]]])
            # undo each pick: row j of the frame becomes row inv[j], with its sign
            inv = np.argsort(perms, axis=1)
            undo = SignedPermutation(inv, np.take_along_axis(signs, inv, axis=1))
            m[level], v[level], d[level] = _permute_frames(undo, m[level], v[level], d[level])
        comp += 1
    order = np.concatenate(visited).tolist()
    key_list = keys.tolist()
    frames = {tuple(key_list[i]): LocalFrame(m[i], v[i], d[i], bool(degenerate[i])) for i in order}
    return FrameField(grid, frames, {tuple(key_list[i]): int(component[i]) for i in order})


def fit_field(
    grid: BinGrid, moments: BinMoments, gap_tol: float = DEFAULT_GAP_TOL
) -> tuple[FrameField, dict[tuple[int, ...], str]]:
    """Solve every bin's frame, all as one stack, and align them into a field.

    A bin with an ill-conditioned c2 is left out of the field; the second
    value maps each such bin to the reason solve_frame gives.  When every
    bin is left out, the ValueError names their number and the first bin's
    reason.
    """
    m, v, d, degenerate, ok, _ = _solve_stack(moments.c2, moments.t, gap_tol)
    skipped = {}
    for key, c2, t in zip(moments.keys[~ok].tolist(), moments.c2[~ok], moments.t[~ok]):
        try:
            solve_frame(c2, t, gap_tol)  # raises, worded as for one bin
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
