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
one bin) and aligns them with one assignment over every search-tree edge;
the returned FrameField is built from the stacks, in visiting order, with
no m^-1.  A signed permutation (perm, signs) acts on a stack of frames by
gathers alone (_gauge).
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
    """Stacks of m, d and the degenerate flags of the frames of the
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
    return m, d, degenerate, ok, evals


def _ill_conditioned(evals: np.ndarray) -> str:
    """Why a bin whose c2 has the ascending eigenvalues evals is skipped."""
    return f"c2 ill-conditioned: eigenvalues {evals[0]:.3e} .. {evals[-1]:.3e}"


def solve_frame(c2: np.ndarray, t: np.ndarray) -> LocalFrame:
    """Closed-form local frame from one bin's N x N moments c2 and t.

    Returns M with M c2 M^T = I and the M-transformed fourth-order contraction
    diagonal (= diag(d), sorted descending).  degenerate_flag is set when two
    adjacent d values are closer than GAP_TOL * max|d|.
    """
    m, d, degenerate, ok, evals = _solve_stack(np.array([c2]), np.array([t]))
    if not ok[0]:
        raise FrameSolveError(_ill_conditioned(evals[0]))
    return LocalFrame(m[0], np.linalg.inv(m[0]), d[0], bool(degenerate[0]))


def frame_residuals(field: FrameField, moments: BinMoments) -> tuple[float, float]:
    """Largest over the field's bins of max |M c2 M^T - I| and of the max
    off-diagonal of the transformed fourth-order contraction, relative to
    the bin's max |d|; each frame against its own bin's moments, found by
    flat index.  A field bin without a moments row is a ValueError."""
    flat, want = (np.ravel_multi_index(k.T, field.grid.shape) for k in (moments.keys, field.keys))
    missing = np.flatnonzero(~np.isin(want, flat))
    if len(missing):
        raise ValueError(f"field bin {tuple(field.keys[missing[0]].tolist())}: no moments row")
    order = np.argsort(flat)
    rows = order[np.searchsorted(flat, want, sorter=order)]
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


def _gauge(perm: np.ndarray, signs: np.ndarray, m: np.ndarray, d: np.ndarray):
    """Stacks of frames with the b-th (perm, signs) applied to frame b: row j
    of m becomes signs[j] * row perm[j], and d follows its row."""
    rows = np.arange(len(perm))[:, None]
    return m[rows, perm] * signs[..., None], d[rows, perm]


def _forest(grid: BinGrid, keys: np.ndarray, counts: np.ndarray, degenerate: np.ndarray):
    """The search of align_frame_field, which needs no frame: the visiting
    order, each bin's depth below its component's root and its reference (B
    at a root).  Face neighbours differ in the parity of their index sum, so
    the aligned neighbours of a bin at depth k are its neighbours at depth
    k - 1, and the reference is the best-ranked of them."""
    b, n = keys.shape
    # each bin's row in the grid padded by an empty bin a side: every neighbour has one
    slot = np.full(tuple(s + 2 for s in grid.shape), -1, dtype=np.int64)
    slot[tuple(keys.T + 1)] = np.arange(b)
    # the face offsets axis by axis, the lower neighbour first, plus the padding
    offsets = (np.eye(n, dtype=np.int64)[:, None] * [[-1], [1]]).reshape(2 * n, n) + 1
    nbs = slot[tuple((keys[:, None] + offsets).transpose(2, 0, 1))]  # (B, 2N), -1: none
    flat = np.ravel_multi_index(keys.T, grid.shape)
    depth, order, neighbours = [-1] * b, [], nbs.tolist()
    for root in np.lexsort((flat, -counts)).tolist():
        if depth[root] < 0:
            depth[root], queue = 0, [root]
            for i in queue:  # the list grows as it is read: first in, first out
                for j in neighbours[i]:
                    if j >= 0 and depth[j] < 0:
                        depth[j] = depth[i] + 1
                        queue.append(j)
            order += queue
    depth = np.array(depth)
    by_rank = np.lexsort((flat, -counts, degenerate))
    up = np.where((nbs >= 0) & (depth[nbs] == depth[:, None] - 1), by_rank.argsort()[nbs], b)
    return np.array(order), depth, np.append(by_rank, b)[up.min(axis=1)]


def align_frame_field(
    grid: BinGrid,
    keys: np.ndarray,
    counts: np.ndarray,
    m: np.ndarray,
    d: np.ndarray,
    degenerate: np.ndarray,
) -> FrameField:
    """Make the frames of B bins sign/permutation consistent across the grid.

    Row i of the stacks is bin keys[i] (B, N), with counts[i] valid samples
    and frame m[i], d[i], degenerate[i].  Breadth-first over the occupied-bin
    face adjacency from the most populated bin (the smallest key of equal
    counts), each newly visited bin is corrected by the signed permutation P
    minimizing ||P M_new M_ref^-1 - I||_F against an aligned neighbour
    (non-degenerate preferred, then the most populated, then the smallest
    key).  Disconnected components are aligned independently and tagged with
    component ids; the frames are in visiting order.

    One assignment solves every bin below a root against its unaligned
    reference (_forest), each pick's inverse being its correction R_b (a
    root's is the canonical gauge), and Q_b = Q_ref(b) R_b is composed up the
    tree by pointer doubling.  Aligning the reference only signed-permutes
    the score's columns, and the assignment sums the same entries in the same
    order, so the field is the bin-by-bin search's bit for bit unless two
    assignments tie exactly or an optimal pick is an exact zero.
    """
    b, n = keys.shape
    if not b:
        raise ValueError("no frames to align")
    order, depth, ref = _forest(grid, keys, counts, degenerate)
    roots, child = np.flatnonzero(depth == 0), np.flatnonzero(depth)
    # each bin's correction, and a last row b, the identity, above every root
    perm, signs = np.tile(np.arange(n), (b + 1, 1)), np.ones((b + 1, n), dtype=np.int64)
    perm[roots], signs[roots] = _canonical(m[roots], d[roots])
    perm[child], signs[child] = best_signed_assignments(m[child] @ np.linalg.inv(m)[ref[child]])
    perm[child] = np.argsort(perm[child], axis=1)  # R_b, the pick's inverse
    signs[child] = np.take_along_axis(signs[child], perm[child], axis=1)
    above = np.append(ref, b)
    # after k passes, row i holds the product of the corrections of bin i and
    # its 2^k - 1 nearest ancestors, and above[i] is the row 2^k links up
    for _ in range(int(depth.max()).bit_length()):
        outer = perm[above]
        perm = np.take_along_axis(perm, outer, axis=1)
        signs = signs[above] * np.take_along_axis(signs, outer, axis=1)
        above = above[above]
    m, d = _gauge(perm[order], signs[order], m[order], d[order])
    component = np.cumsum(depth[order] == 0) - 1  # one component per root, in visiting order
    return FrameField.from_stacks(grid, keys[order], m, d, degenerate[order], component)


def fit_field(grid: BinGrid, moments: BinMoments) -> tuple[FrameField, dict[tuple[int, ...], str]]:
    """Solve every bin's frame, all as one stack, and align them into a field.

    A bin with an ill-conditioned c2 is left out of the field; the second
    value maps each such bin to the reason, worded from the stack's c2
    eigenvalues as solve_frame words its error.  When every
    bin is left out, the ValueError names their number and the first bin's
    reason.
    """
    m, d, degenerate, ok, evals = _solve_stack(moments.c2, moments.t)
    skipped = {
        tuple(key): _ill_conditioned(e) for key, e in zip(moments.keys[~ok].tolist(), evals[~ok])
    }
    if skipped and not ok.any():
        key, reason = next(iter(skipped.items()))
        raise ValueError(
            f"no frames to align: all {len(skipped)} bins skipped; {key}: {reason}"
        )
    field = align_frame_field(
        grid, moments.keys[ok], moments.count[ok], m[ok], d[ok], degenerate[ok]
    )
    return field, skipped
