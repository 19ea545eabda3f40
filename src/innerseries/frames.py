"""Solve, canonicalize, and globally align local velocity-moment frames.

The per-bin solve is closed form, in two stages.  Stage 1 whitens the
second-order moment: c2 = E L E^T, W = L^{-1/2} E^T, so W c2 W^T = I.  Stage 2
reads the fourth moment contracted with c2^-1, T = E[(dv^T c2^-1 dv) dv dv^T]
(LocalMoments.t, dv the centered velocity), forms the symmetric S = W T W^T,
and eigendecomposes S = O D O^T.  For any M = O^T W the whitening condition
holds, and the M-transformed fourth-order contraction equals O^T S O, so
choosing O's columns as S's eigenvectors makes it diagonal.  The remaining
freedom is exactly a signed permutation of rows (plus arbitrary rotations
inside degenerate eigenspaces of D).

fit_field solves all bins as one stack (eigh, whiten, eigh, inv, each run
once), and solve_frame is the same code on one bin.  A signed permutation
acts on frames by gathers alone: row j of M becomes signs[j] * row perm[j],
d follows its row, and V = M^-1 becomes V[:, perm] * signs, its exact inverse.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .model import (
    BinGrid,
    FrameField,
    LocalFrame,
    LocalMoments,
    SignedPermutation,
    best_signed_assignments,
)

DEFAULT_GAP_TOL = 1e-3
COND_TOL = 1e-10  # smallest accepted eigenvalue ratio of c2


class FrameSolveError(ValueError):
    pass


def _solve_stack(moments: Sequence[LocalMoments], dim: int, gap_tol: float):
    """Stacks of m, v, d and the degenerate flags of the bins' frames, the
    mask of bins whose c2 passes the COND_TOL test, and c2's eigenvalues.  A
    bin that fails is whitened by its eigenvectors alone, so the stack
    solves without warnings; its m, v and d mean nothing."""
    t = np.array([mom.t for mom in moments]).reshape(-1, dim, dim)
    evals, evecs = np.linalg.eigh(np.array([mom.c2 for mom in moments]).reshape(-1, dim, dim))
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


def solve_frame(moments: LocalMoments, gap_tol: float = DEFAULT_GAP_TOL) -> LocalFrame:
    """Closed-form local frame from one bin's velocity moments.

    Returns M with M c2 M^T = I and the M-transformed fourth-order contraction
    diagonal (= diag(d), sorted descending).  degenerate_flag is set when two
    adjacent d values are closer than gap_tol * max|d|.
    """
    m, v, d, degenerate, ok, evals = _solve_stack([moments], moments.dim, gap_tol)
    if not ok[0]:
        raise FrameSolveError(
            f"c2 ill-conditioned: eigenvalues {evals[0, 0]:.3e} .. {evals[0, -1]:.3e}"
        )
    return LocalFrame(m[0], v[0], d[0], bool(degenerate[0]))


def frame_residuals(
    frames: Sequence[LocalFrame], moments: Sequence[LocalMoments]
) -> tuple[float, float]:
    """Largest over the bins of max |M c2 M^T - I| and of the max
    off-diagonal of the transformed fourth-order contraction, relative to
    the bin's max |d|; frames[i] is solved from moments[i]."""
    m = np.array([f.m for f in frames])
    mt = np.swapaxes(m, 1, 2)
    white = m @ np.array([mo.c2 for mo in moments]) @ mt - np.eye(m.shape[1])
    off = np.abs(m @ np.array([mo.t for mo in moments]) @ mt)
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


def _face_neighbors(idx: tuple[int, ...], shape: tuple[int, ...]):
    for a in range(len(idx)):
        for step in (-1, 1):
            j = idx[a] + step
            if 0 <= j < shape[a]:
                yield idx[:a] + (j,) + idx[a + 1 :]


def align_frame_field(
    grid: BinGrid,
    frames: dict[tuple[int, ...], LocalFrame],
    counts: Mapping[tuple[int, ...], int],
) -> FrameField:
    """Make per-bin frames sign/permutation consistent across the grid.

    Breadth-first over the occupied-bin face adjacency starting from the most
    populated bin; each newly visited bin is corrected by the signed
    permutation minimizing ||P M_new M_ref^-1 - I||_F against an already
    aligned neighbor (non-degenerate reference preferred, then the most
    populated).  Disconnected components are aligned independently and
    tagged with component ids.  counts holds each bin's valid-sample count
    (LocalMoments.count).

    The search runs one level at a time.  Face neighbours differ in the
    parity of their index sum, so the adjacency is bipartite and every
    aligned neighbour of a bin at depth d lies at depth d - 1: a level's
    references are all fixed before it starts.  Its bins are found in
    first-in first-out order, and its assignments are solved and applied as
    one stack (best_signed_assignments, _permute_frames), so the result is
    that of the bin-by-bin search.
    """
    if not frames:
        raise ValueError("no frames to align")
    shape = grid.shape
    slot = {k: i for i, k in enumerate(frames)}
    # the frames as stacks, each bin's overwritten by its aligned frame
    m = np.array([f.m for f in frames.values()])
    v = np.array([f.v for f in frames.values()])
    d = np.array([f.d for f in frames.values()])
    adjacent = {k: [nb for nb in _face_neighbors(k, shape) if nb in frames] for k in frames}
    # the anchor: non-degenerate first, then the most populated
    anchor = {k: (frames[k].degenerate_flag, -counts[k], k) for k in frames}
    aligned: dict[tuple[int, ...], int] = {}  # slot of each aligned bin, in visiting order
    component_ids: dict[tuple[int, ...], int] = {}
    comp = 0
    for root in sorted(frames, key=lambda k: (-counts[k], k)):
        if root in component_ids:
            continue
        component_ids[root] = comp
        c = canonicalize_frame(frames[root])
        i = aligned[root] = slot[root]
        m[i], v[i], d[i] = c.m, c.v, c.d
        level = [root]
        while level:
            nxt = []  # in first-in first-out order
            for cur in level:
                for nb in adjacent[cur]:
                    if nb not in component_ids:
                        component_ids[nb] = comp
                        nxt.append(nb)
            if nxt:
                idx = [slot[k] for k in nxt]
                refs = [min((k for k in adjacent[nb] if k in aligned), key=anchor.get) for nb in nxt]
                perms, signs = best_signed_assignments(m[idx] @ v[[slot[k] for k in refs]])
                # undo each pick: row j of the frame becomes row inv[j], with its sign
                inv = np.argsort(perms, axis=1)
                undo = SignedPermutation(inv, np.take_along_axis(signs, inv, axis=1))
                m[idx], v[idx], d[idx] = _permute_frames(undo, m[idx], v[idx], d[idx])
                aligned.update(zip(nxt, idx))
            level = nxt
        comp += 1
    out = {k: LocalFrame(m[i], v[i], d[i], frames[k].degenerate_flag) for k, i in aligned.items()}
    return FrameField(grid, out, component_ids)


def fit_field(
    grid: BinGrid,
    moments: Mapping[tuple[int, ...], LocalMoments],
    gap_tol: float = DEFAULT_GAP_TOL,
) -> tuple[FrameField, dict[tuple[int, ...], str]]:
    """Solve every bin's frame, all as one stack, and align them into a field.

    A bin with an ill-conditioned c2 is left out of the field; the second
    value maps each such bin to the reason solve_frame gives.  When every
    bin is left out, the ValueError names their number and the first bin's
    reason.
    """
    m, v, d, degenerate, ok, _ = _solve_stack(list(moments.values()), grid.dim, gap_tol)
    frames, skipped = {}, {}
    for i, key in enumerate(moments):
        try:
            if not ok[i]:
                solve_frame(moments[key], gap_tol)  # raises, worded as for one bin
            frames[key] = LocalFrame(m[i], v[i], d[i], bool(degenerate[i]))
        except FrameSolveError as err:
            skipped[key] = str(err)
    if skipped and not frames:
        key, reason = next(iter(skipped.items()))
        raise ValueError(
            f"no frames to align: all {len(skipped)} bins skipped; {key}: {reason}"
        )
    field = align_frame_field(grid, frames, {k: mom.count for k, mom in moments.items()})
    return field, skipped
