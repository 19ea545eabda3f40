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
"""

from __future__ import annotations

from typing import Mapping

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


def solve_frame(moments: LocalMoments, gap_tol: float = DEFAULT_GAP_TOL) -> LocalFrame:
    """Closed-form local frame from one bin's velocity moments.

    Returns M with M c2 M^T = I and the M-transformed fourth-order contraction
    diagonal (= diag(d), sorted descending).  degenerate_flag is set when two
    adjacent d values are closer than gap_tol * max|d|.
    """
    c2 = moments.c2
    n = moments.dim
    evals, evecs = np.linalg.eigh(c2)
    if evals[0] <= COND_TOL * evals[-1] or evals[-1] <= 0:
        raise FrameSolveError(
            f"c2 ill-conditioned: eigenvalues {evals[0]:.3e} .. {evals[-1]:.3e}"
        )
    w = evecs.T / np.sqrt(evals)[:, None]
    s = w @ moments.t @ w.T
    s = 0.5 * (s + s.T)
    d_asc, o = np.linalg.eigh(s)
    order = np.argsort(d_asc)[::-1]
    d = d_asc[order]
    m = o[:, order].T @ w
    v = np.linalg.inv(m)
    degenerate = False
    if n > 1:
        scale = np.max(np.abs(d))
        gaps = np.abs(np.diff(d))
        degenerate = bool(np.any(gaps < gap_tol * max(scale, np.finfo(float).tiny)))
    return LocalFrame(m, v, d, degenerate)


def frame_residuals(frame: LocalFrame, moments: LocalMoments) -> tuple[float, float]:
    """(max |M c2 M^T - I|, max off-diagonal of the transformed fourth-order
    contraction, relative to max |d|)."""
    m = frame.m
    white = m @ moments.c2 @ m.T - np.eye(frame.dim)
    r1 = float(np.max(np.abs(white)))
    contr = m @ moments.t @ m.T
    off = contr - np.diag(np.diag(contr))
    scale = max(float(np.max(np.abs(frame.d))), np.finfo(float).tiny)
    r2 = float(np.max(np.abs(off))) / scale
    return r1, r2


def apply_signed_permutation_to_frame(
    p: SignedPermutation, frame: LocalFrame
) -> LocalFrame:
    """Row-relabel/reflect a frame; d follows its row, v is recomputed."""
    m = p.apply_to_array(frame.m.T).T  # permutes rows: row j <- signs[j]*row perm[j]
    d = frame.d[p.perm]
    return LocalFrame(m, np.linalg.inv(m), d, frame.degenerate_flag)


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
    first-in first-out order, and its assignments are solved as one stack
    (best_signed_assignments), so the result is that of the bin-by-bin
    search.
    """
    if not frames:
        raise ValueError("no frames to align")
    shape = grid.shape
    adjacent = {k: [nb for nb in _face_neighbors(k, shape) if nb in frames] for k in frames}
    # the anchor: non-degenerate first, then the most populated
    anchor = {k: (frames[k].degenerate_flag, -counts[k], k) for k in frames}
    aligned: dict[tuple[int, ...], LocalFrame] = {}
    component_ids: dict[tuple[int, ...], int] = {}
    comp = 0
    for root in sorted(frames, key=lambda k: (-counts[k], k)):
        if root in component_ids:
            continue
        component_ids[root] = comp
        aligned[root] = canonicalize_frame(frames[root])
        level = [root]
        while level:
            nxt = []  # in first-in first-out order
            for cur in level:
                for nb in adjacent[cur]:
                    if nb not in component_ids:
                        component_ids[nb] = comp
                        nxt.append(nb)
            if nxt:
                refs = [min((k for k in adjacent[nb] if k in aligned), key=anchor.get) for nb in nxt]
                m = np.stack([frames[k].m for k in nxt])
                perms, signs = best_signed_assignments(m @ np.stack([aligned[k].v for k in refs]))
                # undo each pick: row j of the frame becomes row inv[j], with its sign
                inv = np.argsort(perms, axis=1)
                for j, k in enumerate(nxt):
                    p = SignedPermutation(inv[j], signs[j, inv[j]])
                    aligned[k] = apply_signed_permutation_to_frame(p, frames[k])
            level = nxt
        comp += 1
    return FrameField(grid, aligned, component_ids)


def fit_field(
    grid: BinGrid,
    moments: Mapping[tuple[int, ...], LocalMoments],
    gap_tol: float = DEFAULT_GAP_TOL,
) -> tuple[FrameField, dict[tuple[int, ...], str]]:
    """Solve every bin's frame and align them into one field.

    A bin whose solve raises ValueError (an ill-conditioned c2) is left out
    of the field; the second value maps each such bin to the reason.  When
    every bin is left out, the ValueError names their number and the first
    bin's reason.
    """
    frames = {}
    skipped = {}
    for key, mom in moments.items():
        try:
            frames[key] = solve_frame(mom, gap_tol=gap_tol)
        except ValueError as err:
            skipped[key] = str(err)
    if skipped and not frames:
        key, reason = next(iter(skipped.items()))
        raise ValueError(
            f"no frames to align: all {len(skipped)} bins skipped; {key}: {reason}"
        )
    field = align_frame_field(grid, frames, {k: m.count for k, m in moments.items()})
    return field, skipped
