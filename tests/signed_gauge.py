"""Test-side oracles for the signed-permutation gauge: the exhaustive group,
the exhaustive assignment, the inverse and the matrix of a signed
permutation, applying one to an array and to a frame, the per-frame
canonical gauge, the covariant transformation law M' = P M (dx/dx') checked
bin by bin, and the bin-by-bin breadth-first alignment, with the package's
stacked alignment called on the same dicts.  A signed permutation is a
(perm, signs) pair of int arrays, as the package returns it; compare two
with np.testing.assert_array_equal."""

import itertools
from collections import deque

import numpy as np

from innerseries.estimate import accumulate_moments, bin_samples, build_grid
from innerseries.frames import align_frame_field, solve_frame
from innerseries.ingest import gen_bounded_walk
from innerseries.model import FrameField, LocalFrame, Trajectory, best_signed_assignments

FIXED_MAP = np.array([[1.2, 0.4], [-0.3, 0.9]])


def all_signed_permutations(n: int):
    """Every element of the signed-permutation group on n channels (2^n n!),
    as (perm, signs) pairs."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield np.array(perm), np.array(signs)


def first_optimal_assignment(score) -> tuple[np.ndarray, np.ndarray]:
    """The first maximum of sum_j |score[j, perm[j]]|, summed left to right,
    in itertools.permutations order, with each sign from its picked entry
    (+1 at zero)."""
    absr = np.abs(score)
    n = len(score)
    best, best_total = None, -np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(absr[j, perm[j]] for j in range(n))
        if total > best_total:
            best, best_total = perm, total
    perm = np.array(best)
    return perm, np.where(score[np.arange(n), perm] >= 0, 1, -1)


def inverse(p) -> tuple[np.ndarray, np.ndarray]:
    """The signed permutation that undoes p = (perm, signs)."""
    perm, signs = p
    inv_perm = np.argsort(perm)
    return inv_perm, signs[inv_perm]


def signed_permutation_matrix(p) -> np.ndarray:
    """The matrix P with P @ w == apply_to_array(p, w)."""
    perm, signs = p
    n = len(perm)
    m = np.zeros((n, n))
    m[np.arange(n), perm] = signs
    return m


def apply_to_array(p, w: np.ndarray) -> np.ndarray:
    """p applied along the last axis: out[..., j] = signs[j] * w[..., perm[j]]."""
    perm, signs = p
    return w[..., perm] * signs


def apply_to_frame(p, frame: LocalFrame) -> LocalFrame:
    """Row-relabel/reflect a frame: row j of m becomes signs[j] * row
    perm[j], d follows its row, v = m^-1 its column."""
    perm, signs = p
    return LocalFrame(
        frame.m[perm] * signs[:, None],
        apply_to_array(p, frame.v),
        frame.d[perm],
        frame.degenerate_flag,
    )


def canonicalize_frame(frame: LocalFrame) -> LocalFrame:
    """One frame in the canonical gauge: each row's largest-magnitude entry
    (the first, of equal magnitudes) made positive, then the rows ordered by
    descending d, ties by lexicographic comparison of the sign-fixed rows."""
    rows = np.arange(len(frame.d))
    signs = np.where(frame.m[rows, np.argmax(np.abs(frame.m), axis=1)] < 0, -1, 1)
    m = frame.m * signs[:, None]
    order = sorted(rows, key=lambda i: (-frame.d[i], tuple(m[i])))
    return apply_to_frame((np.array(order), signs[order]), frame)


def check_transform_law(m_x, m_xprime, jacobian) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Residual ||R - P||_F of R = M' (M J)^-1 from its nearest signed
    permutation P, and P as (perm, signs); J = dx/dx'.  A singular J raises
    LinAlgError, a ValueError."""
    r = np.asarray(m_xprime) @ np.linalg.inv(np.asarray(m_x) @ np.asarray(jacobian))
    perms, signs = best_signed_assignments(r[None])
    p = perms[0], signs[0]
    return float(np.linalg.norm(r - signed_permutation_matrix(p))), p


def linear_map_law_check(
    seed: int = 0, n: int = 60_000, bins: tuple[int, int] = (6, 6), lin=FIXED_MAP
) -> tuple[float, int]:
    """Solve frames from a 2-D walk and from its velocities under the linear
    map lin, binned alike, and check the transformation law in every bin
    where neither frame is degenerate.

    Returns (max residual over checked bins, number of bins checked).
    """
    traj = gen_bounded_walk(n, seed=seed, dim=2, box=1.0, dt=1.0, noise=("laplace", "uniform"))
    grid = build_grid(traj, bins)
    binning = bin_samples(traj, grid)
    moments = accumulate_moments(traj, binning)
    # the mapped trajectory's central differences are the velocities under lin
    moments_p = accumulate_moments(Trajectory(traj.samples @ lin.T, traj.dt), binning)
    assert np.array_equal(moments.keys, moments_p.keys)
    jac = np.linalg.inv(lin)  # dx/dx'
    residuals = []
    for c2, t, c2_p, t_p in zip(moments.c2, moments.t, moments_p.c2, moments_p.t):
        fr, fr_p = solve_frame(c2, t), solve_frame(c2_p, t_p)
        if not (fr.degenerate_flag or fr_p.degenerate_flag):
            residuals.append(check_transform_law(fr.m, fr_p.m, jac)[0])
    return max(residuals, default=0.0), len(residuals)


def _face_neighbors(idx, shape):
    """The face neighbours of bin idx inside the grid: axis by axis, the
    lower one first."""
    for a in range(len(idx)):
        for step in (-1, 1):
            j = idx[a] + step
            if 0 <= j < shape[a]:
                yield idx[:a] + (j,) + idx[a + 1 :]


def stacked_align(grid, frames, counts) -> FrameField:
    """align_frame_field on the dicts of sequential_align, as stacks in the
    dicts' order."""
    keys = list(frames)
    return align_frame_field(
        grid,
        np.array(keys, dtype=np.int64).reshape(len(keys), grid.dim),
        np.array([counts[k] for k in keys], dtype=np.int64),
        np.array([f.m for f in frames.values()]),
        np.array([f.d for f in frames.values()]),
        np.array([f.degenerate_flag for f in frames.values()]),
    )


def sequential_align(grid, frames, counts) -> FrameField:
    """align_frame_field one bin and one edge at a time, on dicts of the
    frames and counts by bin: a first-in first-out queue per component, from
    its most populated bin, each bin corrected against its best aligned
    neighbour when it is found."""
    shape = grid.shape
    unvisited = set(frames)
    aligned, component_ids = {}, {}
    comp = 0
    while unvisited:
        root = min(unvisited, key=lambda k: (-counts[k], k))
        aligned[root] = canonicalize_frame(frames[root])
        component_ids[root] = comp
        unvisited.discard(root)
        queue = deque([root])
        while queue:
            for nb in _face_neighbors(queue.popleft(), shape):
                if nb not in unvisited:
                    continue
                refs = [
                    k
                    for k in _face_neighbors(nb, shape)
                    if k in aligned and component_ids[k] == comp
                ]
                ref = min(refs, key=lambda k: (aligned[k].degenerate_flag, -counts[k], k))
                perms, signs = best_signed_assignments((frames[nb].m @ aligned[ref].v)[None])
                aligned[nb] = apply_to_frame(inverse((perms[0], signs[0])), frames[nb])
                component_ids[nb] = comp
                unvisited.discard(nb)
                queue.append(nb)
        comp += 1
    return FrameField(grid, aligned, component_ids)
