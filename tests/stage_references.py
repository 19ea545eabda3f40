"""Test-side references for the binned stages and the walk generator: the
moments bin by bin, each bin with its own BLAS products and pinv; the
weights both as compute_weights forms them (a product per bin in blocks of
large bins on average, a per-sample einsum in the other blocks) and as the
one einsum over all samples that defines them; and gen_bounded_walk as it
was written before it drew its noise in blocks.  Each binned reference
finds a bin's samples through its own flat index, not through the
package's binning, leaves out the first and last sample, as bin_samples
does, and reads the velocities of estimate_velocity(traj), which the
package forms at the binned rows alone.  A keep mask leaves more samples
out, as a Binning thinned by thin() does."""

import numpy as np

from innerseries.estimate import estimate_velocity
from innerseries.ingest import _CHUNK
from innerseries.model import Binning, Trajectory
from innerseries.weights import _PRODUCT_ROWS, _bin_lookup

EPS = np.finfo(float).eps


def keys_of(moments):
    """The bins of a BinMoments, as key tuples in row order."""
    return [tuple(k) for k in moments.keys.tolist()]


def binned_mask(flat, keep=None):
    """The samples bin_samples lists, inside the grid and neither the first
    nor the last sample, less those keep marks False."""
    mask = flat >= 0
    if keep is not None:
        mask &= keep
    mask[[0, -1]] = False
    return mask


def groups(binning):
    """(flat index, sample rows) of each bin binning lists, in its order."""
    return zip(binning.flat.tolist(), np.split(binning.order, binning.starts[1:-1]))


def thin(binning, keep):
    """A hand-built Binning of the samples of binning that keep marks True:
    bins left empty are dropped, as bin_samples lists none."""
    kept = [(f, rows[keep[rows]]) for f, rows in groups(binning)]
    kept = [(f, rows) for f, rows in kept if len(rows)]
    order = np.concatenate([rows for _, rows in kept] or [binning.order[:0]])
    flat = np.array([f for f, _ in kept], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum([len(rows) for _, rows in kept], dtype=np.int64)])
    return Binning(binning.grid, binning.n_samples, order, flat, starts)


def per_bin_moments(traj, grid, keep=None):
    """Reference: one bin at a time, each with its own pinv, as
    {key: (count, c2, t)}."""
    vel = estimate_velocity(traj)
    flat = grid.flat_index(traj.samples)
    sel = np.flatnonzero(binned_mask(flat, keep))
    order = np.argsort(flat[sel], kind="stable")
    boundaries = np.flatnonzero(np.diff(flat[sel[order]])) + 1
    out = {}
    for group in np.split(sel[order], boundaries):
        if len(group) < grid.min_count:
            continue
        dvl = vel[group] - vel[group].mean(axis=0)
        c2 = dvl.T @ dvl / len(group)
        c2 = 0.5 * (c2 + c2.T)
        q = ((dvl @ np.linalg.pinv(c2, hermitian=True)) * dvl).sum(axis=1)
        t = (dvl * q[:, None]).T @ dvl / len(group)
        key = np.unravel_index(flat[group[0]], grid.shape)
        out[tuple(int(i) for i in key)] = (len(group), c2, 0.5 * (t + t.T))
    return out


def assert_near_moments(moments, ref, tol=1e-14):
    """The same bins and counts as ref; each bin's c2 within tol of its
    max|c2|, and its t within tol + 4 eps cond(c2) of its max|t|: t goes
    through pinv(c2), whose rounding grows with cond(c2)."""
    assert keys_of(moments) == list(ref)
    for i, (count, c2, t) in enumerate(ref.values()):
        assert moments.count[i] == count
        assert np.abs(moments.c2[i] - c2).max() <= tol * np.abs(c2).max()
        bound = tol + 4 * EPS * np.linalg.cond(c2) if c2.any() else tol
        assert np.abs(moments.t[i] - t).max() <= bound * np.abs(t).max()


def einsum_weights(traj, field, keep=None):
    """Reference: one gather of every valid sample's frame, one einsum."""
    vel = estimate_velocity(traj)
    flat = field.grid.flat_index(traj.samples)
    flat_to_slot, fallback_bins = _bin_lookup(field)
    m_stack = np.stack([f.m for f in field.frames.values()])
    slots = np.where(flat >= 0, flat_to_slot[flat], -1)
    valid = binned_mask(flat, keep) & (slots >= 0)
    values = np.zeros((traj.n_samples, traj.dim))
    values[valid] = np.einsum("nij,nj->ni", m_stack[slots[valid]], vel[valid])
    return values, valid, valid & fallback_bins[flat]


def per_block_weights(traj, field, keep=None):
    """Reference: the binned samples stable-sorted on their own flat index
    and split into bins, the bins cut into blocks of whole bins of at most
    _CHUNK samples, or one larger bin.  A block whose bins average at least
    _PRODUCT_ROWS samples applies each bin's frame, or its fallback bin's,
    to the bin's samples as one product; any other block applies it sample
    by sample through the einsum.  A bin with no frame within one step is
    left +0.0."""
    vel = estimate_velocity(traj)
    flat = field.grid.flat_index(traj.samples)
    flat_to_slot, fallback_bins = _bin_lookup(field)
    m_stack = np.stack([f.m for f in field.frames.values()])
    sel = np.flatnonzero(binned_mask(flat, keep))
    sel = sel[np.argsort(flat[sel], kind="stable")]
    blocks = [[]]
    for rows in np.split(sel, np.flatnonzero(np.diff(flat[sel])) + 1):
        if blocks[-1] and sum(map(len, blocks[-1])) + len(rows) > _CHUNK:
            blocks.append([])
        blocks[-1].append(rows)
    values = np.zeros((traj.n_samples, traj.dim))
    for block in blocks:
        product = sum(map(len, block)) >= _PRODUCT_ROWS * len(block)
        for rows in block:
            s = flat_to_slot[flat[rows[0]]] if len(rows) else -1
            if s >= 0:
                m = m_stack[s]
                values[rows] = vel[rows] @ m.T if product else np.einsum("ij,nj->ni", m, vel[rows])
    valid = binned_mask(flat, keep) & (flat_to_slot[flat] >= 0)
    return values, valid, valid & fallback_bins[flat]


def assert_near_per_channel(values, ref, tol=1e-15):
    """|values - ref| within tol times max|ref| in every channel."""
    err = np.abs(values - ref).max(axis=0, initial=0.0)
    assert np.all(err <= tol * np.abs(ref).max(axis=0, initial=0.0))


def bounded_walk_reference(n, seed, dim, noise, box=1.0, dt=1.0, smooth=0.5, step_scale=0.02):
    """gen_bounded_walk as it was before it drew its noise in blocks: each
    channel's n-long noise at once, into an n x dim array, then the start."""
    rng = np.random.default_rng(seed)
    kinds = (noise,) * dim if isinstance(noise, str) else tuple(noise)
    eps = np.empty((n, dim))
    for j, kind in enumerate(kinds):
        if kind == "laplace":
            eps[:, j] = rng.laplace(0.0, 1.0 / np.sqrt(2.0), n)
        elif kind == "uniform":
            eps[:, j] = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), n)
        else:
            eps[:, j] = rng.standard_normal(n)
    pos = np.empty((n, dim))
    start = rng.uniform(-0.5 * box, 0.5 * box, dim).tolist()
    step = step_scale * box
    gain = 1.0 - smooth
    for j in range(dim):
        p, v = start[j], 0.0
        for lo in range(0, n, _CHUNK):
            col = []
            for e in eps[lo : lo + _CHUNK, j].tolist():
                col.append(p)
                v = smooth * v + gain * e
                p = p + step * v
                if p > box:
                    p = 2 * box - p
                    v = -v
                elif p < -box:
                    p = -2 * box - p
                    v = -v
            pos[lo : lo + _CHUNK, j] = col
    return Trajectory(pos, dt, tuple(f"s{i + 1}" for i in range(dim)))
