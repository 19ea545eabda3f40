"""Test-side references for the binned stages: the moments bin by bin, each
bin with its own pinv, and the weights both as compute_weights forms them
(a product per large bin, a per-sample einsum for the rest) and as the one
einsum over all samples that defines them.  Each finds a bin's
samples through its own flat index, not through the package's binning,
and leaves out the first and last sample, as bin_samples does.  The
weights references read vel.values, so a weights test passes a vel whose
values are estimate_velocity(traj)'s, the velocities compute_weights
forms from the trajectory."""

import numpy as np

from innerseries.weights import _PRODUCT_ROWS, _bin_lookup


def keys_of(moments):
    """The bins of a BinMoments, as key tuples in row order."""
    return [tuple(k) for k in moments.keys.tolist()]


def binned_mask(vel, flat):
    """The samples bin_samples lists: a valid velocity, inside the grid,
    and neither the first nor the last sample."""
    mask = vel.valid_mask & (flat >= 0)
    mask[0] = mask[-1] = False
    return mask


def per_bin_moments(traj, vel, grid):
    """Reference: one bin at a time, each with its own pinv, as
    {key: (count, c2, t)}."""
    flat = grid.flat_index(traj.samples)
    sel = np.flatnonzero(binned_mask(vel, flat))
    order = np.argsort(flat[sel], kind="stable")
    boundaries = np.flatnonzero(np.diff(flat[sel[order]])) + 1
    out = {}
    for group in np.split(sel[order], boundaries):
        if len(group) < grid.min_count:
            continue
        dvl = vel.values[group] - vel.values[group].mean(axis=0)
        c2 = dvl.T @ dvl / len(group)
        c2 = 0.5 * (c2 + c2.T)
        q = ((dvl @ np.linalg.pinv(c2, hermitian=True)) * dvl).sum(axis=1)
        t = (dvl * q[:, None]).T @ dvl / len(group)
        key = np.unravel_index(flat[group[0]], grid.shape)
        out[tuple(int(i) for i in key)] = (len(group), c2, 0.5 * (t + t.T))
    return out


def assert_same_moments(moments, ref):
    assert keys_of(moments) == list(ref)
    for i, (count, c2, t) in enumerate(ref.values()):
        assert moments.count[i] == count
        assert moments.c2[i].tobytes() == c2.tobytes()
        assert moments.t[i].tobytes() == t.tobytes()


def einsum_weights(traj, vel, field):
    """Reference: one gather of every valid sample's frame, one einsum."""
    flat = field.grid.flat_index(traj.samples)
    flat_to_slot, fallback_bins = _bin_lookup(field)
    m_stack = np.stack([f.m for f in field.frames.values()])
    slots = np.where(flat >= 0, flat_to_slot[flat], -1)
    valid = binned_mask(vel, flat) & (slots >= 0)
    values = np.zeros((traj.n_samples, traj.dim))
    values[valid] = np.einsum("nij,nj->ni", m_stack[slots[valid]], vel.values[valid])
    return values, valid, valid & fallback_bins[flat]


def per_bin_weights(traj, vel, field):
    """Reference: each bin's frame, or its fallback bin's, applied to the
    bin's valid samples, ascending, as one product when the bin holds at
    least _PRODUCT_ROWS of them and sample by sample through the einsum
    otherwise, each bin found by its own scan of the flat index."""
    flat = field.grid.flat_index(traj.samples)
    flat_to_slot, fallback_bins = _bin_lookup(field)
    m_stack = np.stack([f.m for f in field.frames.values()])
    valid = binned_mask(vel, flat) & (flat_to_slot[flat] >= 0)
    values = np.zeros((traj.n_samples, traj.dim))
    for f in np.unique(flat[valid]):
        rows = np.flatnonzero(valid & (flat == f))
        m = m_stack[flat_to_slot[f]]
        if len(rows) >= _PRODUCT_ROWS:
            values[rows] = vel.values[rows] @ m.T
        else:
            values[rows] = np.einsum("ij,nj->ni", m, vel.values[rows])
    return values, valid, valid & fallback_bins[flat]


def assert_near_per_channel(values, ref, tol=1e-15):
    """|values - ref| within tol times max|ref| in every channel."""
    err = np.abs(values - ref).max(axis=0, initial=0.0)
    assert np.all(err <= tol * np.abs(ref).max(axis=0, initial=0.0))
