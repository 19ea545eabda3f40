import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerseries.estimate import accumulate_moments, bin_samples, build_grid, estimate_velocity
from innerseries.ingest import _CHUNK, gen_bounded_walk, gen_sine
from innerseries.model import BinGrid, Binning, Trajectory
from stage_references import EPS, assert_near_moments, keys_of, per_bin_moments, thin


def dyadic(v, bits=24):
    """v rounded to multiples of the power of two 2^-bits max|v| rounds up
    to, and that step: sums of up to 2^28 such values are exact."""
    v = np.asarray(v, dtype=float)
    step = 2.0 ** (np.ceil(np.log2(np.abs(v).max())) - bits)
    return np.round(v / step) * step, step


def walk_with_velocities(v, dt=1.0):
    """A trajectory whose central difference at each inner row k is v[k]:
    x[k + 1] = x[k - 1] + 2 dt v[k] from x[0] = x[1] = 0.  Exact when v is
    dyadic; rows 0 and n - 1 of v are not used."""
    v = np.asarray(v, dtype=float).reshape(len(v), -1)
    steps = 2 * dt * v[1:-1]
    x = np.zeros_like(v)
    x[2::2] = np.cumsum(steps[0::2], axis=0)
    x[3::2] = np.cumsum(steps[1::2], axis=0)
    return Trajectory(x, dt)


def moments_of(positions, grid, v, dt=1.0):
    """The moments of the velocities v over the bins the points positions
    fall in: the binning comes from one trajectory, the velocities from
    another, so the two can be drawn apart."""
    binning = bin_samples(Trajectory(positions, dt), grid)
    return accumulate_moments(walk_with_velocities(v, dt), binning)


class TestEstimateVelocity:
    def test_linear_ramp_central(self):
        traj = Trajectory(np.array([0.0, 1.0, 2.0]), 1.0)
        vel = estimate_velocity(traj)
        np.testing.assert_array_equal(vel, [[0.0], [1.0], [0.0]])  # the ends have none

    def test_constant_signal(self):
        traj = Trajectory(np.full((10, 2), 3.0), 0.5)
        assert np.all(estimate_velocity(traj) == 0.0)

    def test_sine_derivative_taylor_remainder(self):
        # central difference of sin(k*0.01) at k=100 is cos(1) + O(dt^2)
        traj = gen_sine(1.0, 0.01, 200)
        assert abs(estimate_velocity(traj)[100, 0] - np.cos(1.0)) < 1e-4

    def test_walk_with_velocities_is_exact(self):
        rng = np.random.default_rng(0)
        v, _ = dyadic(rng.laplace(size=(1001, 3)) * 1e-3)
        vel = estimate_velocity(walk_with_velocities(v, 0.25))
        np.testing.assert_array_equal(vel[1:-1], v[1:-1])


class TestBuildGrid:
    def test_edges_and_halfopen_bins(self):
        traj = Trajectory(np.array([0.0, 0.25, 0.5, 0.75, 1.0]), 1.0)
        grid = build_grid(traj, [4], min_count=1)
        np.testing.assert_allclose(grid.edges[0], [0, 0.25, 0.5, 0.75, 1.0])
        # sample 0.5 goes in the third bin (index 2): lower bins half-open
        assert grid.flat_index(np.array([[0.5]]))[0] == 2

    def test_max_in_last_bin(self):
        traj = Trajectory(np.linspace(0, 1, 10), 1.0)
        grid = build_grid(traj, [4], min_count=1)
        assert grid.flat_index(np.array([[1.0]]))[0] == 3

    def test_every_sample_in_exactly_one_bin(self):
        rng = np.random.default_rng(0)
        n = 5000
        traj = Trajectory(rng.random((n, 2)), 1.0)
        grid = build_grid(traj, [7, 5], min_count=1)
        flat = grid.flat_index(traj.samples)
        assert np.all(flat >= 0) and np.all(flat < 35)
        # every sample but the first and last, which bin_samples leaves out
        expect = {
            tuple(int(i) for i in np.unravel_index(f, grid.shape)): int(c)
            for f, c in enumerate(np.bincount(flat[1:-1], minlength=35))
            if c
        }
        moments = accumulate_moments(traj, bin_samples(traj, grid))
        assert dict(zip(keys_of(moments), moments.count.tolist())) == expect
        assert moments.count.sum() == n - 2

    def test_uniform_occupancy_binomial(self):
        # every bin count within 4 sigma of n/bins for uniform data
        rng = np.random.default_rng(1)
        n, nb = 500_000, 128
        traj = Trajectory(rng.random(n), 1.0)
        grid = build_grid(traj, [nb], min_count=1)
        moments = accumulate_moments(traj, bin_samples(traj, grid))
        assert len(moments) == nb
        p = 1.0 / nb
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(moments.count - n * p) < 4 * sigma)

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_count must be >= 1"):
            BinGrid((np.array([0.0, 1.0]),), 0)

    def test_zero_range_axis(self):
        with pytest.raises(ValueError):
            build_grid(Trajectory(np.ones(5), 1.0), [4])

    def test_out_of_range_locate(self):
        traj = Trajectory(np.linspace(0, 1, 10), 1.0)
        grid = build_grid(traj, [4], min_count=1)
        assert grid.flat_index(np.array([[2.0]]))[0] == -1


def _single_bin_moments(velocities):
    """The moments of velocities on one bin; dt = 0.5, so integer
    velocities make an integer walk."""
    traj = walk_with_velocities(velocities, 0.5)
    return accumulate_moments(traj, bin_samples(traj, build_grid(traj, [1], min_count=1)))


class TestAccumulateMoments:
    def test_pm_one_velocities(self):
        # rows 1 and 2 are binned: velocities -1 and 1
        moments = _single_bin_moments([1.0, -1.0, 1.0, -1.0])
        assert keys_of(moments) == [(0,)]
        assert moments.c2[0, 0, 0] == 1.0
        assert moments.t[0, 0, 0] == 1.0

    def test_identical_velocities_zero_c2(self):
        moments = _single_bin_moments([2.0] * 6)
        assert keys_of(moments) == [(0,)]
        assert moments.c2[0, 0, 0] == 0.0
        assert moments.t[0, 0, 0] == 0.0

    def test_min_count_filters_bins(self):
        rng = np.random.default_rng(0)
        traj = Trajectory(rng.random(200), 1.0)
        grid = build_grid(traj, [4], min_count=10**6)
        with pytest.raises(ValueError):
            accumulate_moments(traj, bin_samples(traj, grid))

    def test_occupancy_sum_matches_valid_samples(self):
        # the samples a thinned binning lists, and no others, are counted
        rng = np.random.default_rng(2)
        traj = Trajectory(rng.random(3000), 1.0)
        keep = np.ones(3000, dtype=bool)
        keep[:5] = False
        grid = build_grid(traj, [8], min_count=1)
        moments = accumulate_moments(traj, thin(bin_samples(traj, grid), keep))
        assert moments.count.sum() == keep[1:-1].sum()  # the last sample is never binned

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(3)
        traj = Trajectory(rng.random((4000, 2)), 1.0)
        grid = build_grid(traj, [3, 3], min_count=10)
        moments = accumulate_moments(traj, bin_samples(traj, grid))
        for c2, t in zip(moments.c2, moments.t):
            np.testing.assert_array_equal(c2, c2.T)
            assert np.min(np.linalg.eigvalsh(c2)) >= -1e-12
            # t = E[q dv dv^T] with q = dv^T c2^-1 dv >= 0
            np.testing.assert_array_equal(t, t.T)
            assert np.min(np.linalg.eigvalsh(t)) >= -1e-12 * np.max(np.abs(t))

    def test_order_independence(self):
        rng = np.random.default_rng(4)
        n = 5000
        pos = rng.random((n, 1))
        v, _ = dyadic(rng.standard_normal((n, 1)))
        # the first and last sample, never binned, stay in place
        order = np.concatenate([[0], 1 + rng.permutation(n - 2), [n - 1]])
        grid = build_grid(Trajectory(pos, 1.0), [8], min_count=1)
        ma = moments_of(pos, grid, v)
        mb = moments_of(pos[order], grid, v[order])
        assert keys_of(ma) == keys_of(mb)
        np.testing.assert_allclose(ma.c2, mb.c2, rtol=1e-10)
        np.testing.assert_allclose(ma.t, mb.t, rtol=1e-10)

    def test_affine_covariance_exact(self):
        # per-axis scaling by a power of two keeps bin membership identical
        # and scales c2 exactly; t = E[q dv dv^T] scales the same way, but q
        # goes through pinv(c2), which does not scale exactly, so t matches to
        # 1e-13 of its largest entry (measured: 9e-16)
        rng = np.random.default_rng(5)
        n, c = 4000, 4.0
        pos = rng.random((n, 2))
        v, _ = dyadic(rng.standard_normal((n, 2)))
        scale = np.array([c, 1.0])
        ga = build_grid(Trajectory(pos, 1.0), [4, 4], min_count=1)
        gb = build_grid(Trajectory(pos * scale, 1.0), [4, 4], min_count=1)
        np.testing.assert_array_equal(ga.flat_index(pos), gb.flat_index(pos * scale))
        ma = moments_of(pos, ga, v)
        mb = moments_of(pos * scale, gb, v * scale)
        assert keys_of(ma) == keys_of(mb)
        np.testing.assert_array_equal(ma.count, mb.count)
        s2 = np.outer(scale, scale)
        np.testing.assert_array_equal(mb.c2, ma.c2 * s2)
        for t_a, t_b in zip(ma.t, mb.t):
            t_ref = t_a * s2
            assert np.max(np.abs(t_b - t_ref)) <= 1e-13 * np.max(np.abs(t_ref))

    @pytest.mark.parametrize("n_dim", range(1, 7))
    def test_t_is_contracted_fourth_moment(self, n_dim):
        # reference: the dense fourth moment c4, contracted with inv(c2)
        rng = np.random.default_rng(n_dim)
        mix = np.eye(n_dim) + 0.3 * rng.standard_normal((n_dim, n_dim))
        v, _ = dyadic(rng.laplace(size=(2000, n_dim)) @ mix.T)
        pos = rng.random((2000, n_dim))
        moments = moments_of(pos, build_grid(Trajectory(pos, 1.0), [1] * n_dim, min_count=1), v)
        assert len(moments) == 1
        d = v[1:-1] - v[1:-1].mean(axis=0)  # the binned samples
        c2 = d.T @ d / len(d)
        c4 = np.einsum("ti,tj,tk,tl->ijkl", d, d, d, d) / len(d)
        t_ref = np.einsum("mn,klmn->kl", np.linalg.inv(c2), c4)
        assert np.max(np.abs(moments.t[0] - t_ref)) <= 1e-12 * np.max(np.abs(t_ref))

    def test_seven_channels(self):
        # t is N x N, so N is not capped by the size of a dense fourth moment
        rng = np.random.default_rng(7)
        traj = Trajectory(rng.random((3000, 7)), 1.0)
        grid = build_grid(traj, [1] * 7, min_count=1)
        moments = accumulate_moments(traj, bin_samples(traj, grid))
        assert moments.count.tolist() == [2998]  # all but the first and last
        assert moments.c2.shape == moments.t.shape == (1, 7, 7)

    def test_sine_c2_matches_analytic(self):
        # estimated C11 near a^2 - x^2 at bin centers for a unit sine
        a = 1.0
        traj = gen_sine(a, 0.01, 100_000)
        grid = build_grid(traj, [128], min_count=50)
        moments = accumulate_moments(traj, bin_samples(traj, grid))
        assert len(moments) > 100
        edges, k = grid.edges[0], moments.keys[:, 0]
        xc = 0.5 * (edges[k] + edges[k + 1])  # the bin centres
        assert np.all(np.abs(moments.c2[:, 0, 0] - (a * a - xc * xc)) < 0.05)


@st.composite
def binned_velocities(draw):
    """(positions, grid, v, step): up to 3000 samples of N <= 3 correlated
    non-Gaussian velocity channels, dyadic on multiples of step, on a
    2-per-axis grid over uniform positions."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(300, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = np.column_stack(
        [rng.laplace(size=n) if j % 2 == 0 else rng.uniform(-1, 1, n) for j in range(dim)]
    )
    v, step = dyadic(raw @ rng.standard_normal((dim, dim)) * 10.0 ** draw(st.floats(-3, 3)))
    positions = rng.uniform(-1, 1, (n, dim))
    return positions, build_grid(Trajectory(positions, 1.0), (2,) * dim, min_count=20), v, step


def max_rel_diff(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestMomentInvariances:
    """The bin mean is not stored, so these pin that c2 and t are centered.

    t goes through c2^-1, so its rounding error grows with cond(c2): the
    bounds on t add a multiple of eps * cond(c2) to a fixed 1e-13.
    """

    @settings(max_examples=30, deadline=None)
    @given(data=binned_velocities(), frac=st.lists(st.floats(-1, 1), min_size=3, max_size=3))
    def test_constant_offset_leaves_c2_and_t(self, data, frac):
        positions, grid, v, step = data
        # on v's dyadic grid, so the shifted walk is exact too
        offset = np.round(np.array(frac[: v.shape[1]]) * np.abs(v).max() / step) * step
        base = moments_of(positions, grid, v)
        shifted = moments_of(positions, grid, v + offset)
        assert keys_of(shifted) == keys_of(base)
        np.testing.assert_array_equal(shifted.count, base.count)
        for i, c2 in enumerate(base.c2):
            assert max_rel_diff(shifted.c2[i], c2) <= 1e-13
            tol = 1e-13 + 32 * EPS * np.linalg.cond(c2)
            assert max_rel_diff(shifted.t[i], base.t[i]) <= tol

    @settings(max_examples=30, deadline=None)
    @given(data=binned_velocities(), exps=st.lists(st.integers(-8, 8), min_size=3, max_size=3))
    def test_power_of_two_scaling(self, data, exps):
        positions, grid, v, _ = data
        s = 2.0 ** np.array(exps[: v.shape[1]])
        ss = np.outer(s, s)
        base, scaled = moments_of(positions, grid, v), moments_of(positions, grid, v * s)
        assert keys_of(scaled) == keys_of(base)
        np.testing.assert_array_equal(scaled.c2, base.c2 * ss)
        for i, c2 in enumerate(base.c2):
            tol = 1e-13 + 4 * EPS * (np.linalg.cond(c2) + np.linalg.cond(scaled.c2[i]))
            assert max_rel_diff(scaled.t[i] / ss, base.t[i]) <= tol


class TestQuadraticForm:
    """q = dv^T c2^+ dv is summed over the pair products dv_i dv_j (i <= j),
    weighted by p_ii or p_ij + p_ji, in another order than the
    three-operand einsum that defines it.  The two differ by rounding that
    grows with cond(c2)."""

    @settings(max_examples=30, deadline=None)
    @given(data=binned_velocities())
    def test_t_close_to_einsum_definition(self, data):
        positions, grid, v, _ = data
        flat = grid.flat_index(positions)
        flat[[0, -1]] = -1  # bin_samples leaves out the first and last sample
        moments = moments_of(positions, grid, v)
        for key, c2, m_t in zip(keys_of(moments), moments.c2, moments.t):
            dvl = v[flat == np.ravel_multi_index(key, grid.shape)]
            dvl = dvl - dvl.mean(axis=0)
            q = np.einsum("ti,ij,tj->t", dvl, np.linalg.pinv(c2, hermitian=True), dvl)
            t = (dvl * q[:, None]).T @ dvl / len(dvl)
            tol = 1e-14 + 2 * EPS * np.linalg.cond(c2)
            assert max_rel_diff(m_t, 0.5 * (t + t.T)) <= tol


# bin sizes either side of _CHUNK, and of the block of whole bins
SEGMENT_LENGTHS = (1, 2, 7, 60, 400, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 5)


@st.composite
def segmented_walks(draw):
    """(traj, grid, keep): N = 1..6 channels on a grid over [0, 1]^N of 3
    bins per axis (2 above N = 3), and a trajectory of segments, each of a
    length in SEGMENT_LENGTHS in one random bin, or outside the grid, so
    bins straddle _CHUNK; keep drops whole bins and every k-th sample, as
    a hand-built Binning may."""
    dim = draw(st.integers(1, 6))
    per_axis = 3 if dim <= 3 else 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(
        st.lists(st.sampled_from(SEGMENT_LENGTHS), min_size=1, max_size=6).filter(
            lambda lengths: sum(lengths) >= 3
        )
    )
    parts = []
    for length in lengths:
        corner = rng.integers(-1, per_axis, dim)  # -1: outside the grid
        parts.append((corner + 0.05 + 0.9 * rng.random((length, dim))) / per_axis)
    scale = 0.5 + rng.random(dim)
    traj = Trajectory(np.concatenate(parts) * scale, 0.5 + rng.random())
    grid = BinGrid(
        tuple(np.linspace(0.0, s, per_axis + 1) for s in scale), draw(st.integers(1, 60))
    )
    keep = np.ones(traj.n_samples, dtype=bool)
    if draw(st.booleans()):
        keep[:: draw(st.integers(2, 9))] = False
    flat = grid.flat_index(traj.samples)
    dropped = rng.choice(grid.shape[0] ** dim, draw(st.integers(0, 3)))
    keep &= ~np.isin(flat, dropped)
    return traj, grid, keep


class TestStackedMoments:
    @settings(max_examples=40, deadline=None)
    @given(segmented_walks())
    def test_matches_per_bin_reference(self, case):
        # each sum runs in another order than the reference's BLAS products
        traj, grid, keep = case
        ref = per_bin_moments(traj, grid, keep)
        binning = thin(bin_samples(traj, grid), keep)
        try:
            moments = accumulate_moments(traj, binning)
        except ValueError:
            assert not ref
            return
        assert_near_moments(moments, ref)

    def test_six_channels_on_a_3_per_axis_grid(self):
        # the shape of the six-channel benchmark fit, a few hundred bins
        rng = np.random.default_rng(9)
        n = 20_000
        traj = Trajectory(rng.random((n, 6)), 1.0)
        grid = build_grid(traj, (3,) * 6, min_count=20)
        ref = per_bin_moments(traj, grid)
        assert len(ref) > 300
        assert_near_moments(accumulate_moments(traj, bin_samples(traj, grid)), ref)

    def test_zero_c2_and_sparse_bins(self):
        # on dyadic edges along the diagonal: bin 0 holds 50 samples of a
        # line of dyadic steps, so of exactly equal velocities, bin 1 five
        # samples, bin 2 the rest
        rng = np.random.default_rng(6)
        line = 0.25 + (np.arange(52) - 51) * 2.0**-10  # rows 1..50 in bin 0, row 51 on its edge
        pos = np.concatenate([line, rng.uniform(0.3, 0.45, 4), rng.uniform(0.5, 0.75, 400), [0.75]])
        traj = Trajectory(np.column_stack([pos, pos]), 1.0)
        grid = BinGrid((np.linspace(0.0, 0.75, 4),) * 2, 10)
        moments = accumulate_moments(traj, bin_samples(traj, grid))
        assert keys_of(moments) == [(0, 0), (2, 2)]
        assert moments.count.tolist() == [50, 400]
        assert not moments.c2[0].any() and not moments.t[0].any()
        assert_near_moments(moments, per_bin_moments(traj, grid))

    def test_peak_memory_below_one_centred_copy(self):
        # a centred or sorted copy of the binned rows would alone take
        # n N 8 bytes
        n, dim = 200_000, 6
        rng = np.random.default_rng(8)
        traj = Trajectory(rng.random((n, dim)), 1.0)
        grid = build_grid(traj, (2,) * dim, min_count=1)
        tracemalloc.start()
        try:
            accumulate_moments(traj, bin_samples(traj, grid))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * dim * 8

    def test_peak_memory_of_one_large_bin(self):
        # one bin of 200 000 samples in 6-D: its sums go over _CHUNK-row
        # pieces, so the temporaries are a few _CHUNK x N(N + 1)/2 pair
        # products (measured: about 2.3 of them), whatever the bin's size
        n, dim = 200_000, 6
        noise = ("laplace", "uniform", "laplace", "uniform", "laplace", "gauss")
        traj = gen_bounded_walk(n, seed=0, dim=dim, noise=noise)
        binning = bin_samples(traj, build_grid(traj, (1,) * dim, min_count=1))
        tracemalloc.start()
        try:
            moments = accumulate_moments(traj, binning)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert moments.count.tolist() == [n - 2]
        assert peak < 4 * _CHUNK * dim * dim * 8


class TestEndpointRule:
    @pytest.mark.parametrize("end", [0, 49])
    def test_binning_that_lists_an_endpoint_refused(self, end):
        # neither has a central difference, and row 0's would wrap to
        # x[n - 1] - x[n - 3]
        traj = Trajectory(np.linspace(0.0, 1.0, 50), 1.0)
        binning = bin_samples(traj, BinGrid((np.array([0.0, 1.0]),), 1))
        order = binning.order.copy()
        order[0 if end == 0 else -1] = end
        listed = Binning(binning.grid, 50, order, binning.flat, binning.starts)
        with pytest.raises(ValueError, match="first or last sample"):
            accumulate_moments(traj, listed)
