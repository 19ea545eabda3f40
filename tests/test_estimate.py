import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerseries.estimate import accumulate_moments, bin_samples, build_grid, estimate_velocity
from innerseries.ingest import gen_sine
from innerseries.model import BinGrid, Trajectory, VelocitySeries
from stage_references import assert_same_moments, keys_of, per_bin_moments


class TestEstimateVelocity:
    def test_linear_ramp_central(self):
        traj = Trajectory(np.array([0.0, 1.0, 2.0]), 1.0)
        vel = estimate_velocity(traj)
        assert vel.values[1, 0] == 1.0
        assert not vel.valid_mask[0] and not vel.valid_mask[-1]
        assert vel.valid_mask[1]

    def test_constant_signal(self):
        traj = Trajectory(np.full((10, 2), 3.0), 0.5)
        vel = estimate_velocity(traj)
        assert np.all(vel.values[vel.valid_mask] == 0.0)

    def test_sine_derivative_taylor_remainder(self):
        # central difference of sin(k*0.01) at k=100 is cos(1) + O(dt^2)
        traj = gen_sine(1.0, 0.01, 200)
        vel = estimate_velocity(traj)
        assert abs(vel.values[100, 0] - np.cos(1.0)) < 1e-4


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
        vel = VelocitySeries(rng.standard_normal((n, 2)), np.ones(n, dtype=bool))
        grid = build_grid(traj, [7, 5], min_count=1)
        flat = grid.flat_index(traj.samples)
        assert np.all(flat >= 0) and np.all(flat < 35)
        # every sample but the first and last, which bin_samples leaves out
        expect = {
            tuple(int(i) for i in np.unravel_index(f, grid.shape)): int(c)
            for f, c in enumerate(np.bincount(flat[1:-1], minlength=35))
            if c
        }
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
        assert dict(zip(keys_of(moments), moments.count.tolist())) == expect
        assert moments.count.sum() == n - 2

    def test_uniform_occupancy_binomial(self):
        # every bin count within 4 sigma of n/bins for uniform data
        rng = np.random.default_rng(1)
        n, nb = 500_000, 128
        traj = Trajectory(rng.random(n), 1.0)
        vel = VelocitySeries(rng.standard_normal((n, 1)), np.ones(n, dtype=bool))
        grid = build_grid(traj, [nb], min_count=1)
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
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


def _single_bin_setup(velocities):
    velocities = np.atleast_2d(np.asarray(velocities, dtype=float))
    if velocities.shape[0] == 1:
        velocities = velocities.T
    n = velocities.shape[0]
    traj = Trajectory(np.linspace(0, 1, n)[:, None], 1.0)
    grid = build_grid(traj, [1], min_count=1)
    vel = VelocitySeries(velocities, np.ones(n, dtype=bool))
    return traj, vel, grid


class TestAccumulateMoments:
    def test_pm_one_velocities(self):
        traj, vel, grid = _single_bin_setup([1.0, -1.0, 1.0, -1.0])
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
        assert keys_of(moments) == [(0,)]
        assert moments.c2[0, 0, 0] == 1.0
        assert moments.t[0, 0, 0] == 1.0

    def test_identical_velocities_zero_c2(self):
        traj, vel, grid = _single_bin_setup([2.0] * 6)
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
        assert keys_of(moments) == [(0,)]
        assert moments.c2[0, 0, 0] == 0.0
        assert moments.t[0, 0, 0] == 0.0

    def test_min_count_filters_bins(self):
        rng = np.random.default_rng(0)
        traj = Trajectory(rng.random(200), 1.0)
        vel = VelocitySeries(rng.standard_normal((200, 1)), np.ones(200, dtype=bool))
        grid = build_grid(traj, [4], min_count=10**6)
        with pytest.raises(ValueError):
            accumulate_moments(vel, bin_samples(traj, vel, grid))

    def test_occupancy_sum_matches_valid_samples(self):
        rng = np.random.default_rng(2)
        traj = Trajectory(rng.random(3000), 1.0)
        mask = np.ones(3000, dtype=bool)
        mask[:5] = False
        vel = VelocitySeries(rng.standard_normal((3000, 1)), mask)
        grid = build_grid(traj, [8], min_count=1)
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
        assert moments.count.sum() == mask[1:-1].sum()  # the last sample is never binned

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(3)
        traj = Trajectory(rng.random((4000, 2)), 1.0)
        vel = VelocitySeries(rng.standard_normal((4000, 2)), np.ones(4000, dtype=bool))
        grid = build_grid(traj, [3, 3], min_count=10)
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
        for c2, t in zip(moments.c2, moments.t):
            np.testing.assert_allclose(c2, c2.T)
            assert np.min(np.linalg.eigvalsh(c2)) >= -1e-12
            # t = E[q dv dv^T] with q = dv^T c2^-1 dv >= 0
            np.testing.assert_array_equal(t, t.T)
            assert np.min(np.linalg.eigvalsh(t)) >= -1e-12 * np.max(np.abs(t))

    def test_order_independence(self):
        rng = np.random.default_rng(4)
        n = 5000
        pos = rng.random((n, 1))
        v = rng.standard_normal((n, 1))
        # the first and last sample, never binned, stay in place
        order = np.concatenate([[0], 1 + rng.permutation(n - 2), [n - 1]])
        traj_a = Trajectory(pos, 1.0)
        traj_b = Trajectory(pos[order], 1.0)
        vel_a = VelocitySeries(v, np.ones(n, dtype=bool))
        vel_b = VelocitySeries(v[order], np.ones(n, dtype=bool))
        grid_a = build_grid(traj_a, [8], min_count=1)
        grid_b = build_grid(traj_b, [8], min_count=1)
        ma = accumulate_moments(vel_a, bin_samples(traj_a, vel_a, grid_a))
        mb = accumulate_moments(vel_b, bin_samples(traj_b, vel_b, grid_b))
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
        v = rng.standard_normal((n, 2))
        scale = np.array([c, 1.0])
        traj_a = Trajectory(pos, 1.0)
        traj_b = Trajectory(pos * scale, 1.0)
        vel_a = VelocitySeries(v, np.ones(n, dtype=bool))
        vel_b = VelocitySeries(v * scale, np.ones(n, dtype=bool))
        ga = build_grid(traj_a, [4, 4], min_count=1)
        gb = build_grid(traj_b, [4, 4], min_count=1)
        np.testing.assert_array_equal(ga.flat_index(traj_a.samples), gb.flat_index(traj_b.samples))
        ma = accumulate_moments(vel_a, bin_samples(traj_a, vel_a, ga))
        mb = accumulate_moments(vel_b, bin_samples(traj_b, vel_b, gb))
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
        v = rng.laplace(size=(2000, n_dim)) @ mix.T
        traj = Trajectory(rng.random((2000, n_dim)), 1.0)
        grid = build_grid(traj, [1] * n_dim, min_count=1)
        vel = VelocitySeries(v, np.ones(2000, dtype=bool))
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
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
        vel = VelocitySeries(rng.laplace(size=(3000, 7)), np.ones(3000, dtype=bool))
        grid = build_grid(traj, [1] * 7, min_count=1)
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
        assert moments.count.tolist() == [2998]  # all but the first and last
        assert moments.c2.shape == moments.t.shape == (1, 7, 7)

    def test_sine_c2_matches_analytic(self):
        # estimated C11 near a^2 - x^2 at bin centers for a unit sine
        a = 1.0
        traj = gen_sine(a, 0.01, 100_000)
        vel = estimate_velocity(traj)
        grid = build_grid(traj, [128], min_count=50)
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
        assert len(moments) > 100
        edges, k = grid.edges[0], moments.keys[:, 0]
        xc = 0.5 * (edges[k] + edges[k + 1])  # the bin centres
        assert np.all(np.abs(moments.c2[:, 0, 0] - (a * a - xc * xc)) < 0.05)


EPS = np.finfo(float).eps


@st.composite
def binned_velocities(draw):
    """(traj, grid, v): up to 3000 samples of N <= 3 correlated non-Gaussian
    velocity channels, on a 2-per-axis grid over uniform positions."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(300, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = np.column_stack(
        [rng.laplace(size=n) if j % 2 == 0 else rng.uniform(-1, 1, n) for j in range(dim)]
    )
    v = raw @ rng.standard_normal((dim, dim)) * 10.0 ** draw(st.floats(-3, 3))
    traj = Trajectory(rng.uniform(-1, 1, (n, dim)), 1.0)
    return traj, build_grid(traj, (2,) * dim, min_count=20), v


def moments_of(traj, grid, v):
    vel = VelocitySeries(v, np.ones(len(v), dtype=bool))
    return accumulate_moments(vel, bin_samples(traj, vel, grid))


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
        traj, grid, v = data
        offset = np.array(frac[: v.shape[1]]) * np.abs(v).max()
        base, shifted = moments_of(traj, grid, v), moments_of(traj, grid, v + offset)
        assert keys_of(shifted) == keys_of(base)
        np.testing.assert_array_equal(shifted.count, base.count)
        for i, c2 in enumerate(base.c2):
            assert max_rel_diff(shifted.c2[i], c2) <= 1e-13
            tol = 1e-13 + 32 * EPS * np.linalg.cond(c2)
            assert max_rel_diff(shifted.t[i], base.t[i]) <= tol

    @settings(max_examples=30, deadline=None)
    @given(data=binned_velocities(), exps=st.lists(st.integers(-8, 8), min_size=3, max_size=3))
    def test_power_of_two_scaling(self, data, exps):
        traj, grid, v = data
        s = 2.0 ** np.array(exps[: v.shape[1]])
        ss = np.outer(s, s)
        base, scaled = moments_of(traj, grid, v), moments_of(traj, grid, v * s)
        assert keys_of(scaled) == keys_of(base)
        np.testing.assert_array_equal(scaled.c2, base.c2 * ss)
        for i, c2 in enumerate(base.c2):
            tol = 1e-13 + 4 * EPS * (np.linalg.cond(c2) + np.linalg.cond(scaled.c2[i]))
            assert max_rel_diff(scaled.t[i] / ss, base.t[i]) <= tol


class TestQuadraticForm:
    """q = dv^T c2^-1 dv is summed as ((dv @ p) * dv).sum(1), in another
    order than the three-operand einsum that defines it.  The two differ by
    rounding that grows with cond(c2): over 400 draws of these inputs the
    largest gap in t was 0.68 eps cond(c2), and 2e-15 where cond(c2) < 100.
    """

    @settings(max_examples=30, deadline=None)
    @given(data=binned_velocities())
    def test_t_close_to_einsum_definition(self, data):
        traj, grid, v = data
        vel = VelocitySeries(v, np.ones(len(v), dtype=bool))
        flat = grid.flat_index(traj.samples)
        flat[[0, -1]] = -1  # bin_samples leaves out the first and last sample
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
        for key, c2, m_t in zip(keys_of(moments), moments.c2, moments.t):
            dvl = v[flat == np.ravel_multi_index(key, grid.shape)]
            dvl = dvl - dvl.mean(axis=0)
            q = np.einsum("ti,ij,tj->t", dvl, np.linalg.pinv(c2, hermitian=True), dvl)
            t = (dvl * q[:, None]).T @ dvl / len(dvl)
            tol = 1e-14 + 2 * EPS * np.linalg.cond(c2)
            assert max_rel_diff(m_t, 0.5 * (t + t.T)) <= tol


@st.composite
def sparse_binned_velocities(draw):
    """(traj, vel, grid): N <= 6 channels on a 3-per-axis grid (2 per axis
    above N = 3) over skewed positions, so some bins fall under min_count;
    every 7th velocity invalid; one bin's velocities all equal, so its c2
    is 0."""
    dim = draw(st.integers(1, 6))
    n = draw(st.integers(200, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    traj = Trajectory(rng.random((n, dim)) ** 2, 1.0)
    bins = (3 if dim <= 3 else 2,) * dim
    grid = build_grid(traj, bins, min_count=draw(st.integers(1, 60)))
    v = rng.laplace(size=(n, dim))
    flat = grid.flat_index(traj.samples)
    v[flat == flat[0]] = v[0]
    mask = np.ones(n, dtype=bool)
    mask[::7] = False
    return traj, VelocitySeries(v, mask), grid


class TestStackedMoments:
    @settings(max_examples=40, deadline=None)
    @given(sparse_binned_velocities())
    def test_bit_identical_to_per_bin_reference(self, case):
        traj, vel, grid = case
        ref = per_bin_moments(traj, vel, grid)
        try:
            moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
        except ValueError:
            assert not ref
            return
        assert_same_moments(moments, ref)

    def test_six_channels_on_a_3_per_axis_grid(self):
        # the shape of the six-channel benchmark fit, a few hundred bins
        rng = np.random.default_rng(9)
        n = 20_000
        traj = Trajectory(rng.random((n, 6)), 1.0)
        v = rng.laplace(size=(n, 6)) @ rng.standard_normal((6, 6))
        vel = VelocitySeries(v, np.ones(n, dtype=bool))
        grid = build_grid(traj, (3,) * 6, min_count=20)
        ref = per_bin_moments(traj, vel, grid)
        assert len(ref) > 300
        assert_same_moments(accumulate_moments(vel, bin_samples(traj, vel, grid)), ref)

    def test_zero_c2_and_sparse_bins(self):
        # bin 0 holds 50 equal velocities, bin 1 five samples, bin 2 the rest
        rng = np.random.default_rng(6)
        pos = np.concatenate([np.full(50, 0.1), np.full(5, 0.5), rng.uniform(0.7, 0.9, 400)])
        pos[0], pos[-1] = 0.0, 0.9  # span [0, 0.9]: three bins of width 0.3
        v = np.concatenate([np.full((50, 2), 1.5), rng.laplace(size=(405, 2))])
        traj = Trajectory(np.column_stack([pos, pos]), 1.0)
        vel = VelocitySeries(v, np.ones(len(pos), dtype=bool))
        grid = build_grid(traj, [3, 3], min_count=10)
        moments = accumulate_moments(vel, bin_samples(traj, vel, grid))
        assert keys_of(moments) == [(0, 0), (2, 2)]
        assert not moments.c2[0].any() and not moments.t[0].any()
        assert_same_moments(moments, per_bin_moments(traj, vel, grid))

    def test_peak_memory_below_one_centred_copy(self):
        # a centred or sorted copy of the valid rows would alone take
        # n N 8 bytes
        n, dim = 200_000, 6
        rng = np.random.default_rng(8)
        traj = Trajectory(rng.random((n, dim)), 1.0)
        vel = VelocitySeries(rng.laplace(size=(n, dim)), np.ones(n, dtype=bool))
        grid = build_grid(traj, (2,) * dim, min_count=1)
        tracemalloc.start()
        try:
            accumulate_moments(vel, bin_samples(traj, vel, grid))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * dim * 8
