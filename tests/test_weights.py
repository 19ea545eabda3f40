import csv
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerseries.estimate import bin_samples, estimate_velocity
from innerseries.ingest import _CHUNK, gen_bounded_walk, gen_sine
from innerseries.experiments import run_pipeline, sine_sign_match
from innerseries.model import (
    BinGrid,
    DimensionMismatchError,
    FrameField,
    LocalFrame,
    Trajectory,
    VelocitySeries,
    WeightSeries,
)
from innerseries.weights import (
    _PRODUCT_ROWS,
    MIN_OVERLAP,
    AlignmentError,
    _bin_lookup,
    _corr_matrix,
    align_weight_series,
    compute_weights,
    cross_channel_correlation,
    read_csv_weights,
    separability_report,
    write_csv_weights,
)
from signed_gauge import apply_to_array, inverse
from stage_references import assert_near_per_channel, einsum_weights, per_bin_weights


ONLY_50_JOINT = rf"only 50 jointly valid samples \(need {MIN_OVERLAP}\)"


@pytest.fixture(scope="module")
def walk_pipeline():
    traj = gen_bounded_walk(40_000, seed=0, dim=2, noise=("laplace", "uniform"))
    return run_pipeline(traj, (3, 3), None)


class TestComputeWeights:
    def test_resubstitution_per_sample(self, walk_pipeline):
        # every valid weight sample equals M_bin(x) . xdot recomputed by hand
        res = walk_pipeline
        grid = res.field.grid
        flat = grid.flat_index(res.traj.samples)
        vel = estimate_velocity(res.traj)
        scale = max(np.max(np.abs(res.weights.values)), 1.0)
        checked = 0
        for t in np.flatnonzero(res.weights.valid_mask & ~res.weights.fallback_mask):
            key = tuple(int(i) for i in np.unravel_index(flat[t], grid.shape))
            expect = res.field.frames[key].m @ vel.values[t]
            assert np.max(np.abs(res.weights.values[t] - expect)) < 1e-12 * scale
            checked += 1
        assert checked > 10_000

    def test_invalid_velocity_samples_excluded(self, walk_pipeline):
        res = walk_pipeline
        assert not res.weights.valid_mask[0]
        assert not res.weights.valid_mask[-1]
        assert np.all(res.weights.values[~res.weights.valid_mask] == 0.0)

    def test_zero_velocity_gives_zero_weight(self, walk_pipeline):
        res = walk_pipeline
        vel = estimate_velocity(res.traj)
        vel0 = VelocitySeries(np.zeros_like(vel.values), vel.valid_mask.copy())
        binning = bin_samples(res.traj, vel0, res.field.grid)
        w0 = compute_weights(res.traj, vel0, res.field, binning)
        assert np.all(w0.values == 0.0)

    def test_sine_sign_match_small(self):
        traj = gen_sine(1.0, 0.01, 20_000)
        res = run_pipeline(traj, (64,), None)
        assert sine_sign_match(traj, res.weights, 1.0) > 0.95

    def test_scale_covariance(self, walk_pipeline):
        # scaling the measurement axes by powers of two leaves the weight
        # series unchanged up to a signed permutation
        res = walk_pipeline
        scale = np.array([4.0, 0.5])
        traj_s = Trajectory(res.traj.samples * scale, res.traj.dt)
        res_s = run_pipeline(traj_s, (3, 3), None)
        perm, signs, corrs = align_weight_series(res.weights, res_s.weights)
        aligned = apply_to_array((perm, signs), res_s.weights.values)
        joint = res.weights.valid_mask & res_s.weights.valid_mask
        diff = np.max(np.abs(aligned[joint] - res.weights.values[joint]))
        assert diff < 1e-10 * max(np.max(np.abs(res.weights.values)), 1.0)

    def test_fallback_bins_independent_of_units(self):
        # the fallback bin is picked in grid steps, so rescaling a channel
        # leaves fallback samples as invariant as own-bin samples
        traj = gen_bounded_walk(20_000, seed=3, dim=2, noise=("laplace", "uniform"))
        scaled = Trajectory(traj.samples * np.array([8.0, 0.25]), traj.dt)
        res, res_s = run_pipeline(traj, (6, 6), None), run_pipeline(scaled, (6, 6), None)
        w = res.weights
        assert w.fallback_mask[w.valid_mask].sum() > 300
        perm, signs, corrs = align_weight_series(w, res_s.weights)
        aligned = apply_to_array((perm, signs), res_s.weights.values)
        np.testing.assert_array_equal(res_s.weights.valid_mask, w.valid_mask)
        np.testing.assert_array_equal(res_s.weights.fallback_mask, w.fallback_mask)
        diff = np.max(np.abs(aligned[w.valid_mask] - w.values[w.valid_mask]))
        assert diff < 1e-12 * np.max(np.abs(w.values))
        np.testing.assert_allclose(corrs, 1.0, rtol=0, atol=1e-12)


def _random_field_inputs(n, dim, seed=0, margin=0.1):
    """A 3^dim grid on [0, 1]^dim whose occupied bins are those with every
    index below 2, random well-conditioned frames, and samples drawn from
    [-margin, 1 + margin]^dim with every 20th velocity invalid.  So samples
    in the top layer of bins fall back one step, and samples outside the
    grid are invalid."""
    rng = np.random.default_rng(seed)
    grid = BinGrid(tuple(np.linspace(0.0, 1.0, 4) for _ in range(dim)), 1)
    frames = {}
    for key in np.ndindex(grid.shape):
        if max(key) < 2:
            m = rng.standard_normal((dim, dim)) + 3 * np.eye(dim)
            frames[key] = LocalFrame(m, np.linalg.inv(m), np.arange(dim, 0, -1.0))
    traj = Trajectory(rng.uniform(-margin, 1 + margin, (n, dim)), 0.5)
    mask = np.ones(n, dtype=bool)
    mask[::20] = False
    vel = VelocitySeries(rng.standard_normal((n, dim)), mask)
    return traj, vel, FrameField(grid, frames)


def full_sweep_lookup(field):
    """Reference: flat-bin -> slot map and fallback mask from every one of
    the 3^N - 1 offsets, fewest axes first."""
    shape = field.grid.shape
    slots = np.full(shape, -1, dtype=np.int64)
    for i, k in enumerate(field.frames):
        slots[k] = i
    padded = np.pad(slots, 1, constant_values=-1)
    chosen = slots.copy()
    offsets = sorted(itertools.product((-1, 0, 1), repeat=len(shape)), key=np.count_nonzero)
    for offset in offsets[1:]:
        shifted = padded[tuple(slice(1 + o, 1 + o + s) for o, s in zip(offset, shape))]
        take = (chosen < 0) & (shifted >= 0)
        chosen[take] = shifted[take]
    return chosen.ravel(), (chosen.ravel() >= 0) & (slots.ravel() < 0)


def identity_field(shape, occupied):
    eye = np.eye(len(shape))
    frames = {k: LocalFrame(eye, eye, np.ones(len(shape))) for k in occupied}
    return FrameField(BinGrid(tuple(np.linspace(0, 1, s + 1) for s in shape), 1), frames)


@st.composite
def occupancies(draw):
    """A field of N <= 4 axes of 1..5 bins with a random share occupied."""
    dim = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupied = rng.random(shape) < draw(st.floats(0.02, 1.0))
    return identity_field(shape, [k for k in np.ndindex(shape) if occupied[k]] or [(0,) * dim])


class TestBinLookup:
    @settings(max_examples=80, deadline=None)
    @given(occupancies())
    def test_early_stop_matches_full_sweep(self, field):
        flat_to_slot, fallback = _bin_lookup(field)
        ref_slots, ref_fallback = full_sweep_lookup(field)
        np.testing.assert_array_equal(flat_to_slot, ref_slots)
        np.testing.assert_array_equal(fallback, ref_fallback)

    def test_bin_with_no_occupied_neighbour_stays_unresolved(self):
        # 1-D: (1,) borrows (0,); 2-D: (3, 3) is two steps from (0, 0)
        flat_to_slot, fallback = _bin_lookup(identity_field((4,), [(0,)]))
        assert flat_to_slot.tolist() == [0, 0, -1, -1]
        assert fallback.tolist() == [False, True, False, False]
        field = identity_field((4, 4), [(0, 0), (0, 3)])
        flat_to_slot, fallback = _bin_lookup(field)
        assert flat_to_slot.reshape(4, 4)[3].tolist() == [-1, -1, -1, -1]
        assert flat_to_slot.reshape(4, 4)[1].tolist() == [0, 0, 1, 1]
        ref_slots, ref_fallback = full_sweep_lookup(field)
        np.testing.assert_array_equal(flat_to_slot, ref_slots)
        np.testing.assert_array_equal(fallback, ref_fallback)


class TestBlockwiseWeights:
    @pytest.mark.parametrize("dim", [1, 2, 6])
    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, 2 * _CHUNK + 1])
    def test_bit_identical_to_whole_array(self, n, dim):
        # bit for bit against the per-bin reference (a product per large
        # bin, the einsum per sample in the others); the one einsum over all
        # samples that defines w sums the large bins in another order, so it
        # is matched to 1e-15 of max|w| per channel
        traj, vel, field = _random_field_inputs(n, dim, seed=dim)
        values, valid, fallback = per_bin_weights(traj, vel, field)
        w = compute_weights(traj, vel, field, bin_samples(traj, vel, field.grid))
        assert fallback.any() and (vel.valid_mask & ~valid).any()
        np.testing.assert_array_equal(w.valid_mask, valid)
        np.testing.assert_array_equal(w.fallback_mask, fallback)
        assert w.values.tobytes() == values.tobytes()
        ein_values, ein_valid, ein_fallback = einsum_weights(traj, vel, field)
        np.testing.assert_array_equal(ein_valid, valid)
        np.testing.assert_array_equal(ein_fallback, fallback)
        assert_near_per_channel(w.values, ein_values)

    def test_bins_either_side_of_the_product_size(self):
        # bins of _PRODUCT_ROWS - 1, _PRODUCT_ROWS and _PRODUCT_ROWS + 1
        # samples, and a fourth bin without a frame that borrows the third's
        k = _PRODUCT_ROWS
        counts = [k - 1, k, k + 1, 5]
        rng = np.random.default_rng(7)
        x = np.repeat((np.arange(4) + 0.5) / 4, counts)
        samples = np.column_stack([x, np.full(len(x), 0.5)])[rng.permutation(len(x))]
        traj = Trajectory(samples, 1.0)
        vel = VelocitySeries(rng.standard_normal((len(x), 2)), np.ones(len(x), dtype=bool))
        grid = BinGrid((np.linspace(0.0, 1.0, 5), np.array([0.0, 1.0])), 1)
        frames = {}
        for key in [(0, 0), (1, 0), (2, 0)]:
            m = rng.standard_normal((2, 2)) + 3 * np.eye(2)
            frames[key] = LocalFrame(m, np.linalg.inv(m), np.array([2.0, 1.0]))
        field = FrameField(grid, frames)
        w = compute_weights(traj, vel, field, bin_samples(traj, vel, grid))
        values, valid, fallback = per_bin_weights(traj, vel, field)
        assert valid.all() and np.count_nonzero(fallback) == 5
        np.testing.assert_array_equal(w.valid_mask, valid)
        np.testing.assert_array_equal(w.fallback_mask, fallback)
        assert w.values.tobytes() == values.tobytes()
        assert_near_per_channel(w.values, einsum_weights(traj, vel, field)[0])

    def test_fine_grid_of_sparse_bins(self):
        # 40 000 samples over 200 x 200 bins, about one per bin, a frame on
        # every seventh bin: most bins fall back or stay unresolved
        rng = np.random.default_rng(11)
        n, shape = 40_000, (200, 200)
        traj = Trajectory(rng.random((n, 2)), 1.0)
        mask = rng.random(n) > 0.05
        vel = VelocitySeries(rng.standard_normal((n, 2)), mask)
        grid = BinGrid(tuple(np.linspace(0.0, 1.0, s + 1) for s in shape), 1)
        m = np.array([[2.0, 1.0], [-1.0, 3.0]])
        frame = LocalFrame(m, np.linalg.inv(m), np.array([2.0, 1.0]))
        field = FrameField(grid, {k: frame for i, k in enumerate(np.ndindex(shape)) if i % 7 == 0})
        w = compute_weights(traj, vel, field, bin_samples(traj, vel, grid))
        values, valid, fallback = per_bin_weights(traj, vel, field)
        assert fallback.any() and (mask & ~valid).any()
        np.testing.assert_array_equal(w.valid_mask, valid)
        np.testing.assert_array_equal(w.fallback_mask, fallback)
        assert w.values.tobytes() == values.tobytes()
        assert_near_per_channel(w.values, einsum_weights(traj, vel, field)[0])

    def test_peak_memory_below_one_frame_per_sample(self):
        # every sample in the grid: a frame gathered for each would alone
        # take n N^2 8 bytes
        n, dim = 50_000, 6
        traj, vel, field = _random_field_inputs(n, dim, margin=0.0)
        binning = bin_samples(traj, vel, field.grid)
        tracemalloc.start()
        try:
            compute_weights(traj, vel, field, binning)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * dim * dim * 8

    def test_peak_memory_below_output_plus_one_index_per_sample(self):
        # the weights, valid and fallback masks take n (8 N + 2) bytes; an
        # n-long bin or slot index would take 8 n more on its own
        n, dim = 200_000, 1
        traj, vel, field = _random_field_inputs(n, dim, margin=0.0)
        binning = bin_samples(traj, vel, field.grid)
        tracemalloc.start()
        try:
            compute_weights(traj, vel, field, binning)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * (8 * dim + 2) + 8 * n


def _whole_array_corr(a, b, mask):
    """Reference: one two-pass correlation over copies of the masked rows."""
    ac = a[mask] - a[mask].mean(axis=0)
    bc = b[mask] - b[mask].mean(axis=0)
    return (ac.T @ bc) / np.sqrt(np.outer((ac**2).sum(axis=0), (bc**2).sum(axis=0)))


def _correlated_columns(rng, n, na=2, nb=3):
    """Columns of a and b with nonzero means and every cross correlation
    well away from zero, so a relative tolerance applies to each entry."""
    base = rng.laplace(size=(n, 1)) + 5.0
    a = base + 0.5 * rng.standard_normal((n, na)) + np.arange(na)
    b = -2.0 * base + rng.uniform(-1, 1, (n, nb)) - 100.0
    return a, b


def _straddling_mask(n, rng):
    """Invalid runs across every block edge, at both ends, and at random."""
    mask = rng.random(n) > 0.05
    for edge in range(0, n + 1, _CHUNK):
        mask[max(edge - 3, 0) : edge + 3] = False
    mask[-2:] = False
    return mask


class TestBlockwiseCorrelations:
    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, 2 * _CHUNK + 1])
    def test_matches_whole_array(self, n, masked):
        rng = np.random.default_rng(n)
        a, b = _correlated_columns(rng, n)
        mask = _straddling_mask(n, rng) if masked else np.ones(n, dtype=bool)
        ref = _whole_array_corr(a, b, mask)
        assert np.min(np.abs(ref)) > 0.1
        np.testing.assert_allclose(_corr_matrix(a, b, mask), ref, rtol=1e-12, atol=0)

    def test_zero_variance_over_masked_rows(self):
        # the second channel varies only in rows the mask leaves out
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3 * _CHUNK, 2))
        mask = np.ones(len(a), dtype=bool)
        mask[_CHUNK : _CHUNK + 10] = False
        a[:, 1] = np.where(mask, 0.0, 5.0)
        with pytest.raises(AlignmentError, match="zero-variance channel"):
            _corr_matrix(a, a, mask)

    def test_scaled_copy_correlations_within_one(self):
        # a channel against a power-of-two multiple of itself: the centered
        # cross sum can round above the product of the square sums
        a = np.random.default_rng(8).standard_normal((3000, 2))
        b = a * [8.0, 0.25]
        mask = np.ones(len(a), dtype=bool)
        assert np.max(np.abs(_corr_matrix(a, b, mask))) <= 1.0
        perm, signs, corrs = align_weight_series(WeightSeries(a, mask), WeightSeries(b, mask))
        assert perm.tolist() == [0, 1] and signs.tolist() == [1, 1]
        assert corrs.tolist() == [1.0, 1.0]

    def test_cross_channel_diagonal_exactly_one(self):
        # invalid rows may hold NaN; they must not reach the sums
        rng = np.random.default_rng(1)
        n = 2 * _CHUNK + 1
        a, _ = _correlated_columns(rng, n, na=3)
        mask = _straddling_mask(n, rng)
        a[~mask] = np.nan
        c = cross_channel_correlation(WeightSeries(a, mask))
        assert np.all(np.diag(c) == 1.0)
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(c[off], _whole_array_corr(a, a, mask)[off], rtol=1e-12)


class TestAlignWeightSeries:
    def _series(self, rng, n=2000, dim=2):
        v = np.stack(
            [rng.laplace(size=n)] + [rng.uniform(-1, 1, size=n) for _ in range(dim - 1)],
            axis=1,
        )
        return WeightSeries(v, np.ones(n, dtype=bool))

    def test_identity(self):
        w = self._series(np.random.default_rng(0))
        perm, signs, corrs = align_weight_series(w, w)
        assert perm.tolist() == [0, 1] and signs.tolist() == [1, 1]
        np.testing.assert_allclose(corrs, 1.0, atol=1e-12)

    def test_swap_and_negate_recovered(self):
        w = self._series(np.random.default_rng(1))
        p_true = (np.array([1, 0]), np.array([1, -1]))
        wp = WeightSeries(apply_to_array(p_true, w.values), w.valid_mask)
        perm, signs, corrs = align_weight_series(wp, w)
        np.testing.assert_array_equal((perm, signs), p_true)
        np.testing.assert_allclose(corrs, 1.0, atol=1e-12)

    def test_recovery_under_noise(self):
        rng = np.random.default_rng(2)
        w = self._series(rng, n=5000)
        p_true = (np.array([1, 0]), np.array([-1, 1]))
        wp = apply_to_array(p_true, w.values)
        wp += 0.1 * wp.std(axis=0) * rng.standard_normal(wp.shape)
        perm, signs, corrs = align_weight_series(WeightSeries(wp, w.valid_mask), w)
        np.testing.assert_array_equal((perm, signs), p_true)
        assert np.min(corrs) > 0.99

    @settings(max_examples=40, deadline=None)
    @given(
        p_true=st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.permutations(range(n)).map(np.array),
                st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n).map(np.array),
            )
        )
    )
    def test_random_signed_permutation_undone(self, p_true):
        # w is matched to a signed permutation of itself: the answer is the
        # permutation that undoes it
        w = self._series(np.random.default_rng(2), n=5000, dim=len(p_true[0]))
        wp = WeightSeries(apply_to_array(p_true, w.values), w.valid_mask)
        perm, signs, corrs = align_weight_series(w, wp)
        np.testing.assert_array_equal((perm, signs), inverse(p_true))
        assert np.min(corrs) > 1 - 1e-12

    def test_too_few_joint_samples(self):
        w = self._series(np.random.default_rng(3), n=300)
        mask = np.zeros(300, dtype=bool)
        mask[:50] = True
        short = WeightSeries(w.values, mask)
        with pytest.raises(AlignmentError, match=ONLY_50_JOINT):
            align_weight_series(short, w)

    def test_zero_variance_channel(self):
        n = 500
        a = WeightSeries(np.zeros((n, 1)), np.ones(n, dtype=bool))
        with pytest.raises(AlignmentError):
            align_weight_series(a, a)


class TestCrossChannelCorrelation:
    def test_identical_channels(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        w = WeightSeries(np.stack([x, x], axis=1), np.ones(1000, dtype=bool))
        c = cross_channel_correlation(w)
        np.testing.assert_allclose(c, np.ones((2, 2)), atol=1e-12)

    def test_anti_correlated(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000)
        w = WeightSeries(np.stack([x, -x], axis=1), np.ones(1000, dtype=bool))
        assert cross_channel_correlation(w)[0, 1] == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(2)
        w = WeightSeries(rng.standard_normal((200_00, 2)), np.ones(200_00, dtype=bool))
        assert abs(cross_channel_correlation(w)[0, 1]) < 0.05


class TestSeparability:
    def _sources(self, rng, n=5000):
        s1 = WeightSeries(rng.laplace(size=(n, 1)), np.ones(n, dtype=bool))
        s2 = WeightSeries(rng.uniform(-1, 1, size=(n, 1)), np.ones(n, dtype=bool))
        return s1, s2

    def test_exact_concatenation_passes(self):
        rng = np.random.default_rng(0)
        s1, s2 = self._sources(rng)
        mix = WeightSeries(
            np.concatenate([s2.values, -s1.values], axis=1),
            np.ones(len(s1), dtype=bool),
        )
        rep = separability_report(mix, [s1, s2])
        assert rep.passed
        assert rep.min_channel_corr > 0.999
        assert rep.max_cross_corr < 0.05

    def test_shuffled_mixture_fails(self):
        # destroying the sample pairing kills the channel correlations
        rng = np.random.default_rng(1)
        s1, s2 = self._sources(rng)
        order = rng.permutation(len(s1))
        mix = WeightSeries(
            np.concatenate([s1.values[order], s2.values[order]], axis=1),
            np.ones(len(s1), dtype=bool),
        )
        rep = separability_report(mix, [s1, s2])
        assert not rep.passed
        assert rep.min_channel_corr < 0.5

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        s1, s2 = self._sources(rng)
        mix = WeightSeries(rng.standard_normal((len(s1), 3)), np.ones(len(s1), dtype=bool))
        with pytest.raises(DimensionMismatchError):
            separability_report(mix, [s1, s2])

    def test_source_mask_excludes_mixture_rows(self):
        # rows the mixture keeps but a source marks invalid hold garbage in
        # that source; only the jointly valid rows are scored
        rng = np.random.default_rng(3)
        n = 2 * _CHUNK + 1
        s1, s2 = self._sources(rng, n)
        mix_values = np.concatenate([s2.values, -s1.values], axis=1)
        mix_values += 0.1 * rng.standard_normal((n, 2))
        mask1 = _straddling_mask(n, rng)
        s1 = WeightSeries(np.where(mask1[:, None], s1.values, 1e6), mask1)
        mix = WeightSeries(mix_values, np.ones(n, dtype=bool))
        rep = separability_report(mix, [s1, s2])
        ref = _whole_array_corr(np.concatenate([s1.values, s2.values], axis=1), mix_values, mask1)
        np.testing.assert_array_equal((rep.perm, rep.signs), ([1, 0], [-1, 1]))
        np.testing.assert_allclose(
            rep.channel_correlations, np.abs(ref[[0, 1], [1, 0]]), rtol=1e-12
        )
        assert rep.passed

    def test_too_few_joint_samples(self):
        rng = np.random.default_rng(4)
        s1, s2 = self._sources(rng, 300)
        mask = np.zeros(300, dtype=bool)
        mask[:50] = True
        mix = WeightSeries(np.concatenate([s1.values, s2.values], axis=1), np.ones(300, dtype=bool))
        with pytest.raises(AlignmentError, match=ONLY_50_JOINT):
            separability_report(mix, [WeightSeries(s1.values, mask), s2])

    def test_peak_memory_below_one_weight_copy(self):
        # one n x N float copy of the mixture would alone take n N 8 bytes
        n, dim = 200_000, 2
        rng = np.random.default_rng(5)
        s1, s2 = self._sources(rng, n)
        mask = rng.random(n) > 0.01
        mix = WeightSeries(np.concatenate([s2.values, s1.values], axis=1), mask)
        tracemalloc.start()
        try:
            separability_report(mix, [s1, s2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * dim * 8


class TestWeightsCsv:
    def test_roundtrip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        mask = rng.random(40) > 0.2
        w = WeightSeries(rng.standard_normal((40, 2)), mask, dt=0.125)
        p = tmp_path / "w.csv"
        write_csv_weights(w, p)
        back = read_csv_weights(p)
        np.testing.assert_array_equal(back.values, w.values)
        np.testing.assert_array_equal(back.valid_mask, w.valid_mask)
        assert back.dt == w.dt

    @pytest.mark.parametrize("dim", [1, 6])
    def test_writer_bytes_match_csv_writer(self, tmp_path, dim):
        # reference: the row-at-a-time csv.writer the writer must reproduce;
        # invalid rows may hold NaN
        rng = np.random.default_rng(dim)
        values = rng.standard_normal((9000, dim)) * 10.0 ** rng.integers(-300, 300, (9000, dim))
        mask = rng.random(9000) > 0.1
        values[~mask] = np.where(rng.random(((~mask).sum(), dim)) < 0.5, np.nan, 0.0)
        names = [f"w{i + 1}" for i in range(dim)]
        w = WeightSeries(values, mask, dt=1 / 16000)
        ref = tmp_path / "ref.csv"
        with ref.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", *names, "valid"])
            for k in range(len(w)):
                writer.writerow(
                    [repr(float(k * w.dt)), *(repr(float(v)) for v in values[k]), int(mask[k])]
                )
        out = tmp_path / "out.csv"
        write_csv_weights(w, out)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1,1\n1,2,1\n3,3,1\n", r"non-uniform timestamps in column 't'"),
            ("0,1,1\n1,2,2\n2,3,1\n", r"row 3, column 'valid': expected 0 or 1, got 2"),
            ("0,1,1\n1,2\n2,3,1\n", r"row 3 has 2 cells, expected 3"),
            ("0,1,1\n1,x,1\n2,3,1\n", r"row 3, column 'w1': not a number: 'x'"),
            ("0,1,1\n1,nan,0\n2,3,1\n", r"row 3, column 'w1': non-finite value"),
            ("", "no data rows"),
            ("0,1,1\n", r"one data row, cannot infer dt from column 't'"),
        ],
    )
    def test_reader_rejects(self, tmp_path, body, message):
        p = tmp_path / "w.csv"
        p.write_text("t,w1,valid\n" + body)
        with pytest.raises(ValueError, match=message):
            read_csv_weights(p)
