"""One binning per fit: bin_samples groups the samples once, and both the
moments and the weights read that grouping.  The moments must equal the
bin-by-bin reference bit for bit, the weights the per-bin product bit for
bit and the einsum that defines them to 1e-15 of max|w| per channel."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerseries.estimate import accumulate_moments, bin_samples, build_grid
from innerseries.experiments import run_pipeline
from innerseries.ingest import gen_bounded_walk
from innerseries.model import BinGrid, FrameField, LocalFrame, Trajectory, VelocitySeries
from innerseries.weights import compute_weights
from stage_references import (
    assert_near_per_channel,
    assert_same_moments,
    einsum_weights,
    per_bin_moments,
    per_bin_weights,
)


@st.composite
def binned_fits(draw):
    """(traj, vel, field): N = 1..4 channels on a grid over [0, 1]^N of
    1..4 bins per axis.  Positions in [-0.1, 1.1]^N, skewed low, so some
    samples lie outside the grid, upper bins are sparse or empty and some
    fall under min_count; every k-th velocity invalid; frames on a random
    share of the bins, so others fall back one step or stay unresolved."""
    dim = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)))
    n = draw(st.integers(200, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = BinGrid(tuple(np.linspace(0.0, 1.0, s + 1) for s in shape), draw(st.integers(1, 40)))
    traj = Trajectory(1.2 * rng.random((n, dim)) ** 3 - 0.1, 1.0)
    mask = np.ones(n, dtype=bool)
    mask[:: draw(st.integers(2, 9))] = False
    vel = VelocitySeries(rng.laplace(size=(n, dim)) @ rng.standard_normal((dim, dim)), mask)
    share = draw(st.floats(0.05, 1.0))
    keys = [k for k in np.ndindex(shape) if rng.random() < share] or [(0,) * dim]
    frames = {}
    for k in keys:
        m = rng.standard_normal((dim, dim)) + 3 * np.eye(dim)
        frames[k] = LocalFrame(m, np.linalg.inv(m), np.arange(dim, 0, -1.0))
    return traj, vel, FrameField(grid, frames)


def reference_order(traj, vel, grid):
    """The valid in-grid samples stable-sorted on their int64 flat index."""
    flat = grid.flat_index(traj.samples)
    sel = np.flatnonzero(vel.valid_mask & (flat >= 0))
    return sel[np.argsort(flat[sel], kind="stable")], flat


class TestBinSamples:
    @settings(max_examples=60, deadline=None)
    @given(binned_fits())
    def test_moments_and_weights_match_references(self, case):
        traj, vel, field = case
        binning = bin_samples(traj, vel, field.grid)
        ref = per_bin_moments(traj, vel, field.grid)
        if ref:
            assert_same_moments(accumulate_moments(vel, binning), ref)
        else:
            with pytest.raises(ValueError, match="no occupied bins"):
                accumulate_moments(vel, binning)
        w = compute_weights(traj, vel, field, binning)
        ein_values, ein_valid, ein_fallback = einsum_weights(traj, vel, field)
        np.testing.assert_array_equal(w.valid_mask, ein_valid)
        np.testing.assert_array_equal(w.fallback_mask, ein_fallback)
        values, _, _ = per_bin_weights(traj, vel, field)
        assert w.values.tobytes() == values.tobytes()
        assert_near_per_channel(w.values, ein_values)

    @pytest.mark.parametrize(
        "shape, key_bytes",
        [((256,), 1), ((257,), 2), ((300, 200), 2), ((256, 256), 2), ((257, 256), 4)],
    )
    def test_order_equals_int64_stable_sort_at_every_key_width(self, shape, key_bytes):
        assert np.min_scalar_type(math.prod(shape) - 1).itemsize == key_bytes
        rng = np.random.default_rng(len(shape) * key_bytes)
        n = 100_000
        traj = Trajectory(rng.uniform(-0.05, 1.05, (n, len(shape))), 1.0)
        mask = rng.random(n) > 0.1
        vel = VelocitySeries(np.zeros((n, len(shape))), mask)
        grid = BinGrid(tuple(np.linspace(0.0, 1.0, s + 1) for s in shape), 1)
        binning = bin_samples(traj, vel, grid)
        order, flat = reference_order(traj, vel, grid)
        assert binning.order.dtype == np.int32
        np.testing.assert_array_equal(binning.order, order)
        # each listed bin: its flat index, and rows that all lie in it
        np.testing.assert_array_equal(binning.flat, np.unique(flat[order]))
        for f, rows in binning.groups():
            assert len(rows) and np.all(flat[rows] == f)
        assert binning.starts[-1] == len(order)

    def test_no_sample_in_grid(self):
        traj = Trajectory(np.linspace(2.0, 3.0, 50), 1.0)
        vel = VelocitySeries(np.ones((50, 1)), np.ones(50, dtype=bool))
        binning = bin_samples(traj, vel, BinGrid((np.linspace(0.0, 1.0, 5),), 1))
        assert len(binning.order) == len(binning.flat) == 0
        assert binning.starts.tolist() == [0]
        with pytest.raises(ValueError, match="no occupied bins"):
            accumulate_moments(vel, binning)

    def test_velocity_not_aligned(self):
        traj = Trajectory(np.linspace(0.0, 1.0, 50), 1.0)
        vel = VelocitySeries(np.ones((49, 1)), np.ones(49, dtype=bool))
        with pytest.raises(ValueError, match="not aligned"):
            bin_samples(traj, vel, BinGrid((np.linspace(0.0, 1.0, 5),), 1))

    @pytest.mark.parametrize("bins", [(200,), (300,)])
    def test_peak_memory_kept_order_plus_sort_buffers(self, bins):
        # kept: the int32 order and two entries per listed bin.  On the way:
        # at most the int64 flat index and one more n-long int64 array (a
        # search result or the sort permutation) beside the kept order, and
        # a few n-long masks and 8- or 16-bit keys
        n = 200_000
        rng = np.random.default_rng(3)
        traj = Trajectory(rng.random(n), 1.0)
        vel = VelocitySeries(rng.standard_normal((n, 1)), np.ones(n, dtype=bool))
        grid = build_grid(traj, bins, min_count=1)
        tracemalloc.start()
        try:
            binning = bin_samples(traj, vel, grid)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(binning.order) == n
        assert kept < 4 * n + 16 * (bins[0] + 1) + 8192
        assert peak < n * (4 + 2 * 8 + 4)


class TestOneBinningPerFit:
    def test_run_pipeline_computes_the_flat_index_once(self, monkeypatch):
        calls = []
        flat_index = BinGrid.flat_index

        def counted(grid, points):
            calls.append(len(points))
            return flat_index(grid, points)

        monkeypatch.setattr(BinGrid, "flat_index", counted)
        traj = gen_bounded_walk(20_000, seed=0, dim=2, noise=("laplace", "uniform"))
        run_pipeline(traj, (3, 3), None)
        assert calls == [20_000]

    def test_weights_reject_a_binning_on_another_grid(self):
        traj = gen_bounded_walk(5_000, seed=1, dim=2, noise=("laplace", "uniform"))
        res = run_pipeline(traj, (3, 3), None)
        vel = VelocitySeries(np.ones((5_000, 2)), np.ones(5_000, dtype=bool))
        other = build_grid(Trajectory(traj.samples * 2.0, 1.0), (3, 3))
        with pytest.raises(ValueError, match="another grid"):
            compute_weights(traj, vel, res.field, bin_samples(traj, vel, other))
        short = Trajectory(traj.samples[:-1], 1.0)
        vel_short = VelocitySeries(np.ones((4_999, 2)), np.ones(4_999, dtype=bool))
        with pytest.raises(ValueError, match="not aligned"):
            compute_weights(traj, vel, res.field, bin_samples(short, vel_short, res.field.grid))
