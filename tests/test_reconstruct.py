import numpy as np
import pytest

from innerseries.ingest import gen_bounded_walk, gen_sine
from innerseries.experiments import run_pipeline
from innerseries.model import (
    BinGrid,
    DimensionMismatchError,
    FrameField,
    LocalFrame,
    Trajectory,
    WeightSeries,
)
from innerseries.reconstruct import integrate_weights
from innerseries.weights import _bin_lookup


def integrate_weights_reference(w, field, x0, steps):
    """integrate_weights with numpy calls on the one point each step: the
    bounds test, the clip and the bin lookup through grid.flat_index."""
    grid = field.grid
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    flat_to_slot, _ = _bin_lookup(field)
    v_stack = np.stack([f.v for f in field.frames.values()])
    lo = np.array([e[0] for e in grid.edges])
    hi = np.array([e[-1] for e in grid.edges])
    slack = grid.step_sizes()
    path = [x0]
    x = x0
    truncated = False
    for k in range(steps):
        if np.any(x < lo - slack) or np.any(x > hi + slack):
            truncated = True
            break
        slot = flat_to_slot[grid.flat_index(np.clip(x, lo, hi))[0]]
        if slot < 0:
            truncated = True
            break
        if w.valid_mask[k]:
            x = x + w.dt * (v_stack[slot] @ w.values[k])
        path.append(x)
    return Trajectory(np.stack(path), w.dt), truncated


def single_bin_field(v_matrix):
    v_matrix = np.asarray(v_matrix, dtype=float)
    n = v_matrix.shape[0]
    m = np.linalg.inv(v_matrix)
    edges = tuple(np.array([-10.0, 10.0]) for _ in range(n))
    grid = BinGrid(edges, 1)
    frame = LocalFrame(m, v_matrix, np.linspace(3, 1, n))
    return FrameField(grid, {(0,) * n: frame}, {(0,) * n: 0})


class TestIntegrateWeights:
    def test_zero_weights_constant_path(self):
        field = single_bin_field(np.eye(2))
        w = WeightSeries(np.zeros((50, 2)), np.ones(50, dtype=bool), dt=0.1)
        traj, truncated = integrate_weights(w, field, np.zeros(2), 50)
        assert not truncated
        assert np.all(traj.samples == 0.0)
        assert traj.n_samples == 51

    def test_constant_weight_exact_line(self):
        # with a single bin and constant V the path is exactly linear
        v = np.array([[2.0]])
        field = single_bin_field(v)
        c, dt, steps = 0.25, 0.5, 20
        w = WeightSeries(np.full((steps, 1), c), np.ones(steps, dtype=bool), dt=dt)
        traj, truncated = integrate_weights(w, field, np.zeros(1), steps)
        assert not truncated
        expect = np.arange(steps + 1) * (dt * c * v[0, 0])
        np.testing.assert_allclose(traj.samples[:, 0], expect, atol=1e-14)

    def test_single_step_matrix_action(self):
        v = np.array([[1.0, 0.5], [-0.25, 2.0]])
        field = single_bin_field(v)
        wk = np.array([0.3, -0.7])
        w = WeightSeries(np.vstack([wk, np.zeros((2, 2))]), np.ones(3, dtype=bool), dt=0.125)
        traj, _ = integrate_weights(w, field, np.zeros(2), 1)
        np.testing.assert_allclose(traj.samples[1], 0.125 * (v @ wk), atol=1e-15)

    def test_invalid_samples_contribute_nothing(self):
        field = single_bin_field(np.eye(1))
        mask = np.array([True, False, True, False], dtype=bool)
        w = WeightSeries(np.ones((4, 1)), mask, dt=1.0)
        traj, _ = integrate_weights(w, field, np.zeros(1), 4)
        np.testing.assert_allclose(traj.samples[:, 0], [0, 1, 1, 2, 2])

    def test_different_starts_differ(self):
        field = single_bin_field(np.eye(1))
        w = WeightSeries(np.ones((10, 1)), np.ones(10, dtype=bool), dt=0.1)
        a, _ = integrate_weights(w, field, np.zeros(1), 10)
        b, _ = integrate_weights(w, field, np.full(1, 2.0), 10)
        np.testing.assert_allclose(b.samples - a.samples, 2.0, atol=1e-14)

    def test_truncation_on_exit(self):
        field = single_bin_field(np.eye(1))
        w = WeightSeries(np.full((100, 1), 5.0), np.ones(100, dtype=bool), dt=1.0)
        traj, truncated = integrate_weights(w, field, np.zeros(1), 100)
        assert truncated
        assert traj.n_samples < 101

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_path_holds_steps_plus_one(self, steps):
        field = single_bin_field(np.eye(1))
        w = WeightSeries(np.ones((5, 1)), np.ones(5, dtype=bool), dt=1.0)
        traj, truncated = integrate_weights(w, field, np.zeros(1), steps)
        assert not truncated
        np.testing.assert_array_equal(traj.samples[:, 0], np.arange(steps + 1.0))

    def test_truncated_at_once_holds_only_x0(self):
        # x0 lies two bins from the one occupied bin: no step can be taken
        grid = BinGrid((np.array([0.0, 1.0, 2.0, 3.0]),), 1)
        frame = LocalFrame(np.eye(1), np.eye(1), np.ones(1))
        field = FrameField(grid, {(0,): frame}, {(0,): 0})
        w = WeightSeries(np.ones((5, 1)), np.ones(5, dtype=bool), dt=1.0)
        traj, truncated = integrate_weights(w, field, np.full(1, 2.5), 5)
        assert truncated
        np.testing.assert_array_equal(traj.samples, [[2.5]])

    def test_x0_outside_grid(self):
        field = single_bin_field(np.eye(1))
        w = WeightSeries(np.zeros((5, 1)), np.ones(5, dtype=bool))
        with pytest.raises(ValueError):
            integrate_weights(w, field, np.full(1, 50.0), 5)

    @pytest.mark.parametrize("valid", [True, False])
    def test_weight_dimension_checked(self, valid):
        # also when no sample is valid, so no increment would show it
        field = single_bin_field(np.eye(2))
        w = WeightSeries(np.zeros((5, 3)), np.full(5, valid))
        with pytest.raises(DimensionMismatchError, match="3 channels, field dimension 2"):
            integrate_weights(w, field, np.zeros(2), 5)

    def test_x0_dimension_checked(self):
        field = single_bin_field(np.eye(2))
        w = WeightSeries(np.zeros((5, 2)), np.ones(5, dtype=bool))
        with pytest.raises(ValueError, match="^x0 dimension 3, grid dimension 2$"):
            integrate_weights(w, field, np.zeros(3), 5)

    def test_negative_steps_rejected(self):
        field = single_bin_field(np.eye(1))
        w = WeightSeries(np.zeros((5, 1)), np.ones(5, dtype=bool))
        with pytest.raises(ValueError, match="steps must be >= 0"):
            integrate_weights(w, field, np.zeros(1), -1)

    def test_steps_exceed_series(self):
        field = single_bin_field(np.eye(1))
        w = WeightSeries(np.zeros((5, 1)), np.ones(5, dtype=bool))
        with pytest.raises(ValueError):
            integrate_weights(w, field, np.zeros(1), 6)

    def test_sine_roundtrip_rmse(self):
        # full pipeline round trip: weights of a sine re-integrate to the sine
        traj = gen_sine(1.0, 0.01, 100_000)
        res = run_pipeline(traj, (128,), None)
        start = int(np.flatnonzero(res.weights.valid_mask)[0])
        steps = 1000
        shifted = WeightSeries(
            res.weights.values[start:],
            res.weights.valid_mask[start:],
            dt=res.weights.dt,
        )
        recon, truncated = integrate_weights(
            shifted, res.field, traj.samples[start], steps
        )
        n = recon.n_samples
        ref = traj.samples[start : start + n, 0]
        err = np.sqrt(np.mean((recon.samples[: len(ref), 0] - ref) ** 2))
        rms = np.sqrt(np.mean(ref**2))
        assert err / rms < 0.05
        assert n > 900


class TestAgainstReference:
    """The bin lookup on Python floats gives the path of the numpy one."""

    @pytest.fixture(scope="class")
    def walk(self):
        traj = gen_bounded_walk(40_000, seed=3, dim=2, noise=("laplace", "uniform"))
        return traj, run_pipeline(traj, (8, 8), None)

    @pytest.mark.parametrize("gain", [1.0, 1.5, 4.0])
    def test_same_path_bits(self, walk, gain):
        # at gain 1 the path steps past the grid edge and through fallback
        # bins; at 1.5 and 4 it leaves the occupied region and is truncated
        traj, res = walk
        w = WeightSeries(gain * res.weights.values, res.weights.valid_mask, dt=res.weights.dt)
        got, truncated = integrate_weights(w, res.field, traj.samples[1], 5000)
        ref, ref_truncated = integrate_weights_reference(w, res.field, traj.samples[1], 5000)
        assert truncated == ref_truncated
        assert got.samples.tobytes() == ref.samples.tobytes()
