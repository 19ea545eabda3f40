"""Integrate a weight series through a frame field back into measurement
space.  Forward Euler at the native sample rate; errors accumulate, which is
inherent to the construction, so expect drift over long horizons."""

from __future__ import annotations

import numpy as np

from .model import FrameField, Trajectory, WeightSeries
from .weights import _bin_lookup


def integrate_weights(
    w: WeightSeries, field: FrameField, x0: np.ndarray, steps: int
) -> tuple[Trajectory, bool]:
    """x[k+1] = x[k] + dt * sum_i w_i[k] V_(i)(bin(x[k])).

    Starts at x0 (must lie inside the grid) and runs for `steps` increments,
    truncating early (flag returned) if the state leaves the occupied region.
    The path holds x0 plus one sample per increment taken.
    As in the weight computation, "occupied" is read with one grid step of
    slack: a state that overshoots the grid edge or lands in an empty bin
    borrows the nearest occupied bin within one step, so brushing a turning
    point at the data boundary does not abort the integration.  Invalid
    weight samples contribute a zero increment.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    grid = field.grid
    if x0.shape[0] != grid.dim:
        raise ValueError("x0 dimension does not match grid")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps > len(w):
        raise ValueError("steps exceeds weight series length")
    if grid.flat_index(x0)[0] < 0:
        raise ValueError("x0 outside grid")
    flat_to_slot, _, _, v_stack = _bin_lookup(field)
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
        if slot < 0:  # no occupied bin within one grid step
            truncated = True
            break
        if w.valid_mask[k]:
            x = x + w.dt * (v_stack[slot] @ w.values[k])
        path.append(x)
    return Trajectory(np.stack(path), w.dt), truncated
