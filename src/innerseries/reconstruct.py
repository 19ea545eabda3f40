"""Integrate a weight series through a frame field back into measurement
space.  Forward Euler at the native sample rate; errors accumulate, which is
inherent to the construction, so expect drift over long horizons."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .model import DimensionMismatchError, FrameField, Trajectory, WeightSeries
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
    if w.dim != grid.dim:
        raise DimensionMismatchError(
            f"weight series has {w.dim} channels, field dimension {grid.dim}"
        )
    if x0.shape[0] != grid.dim:
        raise ValueError(f"x0 dimension {x0.shape[0]}, grid dimension {grid.dim}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps > len(w):
        raise ValueError("steps exceeds weight series length")
    if grid.flat_index(x0)[0] < 0:
        raise ValueError("x0 outside grid")
    flat_to_slot = _bin_lookup(field)[0].tolist()
    v = np.linalg.inv(field.m)  # each bin's basis vectors V_(i), the columns of m^-1
    valid = w.valid_mask[:steps].tolist()
    # per axis, as Python floats: the bounds with one grid step of slack, and
    # the clip and inner edges that give the bin (edges at or below the point)
    axes = []
    for e, step in zip(grid.edges, grid.step_sizes().tolist()):
        lo, hi = e[0].item(), e[-1].item()
        axes.append((lo - step, hi + step, lo, hi, e[1:-1].tolist(), len(e) - 1))
    path = [x0]
    x = x0
    truncated = False
    for k in range(steps):
        xs = x.tolist()
        if any(xa < a or xa > b for xa, (a, b, *_) in zip(xs, axes)):
            truncated = True
            break
        flat = 0
        for xa, (_, _, lo, hi, cuts, nb) in zip(xs, axes):
            flat = flat * nb + bisect_right(cuts, min(max(xa, lo), hi))
        slot = flat_to_slot[flat]
        if slot < 0:  # no occupied bin within one grid step
            truncated = True
            break
        if valid[k]:
            x = x + w.dt * (v[slot] @ w.values[k])
        path.append(x)
    return Trajectory(np.stack(path), w.dt), truncated
