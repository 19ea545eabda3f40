"""JSON serialization for grids, moments, and frame fields.

Floats go through Python's shortest round-trip repr, so a load after a dump
reproduces every value bit-exactly.  Every artifact carries "schema"; the
loaders reject any version but SCHEMA_VERSION, one version for all three
kinds.  Grids hold edges and min_count only, no sample indices; moments
bins hold count, c2 and the contracted fourth moment t, both N x N.  The
loaders check each bin against its grid: a key of N indices inside the
grid's shape, spelled as the dumpers write it ("0,1", not "00,1"), finite
arrays of the grid's dimension, a count that is an integer >= 1, a
degenerate flag that is true or false and an invertible m; a field's
component ids are integers >= 0 and name only bins that hold a frame, and
the grid's min_count is an integer >= 1.  Each error names the file kind,
and the bin where there is one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import BinGrid, BinMoments, FrameField, LocalFrame

SCHEMA_VERSION = 4


def _key(idx: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in idx)


def _unkey(s: str, grid: BinGrid, what: str) -> tuple[int, ...]:
    """The bin index of key s, which must be spelled as _key writes it, so
    that one bin has one key."""
    try:
        idx = tuple(int(p) for p in s.split(","))
    except ValueError:
        idx = None
    if idx is None or _key(idx) != s:
        raise ValueError(f"{what} bin {s!r}: not a key of comma-separated integers in plain form")
    if len(idx) != grid.dim:
        raise ValueError(f"{what} bin {s!r}: key length {len(idx)}, grid dimension {grid.dim}")
    if not all(0 <= i < n for i, n in zip(idx, grid.shape)):
        raise ValueError(f"{what} bin {s!r}: outside the grid of shape {grid.shape}")
    return idx


def _array(b: dict, name: str, shape: tuple[int, ...], what: str, s: str) -> np.ndarray:
    a = np.asarray(b[name], dtype=float)
    if a.shape != shape:
        raise ValueError(f"{what} bin {s!r}: {name} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} bin {s!r}: {name} contains non-finite values")
    return a


def _int(value, low: int, where: str, name: str) -> int:
    if type(value) is not int or value < low:  # a JSON integer, not a float or a boolean
        raise ValueError(f"{where}: {name} must be an integer >= {low}, got {value!r}")
    return value


def _check_schema(d: dict, what: str) -> None:
    found = d.get("schema")
    if found != SCHEMA_VERSION:
        raise ValueError(f"{what} JSON schema is {found}, expected {SCHEMA_VERSION}")


def grid_to_dict(grid: BinGrid) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "edges": [e.tolist() for e in grid.edges],
        "min_count": grid.min_count,
    }


def grid_from_dict(d: dict, what: str = "grid") -> BinGrid:
    """The grid of d; what names it in a bad min_count's error."""
    _check_schema(d, "grid")
    min_count = _int(d["min_count"], 1, what, "min_count")
    return BinGrid(tuple(np.asarray(e) for e in d["edges"]), min_count)


def moments_to_dict(grid: BinGrid, moments: BinMoments) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "grid": grid_to_dict(grid),
        "bins": {
            _key(k): {"count": count, "c2": c2.tolist(), "t": t.tolist()}
            for k, count, c2, t in zip(
                moments.keys.tolist(), moments.count.tolist(), moments.c2, moments.t
            )
        },
    }


def moments_from_dict(d: dict) -> tuple[BinGrid, BinMoments]:
    _check_schema(d, "moments")
    grid = grid_from_dict(d["grid"], "moments grid")
    n, bins = grid.dim, d["bins"]
    keys = [_unkey(s, grid, "moments") for s in bins]
    c2 = [_array(b, "c2", (n, n), "moments", s) for s, b in bins.items()]
    t = [_array(b, "t", (n, n), "moments", s) for s, b in bins.items()]
    counts = [_int(b["count"], 1, f"moments bin {s!r}", "count") for s, b in bins.items()]
    return grid, BinMoments(
        np.reshape(keys, (-1, n)), counts, np.reshape(c2, (-1, n, n)), np.reshape(t, (-1, n, n))
    )


def field_to_dict(field: FrameField) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "grid": grid_to_dict(field.grid),
        "frames": {
            _key(k): {
                "m": f.m.tolist(),
                "d": f.d.tolist(),
                "degenerate": bool(f.degenerate_flag),
            }
            for k, f in field.frames.items()
        },
        "component_ids": {_key(k): c for k, c in field.component_ids.items()},
    }


def field_from_dict(d: dict) -> FrameField:
    _check_schema(d, "field")
    grid = grid_from_dict(d["grid"], "field grid")
    n, ids = grid.dim, d.get("component_ids", {})
    frames = {}
    for s, f in d["frames"].items():
        key = _unkey(s, grid, "field")
        m, dd = _array(f, "m", (n, n), "field", s), _array(f, "d", (n,), "field", s)
        if s not in ids:
            raise ValueError(f"field bin {s!r}: no component_ids entry")
        flag = f["degenerate"]
        if type(flag) is not bool:
            raise ValueError(f"field bin {s!r}: degenerate must be true or false, got {flag!r}")
        try:
            v = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            raise ValueError(f"field bin {s!r}: m is singular") from None
        frames[key] = LocalFrame(m, v, dd, flag)
    comp = {}
    for s, c in ids.items():
        key = _unkey(s, grid, "field")
        if key not in frames:
            raise ValueError(f"field bin {s!r}: component_ids entry but no frame")
        comp[key] = _int(c, 0, f"field bin {s!r}", "component id")
    return FrameField(grid, frames, comp)


def json_default(o):
    """Coerce numpy scalars/arrays so reports serialize cleanly."""
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def dump_json(obj: dict, path) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, separators=(",", ":"), default=json_default)
        + "\n"
    )


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
