"""JSON serialization for grids, moments, and frame fields.

Floats go through Python's shortest round-trip repr, so a load after a dump
reproduces every value bit-exactly.  Every artifact carries "schema"; the
loaders reject any version but SCHEMA_VERSION, one version for all three
kinds.  Grids hold edges and min_count only, no sample indices; moments
bins hold count, c2 and the contracted fourth moment t, both N x N.  The
loaders check that each artifact and bin is a JSON object holding its
entries before they read any, then each bin against its grid: a key of N
indices inside the grid's shape, spelled as the dumpers write it ("0,1",
not "00,1"), finite arrays of the grid's dimension, a count that is an
integer >= 1, a degenerate flag that is true or false and an invertible m;
a field's component ids are integers >= 0 (FrameField checks that they name
exactly its bins), and the grid's min_count is an integer >= 1.  Each error
names the file kind, and the bin where there is one; load adds the path.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import BinGrid, BinMoments, FrameField, LocalFrame

SCHEMA_VERSION = 4


def _key(idx: tuple[int, ...]) -> str:
    return ",".join(map(str, idx))


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


# how the errors name each type json.loads returns
_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", int: "a number", float: "a number",
    bool: "true or false", type(None): "null",
}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _check_entries(obj, what: str, /, **entries: type) -> None:
    """Raise unless obj is a JSON object that holds each of entries, a
    value of its type; what begins the error."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected an object, got {_json_type(obj)}")
    for name, kind in entries.items():
        if name not in obj:
            raise ValueError(f"{what}: no {name!r} entry (it holds {', '.join(sorted(obj))})")
        if not isinstance(obj[name], kind):
            got = _json_type(obj[name])
            raise ValueError(f"{what}: {name!r} must be {_JSON_TYPES[kind]}, got {got}")


def _check_object(d, what: str, **entries: type) -> None:
    """Raise unless d is a JSON object of schema SCHEMA_VERSION that holds
    each of entries, a value of its type; what names the kind."""
    _check_entries(d, f"{what} JSON")
    found = d.get("schema")
    if found != SCHEMA_VERSION:
        raise ValueError(f"{what} JSON schema is {found}, expected {SCHEMA_VERSION}")
    _check_entries(d, f"{what} JSON", **entries)


def grid_to_dict(grid: BinGrid) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "edges": [e.tolist() for e in grid.edges],
        "min_count": grid.min_count,
    }


def grid_from_dict(d: dict, what: str = "grid") -> BinGrid:
    """The grid of d; what names it in a bad min_count's error."""
    _check_object(d, "grid", edges=list, min_count=object)  # _int checks min_count
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
    _check_object(d, "moments", grid=dict, bins=dict)
    grid = grid_from_dict(d["grid"], "moments grid")
    n, bins = grid.dim, d["bins"]
    keys = [_unkey(s, grid, "moments") for s in bins]
    for s, b in bins.items():  # _int checks count
        _check_entries(b, f"moments bin {s!r}", count=object, c2=list, t=list)
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
    _check_object(d, "field", grid=dict, frames=dict, component_ids=dict)
    grid = grid_from_dict(d["grid"], "field grid")
    n, frames = grid.dim, {}
    for s, f in d["frames"].items():
        key = _unkey(s, grid, "field")
        _check_entries(f, f"field bin {s!r}", m=list, d=list, degenerate=object)
        m, dd = _array(f, "m", (n, n), "field", s), _array(f, "d", (n,), "field", s)
        flag = f["degenerate"]
        if type(flag) is not bool:
            raise ValueError(f"field bin {s!r}: degenerate must be true or false, got {flag!r}")
        try:
            v = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            raise ValueError(f"field bin {s!r}: m is singular") from None
        frames[key] = LocalFrame(m, v, dd, flag)
    comp = {
        _unkey(s, grid, "field"): _int(c, 0, f"field bin {s!r}", "component id")
        for s, c in d["component_ids"].items()
    }
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


def load(path, from_dict):
    """from_dict (grid_from_dict, moments_from_dict or field_from_dict) of
    the JSON file at path.  A file that is not JSON, and every ValueError
    from_dict raises for it, down to a bad bin, fail with a ValueError that
    begins with path."""
    try:
        d = load_json(path)
    except ValueError as err:  # not JSON, or not text
        raise ValueError(f"{path}: not a JSON file: {err}") from None
    try:
        return from_dict(d)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
