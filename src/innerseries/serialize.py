"""JSON serialization for grids, moments, and frame fields.

Every artifact is a JSON object with "schema"; the loaders reject any
version but SCHEMA_VERSION, one for all three kinds.  Grids hold edges and
min_count only.  A moments file's "bins" and a field's "frames" hold one row
per bin, in one order: keys, counts, degenerate flags and component ids as
JSON lists, and each float stack (c2 and t, N x N; m, N x N, and d, N) as one
base64 string of its little-endian float64 bytes.  So a load is bit-exact,
one decode per stack, and each artifact stays one JSON file.  The loaders
check every entry's JSON type, integers that fit int64, grid edges finite as
float64, keys inside the grid and none twice, every stack's byte length and
finiteness, and that m inverts; each error names the file kind, and the bin
or axis where there is one, and load adds the path.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .model import BinGrid, BinMoments, FrameField, _repeated

SCHEMA_VERSION = 5

_INT64_MAX = 2**63 - 1  # every integer entry is held in an int64 array

# each integer or flag entry's test (a JSON integer is no float or boolean), in words
_RULES = {
    "min_count": (
        lambda v: type(v) is int and 1 <= v <= _INT64_MAX, "min_count must be an integer >= 1"
    ),
    "count": (lambda v: type(v) is int and 1 <= v <= _INT64_MAX, "count must be an integer >= 1"),
    "degenerate": (lambda v: type(v) is bool, "degenerate must be true or false"),
    "component_ids": (
        lambda v: type(v) is int and 0 <= v <= _INT64_MAX, "component id must be an integer >= 0"
    ),
}


def _check(value, name: str, where: str):
    """value, if it is what the entry name must be; where begins the error."""
    ok, rule = _RULES[name]
    if not ok(value):
        if type(value) is int and value > _INT64_MAX:
            rule += " and at most 2^63 - 1"
        raise ValueError(f"{where}: {rule}, got {value!r}")
    return value


def _finite(x) -> bool:
    """Whether the JSON number x is a finite float64."""
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float64 range
        return False


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
    edges = [e.tolist() for e in grid.edges]
    return {"schema": SCHEMA_VERSION, "edges": edges, "min_count": grid.min_count}


def grid_from_dict(d: dict, what: str = "grid") -> BinGrid:
    """The grid of d, each edge a finite float64; what names it in the error
    of a bad axis or min_count."""
    _check_object(d, "grid", edges=list, min_count=object)
    min_count = _check(d["min_count"], "min_count", what)
    for axis, e in enumerate(d["edges"]):
        wrong = [x for x in e if type(x) not in (int, float)] if type(e) is list else [e]
        if wrong:
            got = _json_type(wrong[0])
            raise ValueError(f"{what}: edges[{axis}] must be an array of numbers, found {got}")
        if (i := next((i for i, x in enumerate(e) if not _finite(x)), None)) is not None:
            raise ValueError(f"{what}: edges[{axis}][{i}] is not a finite float64 number")
    return BinGrid(tuple(np.array(e, dtype=float) for e in d["edges"]), min_count)


def _encode(stack: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(stack, dtype="<f8").tobytes()).decode("ascii")


def _keys(keys: list, grid: BinGrid, what: str) -> list[tuple[int, ...]]:
    """keys, one array of grid.dim integers per bin, each inside the grid
    and none twice, as tuples; what begins the error."""
    n, shape = grid.dim, grid.shape
    for k in keys:
        if type(k) is not list or len(k) != n or not all(
            type(i) is int and 0 <= i < size for i, size in zip(k, shape)
        ):
            raise ValueError(f"{what} keys: {k!r} is not {n} integers inside the grid {shape}")
    if (key := _repeated(np.reshape(keys, (-1, n)))) is not None:
        raise ValueError(f"{what} bin {key}: listed more than once")
    return list(map(tuple, keys))


def _decode(rows: dict, name: str, bins: list, shape: tuple, what: str) -> np.ndarray:
    """The stack rows[name], one finite row of shape per bin, as a read-only
    float64 array; what begins the error."""
    try:
        raw = base64.b64decode(rows[name], validate=True)
    except ValueError as err:  # binascii.Error, or text that is not ASCII
        raise ValueError(f"{what} {name}: not base64 text: {err}") from None
    if len(raw) != (size := 8 * len(bins) * math.prod(shape)):
        raise ValueError(f"{what} {name}: {len(raw)} bytes, expected {size} for {len(bins)} bins")
    stack = np.frombuffer(raw, dtype="<f8")
    if len(bad := np.flatnonzero(~np.isfinite(stack))):
        key = bins[bad[0] // math.prod(shape)]
        raise ValueError(f"{what} bin {key}: {name} contains non-finite values")
    return stack.reshape(len(bins), *shape)


def _column(rows: dict, name: str, bins: list, what: str) -> list:
    """The list rows[name], one entry per bin, each what _RULES says it must
    be; the error for another entry names its bin."""
    entries, (ok, _) = rows[name], _RULES[name]
    if len(entries) != len(bins):
        raise ValueError(f"{what} {name}: {len(entries)} entries for {len(bins)} keys")
    for key, entry in zip(bins, entries):
        if not ok(entry):
            _check(entry, name, f"{what} bin {key}")
    return entries


def moments_to_dict(grid: BinGrid, moments: BinMoments) -> dict:
    bins = {"keys": moments.keys.tolist(), "count": moments.count.tolist()}
    bins.update(c2=_encode(moments.c2), t=_encode(moments.t))
    return {"schema": SCHEMA_VERSION, "grid": grid_to_dict(grid), "bins": bins}


def moments_from_dict(d: dict) -> tuple[BinGrid, BinMoments]:
    _check_object(d, "moments", grid=dict, bins=dict)
    grid = grid_from_dict(d["grid"], "moments grid")
    n, bins = grid.dim, d["bins"]
    _check_entries(bins, "moments bins", keys=list, count=list, c2=str, t=str)
    keys = _keys(bins["keys"], grid, "moments")
    count = _column(bins, "count", keys, "moments")
    c2, t = (_decode(bins, name, keys, (n, n), "moments") for name in ("c2", "t"))
    return grid, BinMoments(np.reshape(keys, (-1, n)), count, c2, t)


def field_to_dict(field: FrameField) -> dict:
    frames = {"keys": field.keys.tolist(), "m": _encode(field.m), "d": _encode(field.d)}
    frames.update(degenerate=field.degenerate.tolist(), component_ids=field.component.tolist())
    return {"schema": SCHEMA_VERSION, "grid": grid_to_dict(field.grid), "frames": frames}


def field_from_dict(d: dict) -> FrameField:
    _check_object(d, "field", grid=dict, frames=dict)
    grid = grid_from_dict(d["grid"], "field grid")
    n, rows = grid.dim, d["frames"]
    entries = dict(keys=list, m=str, d=str, degenerate=list, component_ids=list)
    _check_entries(rows, "field frames", **entries)
    keys = _keys(rows["keys"], grid, "field")
    m, dd = _decode(rows, "m", keys, (n, n), "field"), _decode(rows, "d", keys, (n,), "field")
    flags, comp = (_column(rows, name, keys, "field") for name in ("degenerate", "component_ids"))
    with np.errstate(divide="ignore"):  # a sign of 0: the LU meets a zero pivot, as inv would
        if len(singular := np.flatnonzero(np.linalg.slogdet(m)[0] == 0)):
            raise ValueError(f"field bin {keys[singular[0]]}: m is singular")
    return FrameField.from_stacks(grid, np.reshape(keys, (-1, n)), m, dd, flags, comp)


def json_default(o):
    """Coerce numpy scalars/arrays so reports serialize cleanly."""
    if isinstance(o, (np.bool_, np.integer, np.floating, np.ndarray)):
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
    """from_dict (grid_, moments_ or field_from_dict) of the JSON file at path;
    every ValueError, down to a bad bin, begins with path."""
    try:
        d = load_json(path)
    except ValueError as err:  # not JSON, or not text
        raise ValueError(f"{path}: not a JSON file: {err}") from None
    try:
        return from_dict(d)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
