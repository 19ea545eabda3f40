"""JSON serialization for grids, moments, and frame fields.

Floats go through Python's shortest round-trip repr, so a load after a dump
reproduces every value bit-exactly.  Every artifact carries "schema"; the
loaders reject any version but SCHEMA_VERSION, one version for all three
kinds.  Grids hold edges and min_count only, no sample indices; moments
bins hold count, c2 and the contracted fourth moment t, both N x N.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import BinGrid, FrameField, LocalFrame, LocalMoments

SCHEMA_VERSION = 4


def _key(idx: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in idx)


def _unkey(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in s.split(","))


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


def grid_from_dict(d: dict) -> BinGrid:
    _check_schema(d, "grid")
    return BinGrid(tuple(np.asarray(e) for e in d["edges"]), int(d["min_count"]))


def moments_to_dict(grid: BinGrid, moments: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "grid": grid_to_dict(grid),
        "bins": {
            _key(k): {
                "count": m.count,
                "c2": m.c2.tolist(),
                "t": m.t.tolist(),
            }
            for k, m in moments.items()
        },
    }


def moments_from_dict(d: dict) -> tuple[BinGrid, dict]:
    _check_schema(d, "moments")
    grid = grid_from_dict(d["grid"])
    moments = {
        _unkey(k): LocalMoments(int(b["count"]), np.asarray(b["c2"]), np.asarray(b["t"]))
        for k, b in d["bins"].items()
    }
    return grid, moments


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
    grid = grid_from_dict(d["grid"])
    frames = {}
    for k, f in d["frames"].items():
        m = np.asarray(f["m"])
        frames[_unkey(k)] = LocalFrame(
            m, np.linalg.inv(m), np.asarray(f["d"]), bool(f["degenerate"])
        )
    comp = {_unkey(k): int(c) for k, c in d.get("component_ids", {}).items()}
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
