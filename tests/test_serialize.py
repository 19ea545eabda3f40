import base64
import copy
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from innerseries import serialize
from innerseries.estimate import bin_samples
from innerseries.experiments import run_pipeline
from innerseries.ingest import gen_bounded_walk
from innerseries.model import BinGrid, BinMoments, FrameField, LocalFrame
from innerseries.weights import compute_weights


def make_pipeline():
    traj = gen_bounded_walk(20_000, seed=0, dim=2, noise=("laplace", "uniform"))
    return traj, run_pipeline(traj, (3, 3), None)


class TestGridRoundtrip:
    def test_exact(self, tmp_path):
        traj, res = make_pipeline()
        grid = res.field.grid
        p = tmp_path / "grid.json"
        serialize.dump_json(serialize.grid_to_dict(grid), p)
        back = serialize.grid_from_dict(serialize.load_json(p))
        assert len(back.edges) == len(grid.edges)
        for a, b in zip(grid.edges, back.edges):
            np.testing.assert_array_equal(a, b)
        assert back.min_count == grid.min_count
        np.testing.assert_array_equal(
            back.flat_index(traj.samples), grid.flat_index(traj.samples)
        )

    def test_holds_no_samples(self):
        traj, res = make_pipeline()
        d = serialize.grid_to_dict(res.field.grid)
        assert set(d) == {"schema", "edges", "min_count"}
        assert set(serialize.field_to_dict(res.field)["grid"]) == set(d)


class TestSchemaCheck:
    @pytest.mark.parametrize("schema", [1, 2, 3, 4, None])
    def test_loaders_reject_other_versions(self, schema):
        traj, res = make_pipeline()
        dicts = {
            serialize.grid_from_dict: serialize.grid_to_dict(res.field.grid),
            serialize.moments_from_dict: serialize.moments_to_dict(res.field.grid, res.moments),
            serialize.field_from_dict: serialize.field_to_dict(res.field),
        }
        for load, d in dicts.items():
            if schema is None:
                del d["schema"]
            else:
                d["schema"] = schema
            with pytest.raises(ValueError, match=f"schema is {schema}, expected 5"):
                load(d)

    def test_schema_2_moments_rejected(self):
        # schema 2 moments bins held the dense fourth moment c4, not t
        traj, res = make_pipeline()
        d = serialize.moments_to_dict(res.field.grid, res.moments)
        d["schema"] = d["grid"]["schema"] = 2
        d["bins"]["c4"] = np.zeros((len(res.moments), 2, 2, 2, 2)).tolist()
        del d["bins"]["t"]
        with pytest.raises(ValueError, match="^moments JSON schema is 2, expected 5$"):
            serialize.moments_from_dict(d)

    def test_nested_grid_checked(self):
        traj, res = make_pipeline()
        d = serialize.field_to_dict(res.field)
        d["grid"]["schema"] = 1
        with pytest.raises(ValueError, match="grid JSON schema is 1, expected 5"):
            serialize.field_from_dict(d)


class TestMomentsRoundtrip:
    def test_exact(self, tmp_path):
        traj, res = make_pipeline()
        grid = res.field.grid
        p = tmp_path / "mom.json"
        serialize.dump_json(serialize.moments_to_dict(grid, res.moments), p)
        d = serialize.load_json(p)
        assert set(d["bins"]) == {"keys", "count", "c2", "t"}
        assert isinstance(d["bins"]["c2"], str) and isinstance(d["bins"]["t"], str)
        back_grid, back = serialize.moments_from_dict(d)
        for name in ("keys", "count", "c2", "t"):
            np.testing.assert_array_equal(getattr(back, name), getattr(res.moments, name))
        again = tmp_path / "again.json"
        serialize.dump_json(serialize.moments_to_dict(back_grid, back), again)
        assert again.read_bytes() == p.read_bytes()


class TestFieldRoundtrip:
    def test_weights_identical_after_roundtrip(self, tmp_path):
        # the reloaded field must reproduce the inner series bit for bit
        traj, res = make_pipeline()
        p = tmp_path / "field.json"
        serialize.dump_json(serialize.field_to_dict(res.field), p)
        back = serialize.field_from_dict(serialize.load_json(p))
        w1 = compute_weights(traj, res.field, bin_samples(traj, res.field.grid))
        w2 = compute_weights(traj, back, bin_samples(traj, back.grid))
        np.testing.assert_array_equal(w1.values, w2.values)
        np.testing.assert_array_equal(w1.valid_mask, w2.valid_mask)

    def test_frames_exact(self, tmp_path):
        traj, res = make_pipeline()
        d = serialize.field_to_dict(res.field)
        back = serialize.field_from_dict(d)
        assert back.frames.keys() == res.field.frames.keys()
        for k in back.frames:
            np.testing.assert_array_equal(back.frames[k].m, res.field.frames[k].m)
            np.testing.assert_array_equal(back.frames[k].d, res.field.frames[k].d)
            assert back.frames[k].degenerate_flag == res.field.frames[k].degenerate_flag
        assert back.component_ids == res.field.component_ids
        # every stack loads bit for bit, so the m^-1 that reconstruct inverts is the fit's
        for name in ("keys", "m", "d", "degenerate", "component"):
            a, b = getattr(back, name), getattr(res.field, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def loaded_dicts():
    """The moments and field dicts of make_pipeline, as load_json gives them."""
    _, res = make_pipeline()
    dicts = {
        "moments": serialize.moments_to_dict(res.field.grid, res.moments),
        "field": serialize.field_to_dict(res.field),
    }
    return {kind: json.loads(json.dumps(d)) for kind, d in dicts.items()}


LOADERS = {"moments": serialize.moments_from_dict, "field": serialize.field_from_dict}


def _rows(d: dict, kind: str) -> dict:
    return d["frames" if kind == "field" else "bins"]


def _set_row(rows: dict, name: str, at: int, value) -> None:
    """Set row at of the base64 float64 stack rows[name] to value."""
    stack = np.frombuffer(base64.b64decode(rows[name]), dtype="<f8").copy()
    stack.reshape(len(rows["keys"]), -1)[at] = np.ravel(value)
    rows[name] = base64.b64encode(stack.tobytes()).decode("ascii")


class TestBinKeys:
    """One bin has one row: a key is an array of N integers inside the grid,
    listed once, as a JSON object's keys are.  Every other bad value in a
    row is an error that names the file kind, and the bin where there is
    one."""

    @staticmethod
    def _rejected_in_place_of_0_1(loaded_dicts, key):
        for kind, load in LOADERS.items():
            d = copy.deepcopy(loaded_dicts[kind])
            keys = _rows(d, kind)["keys"]
            keys[keys.index([0, 1])] = key
            message = f"{kind} keys: {key!r} is not 2 integers inside the grid (3, 3)"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load(d)

    @pytest.mark.parametrize("key", ["00,1", "0,01", " 0,1", "0, 1", "+0,1", "0,1,", "a,1", ""])
    def test_loaders_reject_other_spellings(self, loaded_dicts, key):
        # the schema 4 key strings, in any spelling, are no keys
        self._rejected_in_place_of_0_1(loaded_dicts, key)

    @pytest.mark.parametrize("key", [[0, 1.0], [0, True], [0], [0, 1, 0], [0, 3], [-1, 1], None])
    def test_loaders_reject_keys_that_are_not_bins(self, loaded_dicts, key):
        self._rejected_in_place_of_0_1(loaded_dicts, key)

    @pytest.mark.parametrize("kind", ["moments", "field"])
    def test_key_listed_twice_rejected(self, loaded_dicts, kind):
        # a JSON list can hold a key twice, where the keys of an object could not
        d = copy.deepcopy(loaded_dicts[kind])
        keys = _rows(d, kind)["keys"]
        keys[keys.index([0, 0])] = [0, 1]
        with pytest.raises(ValueError, match=rf"^{kind} bin \(0, 1\): listed more than once$"):
            LOADERS[kind](d)

    def test_component_id_without_frame_rejected(self, loaded_dicts):
        d = copy.deepcopy(loaded_dicts["field"])
        frames = d["frames"]
        frames["component_ids"].append(0)
        b = len(frames["keys"])
        with pytest.raises(ValueError, match=f"^field component_ids: {b + 1} entries for {b} keys$"):
            serialize.field_from_dict(d)

    @pytest.mark.parametrize(
        "kind, name, value, message",
        [
            ("field", "m", [[float("nan"), 0.0], [0.0, 1.0]], "m contains non-finite values"),
            ("field", "d", [float("inf"), 1.0], "d contains non-finite values"),
            ("field", "m", [[1.0, 2.0], [2.0, 4.0]], "m is singular"),
            ("field", "degenerate", "no", "degenerate must be true or false, got 'no'"),
            ("field", "degenerate", 0, "degenerate must be true or false, got 0"),
            ("moments", "c2", [[1.0, float("nan")], [0.0, 1.0]], "c2 contains non-finite values"),
            ("moments", "count", -3, "count must be an integer >= 1, got -3"),
            ("moments", "count", 0, "count must be an integer >= 1, got 0"),
            ("moments", "count", 2.7, "count must be an integer >= 1, got 2.7"),
            ("moments", "count", True, "count must be an integer >= 1, got True"),
            ("moments", "min_count", 2.7, "min_count must be an integer >= 1, got 2.7"),
            ("moments", "min_count", 0, "min_count must be an integer >= 1, got 0"),
            ("field", "min_count", True, "min_count must be an integer >= 1, got True"),
            ("field", "component id", 1.7, "component id must be an integer >= 0, got 1.7"),
            ("field", "component id", "x", "component id must be an integer >= 0, got 'x'"),
            ("field", "component id", -1, "component id must be an integer >= 0, got -1"),
        ],
    )
    def test_loaders_reject_bad_values(self, loaded_dicts, kind, name, value, message):
        d = copy.deepcopy(loaded_dicts[kind])
        rows = _rows(d, kind)
        at, where = rows["keys"].index([0, 1]), f"{kind} bin (0, 1):"
        if name == "min_count":  # of the grid the file holds, which has no bin
            d["grid"][name], where = value, f"{kind} grid:"
        elif name == "component id":
            rows["component_ids"][at] = value
        elif isinstance(rows[name], str):  # a base64 stack: edit the bin's row
            _set_row(rows, name, at, value)
        else:
            rows[name][at] = value
        with pytest.raises(ValueError, match=f"^{re.escape(where)} {re.escape(message)}$"):
            LOADERS[kind](d)


class TestGridEdges:
    @pytest.mark.parametrize(
        "edges, found",
        [("x", "a string"), (["x", 1.0], "a string"), ([[0.0, 1.0], 2.0], "an array"),
         ([0.0, True], "true or false"), ([0.0, None], "null")],
    )
    def test_axis_of_non_numbers_named(self, loaded_dicts, edges, found):
        d = copy.deepcopy(loaded_dicts["moments"])
        d["grid"]["edges"][1] = edges
        message = f"moments grid: edges[1] must be an array of numbers, found {found}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize.moments_from_dict(d)


# the float64 values the codec must carry bit for bit, besides any finite one
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def stacks(draw):
    """A grid of 20 bins per axis, N from 1 to 4, and 1-20 distinct bins in
    any order, each with a count, c2, t, an invertible m (unit lower
    triangular), d, a degenerate flag and a component id."""
    n, b = draw(st.integers(1, 4)), draw(st.integers(1, 20))
    flat = draw(st.lists(st.integers(0, 20**n - 1), min_size=b, max_size=b, unique=True))
    keys = np.stack(np.unravel_index(flat, (20,) * n), axis=1)

    def floats(rank):
        size = b * n**rank
        return np.reshape(draw(st.lists(VALUES, min_size=size, max_size=size)), (b,) + (n,) * rank)

    m = np.tril(floats(2), -1) + np.eye(n)
    try:  # m^-1, which the mapping view computes, may underflow a pivot or overflow
        with np.errstate(all="ignore"):
            v = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        v = None
    assume(v is not None and np.isfinite(v).all())
    return {
        "grid": BinGrid((np.arange(21.0),) * n, 1),
        "keys": keys,
        "count": draw(st.lists(st.integers(1, 2**40), min_size=b, max_size=b)),
        "c2": floats(2), "t": floats(2), "m": m, "v": v, "d": floats(1),
        "flags": draw(st.lists(st.booleans(), min_size=b, max_size=b)),
        "ids": draw(st.lists(st.integers(0, 2**40), min_size=b, max_size=b)),
    }


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_stacks_roundtrip_bit_for_bit(self, tmp_path_factory, s):
        path = tmp_path_factory.mktemp("codec") / "artifact.json"
        moments = BinMoments(s["keys"], s["count"], s["c2"], s["t"])
        serialize.dump_json(serialize.moments_to_dict(s["grid"], moments), path)
        _, back = serialize.load(path, serialize.moments_from_dict)
        np.testing.assert_array_equal(back.keys, s["keys"])
        np.testing.assert_array_equal(back.count, s["count"])
        for name in ("c2", "t"):
            np.testing.assert_array_equal(_bits(getattr(back, name)), _bits(s[name]))
        bins = list(map(tuple, s["keys"].tolist()))
        frames = dict(zip(bins, map(LocalFrame, s["m"], s["v"], s["d"], s["flags"])))
        field = FrameField(s["grid"], frames, dict(zip(bins, s["ids"])))
        serialize.dump_json(serialize.field_to_dict(field), path)
        back = serialize.load(path, serialize.field_from_dict)
        assert list(back.frames) == bins
        for name in ("m", "d"):
            np.testing.assert_array_equal(_bits(getattr(back, name)), _bits(s[name]))
        assert [f.degenerate_flag for f in back.frames.values()] == s["flags"]
        assert list(back.component_ids.values()) == s["ids"]
        # the mapping constructor, fed the loaded field's own views, gives its stacks back
        rebuilt = FrameField(back.grid, back.frames, back.component_ids)
        for name in ("keys", "m", "d", "degenerate", "component"):
            a, b = getattr(rebuilt, name), getattr(back, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        v = np.linalg.inv(back.m)
        for i, f in enumerate(back.frames.values()):
            np.testing.assert_array_equal(_bits(f.v), _bits(v[i]))


class TestDumpJson:
    def test_deterministic_bytes(self, tmp_path):
        traj, res = make_pipeline()
        d = serialize.field_to_dict(res.field)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        serialize.dump_json(d, p1)
        serialize.dump_json(d, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_scalars_handled(self, tmp_path):
        p = tmp_path / "s.json"
        serialize.dump_json(
            {"a": np.float64(1.5), "b": np.int64(3), "c": np.bool_(True)}, p
        )
        back = serialize.load_json(p)
        assert back == {"a": 1.5, "b": 3, "c": True, "schema": 1} or back == {
            "a": 1.5,
            "b": 3,
            "c": True,
        }
