import copy
import json
import re

import numpy as np
import pytest

from innerseries import serialize
from innerseries.estimate import bin_samples, estimate_velocity
from innerseries.experiments import run_pipeline
from innerseries.ingest import gen_bounded_walk
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
    @pytest.mark.parametrize("schema", [1, 2, 3, None])
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
            with pytest.raises(ValueError, match=f"schema is {schema}, expected 4"):
                load(d)

    def test_schema_2_moments_rejected(self):
        # schema 2 moments bins held the dense fourth moment c4, not t
        traj, res = make_pipeline()
        d = serialize.moments_to_dict(res.field.grid, res.moments)
        d["schema"] = d["grid"]["schema"] = 2
        for b in d["bins"].values():
            b["c4"] = np.zeros((2, 2, 2, 2)).tolist()
            del b["t"]
        with pytest.raises(ValueError, match="^moments JSON schema is 2, expected 4$"):
            serialize.moments_from_dict(d)

    def test_nested_grid_checked(self):
        traj, res = make_pipeline()
        d = serialize.field_to_dict(res.field)
        d["grid"]["schema"] = 1
        with pytest.raises(ValueError, match="grid JSON schema is 1, expected 4"):
            serialize.field_from_dict(d)


class TestMomentsRoundtrip:
    def test_exact(self, tmp_path):
        traj, res = make_pipeline()
        grid = res.field.grid
        p = tmp_path / "mom.json"
        serialize.dump_json(serialize.moments_to_dict(grid, res.moments), p)
        d = serialize.load_json(p)
        assert {frozenset(b) for b in d["bins"].values()} == {frozenset({"count", "c2", "t"})}
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
        vel = estimate_velocity(traj)
        w1 = compute_weights(traj, vel, res.field, bin_samples(traj, vel, res.field.grid))
        w2 = compute_weights(traj, vel, back, bin_samples(traj, vel, back.grid))
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


@pytest.fixture(scope="module")
def loaded_dicts():
    """The moments and field dicts of make_pipeline, as load_json gives them."""
    _, res = make_pipeline()
    dicts = {
        "moments": serialize.moments_to_dict(res.field.grid, res.moments),
        "field": serialize.field_to_dict(res.field),
    }
    return {kind: json.loads(json.dumps(d)) for kind, d in dicts.items()}


class TestBinKeys:
    """One bin has one key: a second spelling of a key, as the dumpers never
    write it, would load as a second row or frame for the same bin.  Every
    other bad value in a bin is an error that names the file kind and the
    bin."""

    @pytest.mark.parametrize("key", ["00,1", "0,01", " 0,1", "0, 1", "+0,1", "0,1,", "a,1", ""])
    def test_loaders_reject_other_spellings(self, key):
        traj, res = make_pipeline()
        grid = res.field.grid
        d = serialize.moments_to_dict(grid, res.moments)
        d["bins"][key] = d["bins"]["0,1"]
        with pytest.raises(ValueError, match=f"^moments bin {re.escape(repr(key))}: not a key"):
            serialize.moments_from_dict(d)
        d = serialize.field_to_dict(res.field)
        d["frames"][key] = d["frames"]["0,1"]
        d["component_ids"][key] = d["component_ids"]["0,1"]
        with pytest.raises(ValueError, match=f"^field bin {re.escape(repr(key))}: not a key"):
            serialize.field_from_dict(d)

    def test_component_id_without_frame_rejected(self):
        traj, res = make_pipeline()
        d = serialize.field_to_dict(res.field)
        del d["frames"]["0,1"]
        with pytest.raises(ValueError, match="^field bin '0,1': component_ids entry but no frame$"):
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
        where = f"{kind} bin '0,1':"
        if name == "min_count":  # of the grid the file holds, which has no bin
            d["grid"][name], where = value, f"{kind} grid:"
        elif name == "component id":
            d["component_ids"]["0,1"] = value
        else:
            d["frames" if kind == "field" else "bins"]["0,1"][name] = value
        load = serialize.field_from_dict if kind == "field" else serialize.moments_from_dict
        with pytest.raises(ValueError, match=f"^{where} {re.escape(message)}$"):
            load(d)


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
