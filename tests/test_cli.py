import base64
import json

import numpy as np
import pytest

from innerseries import serialize
from innerseries.cli import main
from innerseries.experiments import run_pipeline
from innerseries.ingest import (
    gen_bounded_walk,
    read_csv_trajectory,
    read_wav_trajectory,
    write_csv_trajectory,
)
from innerseries.model import Trajectory, WeightSeries
from innerseries.weights import read_csv_weights, write_csv_weights


def run(argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_sine_csv(self, tmp_path):
        out = tmp_path / "sine.csv"
        assert run(["synth", "--kind", "sine", "--samples", "500", "--out", out]) == 0
        traj = read_csv_trajectory(out)
        assert traj.n_samples == 500
        assert abs(traj.samples[:, 0]).max() <= 1.0

    def test_walk_wav(self, tmp_path):
        out = tmp_path / "walk.wav"
        rc = run(
            [
                "synth", "--kind", "walk", "--samples", "2000", "--dim", "2",
                "--amplitude", "20000", "--out", out,
            ]
        )
        assert rc == 0
        # the .wav suffix alone picks WAV, and the CLI reads it back
        traj = read_wav_trajectory(out)
        assert (traj.n_samples, traj.dim) == (2000, 2)
        moments = tmp_path / "moments.json"
        assert run(["moments", "--in", out, "--bins", "2,2", "--min-count", "10",
                    "--out", moments]) == 0
        assert serialize.load_json(moments)["bins"]

    def test_walk_reaching_the_int16_minimum_saved_as_wav(self, tmp_path):
        # the CLI clips to [-2^15, 2^15 - 1], and the WAV writer takes both ends
        out = tmp_path / "y.wav"
        argv = ["synth", "--kind", "walk", "--samples", "20000", "--amplitude", "40000"]
        assert run([*argv, "--out", out]) == 0
        assert read_wav_trajectory(out).samples.min() == -(2**15)

    def test_format_option_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["synth", "--kind", "sine", "--samples", "50", "--format", "wav",
                 "--out", tmp_path / "x.csv"])

    @pytest.mark.parametrize("noise", ["laplace,uniform", "uniform,gauss,laplace", "uniform"])
    def test_walk_one_noise_kind_per_channel(self, tmp_path, noise):
        kinds = noise.split(",")
        dim = max(len(kinds), 2)
        out, ref = tmp_path / "walk.csv", tmp_path / "ref.csv"
        argv = ["synth", "--kind", "walk", "--samples", "3000", "--dim", dim, "--seed", "5"]
        assert run([*argv, "--noise", noise, "--out", out]) == 0
        noise_arg = kinds if len(kinds) > 1 else kinds[0]
        write_csv_trajectory(
            gen_bounded_walk(3000, seed=5, dim=dim, box=1.0, dt=0.01, noise=noise_arg), ref
        )
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("noise, dim", [("laplace,uniform", 1), ("laplace,uniform", 3)])
    def test_walk_noise_kind_count_must_match_dimension(self, tmp_path, capsys, noise, dim):
        out = tmp_path / "walk.csv"
        argv = ["synth", "--kind", "walk", "--samples", "100", "--dim", dim, "--noise", noise]
        assert run([*argv, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error [synth]: need one noise kind per channel, got 2 for dimension {dim}\n"
        )
        assert not out.exists()

    def test_lifted_latent_pair(self, tmp_path):
        lifted = tmp_path / "lifted.csv"
        latent = tmp_path / "latent.csv"
        rc = run(
            [
                "synth", "--kind", "lifted-latent", "--samples", "10000",
                "--out", lifted, "--latent-out", latent,
            ]
        )
        assert rc == 0
        assert read_csv_trajectory(lifted).dim == 6
        assert read_csv_trajectory(latent).dim == 2


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """Full file-composed pipeline: synth -> moments -> frames -> weights."""
    d = tmp_path_factory.mktemp("stages")
    traj = d / "walk.csv"
    moments = d / "moments.json"
    field = d / "field.json"
    weights = d / "weights.csv"
    assert run(
        [
            "synth", "--kind", "walk", "--samples", "40000", "--dim", "2",
            "--noise", "laplace", "--out", traj,
        ]
    ) == 0
    assert run(
        ["moments", "--in", traj, "--bins", "3,3", "--out", moments]
    ) == 0
    assert run(["frames", "--moments", moments, "--out", field]) == 0
    assert run(["weights", "--in", traj, "--field", field, "--out", weights]) == 0
    return d


class TestStagedPipeline:
    def test_artifacts_exist(self, staged):
        for name in ("moments.json", "field.json", "weights.csv"):
            assert (staged / name).stat().st_size > 0

    def test_weights_readable(self, staged):
        w = read_csv_weights(staged / "weights.csv")
        assert w.dim == 2
        assert w.valid_mask.sum() > 30_000

    def test_align_self_identity(self, staged, tmp_path):
        out = tmp_path / "align.json"
        rc = run(
            ["align", "--a", staged / "weights.csv", "--b", staged / "weights.csv",
             "--out", out]
        )
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["perm"] == [0, 1]
        assert rep["signs"] == [1, 1]
        assert min(rep["correlations"]) > 0.999

    def test_reconstruct_runs(self, staged, tmp_path):
        w = read_csv_weights(staged / "weights.csv")
        traj = read_csv_trajectory(staged / "walk.csv")
        k0 = int(np.flatnonzero(w.valid_mask)[0])
        x0 = ",".join(repr(float(v)) for v in traj.samples[k0])
        out = tmp_path / "recon.csv"
        rc = run(
            ["reconstruct", "--weights", staged / "weights.csv", "--field",
             staged / "field.json", f"--x0={x0}", "--steps", "200", "--out", out]
        )
        assert rc == 0
        assert read_csv_trajectory(out).dim == 2

    @staticmethod
    def reconstruct_rows(staged, tmp_path, steps):
        """Exit code of reconstruct --steps steps, and its data row count."""
        w = read_csv_weights(staged / "weights.csv")
        traj = read_csv_trajectory(staged / "walk.csv")
        k0 = int(np.flatnonzero(w.valid_mask)[0])
        x0 = ",".join(repr(float(v)) for v in traj.samples[k0])
        out = tmp_path / "recon.csv"
        rc = run(
            ["reconstruct", "--weights", staged / "weights.csv", "--field",
             staged / "field.json", f"--x0={x0}", "--steps", steps, "--out", out]
        )
        return rc, len(out.read_text().splitlines()) - 1 if out.exists() else None

    def test_reconstruct_one_step_writes_two_rows(self, staged, tmp_path):
        assert self.reconstruct_rows(staged, tmp_path, 1) == (0, 2)

    def test_reconstruct_zero_steps_writes_start_point_only(self, staged, tmp_path):
        assert self.reconstruct_rows(staged, tmp_path, 0) == (0, 1)

    def test_reconstruct_negative_steps_rejected(self, staged, tmp_path, capsys):
        assert self.reconstruct_rows(staged, tmp_path, -1) == (2, None)
        assert "steps must be >= 0, got -1" in capsys.readouterr().err

    def test_reconstruct_weight_dimension_checked(self, staged, tmp_path, capsys):
        # three weight channels on the staged 2-D field
        w = read_csv_weights(staged / "weights.csv")
        wide = tmp_path / "wide.csv"
        values = np.hstack([w.values, w.values[:, :1]])
        write_csv_weights(WeightSeries(values, w.valid_mask, dt=w.dt), wide)
        rc = run(
            ["reconstruct", "--weights", wide, "--field", staged / "field.json",
             "--x0=0,0", "--out", tmp_path / "recon.csv"]
        )
        assert rc == 2
        assert "weight series has 3 channels, field dimension 2" in capsys.readouterr().err

    @pytest.mark.parametrize("form", [["--x0=0.1,abc"], ["--x0", "0.1,abc"]])
    def test_reconstruct_x0_not_a_number_names_the_option(self, staged, tmp_path, capsys, form):
        out = tmp_path / "recon.csv"
        with pytest.raises(SystemExit) as exc:
            run(["reconstruct", "--weights", staged / "weights.csv", "--field",
                 staged / "field.json", *form, "--out", out])
        assert exc.value.code == 2
        assert "argument --x0: invalid" in capsys.readouterr().err
        assert not out.exists()

    def test_reconstruct_x0_dimension_named(self, staged, tmp_path, capsys):
        out = tmp_path / "recon.csv"
        rc = run(
            ["reconstruct", "--weights", staged / "weights.csv", "--field", staged / "field.json",
             "--x0=0,0,0", "--out", out]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error [reconstruct]: x0 dimension 3, grid dimension 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_weights_dimension_names_both_files(self, staged, tmp_path, capsys, dim):
        # a trajectory of another dimension than the field's is named with
        # both numbers and both files before any binning
        traj = tmp_path / "walk.csv"
        write_csv_trajectory(gen_bounded_walk(500, seed=1, dim=dim, dt=0.01), traj)
        field, out = staged / "field.json", tmp_path / "w.csv"
        capsys.readouterr()
        assert run(["weights", "--in", traj, "--field", field, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error [weights]: {traj}: trajectory dimension {dim} does not match "
            f"the dimension 2 of the field {field}\n"
        )
        assert not out.exists()

    def test_reconstruct_negative_x0_as_separate_argument(self, staged, tmp_path):
        # "--x0 -0.5,0.2" must work as "--x0=-0.5,0.2" does
        w = read_csv_weights(staged / "weights.csv")
        traj = read_csv_trajectory(staged / "walk.csv")
        k0 = int(np.flatnonzero(w.valid_mask & (traj.samples[:, 0] < 0))[0])
        x0 = ",".join(repr(float(v)) for v in traj.samples[k0])
        paths = []
        for form in ([f"--x0={x0}"], ["--x0", x0]):
            out = tmp_path / f"recon{len(form)}.csv"
            rc = run(
                ["reconstruct", "--weights", staged / "weights.csv", "--field",
                 staged / "field.json", *form, "--steps", "200", "--out", out]
            )
            assert rc == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_matches_run_pipeline(self, staged):
        # moments -> frames -> weights through files gives the in-memory
        # pipeline's frame field and weights bit for bit
        res = run_pipeline(read_csv_trajectory(staged / "walk.csv"), (3, 3), None)
        field = serialize.field_from_dict(serialize.load_json(staged / "field.json"))
        assert field.frames.keys() == res.field.frames.keys()
        for k, f in field.frames.items():
            np.testing.assert_array_equal(f.m, res.field.frames[k].m)
            np.testing.assert_array_equal(f.d, res.field.frames[k].d)
            assert f.degenerate_flag == res.field.frames[k].degenerate_flag
        assert field.component_ids == res.field.component_ids
        w = read_csv_weights(staged / "weights.csv")
        np.testing.assert_array_equal(w.values, res.weights.values)
        np.testing.assert_array_equal(w.valid_mask, res.weights.valid_mask)

    def test_plot_command(self, staged, tmp_path):
        out = tmp_path / "plot.svg"
        rc = run(["plot", "--in", staged / "walk.csv", "--out", out])
        assert rc == 0
        assert "<svg" in out.read_text()


class TestExperimentCommand:
    def test_sine_passes_and_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "exp"
        rc = run(["experiment", "sine", "--out-dir", out_dir])
        captured = capsys.readouterr()
        assert rc == 0
        lines = [l for l in captured.out.splitlines() if l.startswith("[")]
        assert lines and all(l.startswith("[PASS]") for l in lines)
        report = json.loads((out_dir / "sine.report.json").read_text())
        assert report["passed"] is True
        assert (out_dir / "sine.weights.svg").exists()

    def test_monotone_cubic_is_the_default(self, tmp_path):
        d = tmp_path / "m"
        assert run(["experiment", "monotone-1d", "--samples", "20000", "--out-dir", d]) == 0
        w = (d / "monotone-1d.x.weights.csv").read_bytes()
        assert (d / "monotone-1d.xprime.weights.csv").read_bytes() != w

    def test_transform_option_gone(self):
        with pytest.raises(SystemExit):
            run(["experiment", "monotone-1d", "--samples", "20000", "--transform", "cubic"])

    def test_report_bytes_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["experiment", "sine", "--out-dir", d1]) == 0
        assert run(["experiment", "sine", "--out-dir", d2]) == 0
        r1 = json.loads((d1 / "sine.report.json").read_text())
        r2 = json.loads((d2 / "sine.report.json").read_text())
        # drop wall-clock values and output paths; everything else must agree
        for r in (r1, r2):
            r.pop("artifacts", None)
            r.get("metrics", {}).pop("runtime_seconds", None)
            r["criteria"] = [
                c for c in r.get("criteria", []) if c.get("name") != "runtime_seconds"
            ]
        assert r1 == r2


class TestFramesSkip:
    def test_skipped_bin_reported_and_field_written(self, tmp_path, capsys):
        # a walk that ends on the exact ramp x = 2 + k/128: every central
        # difference on the ramp is equal, so the top three bins have c2 = 0
        walk = gen_bounded_walk(20_000, seed=0, dim=1)
        ramp = 2 + np.arange(256) / 128
        traj = tmp_path / "traj.csv"
        write_csv_trajectory(
            Trajectory(np.concatenate([walk.samples[:, 0], ramp]), walk.dt), traj
        )
        moments, field = tmp_path / "moments.json", tmp_path / "field.json"
        assert run(["moments", "--in", traj, "--bins", "8", "--out", moments]) == 0
        assert [[5], [6], [7]] == serialize.load_json(moments)["bins"]["keys"][-3:]
        capsys.readouterr()
        assert run(["frames", "--moments", moments, "--out", field]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        for key, line in zip((5, 6, 7), lines):
            assert line.startswith(f"skipping bin ({key},): c2 ill-conditioned")
        frames = serialize.field_from_dict(serialize.load_json(field)).frames
        assert set(frames) == {(0,), (1,), (2,), (3,)}

    def test_all_bins_skipped_names_count_and_first_reason(self, tmp_path, capsys):
        # a ramp has one constant velocity, so every bin's c2 is 0
        traj = tmp_path / "ramp.csv"
        traj.write_text("t,x\n" + "".join(f"{0.5 * k},{0.25 * k}\n" for k in range(400)))
        moments, field = tmp_path / "moments.json", tmp_path / "field.json"
        assert run(
            ["moments", "--in", traj, "--bins", "2", "--min-count", "10", "--out", moments]
        ) == 0
        capsys.readouterr()
        assert run(["frames", "--moments", moments, "--out", field]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error [frames]: no frames to align: all 2 bins skipped; (0,): c2 ill-conditioned: "
        )
        assert not field.exists()


def _rows(d: dict) -> dict:
    """The rows of a moments or field dict: its bins or its frames."""
    return d["bins"] if "bins" in d else d["frames"]


def _set(name: str, value, key=(1, 1)):
    """An edit that sets the entry name of bin key to value; a stack's row
    is set to value's floats."""

    def edit(d):
        rows = _rows(d)
        at = rows["keys"].index(list(key))
        if isinstance(rows[name], str):
            stack = np.frombuffer(base64.b64decode(rows[name]), dtype="<f8").copy()
            stack.reshape(len(rows["keys"]), -1)[at] = np.ravel(value)
            rows[name] = base64.b64encode(stack.tobytes()).decode("ascii")
        else:
            rows[name][at] = value

    return edit


def _stack(name: str, shape=None, cut=0):
    """An edit that gives stack name rows of shape, or cuts cut bytes off it."""

    def edit(d):
        rows = _rows(d)
        raw = base64.b64decode(rows[name])
        if shape is not None:
            raw = np.ones((len(rows["keys"]), *shape)).tobytes()
        rows[name] = base64.b64encode(raw[: len(raw) - cut]).decode("ascii")

    return edit


def _as_schema_4(d: dict) -> None:
    """Rewrite d in the schema 4 layout: one object per bin under its "i,j"
    key, of nested lists, and the field's component ids in an object of
    their own."""
    kind = "bins" if "bins" in d else "frames"
    rows, n = d.pop(kind), len(d["grid"]["edges"])
    keys = [",".join(map(str, k)) for k in rows.pop("keys")]
    if kind == "frames":
        d["component_ids"] = dict(zip(keys, rows.pop("component_ids")))
    for name, value in rows.items():
        if isinstance(value, str):
            stack = np.frombuffer(base64.b64decode(value), dtype="<f8")
            rows[name] = stack.reshape(len(keys), *((n,) if name == "d" else (n, n))).tolist()
    d[kind] = {k: {name: column[i] for name, column in rows.items()} for i, k in enumerate(keys)}
    d["schema"] = d["grid"]["schema"] = 4


# (file, edit of its JSON, message): the bins and frames entries hold their
# lists and base64 float64 stacks, one row per key; each key is an array of
# N integers inside the grid, listed once; each stack has its byte length
# and finite values; each list entry has its JSON type, and each integer
# fits int64; and the grid's axes are arrays of finite float64 numbers
BAD_BINS = {
    "moments-key-outside": (
        "moments.json",
        lambda d: d["bins"]["keys"].__setitem__(0, [7, 7]),
        "moments keys: [7, 7] is not 2 integers inside the grid (3, 3)",
    ),
    "moments-key-length": (
        "moments.json",
        lambda d: d["bins"]["keys"].__setitem__(0, [1]),
        "moments keys: [1] is not 2 integers inside the grid (3, 3)",
    ),
    "moments-c2-shape": (
        "moments.json",
        _stack("c2", (3, 3)),
        "moments c2: 648 bytes, expected 288 for 9 bins",
    ),
    "moments-t-shape": (
        "moments.json",
        _stack("t", (3, 3)),
        "moments t: 648 bytes, expected 288 for 9 bins",
    ),
    "moments-t-short": (
        "moments.json",
        _stack("t", cut=1),
        "moments t: 287 bytes, expected 288 for 9 bins",
    ),
    "field-key-negative": (
        "field.json",
        lambda d: d["frames"]["keys"].__setitem__(0, [-1, 0]),
        "field keys: [-1, 0] is not 2 integers inside the grid (3, 3)",
    ),
    "field-key-length": (
        "field.json",
        lambda d: d["frames"]["keys"].__setitem__(0, [0, 0, 0]),
        "field keys: [0, 0, 0] is not 2 integers inside the grid (3, 3)",
    ),
    "field-m-shape": (
        "field.json",
        _stack("m", (3, 3)),
        "field m: 648 bytes, expected 288 for 9 bins",
    ),
    "field-d-shape": (
        "field.json",
        _stack("d", (1,)),
        "field d: 72 bytes, expected 144 for 9 bins",
    ),
    "field-m-not-base64": (
        "field.json",
        lambda d: d["frames"].update(m="not base64!"),
        "field m: not base64 text: Only base64 data is allowed",
    ),
    "field-d-not-ascii": (
        "field.json",
        lambda d: d["frames"].update(d="\u00e9t\u00e9"),
        "field d: not base64 text: string argument should contain only ASCII characters",
    ),
    "field-d-nan": (
        "field.json",
        _set("d", [float("nan"), 1.0]),
        "field bin (1, 1): d contains non-finite values",
    ),
    "moments-c2-inf": (
        "moments.json",
        _set("c2", [[1.0, 0.0], [0.0, float("-inf")]]),
        "moments bin (1, 1): c2 contains non-finite values",
    ),
    "moments-key-twice": (
        "moments.json",
        _set("keys", [0, 0]),
        "moments bin (0, 0): listed more than once",
    ),
    "field-key-twice": (
        "field.json",
        _set("keys", [2, 2]),
        "field bin (2, 2): listed more than once",
    ),
    "moments-key-spelling": (
        "moments.json",
        _set("keys", [0, 1.0], key=(0, 1)),
        "moments keys: [0, 1.0] is not 2 integers inside the grid (3, 3)",
    ),
    "field-key-spelling": (
        "field.json",
        _set("keys", "0,01", key=(0, 1)),
        "field keys: '0,01' is not 2 integers inside the grid (3, 3)",
    ),
    "moments-count-zero": (
        "moments.json",
        _set("count", 0),
        "moments bin (1, 1): count must be an integer >= 1, got 0",
    ),
    "moments-count-short": (
        "moments.json",
        lambda d: d["bins"]["count"].pop(),
        "moments count: 8 entries for 9 keys",
    ),
    "field-degenerate-not-boolean": (
        "field.json",
        _set("degenerate", 0),
        "field bin (1, 1): degenerate must be true or false, got 0",
    ),
    "field-component-id-negative": (
        "field.json",
        _set("component_ids", -1),
        "field bin (1, 1): component id must be an integer >= 0, got -1",
    ),
    "field-m-singular": (
        "field.json",
        _set("m", [[1.0, 2.0], [2.0, 4.0]]),
        "field bin (1, 1): m is singular",
    ),
    "field-component-id-without-frame": (
        "field.json",
        lambda d: d["frames"]["component_ids"].append(0),
        "field component_ids: 10 entries for 9 keys",
    ),
    "field-no-component-id": (
        "field.json",
        lambda d: d["frames"]["component_ids"].pop(),
        "field component_ids: 8 entries for 9 keys",
    ),
    "moments-bin-without-t": (
        "moments.json",
        lambda d: d["bins"].pop("t"),
        "moments bins: no 't' entry (it holds c2, count, keys)",
    ),
    "moments-bin-array": (
        "moments.json",
        lambda d: d["bins"].update(c2=np.eye(2).tolist()),
        "moments bins: 'c2' must be a string, got an array",
    ),
    "field-bin-without-degenerate": (
        "field.json",
        lambda d: d["frames"].pop("degenerate"),
        "field frames: no 'degenerate' entry (it holds component_ids, d, keys, m)",
    ),
    "moments-schema-4": ("moments.json", _as_schema_4, "moments JSON schema is 4, expected 5"),
    "field-schema-4": ("field.json", _as_schema_4, "field JSON schema is 4, expected 5"),
    "moments-edges-string": (
        "moments.json",
        lambda d: d["grid"]["edges"][0].__setitem__(1, "x"),
        "moments grid: edges[0] must be an array of numbers, found a string",
    ),
    "field-edges-nested": (
        "field.json",
        lambda d: d["grid"]["edges"].__setitem__(1, [[0.0, 1.0], [1.0, 2.0]]),
        "field grid: edges[1] must be an array of numbers, found an array",
    ),
    "moments-count-beyond-int64": (
        "moments.json",
        _set("count", 10**30),
        f"moments bin (1, 1): count must be an integer >= 1 and at most 2^63 - 1, got {10**30}",
    ),
    "moments-min-count-beyond-int64": (
        "moments.json",
        lambda d: d["grid"].update(min_count=2**63),
        f"moments grid: min_count must be an integer >= 1 and at most 2^63 - 1, got {2**63}",
    ),
    "moments-edge-beyond-float64": (
        "moments.json",
        lambda d: d["grid"]["edges"][0].__setitem__(0, -(10**400)),
        "moments grid: edges[0][0] is not a finite float64 number",
    ),
    "field-edge-infinite": (
        "field.json",
        lambda d: d["grid"]["edges"][1].__setitem__(3, float("inf")),
        "field grid: edges[1][3] is not a finite float64 number",
    ),
    "field-component-id-beyond-int64": (
        "field.json",
        _set("component_ids", 10**30),
        "field bin (1, 1): component id must be an integer >= 0 and at most 2^63 - 1, "
        f"got {10**30}",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_BINS))
def test_bins_must_agree_with_their_grid(case, staged, tmp_path, capsys):
    name, edit, message = BAD_BINS[case]
    d = serialize.load_json(staged / name)
    edit(d)
    bad = tmp_path / name
    serialize.dump_json(d, bad)
    out = tmp_path / "out"
    if name == "moments.json":
        command, argv = "frames", ["--moments", bad]
    else:
        command, argv = "weights", ["--in", staged / "walk.csv", "--field", bad]
    capsys.readouterr()
    assert run([command, *argv, "--out", out]) == 2
    assert capsys.readouterr().err == f"error [{command}]: {bad}: {message}\n"
    assert not out.exists()


# each option that reads a JSON artifact: its kind, its command and the
# argv that gives it the file at path
JSON_READERS = {
    "frames-moments": ("moments", "frames", lambda staged, path: ["--moments", path]),
    "weights-field": (
        "field", "weights", lambda staged, path: ["--in", staged / "walk.csv", "--field", path]
    ),
    "reconstruct-field": (
        "field",
        "reconstruct",
        lambda staged, path: ["--weights", staged / "weights.csv", "--field", path, "--x0", "0,0"],
    ),
}


def _copy(name: str, size: int | None = None):
    """A writer of the first size bytes of the staged file name."""
    return lambda staged, p: p.write_bytes((staged / name).read_bytes()[:size])


def _write_wav(staged, p):
    wav = p.with_suffix(".wav")
    argv = ["synth", "--kind", "walk", "--samples", "500", "--amplitude", "20000", "--out", wav]
    assert run(argv) == 0
    wav.rename(p)


# each wrong or broken file: how to write it from the staged files, and the
# message a reader of kind gives for it
WRONG_FILES = {
    "moments": (
        _copy("moments.json"),
        lambda kind: f"{kind} JSON: no 'frames' entry (it holds bins, grid, schema)",
    ),
    "field": (
        _copy("field.json"),
        lambda kind: f"{kind} JSON: no 'bins' entry (it holds frames, grid, schema)",
    ),
    "json-array": (
        lambda staged, p: p.write_text("[1, 2]\n"),
        lambda kind: f"{kind} JSON: expected an object, got an array",
    ),
    "report": (
        lambda staged, p: p.write_text('{"name": "sine", "passed": true}\n'),
        lambda kind: f"{kind} JSON schema is None, expected 5",
    ),
    "grid-a-list": (
        lambda staged, p: p.write_text('{"schema": 5, "grid": [], "bins": {}, "frames": {}}\n'),
        lambda kind: f"{kind} JSON: 'grid' must be an object, got an array",
    ),
    "trajectory-csv": (_copy("walk.csv"), lambda kind: "not a JSON file: "),
    "weights-csv": (_copy("weights.csv"), lambda kind: "not a JSON file: "),
    "wav": (_write_wav, lambda kind: "not a JSON file: "),
    "empty": (lambda staged, p: p.write_text(""), lambda kind: "not a JSON file: "),
    "truncated": (_copy("field.json", 200), lambda kind: "not a JSON file: "),
}


@pytest.mark.parametrize(
    "reader, wrong",
    [(r, w) for r in JSON_READERS for w in WRONG_FILES if w != JSON_READERS[r][0]],
)
def test_wrong_json_file_named(reader, wrong, staged, tmp_path, capsys):
    kind, command, argv = JSON_READERS[reader]
    write, message = WRONG_FILES[wrong]
    bad = tmp_path / "artifact.json"
    write(staged, bad)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, *argv(staged, bad), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [{command}]: {bad}: {message(kind)}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = run(["moments", "--in", tmp_path / "nope.csv", "--bins", "4", "--out", tmp_path / "o"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_bins(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        p.write_text("t,x\n0,0\n1,1\n2,2\n")
        with pytest.raises(SystemExit):
            run(["moments", "--in", p, "--bins", "zero", "--out", tmp_path / "m"])

    def test_wav_rejects_dt(self, tmp_path, capsys):
        out = tmp_path / "walk.wav"
        assert run(["synth", "--kind", "walk", "--samples", "500", "--amplitude", "20000",
                    "--out", out]) == 0
        moments = tmp_path / "moments.json"
        rc = run(["moments", "--in", out, "--dt", "0.5", "--bins", "2", "--out", moments])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error [moments]: {out}: a WAV file's sample rate sets dt; --dt cannot be given\n"
        )
        assert not moments.exists()

    def test_csv_time_column_rejects_dt(self, tmp_path, capsys):
        traj = tmp_path / "walk.csv"
        assert run(["synth", "--kind", "sine", "--samples", "500", "--out", traj]) == 0
        moments = tmp_path / "moments.json"
        rc = run(["moments", "--in", traj, "--dt", "0.5", "--bins", "2", "--out", moments])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error [moments]: {traj}: column 't' sets dt; a fixed dt cannot also be given\n"
        )
        assert not moments.exists()

    @pytest.mark.parametrize("name, dim, bins", [("walk.csv", 2, "3"), ("walk.wav", 1, "3,3")])
    def test_bin_count_names_file_and_both_counts(self, tmp_path, capsys, name, dim, bins):
        traj = tmp_path / name
        assert run(["synth", "--kind", "walk", "--samples", "500", "--dim", dim,
                    "--amplitude", "20000", "--out", traj]) == 0
        moments = tmp_path / "moments.json"
        assert run(["moments", "--in", traj, "--bins", bins, "--out", moments]) == 2
        given = len(bins.split(","))
        assert capsys.readouterr().err == (
            f"error [moments]: {traj}: need one bin count per axis, got {given} for dimension {dim}\n"
        )
        assert not moments.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["velocity", "--in", "x.csv", "--out", "v.csv"],
            ["grid", "--in", "x.csv", "--bins", "4", "--out", "g.json"],
            ["moments", "--in", "x.csv", "--bins", "4", "--scheme", "central", "--out", "m.json"],
            ["weights", "--in", "x.csv", "--field", "f.json", "--scheme", "central",
             "--out", "w.csv"],
            ["experiment", "sine", "--scheme", "central"],
        ],
        ids=["velocity", "grid", "moments-scheme", "weights-scheme", "experiment-scheme"],
    )
    def test_removed_command_or_scheme_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments: --scheme central" in err

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit):
            run([])
