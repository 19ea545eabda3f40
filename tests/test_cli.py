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

    def test_format_option_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["synth", "--kind", "sine", "--samples", "50", "--format", "wav",
                 "--out", tmp_path / "x.csv"])

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
        assert "transform" not in report["config"]  # sine applies none
        assert (out_dir / "sine.weights.svg").exists()

    def test_monotone_identity_arm_is_the_signal(self, tmp_path):
        d = tmp_path / "id"
        argv = ["experiment", "monotone-1d", "--transform", "identity", "--samples", "20000"]
        assert run([*argv, "--out-dir", d]) == 0
        w = (d / "monotone-1d.x.weights.csv").read_bytes()
        assert (d / "monotone-1d.xprime.weights.csv").read_bytes() == w
        report = json.loads((d / "monotone-1d.report.json").read_text())
        assert report["config"]["transform"] == "identity"

    @pytest.mark.parametrize("option", [[], ["--transform", "cubic"]])
    def test_monotone_cubic_is_the_default(self, tmp_path, option):
        d = tmp_path / "m"
        assert run(["experiment", "monotone-1d", *option, "--samples", "20000", "--out-dir", d]) == 0
        report = json.loads((d / "monotone-1d.report.json").read_text())
        assert report["config"]["transform"] == "cubic"
        w = (d / "monotone-1d.x.weights.csv").read_bytes()
        assert (d / "monotone-1d.xprime.weights.csv").read_bytes() != w

    @pytest.mark.parametrize("transform", ["cubic", "identity"])
    @pytest.mark.parametrize("name", ["sine", "lifted-2d", "mixture-2d"])
    def test_transform_rejected_where_not_applied(self, tmp_path, capsys, name, transform):
        d = tmp_path / "out"
        assert run(["experiment", name, "--transform", transform, "--out-dir", d]) == 2
        assert capsys.readouterr().err == (
            f"error [experiment]: experiment '{name}' applies no transform; "
            "only monotone-1d takes one\n"
        )
        assert not d.exists()

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
        assert {"5", "6", "7"} <= set(serialize.load_json(moments)["bins"])
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


def _rename_first(bins: dict, key: str) -> str:
    first = next(iter(bins))
    bins[key] = bins.pop(first)
    return first


# (file, edit of its JSON, message): each bin must lie in its grid, have one
# key spelling and hold arrays of the grid's dimension, and each frame needs a
# component id and each component id a frame
BAD_BINS = {
    "moments-key-outside": (
        "moments.json",
        lambda d: _rename_first(d["bins"], "7,7"),
        "moments bin '7,7': outside the grid of shape (3, 3)",
    ),
    "moments-key-length": (
        "moments.json",
        lambda d: _rename_first(d["bins"], "1"),
        "moments bin '1': key length 1, grid dimension 2",
    ),
    "moments-c2-shape": (
        "moments.json",
        lambda d: d["bins"]["0,0"].update(c2=np.eye(3).tolist(), t=np.eye(3).tolist()),
        "moments bin '0,0': c2 has shape (3, 3), expected (2, 2)",
    ),
    "moments-t-shape": (
        "moments.json",
        lambda d: d["bins"]["0,0"].update(t=np.eye(3).tolist()),
        "moments bin '0,0': t has shape (3, 3), expected (2, 2)",
    ),
    "field-key-negative": (
        "field.json",
        lambda d: _rename_first(d["frames"], "-1,0"),
        "field bin '-1,0': outside the grid of shape (3, 3)",
    ),
    "field-key-length": (
        "field.json",
        lambda d: _rename_first(d["frames"], "0,0,0"),
        "field bin '0,0,0': key length 3, grid dimension 2",
    ),
    "field-m-shape": (
        "field.json",
        lambda d: d["frames"]["0,0"].update(m=np.eye(3).tolist()),
        "field bin '0,0': m has shape (3, 3), expected (2, 2)",
    ),
    "field-d-shape": (
        "field.json",
        lambda d: d["frames"]["0,0"].update(d=[1.0]),
        "field bin '0,0': d has shape (1,), expected (2,)",
    ),
    "moments-key-spelling": (
        "moments.json",
        lambda d: d["bins"].update({"00,1": d["bins"]["0,1"]}),
        "moments bin '00,1': not a key of comma-separated integers in plain form",
    ),
    "field-key-spelling": (
        "field.json",
        lambda d: _rename_first(d["frames"], "0,00"),
        "field bin '0,00': not a key of comma-separated integers in plain form",
    ),
    "field-component-id-without-frame": (
        "field.json",
        lambda d: d["frames"].pop("0,0"),
        "field bin '0,0': component_ids entry but no frame",
    ),
    "field-no-component-id": (
        "field.json",
        lambda d: d["component_ids"].pop("0,0"),
        "field bin '0,0': no component_ids entry",
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
    assert capsys.readouterr().err == f"error [{command}]: {message}\n"
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
