"""The benchmark's own tests: a reduced-size run of each workload, the traced
run, and each checker rejecting broken output.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json

import numpy as np
import pytest

import checks
import tracer
import worker
import workloads

SPEC = json.loads((worker.ROOT / "BENCHMARK.json").read_text())


def run_round(name, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name](seed, workloads.SMALL, tmp_path)
    wl.setup()
    tally = worker.Tally()
    tally.round(wl, tmp_path / "out")
    return wl, tally


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("paper")
    return run_round("paper-experiments", tmp)[1], tmp / "out"


@pytest.fixture(scope="module")
def highdim(tmp_path_factory):
    return run_round("highdim-6d", tmp_path_factory.mktemp("highdim"))


@pytest.fixture(scope="module")
def clifiles(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    wl, tally = run_round("cli-files", tmp)
    return wl, tally, tmp / "out"


def rewrite_csv(path, change):
    """Apply change(data) to the numeric rows of a CSV, keeping its header."""
    with open(path) as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    change(data)
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


# ---------------------------------------------------------------------------
# reduced-size runs
# ---------------------------------------------------------------------------

def test_paper_experiments_small_round_passes(paper):
    tally, _ = paper
    assert (tally.attempted, tally.failed, tally.wrong) == (10, 0, 0)


def test_highdim_small_round_passes(highdim):
    _, tally = highdim
    assert (tally.attempted, tally.failed, tally.wrong) == (5, 0, 0)


def test_cli_files_small_round_passes(clifiles):
    _, tally, _ = clifiles
    assert (tally.attempted, tally.failed, tally.wrong) == (10, 0, 0)


def test_measure_reports_every_end_to_end_metric(tmp_path):
    wl = workloads.CliFiles(1, workloads.SMALL, tmp_path)
    result = worker.measure(wl, 0, False, SPEC, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    wl = workloads.CliFiles(1, workloads.SMALL, tmp_path)
    result = worker.measure(wl, 0, True, SPEC, tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert [x["name"] for x in SPEC["per_layer"]] == list(m)
    assert None not in m.values()
    assert m["reconstruct.steps"] == workloads.SMALL.cli_steps
    assert m["estimate.samples_binned"] == 2 * workloads.SMALL.cli_samples
    for name in ("cli.moments_s", "ingest.csv_read_s", "weights.csv_write_s", "ingest.generate_s"):
        assert m[name] > 0
    assert m["experiments.sine_s"] == 0.0
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert {json.loads(s)["name"] for s in spans} >= {"cli.cmd_align", "weights.read_csv_weights"}
    # tracing is removed again afterwards
    assert workloads.cli.cmd_align.__name__ == "cmd_align"
    assert not hasattr(workloads.cli.cmd_align, "__wrapped__")


def test_self_time_excludes_children():
    tr = tracer.Tracer(probes=[])
    tr.spans = [["a", "x", 0.0, 10.0, None], ["b", "y", 1.0, 4.0, 0], ["c", "y", 5.0, 6.0, 0]]
    assert tr.self_times() == {"x": 6.0, "y": 4.0}


def test_missing_function_is_reported_not_fatal():
    probes = [
        tracer.Probe("estimate", "no_such_function", "estimate.gone_s", feeds=("estimate.gone",)),
        tracer.Probe("estimate", "build_grid", "estimate.grid_s"),
    ]
    tr = tracer.Tracer(probes=probes)
    tr.install()
    tr.uninstall()
    values = tr.layer_metrics(["estimate.gone_s", "estimate.gone", "estimate.grid_s"])
    assert values == {"estimate.gone_s": None, "estimate.gone": None, "estimate.grid_s": 0.0}


# ---------------------------------------------------------------------------
# checkers reject broken output
# ---------------------------------------------------------------------------

def test_report_check_rejects_failed_or_missing_criterion(paper, tmp_path):
    _, out = paper
    report = json.loads((out / "sine.report.json").read_text())
    broken = dict(report, criteria=report["criteria"][1:])
    (tmp_path / "a.json").write_text(json.dumps(broken))
    with pytest.raises(checks.CheckFailed):
        checks.check_report(tmp_path / "a.json", "sine")
    crit = [dict(c) for c in report["criteria"]]
    crit[0]["value"] = 0.5  # sign_match_fraction below 0.95, "passed" left as it was
    (tmp_path / "b.json").write_text(json.dumps(dict(report, criteria=crit)))
    with pytest.raises(checks.CheckFailed):
        checks.check_report(tmp_path / "b.json", "sine")


def test_sine_check_rejects_flipped_signs(paper, tmp_path):
    _, out = paper
    path = tmp_path / "sine.csv"
    path.write_text((out / "sine.x.weights.csv").read_text())
    checks.check_sine_signs(path)

    def flip_half(d):
        d[: len(d) // 2, 1] *= -1

    rewrite_csv(path, flip_half)
    with pytest.raises(checks.CheckFailed):
        checks.check_sine_signs(path)


def test_separability_check_rejects_mixed_channels(paper, tmp_path):
    _, out = paper
    names = ["mixture-2d.mixture", "mixture-2d.s1", "mixture-2d.s2"]
    paths = [tmp_path / f"{n}.csv" for n in names]
    for n, p in zip(names, paths):
        p.write_text((out / f"{n}.weights.csv").read_text())
    checks.check_separability(paths[0], paths[1:])

    def remix(d):
        d[:, 1] = d[:, 1] + d[:, 2]

    rewrite_csv(paths[0], remix)
    with pytest.raises(checks.CheckFailed):
        checks.check_separability(paths[0], paths[1:])


def test_frame_check_rejects_rescaled_row(highdim):
    wl, _ = highdim
    fit = wl.fit
    frames = {k: f.m for k, f in fit.field.frames.items()}
    args = (wl.traj.samples, wl.traj.dt, fit.field.grid.edges)
    checks.check_frames(*args, frames, workloads.SMALL.highdim_min_count)
    key = next(iter(frames))
    m = frames[key].copy()
    m[2] *= 1.001
    with pytest.raises(checks.CheckFailed):
        checks.check_frames(*args, {**frames, key: m}, workloads.SMALL.highdim_min_count)


def test_weight_check_rejects_scaled_column(highdim):
    wl, _ = highdim
    fit = wl.fit
    frames = {k: f.m for k, f in fit.field.frames.items()}
    w = fit.weights
    args = (wl.traj.samples, wl.traj.dt, fit.field.grid.edges, frames)
    checks.check_weights(*args, w.values, w.valid_mask, w.fallback_mask)
    scaled = w.values.copy()
    scaled[:, 4] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_weights(*args, scaled, w.valid_mask, w.fallback_mask)


def test_reload_check_rejects_changed_frame(highdim):
    fit = highdim[0].fit
    field = fit.field
    key = next(iter(field.frames))
    f = field.frames[key]
    m = f.m.copy()
    m[0, 0] = np.nextafter(m[0, 0], np.inf)
    changed = type(field)(
        field.grid,
        {**field.frames, key: type(f)(m, np.linalg.inv(m), f.d, f.degenerate_flag)},
        field.component_ids,
    )
    checks.check_same_field(field, field)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_field(field, changed)


def test_arm_check_rejects_scaled_weight_column(clifiles, tmp_path):
    wl, _, out = clifiles
    field = workloads.serialize.field_from_dict(workloads.serialize.load_json(out / "a.field.json"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text((out / "a.weights.csv").read_text())
    b.write_text((out / "b.weights.csv").read_text())
    args = (wl.inputs / "a.csv", a, b, field.grid.edges, set(field.frames))
    checks.check_arm_weights(*args, out / "align.json")

    def scale(d):
        d[:, 2] *= 1.5

    rewrite_csv(b, scale)
    with pytest.raises(checks.CheckFailed):
        checks.check_arm_weights(*args)


def test_reconstruction_check_rejects_path_offset_by_one_step(clifiles, tmp_path):
    wl, _, out = clifiles
    field = workloads.serialize.field_from_dict(workloads.serialize.load_json(out / "a.field.json"))
    rec = tmp_path / "rec.csv"
    rec.write_text((out / "a.reconstructed.csv").read_text())
    args = (wl.inputs / "a.csv", out / "a.weights.csv", field.grid.edges, set(field.frames))
    assert checks.check_reconstruction(*args, rec, workloads.SMALL.cli_steps) > 0

    def delay(d):
        d[2:, 1:] = d[1:-1, 1:].copy()

    rewrite_csv(rec, delay)
    with pytest.raises(checks.CheckFailed):
        checks.check_reconstruction(*args, rec, workloads.SMALL.cli_steps)
