"""The claim rule that scripts/paired_bench.py prints for each metric."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

PARENT = [93.6, 93.7, 93.65, 93.7, 93.8, 93.6, 93.75, 93.7, 93.65, 93.7]


def test_clear_gain_holds():
    holds, why = paired_bench.claim(PARENT, [p - 7.5 for p in PARENT], lower=True)
    assert holds and why.startswith("better in 10 of 10 pairs (needs 9)")


@pytest.mark.parametrize("ties", [1, 2])
def test_a_tie_is_no_win(ties):
    change = [p - 7.5 for p in PARENT]
    change[:ties] = PARENT[:ties]
    holds, _ = paired_bench.claim(PARENT, change, lower=True)
    assert holds == (ties == 1)


def test_gap_within_the_parent_spread_does_not_hold():
    # better in every pair, but by less than the parent's quartile spread
    holds, why = paired_bench.claim(PARENT, [p - 0.01 for p in PARENT], lower=True)
    assert not holds and "better in 10 of 10" in why


def test_higher_is_better():
    change = [p + 7.5 for p in PARENT]
    assert paired_bench.claim(PARENT, change, lower=False)[0]
    assert not paired_bench.claim(PARENT, change, lower=True)[0]


def test_out_records_each_workload(tmp_path, monkeypatch):
    """--out keeps the seeds, both sides' results and each metric's
    quartiles and verdict, one entry per workload in the same file."""
    metrics = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]

    def fake_run(root, workload, seed):
        value = seed + (0.5 if root.name == "parent" else 0.0)
        return {
            "correct": True,
            "failed": 0,
            "metrics": {m["name"]: {"value": value} for m in metrics},
        }

    monkeypatch.setattr(paired_bench, "run_bench", fake_run)
    roots = [tmp_path / "parent", SCRIPT.parents[1]]
    out = tmp_path / "trail.json"
    for workload in ("w1", "w2"):
        argv = [*map(str, roots), "--workload", workload, "--seeds", "10-13", "--out", str(out)]
        assert paired_bench.main(argv) == 0
    trail = json.loads(out.read_text())
    assert sorted(trail) == ["w1", "w2"]
    run = trail["w2"]
    assert run["seeds"] == [10, 11, 12, 13]
    assert [r["metrics"]["wall_s"]["value"] for r in run["results"]["parent"]] == [
        10.5, 11.5, 12.5, 13.5
    ]
    wall = run["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 12.0, "q1": 11.25, "q3": 12.75}
    assert wall["change"]["median"] == 11.5
    assert wall["claim"]["holds"] is False
    assert wall["claim"]["why"].startswith("better in 4 of 4 pairs")
