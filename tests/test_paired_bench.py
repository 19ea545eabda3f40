"""The claim rule that scripts/paired_bench.py prints for each metric."""

import importlib.util
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
