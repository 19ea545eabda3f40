"""Negative controls: an experiment's construction run with one of its
assumptions broken, where its criteria must fail.

mixture-2d recovers two sources from their nonlinear mixture because the
sources' velocities differ in kurtosis, which the fourth-moment step of each
frame needs to single out the source directions.  With two Gaussian sources,
or two Laplace sources of equal kurtosis, min_channel_corr falls well below
MIN_MATCH_CORR.  max_cross_corr stays below MAX_CROSS_CORR on every input:
each bin's frame whitens the velocities, so the weight channels come out
uncorrelated whatever the sources, and no control can make that criterion
fail.
"""

import numpy as np
import pytest

from innerseries.experiments import ExperimentConfig, run_experiment, run_pipeline
from innerseries.ingest import gen_bounded_walk, mix_two_sources, pca_embed
from innerseries.model import Trajectory
from innerseries.weights import MAX_CROSS_CORR, MIN_MATCH_CORR, separability_report

SAMPLES = 100_000


def mixture_control(seed: int, n: int, noise: tuple[str, str]):
    """The separability report of mixture-2d's construction, from public
    functions, with noise the two sources' driving distributions (the
    experiment's are ("laplace", "uniform"))."""
    dt, box = 1.0 / 16000, 2.0e4
    walks = [
        gen_bounded_walk(n, seed=seed + i, dim=1, box=box, dt=dt, noise=kind)
        for i, kind in enumerate(noise)
    ]
    sources = [run_pipeline(w, (16,), None).weights for w in walks]
    mixed = mix_two_sources(Trajectory(np.hstack([w.samples for w in walks]), dt))
    xprime, _ = pca_embed(mixed, 2)
    return separability_report(run_pipeline(xprime, (16, 16), None).weights, sources)


def test_control_reproduces_the_experiment():
    report = run_experiment("mixture-2d", ExperimentConfig(seed=0, samples=SAMPLES))
    control = mixture_control(0, SAMPLES, ("laplace", "uniform"))
    assert control.min_channel_corr == report.metrics["min_channel_corr"]
    assert control.max_cross_corr == report.metrics["max_cross_corr"]
    assert control.min_channel_corr >= MIN_MATCH_CORR


@pytest.mark.parametrize("noise", [("gauss", "gauss"), ("laplace", "laplace")])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sources_of_equal_kurtosis_fail_min_channel_corr(seed, noise):
    report = mixture_control(seed, SAMPLES, noise)
    assert report.min_channel_corr < MIN_MATCH_CORR
    # the criterion no control can fail (see the module docstring)
    assert report.max_cross_corr < MAX_CROSS_CORR
