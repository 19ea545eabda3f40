"""Sensor-independent inner time series of measured dynamical trajectories.

The pipeline: estimate per-bin velocity moments over a state-space grid,
solve per-bin local frames (whiten the second moment, diagonalize the
contracted fourth moment), align frames globally up to one signed
permutation, and project velocities onto the frames to get dimensionless
weights that are invariant under instantaneous invertible sensor transforms.
"""

from .estimate import accumulate_moments, bin_samples, build_grid, estimate_velocity
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    analytic_sine_weights,
    run_experiment,
    run_pipeline,
)
from .frames import align_frame_field, fit_field, solve_frame
from .ingest import (
    apply_transform,
    gen_lifted_latent,
    gen_sine,
    mix_two_sources,
    pca_embed,
    read_csv_trajectory,
    read_wav_trajectory,
)
from .model import (
    BinGrid,
    BinMoments,
    Binning,
    FrameField,
    LocalFrame,
    Trajectory,
    WeightSeries,
)
from .reconstruct import integrate_weights
from .weights import (
    align_weight_series,
    compute_weights,
    cross_channel_correlation,
    separability_report,
)

__version__ = "0.1.0"
