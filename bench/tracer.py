"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each innerseries module in every
module that binds them (``from .estimate import build_grid`` binds
``build_grid`` in the importing module too), so a call is recorded however
the caller reached it.  Spans (name, start, end, parent) are kept in memory
and written out at the end of the run; a layer's self time is each span's
duration minus the time its child spans cover.

A probe whose function no longer exists is skipped, and the metrics only it
feeds are reported as missing, so refactors of the program do not crash the
benchmark.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "innerseries"
EXPERIMENT_NAMES = ("sine", "monotone-1d", "lifted-2d", "mixture-2d")


@dataclass(frozen=True)
class Probe:
    """One wrapped function.

    metric names the time metric its self time adds to; "{}" in it is
    replaced by the call's first argument.  count(counts, args, kwargs,
    result) adds to count metrics after a call returns; error_metric counts
    calls that raised.  feeds lists every metric the probe can produce.
    """

    module: str
    name: str
    metric: str
    count: Callable | None = None
    error_metric: str | None = None
    feeds: tuple[str, ...] = ()


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _count_generated(counts, args, kwargs, out):
    trajs = out if isinstance(out, tuple) else (out,)
    counts["ingest.samples_generated"] += sum(t.n_samples for t in trajs)


def _count_file(metric, i, key):
    def count(counts, args, kwargs, out):
        counts[metric] += os.path.getsize(_arg(args, kwargs, i, key))

    return count


def _count_binned(counts, args, kwargs, out):
    counts["estimate.samples_binned"] += _arg(args, kwargs, 0, "traj").n_samples


def _count_occupied(counts, args, kwargs, out):
    counts["estimate.bins_occupied"] += len(out)


def _count_solve(counts, args, kwargs, out):
    counts["frames.solve_calls"] += 1
    counts["frames.bins_degenerate"] += bool(out.degenerate_flag)


def _count_edges(counts, args, kwargs, out):
    # breadth-first alignment visits every bin but each component's root
    # through exactly one edge
    counts["frames.alignment_edges"] += len(out.frames) - len(set(out.component_ids.values()))


def _count_weights(counts, args, kwargs, out):
    counts["weights.samples"] += len(out)
    counts["weights.valid"] += int(out.valid_mask.sum())
    if out.fallback_mask is not None:
        counts["weights.fallback_samples"] += int(out.fallback_mask.sum())


def _count_steps(counts, args, kwargs, out):
    counts["reconstruct.steps"] += out[0].n_samples - 1


def _count_json(counts, args, kwargs, out):
    if "frames" in _arg(args, kwargs, 0, "obj"):
        counts["serialize.field_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _probes(module, names, metric, **kw):
    return [Probe(module, n, metric, **kw) for n in names]


PROBES = [
    *_probes(
        "ingest",
        ("gen_sine", "gen_broadband", "gen_bounded_walk", "gen_lifted_latent"),
        "ingest.generate_s",
        count=_count_generated,
        feeds=("ingest.samples_generated",),
    ),
    *_probes(
        "ingest",
        ("apply_transform", "mix_two_sources", "pca_embed", "distort_lift", "lift_map"),
        "ingest.transform_s",
    ),
    Probe("ingest", "read_csv_trajectory", "ingest.csv_read_s"),
    Probe(
        "ingest",
        "write_csv_trajectory",
        "ingest.csv_write_s",
        count=_count_file("ingest.csv_bytes", 1, "path"),
        feeds=("ingest.csv_bytes",),
    ),
    Probe("estimate", "estimate_velocity", "estimate.velocity_s"),
    Probe(
        "estimate",
        "build_grid",
        "estimate.grid_s",
        count=_count_binned,
        feeds=("estimate.samples_binned",),
    ),
    Probe(
        "estimate",
        "accumulate_moments",
        "estimate.moments_s",
        count=_count_occupied,
        feeds=("estimate.bins_occupied",),
    ),
    Probe(
        "frames",
        "solve_frame",
        "frames.solve_s",
        count=_count_solve,
        error_metric="frames.bins_skipped",
        feeds=("frames.solve_calls", "frames.bins_degenerate", "frames.bins_skipped"),
    ),
    Probe("frames", "frame_residuals", "frames.residuals_s"),
    Probe(
        "frames",
        "align_frame_field",
        "frames.align_s",
        count=_count_edges,
        feeds=("frames.alignment_edges",),
    ),
    Probe(
        "weights",
        "compute_weights",
        "weights.compute_s",
        count=_count_weights,
        feeds=("weights.valid_fraction", "weights.fallback_samples"),
    ),
    *_probes(
        "weights",
        ("align_weight_series", "separability_report", "cross_channel_correlation"),
        "weights.align_s",
    ),
    Probe(
        "weights",
        "write_csv_weights",
        "weights.csv_write_s",
        count=_count_file("weights.csv_bytes", 1, "path"),
        feeds=("weights.csv_bytes",),
    ),
    Probe("weights", "read_csv_weights", "weights.csv_read_s"),
    Probe(
        "reconstruct",
        "integrate_weights",
        "reconstruct.integrate_s",
        count=_count_steps,
        feeds=("reconstruct.steps",),
    ),
    *_probes(
        "serialize",
        ("grid_to_dict", "moments_to_dict", "field_to_dict"),
        "serialize.dump_s",
    ),
    Probe(
        "serialize",
        "dump_json",
        "serialize.dump_s",
        count=_count_json,
        feeds=("serialize.field_bytes",),
    ),
    *_probes(
        "serialize",
        ("load_json", "grid_from_dict", "moments_from_dict", "field_from_dict"),
        "serialize.load_s",
    ),
    Probe("svgplot", "plot_svg", "svgplot.plot_s"),
    *(
        Probe("cli", f"cmd_{cmd}", f"cli.{cmd}_s")
        for cmd in ("moments", "frames", "weights", "align", "reconstruct")
    ),
    Probe(
        "experiments",
        "run_experiment",
        "experiments.{}_s",
        feeds=tuple(f"experiments.{n}_s" for n in EXPERIMENT_NAMES),
    ),
    Probe("experiments", "run_pipeline", "experiments.pipeline_s"),
]


class Tracer:
    """Wraps the probed functions while installed; records spans and counts."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.spans: list[list] = []  # [name, metric, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for probe in self.probes:
            home = sys.modules.get(f"{PACKAGE}.{probe.module}")
            fn = getattr(home, probe.name, None)
            if not callable(fn):
                self.missing.add(f"{probe.module}.{probe.name}")
                continue
            wrapped = self._wrap(probe, fn)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapped)
                        self._patched.append((m, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            m, attr, fn = self._patched.pop()
            setattr(m, attr, fn)

    def _wrap(self, probe: Probe, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            metric = probe.metric.format(args[0]) if "{}" in probe.metric else probe.metric
            parent = self._stack[-1] if self._stack else None
            span = [f"{probe.module}.{probe.name}", metric, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if probe.error_metric:
                    self.counts[probe.error_metric] += 1
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if probe.count:
                probe.count(self.counts, args, kwargs, out)
            return out

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per metric: span duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (_, metric, start, end, _) in enumerate(self.spans):
            out[metric] += (end - start) - child[i]
        return out

    def missing_metrics(self) -> set[str]:
        """Metrics fed only by probes whose function no longer exists."""
        present, absent = set(), set()
        for probe in self.probes:
            names = {probe.metric, *probe.feeds} - {"experiments.{}_s"}
            if probe.error_metric:
                names.add(probe.error_metric)
            key = f"{probe.module}.{probe.name}"
            (absent if key in self.missing else present).update(names)
        return absent - present

    def layer_metrics(self, names) -> dict[str, float | None]:
        """Value of each named per-layer metric (None when missing)."""
        values = dict(self.counts)
        values.update(self.self_times())
        if values.get("weights.samples"):
            values["weights.valid_fraction"] = values["weights.valid"] / values["weights.samples"]
        missing = self.missing_metrics()
        return {n: None if n in missing else float(values.get(n, 0.0)) for n in names}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, metric, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "metric": metric, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
