"""Seeded Monte Carlo sweeps over iid Rayleigh channel ensembles.

Determinism contract: every trial draws its channels from a counter-based
substream keyed by (seed, trial_index), so a sweep produces bit-identical
results regardless of execution order or worker count.  Channels are
reused across sweep points and transform kinds within a trial (common
random numbers: the curves compare matrices on the same fading).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import RelayRtmError, ValidationError
from .evaluate import capacity, naf_rtm, ostbc_capacity
from .network import ChannelSet, Dims, SnrScenario, translate_scenario
from .opt_capacity import optimize_capacity_rtm
from .opt_ostbc import optimize_ostbc_rtm

__all__ = ["SweepSpec", "CurvePoint", "sample_channels", "run_sweep", "RTM_KINDS", "METRICS", "SWEEP_AXES"]

SWEEP_AXES = ("rho0", "rho1", "rho2")
RTM_KINDS = ("opt1", "opt2", "naf")
METRICS = ("capacity", "ostbc")


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep description: scenario template, swept axis, points,
    transform kinds, metrics, trial count and seed."""

    scenario: SnrScenario
    sweep_axis: str
    sweep_points_db: tuple
    rtm_kinds: tuple
    metrics: tuple
    trials: int
    seed: int
    symbol_rate: float = field(default=1.0)

    def __post_init__(self):
        object.__setattr__(self, "sweep_points_db", tuple(float(p) for p in self.sweep_points_db))
        object.__setattr__(self, "rtm_kinds", tuple(self.rtm_kinds))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        points, kinds, metrics = self.sweep_points_db, self.rtm_kinds, self.metrics
        if self.sweep_axis not in SWEEP_AXES:
            raise ValidationError(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        if not points:
            raise ValidationError(f"sweep_points_db must be nonempty, got {points}")
        if not all(math.isfinite(p) for p in points):
            raise ValidationError(f"sweep points must be finite, got {points}")
        if any(b < a for a, b in zip(points, points[1:])):
            raise ValidationError(f"sweep points must be sorted nondecreasing, got {points}")
        if not kinds or any(k not in RTM_KINDS for k in kinds):
            raise ValidationError(f"rtm_kinds must be a nonempty subset of {RTM_KINDS}, got {kinds}")
        if not metrics or any(m not in METRICS for m in metrics):
            raise ValidationError(f"metrics must be a nonempty subset of {METRICS}, got {metrics}")
        for name, minimum in (("trials", 1), ("seed", 0)):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or val < minimum:
                raise ValidationError(f"{name} must be an integer >= {minimum}, got {val!r}")
        if not (0.0 < self.symbol_rate <= 1.0):
            raise ValidationError(f"symbol_rate must lie in (0, 1], got {self.symbol_rate!r}")


@dataclass(frozen=True)
class CurvePoint:
    """Ergodic mean of one metric for one transform kind at one sweep value."""

    sweep_value_db: float
    rtm_kind: str
    metric: str
    mean_bits: float
    stderr_bits: float
    trials: int


def sample_channels(dims: Dims, seed: int, trial_index: int) -> ChannelSet:
    """Draw one iid Rayleigh realization (unit-variance complex entries).

    Deterministic function of (seed, trial_index): the substream is
    spawned from the seed with the trial index as spawn key, so the same
    pair always yields the same matrices under any scheduling.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial_index),))
    rng = np.random.default_rng(ss)

    def draw(rows: int, cols: int) -> np.ndarray:
        z = rng.standard_normal((2, rows, cols))
        return (z[0] + 1j * z[1]) / np.sqrt(2.0)

    return ChannelSet(
        h0=draw(dims.r, dims.t),
        h1=draw(dims.s, dims.t),
        h2=draw(dims.r, dims.u),
    )


_BUILDERS = {
    "opt1": optimize_capacity_rtm,
    "opt2": optimize_ostbc_rtm,
    "naf": naf_rtm,
}


def _trial_values(spec: SweepSpec, trial: int) -> np.ndarray:
    """(points x kinds x metrics) metric values for one trial."""
    dims = spec.scenario.dims
    raw = sample_channels(dims, spec.seed, trial)
    axis_field = spec.sweep_axis + "_db"
    out = np.empty((len(spec.sweep_points_db), len(spec.rtm_kinds), len(spec.metrics)))
    for ip, point in enumerate(spec.sweep_points_db):
        try:
            ch, pb = translate_scenario(replace(spec.scenario, **{axis_field: point}), raw)
            for ik, kind in enumerate(spec.rtm_kinds):
                sol = _BUILDERS[kind](ch, pb, dims)
                for im, metric in enumerate(spec.metrics):
                    if metric == "capacity":
                        out[ip, ik, im] = capacity(ch, pb, dims, sol.x_matrix).bits
                    else:
                        out[ip, ik, im] = ostbc_capacity(
                            ch, pb, dims, sol.x_matrix, spec.symbol_rate
                        ).bits
        except RelayRtmError as exc:
            raise type(exc)(
                f"trial {trial} (seed {spec.seed}) at {spec.sweep_axis}={point} dB: {exc}"
            ) from exc
    return out


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[CurvePoint]:
    """Run all trials of a sweep and average per (point, kind, metric).

    Trials are independent work items; with ``workers > 1`` they run on a
    thread pool.  Results are aggregated from a trial-ordered array, so
    the output is bit-identical for any worker count.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    trials = range(spec.trials)
    if workers == 1:
        per_trial = [_trial_values(spec, tr) for tr in trials]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(lambda tr: _trial_values(spec, tr), trials))
    arr = np.stack(per_trial, axis=0)
    mean = arr.mean(axis=0)
    if spec.trials > 1:
        stderr = arr.std(axis=0, ddof=1) / math.sqrt(spec.trials)
    else:
        stderr = np.zeros_like(mean)

    points = []
    for ip, point in enumerate(spec.sweep_points_db):
        for ik, kind in enumerate(spec.rtm_kinds):
            for im, metric in enumerate(spec.metrics):
                points.append(
                    CurvePoint(
                        sweep_value_db=float(point),
                        rtm_kind=kind,
                        metric=metric,
                        mean_bits=float(mean[ip, ik, im]),
                        stderr_bits=float(stderr[ip, ik, im]),
                        trials=spec.trials,
                    )
                )
    return points
