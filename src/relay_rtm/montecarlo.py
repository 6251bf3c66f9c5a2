"""Seeded Monte Carlo sweeps over iid Rayleigh channel ensembles.

Determinism contract: every trial draws its channels from a counter-based
substream keyed by (seed, trial_index).  Channels are reused across sweep
points and transform kinds within a trial (common random numbers: the
curves compare matrices on the same fading).

Sweeps run on stacks: the trials are cut into chunks of ``_CHUNK_TRIALS``
(a bound on memory, not a tuning knob), and the (trial x point) problems
of a chunk take one pass.  The chunk's channels are sampled by one call
and translated to the template scenario by one call, and the matrix the
swept SNR scales is scaled to every point by one multiply.  Each
transform kind is then solved by one call on the chunk's ``ChannelSet``
and evaluated by one ``evaluate`` call per metric (``_METRIC_BITS``), with
one relay-path information matrix serving both.  A sweep reads only the
transform X of each solve: a solution's relay power is computed when
read, so a sweep never computes it.  The ``ChannelSet`` builds what the
kinds share (the shaping matrix, whose first build validates the network,
the second hop's factorization, G0 and H1 H1^H with its factorization)
once, on first use.  The chunk is a
broadcast stack: the matrix the swept SNR scales is ``(trials, points,
...)`` and the other two are ``(trials, 1, ...)``, so whatever is built
from those two alone is computed once per trial.  Along rho2 the chunk
records the unit-variance draw ``(trials, 1, ...)`` of its second hop and
a power gain per point, as ``translate_scenario`` records them for one
network, so B0 = H2^H H2 of the draw is factorized once per trial and its
eigenvalues are scaled to every point (``opt_capacity._relay_side``).
Every layer treats a member of a stack exactly as it would treat it
alone, so each problem's figures do not depend on the stack size or the
worker count: they are bit-identical to those of the per-realization
API (``translate_scenario`` of the trial's draw), and a sweep's output is
the same for any ``workers``.

Chunks are independent, so ``run_sweep`` can spread them over worker
processes.  A lone chunk, or a sweep with one worker, runs inline in the
caller.  A pooled chunk hands back its values only: one that warned or
raised a ``RelayRtmError`` hands back nothing, and the caller runs it
again inline, in trial order, where it warns and raises as any inline
chunk does.  Such a chunk is computed twice; a clean chunk, once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate

import numpy as np

from . import evaluate
from .errors import RelayRtmError, ValidationError
from .evaluate import naf_rtm
from .network import ChannelSet, Dims, PowerBudget, SnrScenario, _amplitude, _channel_shapes, _check_count, _check_snr_db, _is_number, _owned, translate_scenario
from .opt_capacity import optimize_capacity_rtm
from .opt_ostbc import optimize_ostbc_rtm

__all__ = ["SweepSpec", "CurvePoint", "sample_channels", "run_sweep", "RTM_KINDS", "METRICS", "SWEEP_AXES"]

SWEEP_AXES = ("rho0", "rho1", "rho2")

#: Trials per stacked chunk of a sweep: enough (times the sweep points) to
#: spread numpy's per-call cost over hundreds of problems, few enough that a
#: sweep of thousands of trials holds one chunk's arrays at a time.
_CHUNK_TRIALS = 64


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep description: scenario template, swept axis, points,
    transform kinds, metrics, trial count and seed.

    Points must be strictly increasing and kinds and metrics must not
    repeat, so each (point, kind, metric) of the output appears once."""

    scenario: SnrScenario
    sweep_axis: str
    sweep_points_db: tuple
    rtm_kinds: tuple
    metrics: tuple
    trials: int
    seed: int
    symbol_rate: float = field(default=1.0)

    def __post_init__(self):
        for name in ("sweep_points_db", "rtm_kinds", "metrics"):
            try:
                object.__setattr__(self, name, tuple(getattr(self, name)))
            except TypeError:
                raise ValidationError(f"{name} must be a sequence, got {getattr(self, name)!r}") from None
        for p in self.sweep_points_db:
            _check_snr_db("sweep point", p)
        points = tuple(float(p) for p in self.sweep_points_db)
        object.__setattr__(self, "sweep_points_db", points)
        if self.sweep_axis not in SWEEP_AXES:
            raise ValidationError(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
        if not points:
            raise ValidationError(f"sweep_points_db must be nonempty, got {points}")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ValidationError(f"sweep points must be sorted strictly increasing, got {points}")
        for name, allowed in (("rtm_kinds", RTM_KINDS), ("metrics", METRICS)):
            values = getattr(self, name)
            if not values or any(v not in allowed for v in values) or len(set(values)) < len(values):
                raise ValidationError(f"{name} must be a nonempty subset of {allowed} without repeats, got {values}")
        if self.sweep_axis == "rho0" and not self.scenario.direct_link_enabled:
            raise ValidationError("sweep_axis 'rho0' needs the direct link enabled: without it rho0 scales nothing")
        _check_count("trials", self.trials, 1)
        _check_count("seed", self.seed, 0)
        if not (_is_number(self.symbol_rate) and 0.0 < self.symbol_rate <= 1.0):
            raise ValidationError(f"symbol_rate must lie in (0, 1], got {self.symbol_rate!r}")
        object.__setattr__(self, "symbol_rate", float(self.symbol_rate))


@dataclass(frozen=True)
class CurvePoint:
    """Ergodic mean of one metric for one transform kind at one sweep value."""

    sweep_value_db: float
    rtm_kind: str
    metric: str
    mean_bits: float
    stderr_bits: float
    trials: int


def sample_channels(dims: Dims, seed: int, trial_index: int | range) -> ChannelSet:
    """Draw iid Rayleigh realizations (unit-variance complex entries).

    An int ``trial_index`` gives one realization; a ``range`` of trials
    gives a stack with a leading trial axis, whose member i is exactly
    what trial ``trial_index[i]`` gives alone.  Each trial is a
    deterministic function of (seed, trial): its substream is spawned from
    the seed with the trial index as spawn key, so the same pair always
    yields the same matrices under any scheduling or chunking.  A trial
    takes all its normals in one draw, the real then the imaginary parts
    of h0, h1 and h2 in turn; the draws of a stack are then made complex
    in one pass.  ``seed`` and every trial must be integers >= 0.
    """
    shapes = _channel_shapes(dims)
    stacked = isinstance(trial_index, range)
    trials = trial_index if stacked else (trial_index,)
    _check_count("seed", seed, 0)
    for trial in trials:
        _check_count("trial_index", trial, 0)
    edges = list(accumulate((rows * cols for rows, cols in shapes), initial=0))
    spans = list(zip(edges, edges[1:]))
    z = np.empty((len(trials), 2 * edges[-1]))
    for row, trial in zip(z, trials):
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial),))
        np.random.default_rng(ss).standard_normal(out=row)
    # the matrix at [a, b) of a complex row drew its real parts at
    # [2a, a + b) and its imaginary parts at [a + b, 2b)
    re = np.concatenate([z[:, 2 * a:a + b] for a, b in spans], axis=1)
    im = np.concatenate([z[:, a + b:2 * b] for a, b in spans], axis=1)
    c = (re + 1j * im) / np.sqrt(2.0)
    batch = (len(trials),) if stacked else ()
    return ChannelSet(*(c[:, a:b].reshape(batch + shape) for (a, b), shape in zip(spans, shapes)))


_BUILDERS = {
    "opt1": optimize_capacity_rtm,
    "opt2": optimize_ostbc_rtm,
    "naf": naf_rtm,
}

#: Each metric's bits of a transform X on ``ch``.  The metric is looked up
#: on the ``evaluate`` module at every call, so that a function replaced
#: there (by a test's patch or the benchmark's tracer) is the one called.
_METRIC_BITS = {
    "capacity": lambda ch, pb, dims, x, rate: evaluate.capacity(ch, pb, dims, x).bits,
    "ostbc": lambda ch, pb, dims, x, rate: evaluate.ostbc_capacity(ch, pb, dims, x, rate).bits,
}

#: The transform kinds and metrics a sweep may name, in their tables' order.
RTM_KINDS = tuple(_BUILDERS)
METRICS = tuple(_METRIC_BITS)


def _scenario_at(spec: SweepSpec, point: float) -> SnrScenario:
    """The template scenario with the swept SNR at ``point`` dB."""
    return replace(spec.scenario, **{spec.sweep_axis + "_db": point})


def _values(spec: SweepSpec, ch: ChannelSet, pb: PowerBudget) -> np.ndarray:
    """(..., kinds, metrics) metric values of one network or of a stack.

    Each kind is solved by one call on ``ch``, whose memo shares what the
    kinds build from the network alone (NAF asks for none of the second
    hop's factorization), then evaluated by each metric's ``evaluate``
    call, all of which read the relay-path information matrix that ``ch``
    remembers for X.  Kinds are evaluated one by one, so that a kind the
    swept SNR does not enter keeps its relay-path matrix per trial: one
    stack of all kinds would rebuild it at every point, which at full
    chunks costs more than the calls it saves."""
    dims = spec.scenario.dims
    out = []
    for kind in spec.rtm_kinds:
        x = _BUILDERS[kind](ch, pb, dims).x_matrix
        out.append([_METRIC_BITS[metric](ch, pb, dims, x, spec.symbol_rate) for metric in spec.metrics])
    return np.moveaxis(np.array(out), (0, 1), (-2, -1))


def _chunk_values(spec: SweepSpec, trials: range) -> np.ndarray:
    """(trials, points, kinds, metrics) metric values of a chunk of trials,
    solved as one broadcast (trial x point) stack.

    The chunk's channels are sampled and translated to the template
    scenario once; the matrix the swept SNR scales is then scaled to every
    point by one multiply, and along rho2 the second hop's record keeps
    the per-trial draw with the gains of the points.  When the stack
    raises, its problems are replayed one at a time in trial, point and
    kind order, and the first failure is raised with its type and (seed,
    trial, axis, point) context.
    """
    raw = sample_channels(spec.scenario.dims, spec.seed, trials)
    swept = "h" + spec.sweep_axis[-1]
    try:
        ch, pb = translate_scenario(spec.scenario, _owned(raw.h0[:, None], raw.h1[:, None], raw.h2[:, None]))
        # only the matrix the swept SNR scales varies along the point axis;
        # along rho2 the second hop's draw stays per trial, and its power
        # gain takes the point axis
        gains = np.array([_amplitude(point) for point in spec.sweep_points_db])
        scaled = gains[:, None, None] * getattr(raw, swept)[:, None]
        draw, power = ch._h2_draw
        matrices = {"h0": ch.h0, "h1": ch.h1, "h2": ch.h2, swept: scaled}
        ch = _owned(**matrices, draw=draw, gain=(gains * gains)[:, None] if swept == "h2" else power)
        return _values(spec, ch, pb)
    except RelayRtmError:
        for i, trial in enumerate(trials):
            member = ChannelSet(raw.h0[i], raw.h1[i], raw.h2[i])
            for point in spec.sweep_points_db:
                try:
                    _values(spec, *translate_scenario(_scenario_at(spec, point), member))
                except RelayRtmError as exc:
                    raise type(exc)(
                        f"trial {trial} (seed {spec.seed}) at {spec.sweep_axis}={point} dB: {exc}"
                    ) from exc
        raise


def _pooled_chunk(spec: SweepSpec, trials: range) -> np.ndarray | None:
    """``_chunk_values`` in a worker process: its values, or None when the
    chunk issued any warning or raised a ``RelayRtmError``.  Any other
    exception propagates."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = _chunk_values(spec, trials)
        except RelayRtmError:
            return None
    return None if caught else values


def _pool_context():
    """The ``fork`` start method where the platform offers it: workers then
    inherit the loaded modules and their state instead of importing them
    again.  The pool forks every worker before it starts a thread of its
    own; fork copies only the calling thread, so a caller that runs other
    threads holding locks should sweep with one worker."""
    import multiprocessing

    return multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[CurvePoint]:
    """Run all trials of a sweep and average per (point, kind, metric).

    Chunks of trials are independent work items.  With ``workers > 1`` and
    more than one chunk they run on up to ``workers`` processes.  A chunk
    that warned or failed in its worker is run again inline, in trial
    order, so a sweep issues the same warnings, under the caller's
    filters, and raises the same error for any worker count; that chunk
    costs twice its time, and only degenerate input (an all-zero h1 or h2)
    or a failing sweep makes one.  Results are aggregated from a
    trial-ordered array, so the output is bit-identical for any worker
    count.  Starting the pool costs tens of milliseconds: on a 2-vCPU VM,
    ``workers=2`` took 38-52 ms against 20-30 ms inline on a 2-chunk sweep
    of ``pure_relay_m4``, so a sweep of a few chunks runs slower pooled.
    """
    _check_count("workers", workers, 1)
    chunks = [
        range(first, min(first + _CHUNK_TRIALS, spec.trials))
        for first in range(0, spec.trials, _CHUNK_TRIALS)
    ]
    if workers == 1 or len(chunks) == 1:
        parts = [_chunk_values(spec, chunk) for chunk in chunks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)), mp_context=_pool_context())
        try:
            pooled = pool.map(partial(_pooled_chunk, spec), chunks)
            parts = [_chunk_values(spec, chunk) if part is None else part for chunk, part in zip(chunks, pooled)]
        finally:
            pool.shutdown(cancel_futures=True)
    arr = np.concatenate(parts, axis=0)
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
