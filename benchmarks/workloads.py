"""Workload definitions and input generators of the relay-rtm benchmark.

Every input a run feeds the program is a function of the benchmark seed:
sweep repetitions get their sweep seed from it, and single realizations
draw their shape, SNRs and channel matrices from a per-index substream of
it.  The program only ever receives a sweep spec, or ``Dims``, an
``SnrScenario`` and a sampled ``ChannelSet``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from relay_rtm import cli, evaluate, montecarlo, network, opt_capacity, opt_ostbc
from relay_rtm.errors import RelayRtmError
from relay_rtm.network import ChannelSet, Dims, SnrScenario

#: Trials of every timed sweep and of the reference sweep.
SWEEP_TRIALS = 8

# Copies of configs/pure_relay_m4.json and configs/direct_link_gain_m4.json
# at the commit that added the benchmark, with the trial count reduced.
# They live here so that editing a shipped config does not change what the
# benchmark measures.
PURE_RELAY_M4 = {
    "dims": {"t": 4, "r": 4, "s": 4, "u": 4},
    "rho1_db": 10.0,
    "sweep": {"axis": "rho2", "points_db": [0, 5, 10, 15, 20, 25, 30]},
    "rtms": ["opt1", "opt2", "naf"],
    "metrics": ["capacity", "ostbc"],
    "trials": SWEEP_TRIALS,
    "seed": 7,
}
DIRECT_LINK_GAIN_M4 = {
    "dims": {"t": 4, "r": 4, "s": 4, "u": 4},
    "rho1_db": 10.0,
    "rho2_db": 10.0,
    "sweep": {"axis": "rho0", "points_db": [-10, -5, 0, 5, 10, 15, 20]},
    "rtms": ["opt1", "opt2", "naf"],
    "metrics": ["capacity"],
    "trials": SWEEP_TRIALS,
    "seed": 7,
}

# realization_mix: (t, r, s, u) shapes, taking turns.  2x2x4x4
# is a rank-limited relay, so ``alpha_tail`` is nonempty.
MIX_SHAPES = ((4, 4, 4, 4), (2, 2, 4, 4), (4, 4, 2, 2), (8, 8, 8, 8))
#: Each per-link SNR is uniform on this band (dB), the paper's range.  Above
#: about 50 dB the program's two capacity forms disagree by more than its
#: 1e-9-bit gate and it raises NumericalError.  No operation of a workload
#: may fail, so that band is measured by the high-SNR probe of a traced run.
MIX_SNR_DB = (-10.0, 30.0)
#: Per-link SNR band (dB) of the high-SNR probe.
HIGH_SNR_DB = (50.0, 60.0)
MIX_DIRECT_LINK_SHARE = 0.5

# Functions every workload reaches through its solves.
_SOLVE_PATH = frozenset({
    "network.translate_scenario", "network.validate",
    "matalg.herm_eig", "matalg.thin_ud",
    "opt_capacity.optimize_capacity_rtm", "opt_capacity.build_capacity_spectra",
    "opt_capacity.waterfill_capacity", "opt_capacity.assemble_rtm",
    "opt_ostbc.optimize_ostbc_rtm", "opt_ostbc.build_ostbc_spectra", "opt_ostbc.waterfill_ostbc",
    "evaluate.naf_rtm", "evaluate.capacity",
})
_SWEEP_PATH = frozenset({"montecarlo.run_sweep", "montecarlo.sample_channels"})


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config`` is a sweep config document in the CLI format, or None for
    the realization mix.  ``expected`` names the traced functions the
    workload's timed part must reach; the traced run reports any of them
    that records no call as missing.
    """

    name: str
    why: str
    config: Optional[dict]
    expected: frozenset

    def definition_sha256(self) -> str:
        doc = {"name": self.name, "config": self.config}
        if self.config is None:
            doc.update(shapes=MIX_SHAPES, snr_db=MIX_SNR_DB, direct_link_share=MIX_DIRECT_LINK_SHARE)
        text = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_rho2_pure",
            "pure_relay_m4 sweep: the headline curve, both metrics; A, C and U_a stay fixed along rho2, "
            "so factorization reuse, trial batching and evaluate-once show here",
            PURE_RELAY_M4,
            _SOLVE_PATH | _SWEEP_PATH | {"evaluate.ostbc_capacity"},
        ),
        Workload(
            "sweep_rho0_link",
            "direct_link_gain_m4 sweep: direct-link path, capacity metric only; the rho0 axis changes "
            "the opt1 gain matrix at every point, so rho2-style reuse and evaluate-once do not apply",
            DIRECT_LINK_GAIN_M4,
            _SOLVE_PATH | _SWEEP_PATH,
        ),
        Workload(
            "realization_mix",
            "single realizations in a closed loop, mixed shapes and SNRs up to 30 dB: library use with "
            "no axis to reuse or trials to batch, so per-call overhead shows",
            None,
            _SOLVE_PATH | {"evaluate.ostbc_capacity"},
        ),
    )
}


def parse_spec(workload: Workload) -> Optional[montecarlo.SweepSpec]:
    """The workload's sweep spec, parsed by the program's config parser."""
    if workload.config is None:
        return None
    return cli.parse_config(json.dumps(workload.config)).spec


def sweep_seed(seed: int, rep: int) -> int:
    """Sweep seed of timed repetition ``rep``."""
    return int(np.random.SeedSequence(seed, spawn_key=(1, rep)).generate_state(1)[0])


@dataclass(frozen=True)
class Realization:
    """One single-realization input: scenario, unit-variance channels, and
    the transform kinds and metrics to run on it."""

    index: int
    scenario: SnrScenario
    raw: ChannelSet
    kinds: tuple
    metrics: tuple
    symbol_rate: float


def _draw(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    z = rng.standard_normal((2, rows, cols))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def realization(spec: Optional[montecarlo.SweepSpec], seed: int, index: int, snr_db=MIX_SNR_DB) -> Realization:
    """Realization ``index`` of a workload.

    For a sweep workload it is one trial at one sweep point, with the
    sweep's kinds and metrics.  For the mix (``spec`` None) it has one of
    the mix shapes, SNRs drawn on the band ``snr_db`` and a drawn direct
    link, and every kind and metric runs.  Sweep points and mix shapes
    take turns by index rather than being drawn: solve time depends on
    them, and a drawn share would move the latency percentiles from run to
    run.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, index)))
    if spec is not None:
        dims = spec.scenario.dims
        point = spec.sweep_points_db[index % len(spec.sweep_points_db)]
        scenario = replace(spec.scenario, **{spec.sweep_axis + "_db": point})
        kinds, metrics, symbol_rate = spec.rtm_kinds, spec.metrics, spec.symbol_rate
    else:
        dims = Dims(*MIX_SHAPES[index % len(MIX_SHAPES)])
        rho0, rho1, rho2 = (float(v) for v in rng.uniform(*snr_db, size=3))
        link = bool(rng.random() < MIX_DIRECT_LINK_SHARE)
        scenario = SnrScenario(rho0, rho1, rho2, dims, direct_link_enabled=link)
        kinds, metrics, symbol_rate = montecarlo.RTM_KINDS, montecarlo.METRICS, 1.0
    raw = ChannelSet(h0=_draw(rng, dims.r, dims.t), h1=_draw(rng, dims.s, dims.t), h2=_draw(rng, dims.r, dims.u))
    return Realization(index, scenario, raw, tuple(kinds), tuple(metrics), symbol_rate)


# Solvers are looked up on their modules at call time, so that a traced run
# sees the calls.
_SOLVERS = {
    "opt1": (opt_capacity, "optimize_capacity_rtm"),
    "opt2": (opt_ostbc, "optimize_ostbc_rtm"),
    "naf": (evaluate, "naf_rtm"),
}


def solve(r: Realization):
    """Run one realization through the library.

    Returns ``(p2, results)`` with one ``(kind, relay_power_used, bits,
    error)`` per kind; ``bits`` holds one figure per metric, and ``error``
    is the RelayRtmError the solve or an evaluation raised, else None.
    """
    dims = r.scenario.dims
    ch, pb = network.translate_scenario(r.scenario, r.raw)
    results = []
    for kind in r.kinds:
        module, attr = _SOLVERS[kind]
        try:
            sol = getattr(module, attr)(ch, pb, dims)
            bits = tuple(
                evaluate.capacity(ch, pb, dims, sol.x_matrix).bits
                if metric == "capacity"
                else evaluate.ostbc_capacity(ch, pb, dims, sol.x_matrix, r.symbol_rate).bits
                for metric in r.metrics
            )
        except RelayRtmError as exc:
            results.append((kind, None, None, exc))
            continue
        results.append((kind, sol.relay_power_used, bits, None))
    return pb.p2, results


def coverage_spec(r: Realization, seed: int) -> montecarlo.SweepSpec:
    """A one-trial, one-point sweep at a realization's shape and SNRs with
    every kind and metric, parsed from a CLI config document.  The traced
    run times the functions its workload does not reach on these."""
    scn, dims = r.scenario, r.scenario.dims
    doc = {
        "dims": {"t": dims.t, "r": dims.r, "s": dims.s, "u": dims.u},
        "rho1_db": scn.rho1_db,
        "sweep": {"axis": "rho2", "points_db": [scn.rho2_db]},
        "rtms": list(montecarlo.RTM_KINDS),
        "metrics": list(montecarlo.METRICS),
        "trials": 1,
        "seed": seed,
    }
    if scn.direct_link_enabled:
        doc["rho0_db"] = scn.rho0_db
    return cli.parse_config(json.dumps(doc)).spec
