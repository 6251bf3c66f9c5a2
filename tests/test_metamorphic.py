"""Properties the optimized figures must keep whatever the draw: relations
that need no oracle.

- The paper's parametric solution gives each solver the figure its X
  should reach before X is built: the claimed bits, read off the spectra
  and the mode powers, equal the evaluator's bits of the assembled X.
- Rotating every port of the network by a unitary moves no figure.
- Scaling the second hop up is a larger relay budget, and an optimum
  does not fall as its budget grows.
- Only the per-link SNRs matter, not how they split between powers and
  channel scaling.
- An eigenvector is unique only up to a unit phase, and no figure depends
  on the phase the eigensolver picks.

The first properties draw every SNR from [-10, 30] dB, where the
evaluator's two capacity forms agree far inside their 1e-9-bit gate, so
each of their tolerances is stated from the rounding seen there, not from
a bound.  The wide-draw properties at the end take dims up to 8, channels
with orthogonal columns (repeated singular values) and rank-deficient
second hops, and SNRs in [-40, 50] dB; each states its own tolerance.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import canonical_budget, crandn, db_to_lin, scaled_channels
from relay_rtm import montecarlo
from relay_rtm.evaluate import capacity, ostbc_capacity
from relay_rtm.network import ChannelSet, Dims, PowerBudget, SnrScenario, translate_scenario
from relay_rtm.opt_capacity import assemble_rtm, optimize_capacity_rtm
from relay_rtm.opt_ostbc import optimize_ostbc_rtm

_SNR_DB = st.floats(-10.0, 30.0)
_SEEDS = st.integers(0, 2**32 - 1)
#: (t, r, s, u) of the 4x4 benchmark network, a relay wider than the
#: end nodes, and one with every count different
_SHAPES = st.sampled_from([(4, 4, 4, 4), (2, 2, 4, 4), (3, 5, 4, 2)])
_SOLVERS = (optimize_capacity_rtm, optimize_ostbc_rtm)


def _network(seed, dims, link, rho0_db, rho1_db, rho2_db):
    rng = np.random.default_rng(seed)
    return scaled_channels(rng, dims, rho0_db=rho0_db if link else None, rho1_db=rho1_db, rho2_db=rho2_db)


def _logdet_g0_bits(ch, pb, dims) -> float:
    """log2 det(I + p1/t G0): the direct link's own capacity, 0 without it."""
    g0 = ch.h0.conj().T @ ch.h0
    return np.linalg.slogdet(np.eye(dims.t) + pb.p1 / dims.t * g0)[1] / np.log(2.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=_SEEDS, t=st.integers(1, 5), r=st.integers(1, 5), s=st.integers(1, 5), u=st.integers(1, 5),
       link=st.booleans(), rho0_db=_SNR_DB, rho1_db=_SNR_DB, rho2_db=_SNR_DB)
def test_claimed_bits_are_the_evaluated_bits(seed, t, r, s, u, link, rho0_db, rho1_db, rho2_db):
    # opt1: log2 det(I + p1/t G0) + sum over modes with gain a > 0 of
    # log2(1 + a x / ((1 + x)(1 - a))), to 1e-10 bits (a 300-draw probe
    # read at most 1.8e-12); opt2: log2(1 + p1/t (tr G0 + sum a x / (1 + x))),
    # to 1e-13 relative (the probe: 1.1e-15)
    dims = Dims(t, r, s, u)
    ch = _network(seed, dims, link, rho0_db, rho1_db, rho2_db)
    pb = canonical_budget(dims)

    sol = optimize_capacity_rtm(ch, pb, dims)
    a, x = sol.spectra.alpha, sol.wf.x
    on = a > 0.0
    claimed = _logdet_g0_bits(ch, pb, dims) + np.log2(1.0 + a[on] * x[on] / ((1.0 + x[on]) * (1.0 - a[on]))).sum()
    assert abs(claimed - capacity(ch, pb, dims, sol.x_matrix).bits) <= 1e-10

    sol = optimize_ostbc_rtm(ch, pb, dims)
    a, x = sol.spectra.alpha, sol.wf.x
    g0_trace = np.trace(ch.h0.conj().T @ ch.h0).real
    claimed = np.log2(1.0 + pb.p1 / dims.t * (g0_trace + (a * x / (1.0 + x)).sum()))
    evaluated = ostbc_capacity(ch, pb, dims, sol.x_matrix).bits
    assert abs(claimed - evaluated) <= 1e-13 * evaluated


def _haar(rng, n):
    """A Haar-distributed n x n unitary: the Q of a complex Gaussian
    matrix, each column's phase fixed by R's diagonal."""
    q, r = np.linalg.qr(crandn(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _figures(ch, pb, dims):
    """opt1's and opt2's capacity and OSTBC bits."""
    out = []
    for solve in _SOLVERS:
        x = solve(ch, pb, dims).x_matrix
        out += [capacity(ch, pb, dims, x).bits, ostbc_capacity(ch, pb, dims, x).bits]
    return np.array(out)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(seed=_SEEDS, shape=_SHAPES, link=st.booleans(), rho0_db=_SNR_DB, rho1_db=_SNR_DB, rho2_db=_SNR_DB)
def test_rotating_every_port_moves_no_figure(seed, shape, link, rho0_db, rho1_db, rho2_db):
    # H0 -> U H0 V, H1 -> W H1 V, H2 -> U H2 Q with Haar U, V, W, Q: the
    # optimal X maps to Q^H X W^H up to per-mode phases, so the bits of
    # opt1 and opt2 hold to 1e-10 (a 240-problem probe moved them by at
    # most 5.2e-13).  NAF is left out: its identity pattern is tied to
    # the basis, and its bits move by whole bits.
    dims = Dims(*shape)
    ch = _network(seed, dims, link, rho0_db, rho1_db, rho2_db)
    pb = canonical_budget(dims)
    rng = np.random.default_rng([seed, 1])
    u, v, w, q = (_haar(rng, n) for n in (dims.r, dims.t, dims.s, dims.u))
    rotated = ChannelSet(u @ ch.h0 @ v, w @ ch.h1 @ v, u @ ch.h2 @ q)
    assert np.abs(_figures(rotated, pb, dims) - _figures(ch, pb, dims)).max() <= 1e-10


def _turn_columns(rng, u):
    """``u`` with every column of every stack member turned by its own
    random unit phase."""
    return u * np.exp(2j * np.pi * rng.random(u.shape[:-2] + (1, u.shape[-1])))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=_SEEDS, t=st.integers(1, 8), r=st.integers(1, 8), s=st.integers(1, 8), u=st.integers(1, 8),
       members=st.sampled_from([None, 2, 3]), link=st.booleans(), rho0_db=_SNR_DB, rho1_db=_SNR_DB, rho2_db=_SNR_DB)
def test_eigenvector_phases_move_no_figure(seed, t, r, s, u, members, link, rho0_db, rho1_db, rho2_db):
    # X = U_b diag(sqrt(x_i / lam_b_i)) U_a^H with every column of U_a and
    # of U_b turned by its own unit phase: capacity, OSTBC bits and relay
    # power hold to 1e-12 relative (a 1000-draw probe of these draws moved
    # them by at most 3.9e-14), for one network (members None) and a stack
    dims = Dims(t, r, s, u)
    nets = [_network([seed, i], dims, link, rho0_db, rho1_db, rho2_db) for i in range(members or 1)]
    ch = nets[0] if members is None else ChannelSet(
        *(np.stack([getattr(n, name) for n in nets]) for name in ("h0", "h1", "h2"))
    )
    pb = canonical_budget(dims)
    rng = np.random.default_rng([seed, 2])
    for solve in _SOLVERS:
        sol = solve(ch, pb, dims)
        u_a, u_b = (_turn_columns(rng, m) for m in (sol.spectra.u_a_thin, sol.spectra.u_b_thin))
        turned = assemble_rtm(replace(sol.spectra, u_a_thin=u_a, u_b_thin=u_b), sol.wf)
        for figure in (
            lambda sol: capacity(ch, pb, dims, sol.x_matrix).bits,
            lambda sol: ostbc_capacity(ch, pb, dims, sol.x_matrix).bits,
            lambda sol: sol.relay_power_used,
        ):
            want = figure(sol)
            assert np.all(np.abs(figure(turned) - want) <= 1e-12 * np.abs(want)), (solve.__name__, want)


#: rho2 from -20 to 40 dB in 5 dB steps
_RHO2_DB = np.arange(-20.0, 45.0, 5.0)


@settings(derandomize=True, max_examples=90, deadline=None)
@given(seed=_SEEDS, shape=_SHAPES, link=st.booleans(), rho0_db=_SNR_DB, rho1_db=_SNR_DB)
def test_optimum_does_not_fall_as_rho2_grows(seed, shape, link, rho0_db, rho1_db):
    # H2 scaled by a > 1 is the budget a^2 p2 with H2 as it is, so an
    # optimum is nondecreasing along rho2: opt2's OSTBC bits always, and
    # opt1's capacity without the direct link (with it opt1 solves a
    # reduced problem, not the X-space one).  A step may fall by at most
    # 1e-10 bits of rounding; a 180-curve probe's smallest step rose by
    # 8.7e-9.  The curve is one stack along rho2, whose members are solved
    # as they would be alone.
    dims = Dims(*shape)
    ch = _network(seed, dims, link, rho0_db, rho1_db, 0.0)
    pb = canonical_budget(dims)
    curve = ChannelSet(ch.h0, ch.h1, np.sqrt(db_to_lin(_RHO2_DB))[:, None, None] * ch.h2)
    x = optimize_ostbc_rtm(curve, pb, dims).x_matrix
    assert np.diff(ostbc_capacity(curve, pb, dims, x).bits).min() >= -1e-10
    if not link:
        x = optimize_capacity_rtm(curve, pb, dims).x_matrix
        assert np.diff(capacity(curve, pb, dims, x).bits).min() >= -1e-10


def test_capacity_invariant_under_power_renormalization():
    # only the per-link SNRs matter: any (powers, channel scaling) pair
    # realizing the same SNR triple yields the same optimized capacity
    rng = np.random.default_rng(606)
    dims = Dims(3, 2, 4, 3)
    raw = ChannelSet(
        h0=crandn(rng, (dims.r, dims.t)),
        h1=crandn(rng, (dims.s, dims.t)),
        h2=crandn(rng, (dims.r, dims.u)),
    )
    rho0, rho1, rho2 = db_to_lin(5.0), db_to_lin(10.0), db_to_lin(12.0)

    ch_a, pb_a = translate_scenario(SnrScenario(5.0, 10.0, 12.0, dims), raw)
    cap_a = capacity(ch_a, pb_a, dims, optimize_capacity_rtm(ch_a, pb_a, dims).x_matrix).bits

    for c1, c2 in ((3.0, 5.0), (0.25, 7.0)):
        p1, p2 = c1 * dims.t, c2 * dims.u
        ch_b = ChannelSet(
            h0=np.sqrt(rho0 * dims.t / p1) * raw.h0,
            h1=np.sqrt(rho1 * dims.t / p1) * raw.h1,
            h2=np.sqrt(rho2 * dims.u / p2) * raw.h2,
        )
        pb_b = PowerBudget(p1, p2)
        cap_b = capacity(
            ch_b, pb_b, dims, optimize_capacity_rtm(ch_b, pb_b, dims).x_matrix
        ).bits
        assert cap_b == pytest.approx(cap_a, abs=1e-9)


#: how each wide draw builds a channel: iid Gaussian, orthogonal columns
#: of equal norm (a truncated scaled Haar unitary: every singular value
#: the same), or, for the second hop, rank deficient
_STRUCTURES = st.sampled_from(["gaussian", "orthogonal"])
_H2_STRUCTURES = st.sampled_from(["gaussian", "orthogonal", "rank-deficient"])
_WIDE_SNR_DB = st.floats(-40.0, 50.0)
_COUNTS = st.integers(1, 8)


def _channel(rng, rows, cols, structure):
    if structure == "orthogonal":
        n = max(rows, cols)
        return np.sqrt(n) * _haar(rng, n)[:rows, :cols]
    if structure == "rank-deficient":
        k = max(1, min(rows, cols) - 1)
        return crandn(rng, (rows, k)) @ crandn(rng, (k, cols)) / np.sqrt(k)
    return crandn(rng, (rows, cols))


def _raw(seed, dims, structures):
    """Unit-variance draws of h0, h1 and h2 with the given structures."""
    rng = np.random.default_rng(seed)
    shapes = ((dims.r, dims.t), (dims.s, dims.t), (dims.r, dims.u))
    return ChannelSet(*(_channel(rng, *shape, kind) for shape, kind in zip(shapes, structures)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=_SEEDS, t=_COUNTS, r=_COUNTS, s=_COUNTS, u=_COUNTS, h0=_STRUCTURES, h1=_STRUCTURES, h2=_H2_STRUCTURES,
       link=st.booleans(), rho0_db=_WIDE_SNR_DB, rho1_db=_WIDE_SNR_DB, rho2_db=_WIDE_SNR_DB)
def test_rotating_every_port_moves_no_figure_on_wide_draws(seed, t, r, s, u, h0, h1, h2, link, rho0_db, rho1_db, rho2_db):
    # the rotation of the test above, applied to the raw draws, which are
    # then translated alike.  Tolerance: 1e-9 bits, the evaluator's own
    # gate on its two forms; a 7000-draw probe of these draws moved a
    # figure by at most 5.8e-10 bits, each of the worst at rho1 above
    # 45 dB with a much weaker second hop.  With the
    # direct link and an H1 of orthogonal columns, H1 H1^H has one
    # repeated eigenvalue and opt2's OSTBC optimum is not unique: any
    # basis of that eigenspace reaches it, and the capacity of the X it
    # picks depends on the basis (the probe: up to 4.0 bits).  opt2's
    # capacity is compared only where its optimum is unique.
    dims = Dims(t, r, s, u)
    raw = _raw(seed, dims, (h0, h1, h2))
    scenario = SnrScenario(rho0_db, rho1_db, rho2_db, dims, direct_link_enabled=link)
    ch, pb = translate_scenario(scenario, raw)
    rng = np.random.default_rng([seed, 1])
    uu, v, w, q = (_haar(rng, n) for n in (dims.r, dims.t, dims.s, dims.u))
    rotated, _ = translate_scenario(scenario, ChannelSet(uu @ raw.h0 @ v, w @ raw.h1 @ v, uu @ raw.h2 @ q))
    moved = np.abs(_figures(rotated, pb, dims) - _figures(ch, pb, dims))
    unique = [0, 1, 3] if link and h1 == "orthogonal" else [0, 1, 2, 3]
    assert moved[unique].max() <= 1e-9, moved


#: rho2 from -40 to 50 dB in 5 dB steps
_WIDE_RHO2_DB = tuple(np.arange(-40.0, 55.0, 5.0).tolist())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seeds=st.lists(_SEEDS, min_size=1, max_size=3), t=_COUNTS, r=_COUNTS, s=_COUNTS, u=_COUNTS, h0=_STRUCTURES,
       h1=_STRUCTURES, h2=_H2_STRUCTURES, link=st.booleans(), rho0_db=_WIDE_SNR_DB, rho1_db=_WIDE_SNR_DB)
def test_a_rho2_chunk_is_its_lone_points_and_does_not_fall(seeds, t, r, s, u, h0, h1, h2, link, rho0_db, rho1_db):
    # one _chunk_values call sweeps the trials' draws over rho2 from -40
    # to 50 dB.  Every point equals its lone solve of the network that
    # translate_scenario makes from the trial's draw, every kind and
    # metric, bit for bit.  Along the curve opt2's OSTBC bits, and opt1's
    # capacity without the direct link, fall by at most 1e-10 bits (in a
    # 1200-curve probe every point matched and the smallest step rose by
    # 3.6e-15)
    dims = Dims(t, r, s, u)
    draws = [_raw(seed, dims, (h0, h1, h2)) for seed in seeds]
    stack = ChannelSet(*(np.stack([getattr(d, name) for d in draws]) for name in ("h0", "h1", "h2")))
    spec = montecarlo.SweepSpec(
        scenario=SnrScenario(rho0_db, rho1_db, 0.0, dims, direct_link_enabled=link),
        sweep_axis="rho2",
        sweep_points_db=_WIDE_RHO2_DB,
        rtm_kinds=montecarlo.RTM_KINDS,
        metrics=montecarlo.METRICS,
        trials=len(seeds),
        seed=0,
    )
    with mock.patch.object(montecarlo, "sample_channels", lambda *args: stack):
        chunk = montecarlo._chunk_values(spec, range(spec.trials))
    for trial, draw in enumerate(draws):
        for ip, point in enumerate(spec.sweep_points_db):
            lone = montecarlo._values(spec, *translate_scenario(replace(spec.scenario, rho2_db=point), draw))
            assert np.array_equal(chunk[trial, ip], lone), (trial, point)
    opt1, opt2 = (montecarlo.RTM_KINDS.index(kind) for kind in ("opt1", "opt2"))
    cap, ost = (montecarlo.METRICS.index(metric) for metric in ("capacity", "ostbc"))
    assert np.diff(chunk[:, :, opt2, ost], axis=1).min() >= -1e-10
    if not link:
        assert np.diff(chunk[:, :, opt1, cap], axis=1).min() >= -1e-10
