"""Stacked solves and evaluations.

Every layer takes a stack of problems and must treat each member exactly
as it treats that problem alone, so a sweep's figures do not depend on how
its trials are chunked or spread over workers.
"""

import contextlib
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import canonical_budget, crandn, edited_sampler
from relay_rtm import evaluate, matalg, montecarlo, network, opt_capacity, opt_ostbc
from relay_rtm.errors import DeadRelayError, DeadRelayWarning, NumericalError
from relay_rtm.evaluate import capacity, capacity_forms, naf_rtm, ostbc_capacity
from relay_rtm.montecarlo import (
    _CHUNK_TRIALS,
    SweepSpec,
    _chunk_values,
    _values,
    run_sweep,
    sample_channels,
)
from relay_rtm.network import ChannelSet, Dims, SnrScenario, translate_scenario
from relay_rtm.opt_capacity import build_capacity_spectra, optimize_capacity_rtm
from relay_rtm.opt_ostbc import optimize_ostbc_rtm

STACK = (2, 3)


def _members(rng, dims, low_rank_h2):
    """Six networks at 10 dB; member 1 has no direct link, and members 2
    and 4, when ``low_rank_h2`` is given, an H2 of that rank."""
    members = []
    for i in range(int(np.prod(STACK))):
        h0 = 0.0 if i == 1 else np.sqrt(10.0) * crandn(rng, (dims.r, dims.t))
        h2 = np.sqrt(10.0) * crandn(rng, (dims.r, dims.u))
        if i in (2, 4) and low_rank_h2 is not None:
            h2 = crandn(rng, (dims.r, low_rank_h2)) @ crandn(rng, (low_rank_h2, dims.u))
        members.append(
            ChannelSet(
                h0=h0 * np.ones((dims.r, dims.t)),
                h1=np.sqrt(10.0) * crandn(rng, (dims.s, dims.t)),
                h2=h2,
            )
        )
    return members


@pytest.mark.parametrize("solver", [optimize_capacity_rtm, optimize_ostbc_rtm, naf_rtm])
@pytest.mark.parametrize(
    "dims, low_rank_h2",
    [
        (Dims(4, 4, 4, 4), 2),  # padded modes
        (Dims(2, 2, 4, 4), None),  # fewer servable modes than s
        (Dims(8, 8, 8, 8), 7),  # padded, with 8-mode sums
        (Dims(3, 2, 4, 3), 1),
    ],
)
def test_stack_members_match_single_solves(solver, dims, low_rank_h2):
    rng = np.random.default_rng(dims.t * 100 + dims.s)
    members = _members(rng, dims, low_rank_h2)
    stack = ChannelSet(
        *(np.stack([getattr(m, name) for m in members]).reshape(STACK + getattr(members[0], name).shape)
          for name in ("h0", "h1", "h2"))
    )
    pb = canonical_budget(dims)
    spectra = build_capacity_spectra(stack, pb, dims)
    if low_rank_h2 is not None:
        assert spectra.rho_b.min() < spectra.rho_b.max()
    else:
        assert spectra.alpha.shape == STACK + (dims.r,)

    sol = solver(stack, pb, dims)
    cap = capacity(stack, pb, dims, sol.x_matrix).bits
    ost = ostbc_capacity(stack, pb, dims, sol.x_matrix, 0.5).bits
    direct, ident = capacity_forms(stack, pb, dims, sol.x_matrix)
    for index, member in zip(np.ndindex(*STACK), members):
        alone = solver(member, pb, dims)
        assert np.array_equal(sol.x_matrix[index], alone.x_matrix)
        assert sol.relay_power_used[index] == alone.relay_power_used
        # mode powers and water level too; padded modes stay dry (NAF
        # makes no water-filling solve)
        assert (sol.wf is None) == (alone.wf is None) == (solver is naf_rtm)
        if alone.wf is not None:
            modes = alone.wf.x.size
            assert np.array_equal(sol.wf.x[index][:modes], alone.wf.x)
            assert not np.any(sol.wf.x[index][modes:])
            if alone.wf.xi is not None:
                assert sol.wf.xi[index] == alone.wf.xi
        assert cap[index] == capacity(member, pb, dims, alone.x_matrix).bits
        assert ost[index] == ostbc_capacity(member, pb, dims, alone.x_matrix, 0.5).bits
        assert (direct[index], ident[index]) == capacity_forms(member, pb, dims, alone.x_matrix)


#: the channel matrices each kind's transform is built from
_DEPENDS = {optimize_capacity_rtm: "h0h1h2", optimize_ostbc_rtm: "h1h2", naf_rtm: "h1"}


@pytest.mark.parametrize("solver", [optimize_capacity_rtm, optimize_ostbc_rtm, naf_rtm])
@pytest.mark.parametrize("swept", ["h0", "h1", "h2"])
@pytest.mark.parametrize(
    "dims, low_rank_h2", [(Dims(4, 4, 4, 4), 2), (Dims(8, 8, 8, 8), 7), (Dims(3, 2, 4, 3), 1)]
)
def test_broadcast_stack_members_match_single_solves(solver, swept, dims, low_rank_h2):
    # a sweep chunk's stack: the swept matrix varies along (trial, point),
    # the other two only along the trial axis, with a singleton point axis
    rng = np.random.default_rng(dims.t * 10 + dims.u)
    members = _members(rng, dims, low_rank_h2)
    trials, points = STACK
    # trial 0 takes its unswept matrices from the member without a direct
    # link and trial 1 from a member with a low-rank H2
    base = (members[1], members[2])
    stack = ChannelSet(*(
        np.stack([getattr(m, name) for m in members]).reshape(STACK + getattr(members[0], name).shape)
        if name == swept
        else np.stack([getattr(b, name) for b in base])[:, None]
        for name in ("h0", "h1", "h2")
    ))
    pb = canonical_budget(dims)
    sol = solver(stack, pb, dims)
    # a transform is formed once per trial unless the swept matrix enters it
    assert sol.x_matrix.shape[:-2] == (STACK if swept in _DEPENDS[solver] else (trials, 1))
    cap = capacity(stack, pb, dims, sol.x_matrix).bits
    ost = ostbc_capacity(stack, pb, dims, sol.x_matrix, 0.5).bits
    assert cap.shape == ost.shape == STACK
    for trial, point in np.ndindex(*STACK):
        member = ChannelSet(*(
            getattr(members[trial * points + point] if name == swept else base[trial], name)
            for name in ("h0", "h1", "h2")
        ))
        alone = solver(member, pb, dims)
        got = (trial, min(point, sol.x_matrix.shape[1] - 1))
        assert np.array_equal(sol.x_matrix[got], alone.x_matrix)
        assert sol.relay_power_used[got] == alone.relay_power_used
        assert (sol.wf is None) == (alone.wf is None) == (solver is naf_rtm)
        if alone.wf is not None:
            modes = alone.wf.x.size
            assert np.array_equal(sol.wf.x[got][:modes], alone.wf.x)
            assert not np.any(sol.wf.x[got][modes:])
            if alone.wf.xi is not None:
                assert sol.wf.xi[got] == alone.wf.xi
        assert cap[trial, point] == capacity(member, pb, dims, alone.x_matrix).bits
        assert ost[trial, point] == ostbc_capacity(member, pb, dims, alone.x_matrix, 0.5).bits


def _chunk_spec(axis):
    # rho1 is swept by no shipped config or reference sweep
    return SweepSpec(
        scenario=SnrScenario(5.0, 10.0, 15.0, Dims(3, 2, 4, 3)),
        sweep_axis=axis,
        sweep_points_db=(-5.0, 10.0, 30.0),
        rtm_kinds=("opt1", "opt2", "naf"),
        metrics=("capacity", "ostbc"),
        trials=4,
        seed=31,
        symbol_rate=0.5,
    )


@pytest.mark.parametrize("axis", ["rho0", "rho1", "rho2"])
def test_chunk_matches_per_problem_replay(axis):
    spec = _chunk_spec(axis)
    dims = spec.scenario.dims
    chunk = _chunk_values(spec, range(spec.trials))
    assert chunk.shape == (4, 3, 3, 2)
    for trial in range(spec.trials):
        raw = sample_channels(dims, spec.seed, trial)
        for ip, point in enumerate(spec.sweep_points_db):
            alone = _values(spec, *translate_scenario(replace(spec.scenario, **{axis + "_db": point}), raw))
            assert np.array_equal(chunk[trial, ip], alone)


@pytest.mark.parametrize("axis", ["rho0", "rho1", "rho2"])
def test_chunk_matches_public_solves(monkeypatch, axis):
    # every member of a chunk, trial 2 with a rank-1 H2 among them, equals
    # each kind's lone public solve and evaluation
    def rank_one_h2(trial, raw):
        if trial == 2:
            rng = np.random.default_rng(trial)
            r, u = raw.h2.shape
            return replace(raw, h2=crandn(rng, (r, 1)) @ crandn(rng, (1, u)))
        return raw

    channels = edited_sampler(rank_one_h2)
    monkeypatch.setattr(montecarlo, "sample_channels", channels)
    spec = _chunk_spec(axis)
    dims = spec.scenario.dims
    chunk = _chunk_values(spec, range(spec.trials))
    assert chunk.shape == (4, 3, 3, 2)
    solvers = (optimize_capacity_rtm, optimize_ostbc_rtm, naf_rtm)
    for trial in range(spec.trials):
        raw = channels(dims, spec.seed, trial)
        for ip, point in enumerate(spec.sweep_points_db):
            ch, pb = translate_scenario(replace(spec.scenario, **{axis + "_db": point}), raw)
            for ik, solve in enumerate(solvers):
                x = solve(ch, pb, dims).x_matrix
                assert chunk[trial, ip, ik, 0] == capacity(ch, pb, dims, x).bits
                assert chunk[trial, ip, ik, 1] == ostbc_capacity(ch, pb, dims, x, spec.symbol_rate).bits


def _count_calls(monkeypatch, fn):
    """Replace ``fn`` wherever a package module holds it by a wrapper that
    counts its calls; returns the list of calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in (montecarlo, network, matalg, opt_capacity, opt_ostbc, evaluate):
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_chunk_factorizes_the_second_hop_once(monkeypatch):
    # opt1 and opt2 share the validated network, B's factorization and C;
    # along rho2 the second hop is factorized once per trial, from the
    # unit-variance draw, and no eigensolve sees the point axis
    thin_ud_calls = _count_calls(monkeypatch, matalg.thin_ud)
    eig_calls = _count_calls(monkeypatch, matalg.herm_eig)
    validate_calls = _count_calls(monkeypatch, network.validate)
    spec = _chunk_spec("rho2")
    u = spec.scenario.dims.u
    _chunk_values(spec, range(4))
    assert len(thin_ud_calls) == 1
    assert thin_ud_calls[0][0].shape == (4, 1, u, u)
    assert all(args[0].shape[:2] == (4, 1) for args in eig_calls)
    assert (4, 1, u, u) in [args[0].shape for args in eig_calls]
    assert len(validate_calls) == 1


def test_rho2_chunk_members_match_lone_solves_as_the_rank_changes(monkeypatch):
    # a rho2 chunk scales each trial's B0 eigenvalues to every point, and
    # the rank cut 1e-10 * max(lam_max, 1) falls after the scaling.  Trial 0
    # has a rank-1 H2.  Trial 1's B0 has eigenvalues 2, 1 and 2.5e-10: where
    # a^2 < 0.5 the cut is its floor 1e-10, so the last is cut at -4 dB
    # (9.95e-11) and below, and kept from -3 dB (1.25e-10).  Every member equals its lone solve of the network
    # translate_scenario makes from the trial's draw: X, mode powers and
    # both metrics
    dims = Dims(3, 3, 3, 3)
    rng = np.random.default_rng(41)
    basis = np.linalg.qr(crandn(rng, (3, 3)))[0]
    h2 = {0: crandn(rng, (3, 1)) @ crandn(rng, (1, 3)), 1: np.sqrt([2.0, 1.0, 2.5e-10])[:, None] * basis.conj().T}
    channels = edited_sampler(lambda trial, raw: replace(raw, h2=h2[trial]) if trial in h2 else raw)
    monkeypatch.setattr(montecarlo, "sample_channels", channels)
    stacks = []
    monkeypatch.setattr(montecarlo, "_values", lambda spec, ch, pb: stacks.append(ch) or _values(spec, ch, pb))
    spec = SweepSpec(
        scenario=SnrScenario(5.0, 10.0, 0.0, dims),
        sweep_axis="rho2",
        sweep_points_db=(-40.0, -20.0, -6.0, -4.0, -3.0, 0.0, 10.0, 30.0, 50.0),
        rtm_kinds=("opt1", "opt2", "naf"),
        metrics=("capacity", "ostbc"),
        trials=3,
        seed=41,
    )
    chunk = _chunk_values(spec, range(spec.trials))
    (stack,) = stacks
    pb = canonical_budget(dims)
    solvers = (optimize_capacity_rtm, optimize_ostbc_rtm, naf_rtm)
    solved = [solve(stack, pb, dims) for solve in solvers]
    assert solved[0].spectra.rho_b[0].tolist() == [1] * 9
    assert solved[0].spectra.rho_b[1].tolist() == [2] * 4 + [3] * 5
    for trial in range(spec.trials):
        raw = channels(dims, spec.seed, trial)
        for ip, point in enumerate(spec.sweep_points_db):
            ch, pb = translate_scenario(replace(spec.scenario, rho2_db=point), raw)
            for ik, (solve, sol) in enumerate(zip(solvers, solved)):
                alone = solve(ch, pb, dims)
                got = (trial, min(ip, sol.x_matrix.shape[1] - 1))
                assert np.array_equal(sol.x_matrix[got], alone.x_matrix)
                if alone.wf is not None:
                    modes = alone.wf.x.size
                    assert np.array_equal(sol.wf.x[got][:modes], alone.wf.x)
                    assert not np.any(sol.wf.x[got][modes:])
                assert chunk[trial, ip, ik, 0] == capacity(ch, pb, dims, alone.x_matrix).bits
                assert chunk[trial, ip, ik, 1] == ostbc_capacity(ch, pb, dims, alone.x_matrix).bits


def test_chunk_samples_and_translates_once(monkeypatch):
    # a chunk's channels are drawn by one call and translated by one call,
    # whatever its numbers of trials and points
    sample_calls = _count_calls(monkeypatch, montecarlo.sample_channels)
    translate_calls = _count_calls(monkeypatch, network.translate_scenario)
    _chunk_values(_chunk_spec("rho2"), range(4))
    assert len(sample_calls) == 1
    assert sample_calls[0][2] == range(4)
    assert len(translate_calls) == 1


@pytest.mark.parametrize("dead", ["h1", "h2"])
def test_dead_matrix_warns_once(dead):
    # one warning per identically zero matrix of a stack, whatever the
    # number of kinds; a dead H2 then stops the eigen-based kinds
    dims = Dims(4, 4, 4, 4)
    members = _members(np.random.default_rng(3), dims, None)
    members[4] = replace(members[4], **{dead: np.zeros_like(getattr(members[4], dead))})
    stack = ChannelSet(*(np.stack([getattr(m, name) for m in members]) for name in ("h0", "h1", "h2")))
    spec = replace(_chunk_spec("rho2"), scenario=SnrScenario(5.0, 10.0, 15.0, dims))
    stops = pytest.raises(DeadRelayError) if dead == "h2" else contextlib.nullcontext()
    with warnings.catch_warnings(record=True) as caught, stops:
        warnings.simplefilter("always")
        _values(spec, stack, canonical_budget(dims))
    assert [str(w.message) for w in caught if w.category is DeadRelayWarning] == [
        f"relay path dead: {dead} is identically zero"
    ]


def test_stacked_capacity_reports_its_largest_form_gap(monkeypatch):
    # a stack hands capacity_forms the pair of the member whose forms
    # differ most, once, so its largest gap is seen there as floats
    dims = Dims(4, 4, 4, 4)
    members = _members(np.random.default_rng(7), dims, 2)
    stack = ChannelSet(*(np.stack([getattr(m, name) for m in members]) for name in ("h0", "h1", "h2")))
    pb = canonical_budget(dims)
    x = optimize_capacity_rtm(stack, pb, dims).x_matrix
    direct, ident = capacity_forms(stack, pb, dims, x)
    pairs = []

    def recording(*args, **kwargs):
        pairs.append(capacity_forms(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(evaluate, "capacity_forms", recording)
    bits = capacity(stack, pb, dims, x).bits
    assert np.array_equal(bits, direct)
    worst = int(np.argmax(np.abs(direct - ident)))
    assert pairs == [(direct[worst], ident[worst])]
    assert all(isinstance(v, float) for v in pairs[0])
    # one transform on a stack of networks, a stack of transforms on one, and
    # one transform on a network whose H2 alone is stacked
    h0, h1 = members[0].h0, members[0].h1
    partly = capacity(ChannelSet(h0, h1, stack.h2), pb, dims, x[0]).bits
    for i, member in enumerate(members):
        alone = capacity(member, pb, dims, x[0]).bits
        assert capacity(stack, pb, dims, x[0]).bits[i] == alone
        assert capacity(members[0], pb, dims, x).bits[i] == capacity(members[0], pb, dims, x[i]).bits
        assert partly[i] == capacity(ChannelSet(h0, h1, member.h2), pb, dims, x[0]).bits


def test_stacked_capacity_checks_its_worst_member_alone(monkeypatch):
    # on a broadcast stack like a sweep chunk's, the member whose forms
    # differ most, found through the singleton axes, decides the 1e-9-bit
    # cross-check for the whole call: widened beyond it, the call fails
    # with that member's pair; widened by less, it passes with the bits
    # unchanged; either way a watcher of capacity_forms sees that pair
    dims = Dims(4, 4, 4, 4)
    pb = canonical_budget(dims)
    rng = np.random.default_rng(0)
    gains = np.sqrt(10.0 ** (np.array([0.0, 15.0, 30.0, 45.0]) / 10.0))
    h2 = gains[:, None, None] * crandn(rng, (3, 1, dims.r, dims.u))
    ch = ChannelSet(crandn(rng, (3, 1, dims.r, dims.t)), crandn(rng, (3, 1, dims.s, dims.t)), h2)
    x = optimize_capacity_rtm(ch, pb, dims).x_matrix
    assert x.shape == (3, 4, dims.u, dims.s)
    bits = capacity(ch, pb, dims, x).bits
    worst, forms = (2, 1), evaluate._forms
    direct, ident = forms(ch, pb, dims, x)
    for widen in (1.0, 1e-10):
        widened_ident = ident.copy()
        widened_ident[worst] += widen
        pair = (float(direct[worst]), float(widened_ident[worst]))
        assert np.max(np.abs(direct - widened_ident)) == abs(pair[0] - pair[1])
        evaluated, pairs = [], []

        def widened(*args):
            evaluated.append(args)
            return forms(*args)[0], widened_ident

        def recording(*args, **kwargs):
            pairs.append(capacity_forms(*args, **kwargs))
            return pairs[-1]

        monkeypatch.setattr(evaluate, "_forms", widened)
        monkeypatch.setattr(evaluate, "capacity_forms", recording)
        if widen > 1e-9:
            message = f"capacity forms disagree: {pair[0]!r} vs {pair[1]!r} bits"
            with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
                capacity(ch, pb, dims, x)
        else:
            assert np.array_equal(capacity(ch, pb, dims, x).bits, bits)
        assert len(evaluated) == 1
        assert pairs == [pair]
        assert all(type(v) is float for v in pairs[0])


@pytest.mark.parametrize("x_batch, h0_batch", [((0,), ()), ((), (0,)), ((0, 3), (1,))])
def test_empty_stack_gives_empty_bits(monkeypatch, x_batch, h0_batch):
    # like capacity_forms and ostbc_capacity: no members, so no cross-check
    # and no pair for a watcher of capacity_forms
    dims = Dims(3, 2, 4, 3)
    pb = canonical_budget(dims)
    rng = np.random.default_rng(5)
    ch = ChannelSet(crandn(rng, h0_batch + (dims.r, dims.t)), crandn(rng, (dims.s, dims.t)), crandn(rng, (dims.r, dims.u)))
    x = crandn(rng, x_batch + (dims.u, dims.s))
    pairs = []
    monkeypatch.setattr(evaluate, "capacity_forms", lambda *args, **kwargs: pairs.append(args))
    bits = capacity(ch, pb, dims, x).bits
    shape = np.broadcast_shapes(x_batch, h0_batch)
    assert isinstance(bits, np.ndarray) and bits.dtype == float and bits.shape == shape
    assert ostbc_capacity(ch, pb, dims, x).bits.shape == shape
    assert pairs == []


def test_sweep_points_independent_of_chunks_and_workers():
    spec = SweepSpec(
        scenario=SnrScenario(5.0, 10.0, 10.0, Dims(2, 2, 2, 2)),
        sweep_axis="rho2",
        sweep_points_db=(0.0, 20.0),
        rtm_kinds=("opt1", "opt2", "naf"),
        metrics=("capacity", "ostbc"),
        trials=2 * _CHUNK_TRIALS + 5,
        seed=29,
    )
    points = run_sweep(spec, workers=1)
    assert run_sweep(spec, workers=2) == points
    assert run_sweep(spec, workers=3) == points
