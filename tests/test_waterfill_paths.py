"""A lone water-filling problem is solved on Python floats and a stack on
arrays.  Both paths must make the same IEEE operations in the same order,
so every member of a zero-padded stack comes out bit-identical to its lone
solve, and a lone capacity solve evaluates the budget curve as often as a
one-member stack does.  The same holds one layer down: a lone network's
rank cut, padding, clamp and mode counts (``thin_ud`` and the spectra
builders) run on the eigenvalue lists, and a lone solve never reaches the
stack-only helpers."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import canonical_budget, count_calls, crandn
from relay_rtm import evaluate, opt_capacity, opt_ostbc
from relay_rtm.errors import ValidationError
from relay_rtm.matalg import thin_ud
from relay_rtm.montecarlo import sample_channels
from relay_rtm.network import ChannelSet, Dims, SnrScenario, translate_scenario
from relay_rtm.opt_capacity import build_capacity_spectra, waterfill_capacity
from relay_rtm.opt_ostbc import activation_thresholds, build_ostbc_spectra, waterfill_ostbc

# Extreme draws overflow a threshold to inf, which both paths treat as a
# mode that never activates; numpy warns as it does so.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

MAX_MODES = 8
BELOW_ONE = float(np.nextafter(1.0, 0.0))

# Values drawn from small pools recur, so thresholds tie; gains near 1 sit
# where the capacity curve's modes activate almost at once.
_COSTS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 1e3))
_CAPACITY_GAINS = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 0.5, 0.75, BELOW_ONE]),
    st.floats(0.999999, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_max=True),
)
_OSTBC_GAINS = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 4.0]),
    st.floats(0.0, 1e6),
)
_BUDGETS = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


def _problems(gains):
    problem = st.lists(st.tuples(gains, _COSTS), max_size=MAX_MODES)
    return st.lists(problem, min_size=1, max_size=4)


def _sorted_by_threshold(problem):
    """The modes in nondecreasing order of OSTBC threshold, ties in draw
    order: the order of every spectra bundle's modes, where ties recur."""
    thresholds = activation_thresholds(*np.array(problem, dtype=float).reshape(-1, 2).T)
    return [problem[i] for i in np.argsort(thresholds, kind="stable")]


_OSTBC_PROBLEMS = st.one_of(
    _problems(_OSTBC_GAINS),
    _problems(_OSTBC_GAINS).map(lambda problems: [_sorted_by_threshold(p) for p in problems]),
)


def _stack(problems):
    """The problems as one stack, padded to the widest with zero-gain,
    unit-cost modes as sweep stacks are."""
    width = max(len(p) for p in problems)
    alpha = np.zeros((len(problems), width))
    beta = np.ones((len(problems), width))
    for k, p in enumerate(problems):
        alpha[k, : len(p)] = [a for a, _ in p]
        beta[k, : len(p)] = [b for _, b in p]
    return alpha, beta


def _assert_members_match_lone_solves(solver, problems, p2):
    alpha, beta = _stack(problems)
    stacked = solver(alpha, beta, p2)
    for k, p in enumerate(problems):
        n = len(p)
        lone = solver(alpha[k, :n], beta[k, :n], p2)
        assert stacked.x[k, :n].tolist() == lone.x.tolist()
        assert not stacked.x[k, n:].any()
        xi = float(stacked.xi[k])
        assert (None if np.isnan(xi) else xi) == lone.xi


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_problems(_CAPACITY_GAINS), _BUDGETS)
def test_capacity_members_match_lone_solves(problems, p2):
    _assert_members_match_lone_solves(waterfill_capacity, problems, p2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_OSTBC_PROBLEMS, _BUDGETS)
def test_ostbc_members_match_lone_solves(problems, p2):
    _assert_members_match_lone_solves(waterfill_ostbc, problems, p2)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_problems(_CAPACITY_GAINS), _BUDGETS)
def test_capacity_lone_solve_evaluates_the_budget_as_a_stack_does(problems, p2):
    alpha, beta = _stack(problems[:1])
    counts = []
    for a, b in ((alpha[0], beta[0]), (alpha, beta)):
        with mock.patch.object(opt_capacity, "_phi", wraps=opt_capacity._phi) as phi:
            waterfill_capacity(a, b, p2)
        counts.append(phi.call_count)
    assert counts[0] == counts[1]


def _member(ch, k):
    return ChannelSet(ch.h0[k], ch.h1[k], ch.h2[k])


def _networks(dims, rho1_db, link, members=4):
    """A stack of translated networks whose second hops differ in rank:
    member 1's H2 has rank 1, so the others' modes pad it."""
    raw = sample_channels(dims, 5, range(members))
    h2 = raw.h2.copy()
    h2[1] = h2[1][:, :1] * np.ones((1, dims.u))
    scenario = SnrScenario(10.0, rho1_db, 10.0, dims, direct_link_enabled=link)
    return translate_scenario(scenario, ChannelSet(raw.h0, raw.h1, h2))


_FIELDS = ("alpha", "beta", "u_a_thin", "u_b_thin", "lam_b_thin", "rho", "rho_a", "rho_b", "c_matrix")


def _assert_spectra_match(build, ch, pb, dims):
    """Each member's lone spectra equal its spectra in a one-member stack,
    field by field, and its part of the whole stack's, past which the
    stack pads it."""
    stacked = build(ch, pb, dims)
    width = stacked.alpha.shape[-1]
    for k in range(ch.h1.shape[0]):
        lone = build(_member(ch, k), pb, dims)
        single = build(ChannelSet(ch.h0[k : k + 1], ch.h1[k : k + 1], ch.h2[k : k + 1]), pb, dims)
        for field in _FIELDS:
            value = np.asarray(getattr(lone, field))
            assert value.shape == getattr(single, field).shape[1:] and np.array_equal(getattr(single, field)[0], value)
        n, nb = lone.rho, lone.rho_b
        assert (type(n), type(lone.rho_a), type(nb)) == (int, int, int)
        assert (n, lone.rho_a, nb) == (stacked.rho[k], stacked.rho_a[k], stacked.rho_b[k])
        assert stacked.alpha[k, :n].tolist() == lone.alpha.tolist()
        assert stacked.beta[k, :n].tolist() == lone.beta.tolist()
        assert not stacked.alpha[k, n:].any()
        assert stacked.lam_b_thin[k, :nb].tolist() == lone.lam_b_thin.tolist()
        assert (stacked.lam_b_thin[k, nb:] == 1.0).all()
        assert np.array_equal(stacked.u_a_thin[k, :, :n], lone.u_a_thin)
        assert np.array_equal(stacked.u_b_thin[k, :, :nb], lone.u_b_thin)
        assert np.array_equal(stacked.c_matrix[k], lone.c_matrix)
    return stacked


@pytest.mark.parametrize("build", [build_capacity_spectra, build_ostbc_spectra])
@pytest.mark.parametrize("link", [False, True])
@pytest.mark.parametrize("rho1_db", [10.0, 160.0])
@pytest.mark.parametrize("shape", [(2, 2, 4, 4), (4, 4, 2, 2), (4, 4, 4, 4)])
def test_spectra_members_match_lone_networks(build, link, rho1_db, shape):
    dims = Dims(*shape)
    ch, pb = _networks(dims, rho1_db, link)
    stacked = _assert_spectra_match(build, ch, pb, dims)
    if build is build_capacity_spectra and rho1_db > 100.0:
        # first-hop gains round to 1 here and are clamped just below it
        assert (stacked.alpha == BELOW_ONE).any()


@pytest.mark.parametrize("build", [build_capacity_spectra, build_ostbc_spectra])
def test_spectra_rank_cut_matches_stack_near_the_cut(build):
    # first-hop eigenvalues on both sides of the cut 1e-10 * max(lam_max, 1),
    # with lam_max below and above 1
    dims = Dims(3, 3, 3, 3)
    rng = np.random.default_rng(22)
    members = []
    for top in (1e-3, 0.5, 4.0):
        for low in (5e-12, 5e-11, 2e-10, 5e-10):
            h1 = np.diag(np.sqrt([top, top * 0.5, low])).astype(complex)
            members.append((np.zeros((3, 3), complex), h1, crandn(rng, (3, 3))))
    ch = ChannelSet(*(np.array(m) for m in zip(*members)))
    _assert_spectra_match(build, ch, canonical_budget(dims), dims)


def test_thin_ud_members_match_lone_matrices():
    rng = np.random.default_rng(21)
    # PSD matrices of every rank from 0 to 4, some scaled far from 1
    stack = []
    for rank in range(5):
        for scale in (1e-6, 1.0, 1e6):
            v = crandn(rng, (4, rank))
            m = scale * (v @ v.conj().T)
            stack.append(0.5 * (m + m.conj().T))
    stack = np.array(stack)
    stacked = thin_ud(stack)
    for k, m in enumerate(stack):
        lone = thin_ud(m)
        assert type(lone.rank) is int and lone.rank == stacked.rank[k]
        assert stacked.lam_thin[k, : lone.rank].tolist() == lone.lam_thin.tolist()
        assert not stacked.lam_thin[k, lone.rank:].any()
        assert np.array_equal(stacked.u_thin[k, :, : lone.rank], lone.u_thin)


def test_thin_ud_lone_psd_check_matches_stack():
    m = np.diag([2.0, -1e-3, 0.0]).astype(complex)
    with pytest.raises(ValidationError) as lone:
        thin_ud(m)
    with pytest.raises(ValidationError) as stacked:
        thin_ud(np.array([np.eye(3), m]))
    assert str(lone.value) == str(stacked.value)


_BAD = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("solver", [waterfill_capacity, waterfill_ostbc])
@pytest.mark.parametrize("which", ["alpha", "beta"])
@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", _BAD)
def test_non_finite_entries_fail_alike_lone_and_stacked(solver, which, position, bad):
    # Python's min and max pass a NaN or not by where it sits; the checks
    # must not depend on the position
    problem = {"alpha": [0.5, 0.25, 0.125, 0.0], "beta": [1.0, 2.0, 0.5, 1.0]}
    problem[which][position] = bad
    alpha, beta = np.array(problem["alpha"]), np.array(problem["beta"])
    with pytest.raises(ValidationError) as lone:
        solver(alpha, beta, 1.0)
    valid = np.array([[0.5, 0.5, 0.5, 0.5], [1.0, 1.0, 1.0, 1.0]])
    with pytest.raises(ValidationError) as stacked:
        solver(np.stack([valid[0], alpha]), np.stack([valid[1], beta]), 1.0)
    assert str(lone.value) == str(stacked.value)
    assert ("mode gains" if which == "alpha" else "mode power costs") in str(lone.value)


def test_overflowing_gain_cost_product_fails_alike_lone_and_stacked():
    # sqrt(alpha * beta) of the second mode overflows: a lone solve used to
    # pour nothing and a stack to give NaN
    alpha, beta = np.array([1.0, 1e150]), np.array([1.0, 1e160])
    with pytest.raises(ValidationError) as lone:
        waterfill_ostbc(alpha, beta, 1.0)
    with pytest.raises(ValidationError) as stacked:
        waterfill_ostbc(np.stack([np.ones(2), alpha]), np.stack([np.ones(2), beta]), 1.0)
    assert str(lone.value) == str(stacked.value) == "each mode's gain times its power cost must be finite"


@pytest.mark.parametrize(
    "solver, alpha, beta",
    [(waterfill_ostbc, [1e300], [1e-300]), (waterfill_capacity, [0.5], [1e-310])],
)
def test_overflowing_gain_over_cost_fails_alike_lone_and_stacked(solver, alpha, beta):
    # alpha / beta overflows: the OSTBC pour used to return x = [inf], the
    # capacity pour x = [nan], lone and stacked alike
    alpha, beta = np.array(alpha), np.array(beta)
    with pytest.raises(ValidationError) as lone:
        solver(alpha, beta, 1.0)
    with pytest.raises(ValidationError) as stacked:
        solver(np.stack([np.full(1, 0.5), alpha]), np.stack([np.ones(1), beta]), 1.0)
    assert str(lone.value) == str(stacked.value) == "each mode's gain over its power cost must be finite"


def test_zero_cost_fails_its_own_check_before_any_ratio():
    for alpha, beta in (([0.5, 0.5], [1.0, 0.0]), ([0.0], [0.0])):
        for solver in (waterfill_capacity, waterfill_ostbc):
            with pytest.raises(ValidationError, match="^mode power costs must be finite and strictly positive$"):
                solver(np.array(alpha), np.array(beta), 1.0)


_MIX_SHAPES = [(4, 4, 4, 4), (2, 2, 4, 4), (4, 4, 2, 2), (8, 8, 8, 8)]
_STACK_ONLY = (opt_capacity._validate_wf_inputs, opt_capacity._wet, opt_capacity._solution, opt_ostbc._scan)


@pytest.mark.parametrize("shape", _MIX_SHAPES)
def test_lone_solves_never_reach_the_stack_helpers(monkeypatch, shape):
    dims = Dims(*shape)
    calls = [count_calls(monkeypatch, fn) for fn in _STACK_ONLY]
    for trial, (rho0, rho1, rho2, link) in enumerate([(10.0, 10.0, 10.0, True), (0.0, 30.0, -10.0, False)]):
        raw = sample_channels(dims, 17, trial)
        ch, pb = translate_scenario(SnrScenario(rho0, rho1, rho2, dims, direct_link_enabled=link), raw)
        for solver in (opt_capacity.optimize_capacity_rtm, opt_ostbc.optimize_ostbc_rtm, evaluate.naf_rtm):
            x = solver(ch, pb, dims).x_matrix
            evaluate.capacity(ch, pb, dims, x)
            evaluate.ostbc_capacity(ch, pb, dims, x)
    assert [len(c) for c in calls] == [0, 0, 0, 0]
    # the same problems as a stack do reach them, so the count is live
    stack = sample_channels(dims, 17, range(2))
    ch, pb = translate_scenario(SnrScenario(10.0, 10.0, 10.0, dims, direct_link_enabled=True), stack)
    opt_capacity.optimize_capacity_rtm(ch, pb, dims)
    opt_ostbc.optimize_ostbc_rtm(ch, pb, dims)
    assert [len(c) for c in calls] == [2, 2, 2, 1]


@pytest.mark.parametrize("alpha, beta", [([1.0, 4.0], [1.0, 1.0]), ([0.0, 1.0, 4.0, 1.0], [2.0, 1.0, 1.0, 1.0])])
def test_lone_ostbc_problem_in_any_mode_order_is_scanned_on_floats(monkeypatch, alpha, beta):
    # thresholds [1, 0.5] and [inf, 1, 0.5, 1]: falling, and tied out of order
    alpha, beta = np.array(alpha), np.array(beta)
    stacked = waterfill_ostbc(alpha[None], beta[None], 3.0)
    scans = count_calls(monkeypatch, opt_ostbc._scan)
    lone = waterfill_ostbc(alpha, beta, 3.0)
    assert scans == []
    assert lone.x.tolist() == stacked.x[0].tolist()
    assert lone.xi == stacked.xi[0]
    assert beta @ lone.x == pytest.approx(3.0, rel=1e-15)


def test_ostbc_stack_without_modes_pours_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = waterfill_ostbc(np.zeros((2, 0)), np.zeros((2, 0)), 1.0)
    assert sol.x.shape == (2, 0)
    assert np.isnan(sol.xi).all()
