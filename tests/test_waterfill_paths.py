"""A lone water-filling problem is solved on Python floats and a stack on
arrays.  Both paths must make the same IEEE operations in the same order,
so every member of a zero-padded stack comes out bit-identical to its lone
solve, and a lone capacity solve evaluates the budget curve as often as a
one-member stack does."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relay_rtm import opt_capacity
from relay_rtm.opt_capacity import waterfill_capacity
from relay_rtm.opt_ostbc import activation_thresholds, waterfill_ostbc

# Extreme draws overflow a threshold to inf, which both paths treat as a
# mode that never activates, and the OSTBC array scan of a stack without
# modes pours at level inf * 0 into no mode; numpy warns as it does so.
pytestmark = [
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning"),
]

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
    order: the order of every spectra bundle's modes, and the one a lone
    OSTBC problem needs to be scanned on floats."""
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
        assert stacked.active[k].tolist() == lone.active.tolist() + [False] * (alpha.shape[1] - n)
        xi = float(stacked.xi[k])
        assert (None if np.isnan(xi) else xi) == lone.xi
        assert float(stacked.achieved_budget[k]) == lone.achieved_budget


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
