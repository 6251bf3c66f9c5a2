import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import canonical_budget, count_calls, crandn, scaled_channels, scalar_network
from oracles import direct_link_capacity, oracle_solve
from relay_rtm import evaluate
from relay_rtm.errors import DeadRelayWarning, NumericalError, ValidationError
from relay_rtm.evaluate import (
    KktReport,
    capacity,
    capacity_forms,
    naf_rtm,
    ostbc_capacity,
    verify_kkt_capacity,
)
from relay_rtm.matalg import hermitian_part
from relay_rtm.montecarlo import sample_channels
from relay_rtm.network import ChannelSet, Dims, PowerBudget, SnrScenario, translate_scenario
from relay_rtm.opt_capacity import (
    WaterfillSolution,
    optimize_capacity_rtm,
    waterfill_capacity,
)
from relay_rtm.opt_ostbc import optimize_ostbc_rtm


def _random_feasible_x(rng, ch, pb, dims):
    c = np.eye(dims.s) + (pb.p1 / dims.t) * hermitian_part(ch.h1 @ ch.h1.conj().T)
    z = crandn(rng, (dims.u, dims.s))
    power = float(np.real(np.trace(z @ c @ z.conj().T)))
    return z * np.sqrt(pb.p2 / power)


class TestCapacity:
    def test_zero_everything(self):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.zeros((2, 2)), h1=np.eye(2), h2=np.eye(2))
        rep = capacity(ch, PowerBudget(2.0, 2.0), dims, np.zeros((2, 2)))
        assert rep.bits == 0.0

    def test_identity_direct_channel(self):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.eye(2), h1=np.eye(2), h2=np.eye(2))
        rep = capacity(ch, PowerBudget(2.0, 2.0), dims, np.zeros((2, 2)))
        assert rep.bits == pytest.approx(2.0, abs=1e-12)

    def test_scalar_worked_value(self):
        dims, ch = scalar_network()
        rep = capacity(ch, PowerBudget(1.0, 2.0), dims, np.ones((1, 1)))
        assert rep.bits == pytest.approx(np.log2(1.5), abs=1e-12)

    def test_form_equivalence_random_draws(self):
        rng = np.random.default_rng(2718)
        for k in range(100):
            dims = Dims(*(int(rng.integers(1, 5)) for _ in range(4)))
            rho0 = 10.0 if k % 3 else None
            ch = scaled_channels(rng, dims, rho0_db=rho0, rho1_db=10.0, rho2_db=10.0)
            pb = canonical_budget(dims)
            x = _random_feasible_x(rng, ch, pb, dims)
            direct, ident = capacity_forms(ch, pb, dims, x)
            assert abs(direct - ident) < 1e-9
        # high SNR: a form that subtracts the relay-path residual missed
        # the gate here by 2.3e-9 bits
        dims = Dims(4, 4, 4, 4)
        scenario = SnrScenario(0.0, 60.0, 50.0, dims, direct_link_enabled=False)
        ch, pb = translate_scenario(scenario, sample_channels(dims, 7, 1))
        direct, ident = capacity_forms(ch, pb, dims, optimize_ostbc_rtm(ch, pb, dims).x_matrix)
        assert abs(direct - ident) < 1e-9

    def test_data_processing_ceiling(self):
        # no transform can beat the first-hop information ceiling
        rng = np.random.default_rng(777)
        for _ in range(50):
            dims = Dims(3, 3, 3, 3)
            ch = scaled_channels(rng, dims, rho0_db=10.0)
            pb = canonical_budget(dims)
            x = _random_feasible_x(rng, ch, pb, dims)
            cap = capacity(ch, pb, dims, x).bits
            arg = np.eye(dims.t) + (pb.p1 / dims.t) * (
                ch.h0.conj().T @ ch.h0 + ch.h1.conj().T @ ch.h1
            )
            ceiling = np.linalg.slogdet(hermitian_part(arg))[1] / np.log(2.0)
            assert cap <= ceiling + 1e-9

    def test_rejects_wrong_shape(self):
        dims = Dims(2, 2, 2, 3)
        ch = ChannelSet(h0=np.zeros((2, 2)), h1=np.eye(2), h2=np.ones((2, 3)))
        with pytest.raises(ValidationError, match="shape"):
            capacity(ch, PowerBudget(2.0, 2.0), dims, np.zeros((2, 2)))

    @pytest.mark.parametrize("metric", [capacity, capacity_forms, ostbc_capacity])
    def test_rejects_transform_stack_that_does_not_broadcast(self, metric):
        dims = Dims(2, 2, 2, 2)
        rng = np.random.default_rng(5)
        ch = ChannelSet(*(crandn(rng, (2, 2, 2)) for _ in range(3)))
        with pytest.raises(ValidationError, match=re.escape(
            "batch axes of the relay transform (3, 2, 2) do not broadcast against "
            "the network's h0 (2, 2, 2), h1 (2, 2, 2) and h2 (2, 2, 2)"
        )):
            metric(ch, PowerBudget(2.0, 2.0), dims, np.ones((3, 2, 2)))

    # numeric strings included: numpy parsed them as numbers
    @pytest.mark.parametrize("x", [[["a", "b"], ["c", "d"]], [[object(), 0], [0, 0]], [["1", "0"], ["0", "1"]]])
    def test_rejects_non_number_transform(self, x):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.zeros((2, 2)), h1=np.eye(2), h2=np.eye(2))
        with pytest.raises(ValidationError, match="relay transform"):
            capacity(ch, PowerBudget(2.0, 2.0), dims, x)


class TestOstbcCapacity:
    @pytest.mark.parametrize("rate", [1.0, 0.75, 0.5])
    def test_zero_network(self, rate):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.zeros((2, 2)), h1=np.eye(2), h2=np.eye(2))
        rep = ostbc_capacity(ch, PowerBudget(2.0, 2.0), dims, np.zeros((2, 2)), rate)
        assert rep.bits == 0.0

    def test_scalar_coincides_with_capacity(self):
        dims, ch = scalar_network()
        pb = PowerBudget(1.0, 2.0)
        x = np.ones((1, 1))
        assert ostbc_capacity(ch, pb, dims, x).bits == pytest.approx(
            capacity(ch, pb, dims, x).bits, abs=1e-12
        )

    def test_never_exceeds_capacity_seeded(self):
        rng = np.random.default_rng(515)
        dims = Dims(4, 4, 4, 4)
        pb = canonical_budget(dims)
        for _ in range(20):
            ch = scaled_channels(rng, dims, rho0_db=10.0)
            x = _random_feasible_x(rng, ch, pb, dims)
            assert ostbc_capacity(ch, pb, dims, x).bits <= capacity(ch, pb, dims, x).bits + 1e-9

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5, "1", None, True])
    def test_rejects_bad_rate(self, rate):
        dims, ch = scalar_network()
        with pytest.raises(ValidationError, match=rf"rate.*got {re.escape(repr(rate))}"):
            ostbc_capacity(ch, PowerBudget(1.0, 1.0), dims, np.ones((1, 1)), rate)


class TestDirectLink:
    def test_zero_channel(self):
        dims = Dims(2, 2, 2, 2)
        assert direct_link_capacity(np.zeros((2, 2)), PowerBudget(2.0, 2.0), dims) == 0.0

    def test_identity_channel(self):
        dims = Dims(2, 2, 2, 2)
        bits = direct_link_capacity(np.eye(2), PowerBudget(2.0, 2.0), dims)
        assert bits == pytest.approx(2.0, abs=1e-12)

    def test_equals_capacity_with_zero_transform(self):
        rng = np.random.default_rng(4)
        dims = Dims(3, 2, 2, 3)
        ch = scaled_channels(rng, dims, rho0_db=7.0, rho1_db=3.0, rho2_db=12.0)
        pb = canonical_budget(dims)
        a = direct_link_capacity(ch.h0, pb, dims)
        b = capacity(ch, pb, dims, np.zeros((dims.u, dims.s))).bits
        assert a == pytest.approx(b, abs=1e-12)


def _both_bits(ch, pb, dims, x):
    return capacity(ch, pb, dims, x).bits, ostbc_capacity(ch, pb, dims, x).bits


def _fresh(ch):
    return ChannelSet(ch.h0, ch.h1, ch.h2)


def _skew_identity_form(monkeypatch, h1_entry, gap_bits):
    """Have the identity form read ``gap_bits`` above its value for every
    network whose h1[0, 0] is ``h1_entry``, as a true disagreement of the
    two forms would: wherever that network is evaluated, in a stack or on
    its own."""
    forms = evaluate._forms

    def skewed(ch, pb, dims, x_matrix, *args):
        direct, ident = forms(ch, pb, dims, x_matrix, *args)
        hit = np.broadcast_to(ch.h1[..., 0, 0] == h1_entry, np.shape(ident))
        return direct, ident + gap_bits * hit

    monkeypatch.setattr(evaluate, "_forms", skewed)


def _mix_stack(dims, trials):
    """A stack of sampled networks, with the member drawn alone beside it."""
    scenario = SnrScenario(5.0, 10.0, 10.0, dims)
    ch, pb = translate_scenario(scenario, sample_channels(dims, 17, range(trials)))
    members = [translate_scenario(scenario, sample_channels(dims, 17, k))[0] for k in range(trials)]
    return ch, pb, members


class TestFormGate:
    """The two capacity forms must agree to 1e-9 bits; a larger gap raises."""

    @pytest.mark.parametrize("gap, fails", [(2e-9, True), (-2e-9, True), (0.5e-9, False), (-0.5e-9, False)])
    def test_one_network(self, monkeypatch, gap, fails):
        dims = Dims(3, 3, 3, 3)
        _, pb, (ch, *_) = _mix_stack(dims, 1)
        x = optimize_capacity_rtm(ch, pb, dims).x_matrix
        honest = capacity(ch, pb, dims, x).bits
        _skew_identity_form(monkeypatch, ch.h1[0, 0], gap)
        if fails:
            with pytest.raises(NumericalError, match="^capacity forms disagree: "):
                capacity(ch, pb, dims, x)
        else:
            assert capacity(ch, pb, dims, x).bits == honest

    def test_one_network_hands_its_own_pair(self, monkeypatch):
        # a watcher of capacity_forms sees one pair per call, the network's
        # two forms as Python floats, and the bits are its direct form
        dims = Dims(3, 3, 3, 3)
        _, pb, (ch, *_) = _mix_stack(dims, 1)
        x = optimize_capacity_rtm(ch, pb, dims).x_matrix
        forms = capacity_forms(ch, pb, dims, x)
        pairs = []

        def recording(*args, **kwargs):
            pairs.append(capacity_forms(*args, **kwargs))
            return pairs[-1]

        monkeypatch.setattr(evaluate, "capacity_forms", recording)
        bits = capacity(ch, pb, dims, x.tolist()).bits
        assert type(bits) is float and bits == forms[0]
        assert pairs == [forms]
        assert [type(v) for v in pairs[0]] == [float, float]

    @pytest.mark.parametrize("gap, fails", [(2e-9, True), (0.5e-9, False)])
    @pytest.mark.parametrize("member", [0, 2, 4])
    def test_one_member_of_a_stack(self, monkeypatch, gap, fails, member):
        dims = Dims(2, 3, 3, 2)
        ch, pb, members = _mix_stack(dims, 5)
        x = optimize_capacity_rtm(ch, pb, dims).x_matrix
        honest = capacity(ch, pb, dims, x).bits
        _skew_identity_form(monkeypatch, members[member].h1[0, 0], gap)
        if fails:
            with pytest.raises(NumericalError, match="^capacity forms disagree: "):
                capacity(ch, pb, dims, x)
        else:
            assert np.array_equal(capacity(ch, pb, dims, x).bits, honest)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_identity_form_reads_no_relay_path_matrix(self, monkeypatch, stacked):
        # the identity form may share K and K^H with the relay path, never
        # the destination-side matrix or its solve: with that matrix off by
        # 1e-6 relative, only the direct form moves, and the gate sees it
        dims = Dims(3, 3, 3, 3)
        ch, pb, members = _mix_stack(dims, 5)
        if not stacked:
            ch = members[0]
        x = optimize_capacity_rtm(ch, pb, dims).x_matrix
        build = evaluate._build_relay_path

        def scaled(*args):
            *path, inner = build(*args)
            return (*path, inner * (1.0 + 1e-6))

        monkeypatch.setattr(evaluate, "_build_relay_path", scaled)
        with pytest.raises(NumericalError, match="^capacity forms disagree: "):
            capacity(_fresh(ch), pb, dims, x)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("metric", [capacity, ostbc_capacity])
    def test_non_finite_transform(self, entry, stacked, metric):
        dims = Dims(2, 2, 3, 3)
        ch, pb, members = _mix_stack(dims, 3)
        x = naf_rtm(ch, pb, dims).x_matrix.copy()
        if stacked:
            x[1, 0, 1] = entry
        else:
            ch, x = members[0], x[0]
            x[0, 1] = entry
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericalError, match="not (positive definite|finite)"):
            metric(ch, pb, dims, x)


class TestRelayPathMemo:
    """A ChannelSet remembers the relay-path matrix of the last transform
    evaluated on it, so both metrics of one X build it once."""

    @pytest.mark.parametrize("stacked", [False, True])
    def test_both_metrics_build_it_once(self, monkeypatch, stacked):
        rng = np.random.default_rng(31)
        dims = Dims(3, 2, 3, 2)
        pb = canonical_budget(dims)
        if stacked:
            # h0 carries a point axis, h1 and h2 broadcast along it
            ch = ChannelSet(crandn(rng, (4, 3, 2, 3)), crandn(rng, (4, 1, 3, 3)), crandn(rng, (4, 1, 2, 2)))
        else:
            ch = scaled_channels(rng, dims, rho0_db=5.0)
        x = naf_rtm(ch, pb, dims).x_matrix
        expected = _both_bits(_fresh(ch), pb, dims, x)
        builds = count_calls(monkeypatch, evaluate._build_relay_path)
        bits = _both_bits(ch, pb, dims, x)
        assert len(builds) == 1
        assert all(np.array_equal(a, b) for a, b in zip(bits, expected))

    def test_another_or_mutated_transform_is_rebuilt(self):
        rng = np.random.default_rng(32)
        dims = Dims(3, 3, 3, 3)
        pb = canonical_budget(dims)
        ch = scaled_channels(rng, dims, rho0_db=5.0)
        x = _random_feasible_x(rng, ch, pb, dims)
        _both_bits(ch, pb, dims, x)
        other = _random_feasible_x(rng, ch, pb, dims)
        assert _both_bits(ch, pb, dims, other) == _both_bits(_fresh(ch), pb, dims, other)
        x[0, 0] *= 0.5
        assert _both_bits(ch, pb, dims, x) == _both_bits(_fresh(ch), pb, dims, x)

    def test_holds_one_relay_path(self):
        rng = np.random.default_rng(33)
        dims = Dims(2, 2, 2, 2)
        pb = canonical_budget(dims)
        ch = scaled_channels(rng, dims, rho0_db=5.0)
        _both_bits(ch, pb, dims, _random_feasible_x(rng, ch, pb, dims))
        entries = len(ch._memo)
        for _ in range(50):
            _both_bits(ch, pb, dims, _random_feasible_x(rng, ch, pb, dims))
        assert len(ch._memo) == entries

    def test_concurrent_evaluations_agree(self):
        # the slot takes no lock: threads evaluating their own X on one
        # ChannelSet overwrite each other's entry, and each still gets the
        # lone evaluation's bits
        rng = np.random.default_rng(34)
        dims = Dims(4, 4, 4, 4)
        pb = canonical_budget(dims)
        raw = scaled_channels(rng, dims, rho0_db=5.0)
        xs = [_random_feasible_x(rng, raw, pb, dims) for _ in range(4)]
        expected = [_both_bits(_fresh(raw), pb, dims, x) for x in xs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(10):
                    ch = _fresh(raw)
                    futures = [pool.submit(lambda x: [_both_bits(ch, pb, dims, x) for _ in range(5)], x) for x in xs]
                    for want, future in zip(expected, futures):
                        assert future.result(timeout=60) == 5 * [want]
        finally:
            sys.setswitchinterval(interval)


class TestNaf:
    def test_identity_when_first_hop_dead(self):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.eye(2), h1=np.zeros((2, 2)), h2=np.eye(2))
        with pytest.warns(DeadRelayWarning, match="h1"):
            sol = naf_rtm(ch, PowerBudget(2.0, 2.0), dims)
        np.testing.assert_allclose(sol.x_matrix, np.eye(2))
        assert sol.kind == "naf"
        assert sol.relay_power_used == pytest.approx(2.0, rel=1e-12)

    def test_scalar_network(self):
        dims, ch = scalar_network()
        sol = naf_rtm(ch, PowerBudget(1.0, 2.0), dims)
        np.testing.assert_allclose(sol.x_matrix, [[1.0]])

    def test_rectangular_pattern(self):
        rng = np.random.default_rng(12)
        dims = Dims(2, 3, 2, 4)
        ch = scaled_channels(rng, dims, rho0_db=0.0)
        pb = canonical_budget(dims)
        sol = naf_rtm(ch, pb, dims)
        assert sol.kind == "naf-rect"
        assert sol.x_matrix.shape == (4, 2)
        assert sol.relay_power_used == pytest.approx(pb.p2, rel=1e-12)
        # built from no water-filling solve and no spectra
        assert sol.wf is None and sol.spectra is None
        # scaled rectangular identity: single diagonal gain, nothing else
        gain = sol.x_matrix[0, 0]
        np.testing.assert_allclose(sol.x_matrix[:2, :2], gain * np.eye(2))
        assert not np.any(sol.x_matrix[2:, :])

    @pytest.mark.parametrize("s, u", [(2, 4), (3, 3), (4, 2)])
    def test_transform_is_zeros_with_the_gain_on_the_diagonal(self, s, u):
        rng = np.random.default_rng(15)
        dims = Dims(3, 2, s, u)
        pb = canonical_budget(dims)
        members = [scaled_channels(rng, dims, rho0_db=0.0) for _ in range(4)]
        stack = ChannelSet(*(np.stack([getattr(m, name) for m in members]) for name in ("h0", "h1", "h2")))
        k = min(s, u)
        for ch in members + [stack]:
            x = naf_rtm(ch, pb, dims).x_matrix
            want = np.zeros(x.shape, dtype=complex)
            want[..., np.arange(k), np.arange(k)] = x[..., :1, 0].real
            assert x.dtype == want.dtype and x.tobytes() == want.tobytes()

    def test_never_beats_optimizer(self):
        rng = np.random.default_rng(13)
        dims = Dims(4, 4, 4, 4)
        pb = canonical_budget(dims)
        for _ in range(10):
            ch = scaled_channels(rng, dims, rho0_db=None, rho1_db=10.0)
            naf_bits = capacity(ch, pb, dims, naf_rtm(ch, pb, dims).x_matrix).bits
            opt_bits = capacity(ch, pb, dims, optimize_capacity_rtm(ch, pb, dims).x_matrix).bits
            assert naf_bits <= opt_bits + 1e-9


_CHECKED_CALLS = {
    "opt1": lambda ch, pb, dims: optimize_capacity_rtm(ch, pb, dims),
    "opt2": lambda ch, pb, dims: optimize_ostbc_rtm(ch, pb, dims),
    "naf": lambda ch, pb, dims: naf_rtm(ch, pb, dims),
    "capacity": lambda ch, pb, dims: capacity(ch, pb, dims, np.eye(dims.u, dims.s)),
    "capacity_forms": lambda ch, pb, dims: capacity_forms(ch, pb, dims, np.eye(dims.u, dims.s)),
    "ostbc_capacity": lambda ch, pb, dims: ostbc_capacity(ch, pb, dims, np.eye(dims.u, dims.s)),
}


class TestNetworkValidated:
    """Every kind and metric validates the network it is given, once per
    ChannelSet, before it reads the matrices."""

    @pytest.mark.parametrize("call", sorted(_CHECKED_CALLS))
    @pytest.mark.parametrize(
        "case,match",
        [("unbroadcastable", "do not broadcast"), ("nan_h1", "h1 contains non-finite"), ("misshaped_h1", "h1 must have shape")],
    )
    def test_bad_network_is_a_validation_error(self, call, case, match):
        rng = np.random.default_rng(21)
        dims = Dims(4, 4, 4, 4)
        h0, h1, h2 = crandn(rng, (3, 4, 4)), crandn(rng, (4, 4)), crandn(rng, (4, 4))
        if case == "unbroadcastable":
            h1 = crandn(rng, (2, 4, 4))
        elif case == "nan_h1":
            h0 = h0[0]
            h1[1, 2] = np.nan
        else:
            h0, h1 = h0[0], crandn(rng, (3, 4))
        with pytest.raises(ValidationError, match=match):
            _CHECKED_CALLS[call](ChannelSet(h0, h1, h2), canonical_budget(dims), dims)


class TestVerifyKkt:
    def test_solver_output_clean(self):
        wf = waterfill_capacity(np.array([0.5]), np.array([1.0]), 1.0)
        rep = verify_kkt_capacity(np.array([0.5]), np.array([1.0]), 1.0, wf)
        assert rep.stationarity_residual < 1e-10
        assert rep.complementary_slackness < 1e-10
        assert rep.primal_feasibility < 1e-10
        assert rep.dual_feasibility < 1e-10

    def test_underfilled_budget_flagged(self):
        wf = waterfill_capacity(np.array([0.5]), np.array([1.0]), 1.0)
        tampered = WaterfillSolution(x=np.array([0.5]), xi=wf.xi)
        rep = verify_kkt_capacity(np.array([0.5]), np.array([1.0]), 1.0, tampered)
        assert rep.primal_feasibility == pytest.approx(0.5, abs=1e-12)
        assert rep.stationarity_residual > 1e-3

    def test_no_water_state_clean(self):
        wf = waterfill_capacity(np.zeros(3), np.ones(3), 2.0)
        rep = verify_kkt_capacity(np.zeros(3), np.ones(3), 2.0, wf)
        assert rep.stationarity_residual == 0.0
        assert rep.primal_feasibility == 0.0
        assert rep.dual_feasibility == 0.0

    def test_stack_member_without_water_reads_as_its_lone_solve(self):
        # a stack marks "no water" by a NaN level, a lone solve by None
        wf = waterfill_capacity(np.array([[0.5, 0.2], [0.0, 0.0]]), np.ones((2, 2)), 2.0)
        member = WaterfillSolution(x=wf.x[1], xi=wf.xi[1])
        lone = waterfill_capacity(np.zeros(2), np.ones(2), 2.0)
        assert lone.xi is None and np.isnan(member.xi)
        reports = [verify_kkt_capacity(np.zeros(2), np.ones(2), 2.0, w) for w in (member, lone)]
        assert reports[0] == reports[1] == KktReport(0.0, 0.0, 0.0, 0.0)

    def test_rejects_a_stacked_problem(self):
        alpha, beta = np.array([[0.5, 0.2], [0.3, 0.1]]), np.ones((2, 2))
        wf = waterfill_capacity(alpha, beta, 1.0)
        with pytest.raises(ValidationError, match=re.escape("checks one problem, got alpha (2, 2) and x (2, 2)")):
            verify_kkt_capacity(alpha, beta, 1.0, wf)

    @pytest.mark.parametrize("modes", [1, 2, 4])
    def test_rejects_a_solution_of_another_mode_count(self, modes):
        wf = waterfill_capacity(np.full(modes, 0.5), np.ones(modes), 1.0)
        with pytest.raises(ValidationError, match=rf"^water-filling solution has {modes} modes, spectra expect 3$"):
            verify_kkt_capacity(np.array([0.5, 0.2, 0.1]), np.ones(3), 1.0, wf)

    def test_batch_random_problems(self):
        rng = np.random.default_rng(1000)
        for _ in range(100):
            rho = 4
            alpha = rng.uniform(0.0, 0.99, rho)
            beta = rng.uniform(0.1, 10.0, rho)
            p2 = float(rng.uniform(0.1, 30.0))
            wf = waterfill_capacity(alpha, beta, p2)
            rep = verify_kkt_capacity(alpha, beta, p2, wf)
            assert rep.stationarity_residual < 1e-8
            assert rep.complementary_slackness < 1e-8
            assert rep.primal_feasibility < 1e-8 * max(p2, 1.0)
            assert rep.dual_feasibility < 1e-8


class TestOracle:
    def test_single_mode_closed_form(self):
        x, _ = oracle_solve("capacity", np.array([0.5]), np.array([2.0]), 3.0)
        np.testing.assert_allclose(x, [1.5])

    def test_capacity_two_modes_matches_waterfill(self):
        alpha = np.array([0.5, 0.3])
        beta = np.array([1.0, 5.0])
        wf = waterfill_capacity(alpha, beta, 2.0)
        obj_wf = -np.sum(np.log(1.0 - alpha / (1.0 + wf.x)))
        _, obj = oracle_solve("capacity", alpha, beta, 2.0, grid_step=1e-3)
        assert abs(obj - obj_wf) < 1e-6

    def test_ostbc_two_modes_hand_solution(self):
        x, _ = oracle_solve("ostbc", np.array([1.0, 1.0]), np.array([1.0, 4.0]), 3.0, 1e-3)
        np.testing.assert_allclose(x, [5.0 / 3.0, 1.0 / 3.0], atol=1e-3)

    def test_zero_budget(self):
        x, val = oracle_solve("ostbc", np.array([1.0, 2.0]), np.array([1.0, 1.0]), 0.0)
        np.testing.assert_array_equal(x, np.zeros(2))
        assert val == pytest.approx(3.0)

    def test_size_limit(self):
        with pytest.raises(ValidationError, match="4 modes"):
            oracle_solve("capacity", np.full(5, 0.5), np.ones(5), 1.0)

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValidationError, match="objective"):
            oracle_solve("mmse", np.array([0.5]), np.ones(1), 1.0)


class TestOptimalityCrossChecks:
    def test_per_realization_dominance(self):
        rng = np.random.default_rng(2025)
        dims = Dims(4, 4, 4, 4)
        pb = canonical_budget(dims)
        for k in range(10):
            rho0 = 10.0 if k % 2 else None
            ch = scaled_channels(rng, dims, rho0_db=rho0)
            opt1 = optimize_capacity_rtm(ch, pb, dims).x_matrix
            opt2 = optimize_ostbc_rtm(ch, pb, dims).x_matrix
            naf = naf_rtm(ch, pb, dims).x_matrix
            caps = {n: capacity(ch, pb, dims, x).bits for n, x in
                    [("opt1", opt1), ("opt2", opt2), ("naf", naf)]}
            osts = {n: ostbc_capacity(ch, pb, dims, x).bits for n, x in
                    [("opt1", opt1), ("opt2", opt2), ("naf", naf)]}
            assert caps["opt1"] >= max(caps["opt2"], caps["naf"]) - 1e-9
            assert osts["opt2"] >= max(osts["opt1"], osts["naf"]) - 1e-9

    def test_relay_never_hurts_direct_link(self):
        rng = np.random.default_rng(2026)
        dims = Dims(3, 3, 3, 3)
        pb = canonical_budget(dims)
        for _ in range(10):
            ch = scaled_channels(rng, dims, rho0_db=8.0)
            sol = optimize_capacity_rtm(ch, pb, dims)
            assert capacity(ch, pb, dims, sol.x_matrix).bits >= (
                direct_link_capacity(ch.h0, pb, dims) - 1e-9
            )

    @pytest.mark.parametrize("dims", [Dims(4, 4, 4, 4), Dims(4, 2, 4, 2)])
    def test_parametric_capacity_consistency(self, dims):
        # the water-level parameterization reproduces the log-det value,
        # including unservable-mode losses when rank(h1) exceeds the
        # servable mode count (second case)
        rng = np.random.default_rng(2027)
        pb = canonical_budget(dims)
        for k in range(10):
            rho0 = 10.0 if k % 2 else None
            ch = scaled_channels(rng, dims, rho0_db=rho0)
            sol = optimize_capacity_rtm(ch, pb, dims)
            sp, wf = sol.spectra, sol.wf
            base_arg = np.eye(dims.t) + (pb.p1 / dims.t) * (
                ch.h0.conj().T @ ch.h0 + ch.h1.conj().T @ ch.h1
            )
            base = np.linalg.slogdet(hermitian_part(base_arg))[1] / np.log(2.0)
            served = float(np.sum(np.log2(1.0 - sp.alpha / (1.0 + wf.x))))
            # the gains of A = H1 G^-1 H1^H past the servable modes, which
            # take no power
            g = (dims.t / pb.p1) * np.eye(dims.t) + ch.h0.conj().T @ ch.h0 + ch.h1.conj().T @ ch.h1
            tail = np.linalg.eigvalsh(hermitian_part(ch.h1 @ np.linalg.solve(g, ch.h1.conj().T)))[::-1][sp.rho:]
            lost = float(np.sum(np.log2(1.0 - tail)))
            reported = capacity(ch, pb, dims, sol.x_matrix).bits
            assert reported == pytest.approx(base + served + lost, abs=1e-9)
            if dims.r < dims.t:
                assert lost < -1e-3
