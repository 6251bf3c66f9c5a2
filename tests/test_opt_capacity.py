import numpy as np
import pytest

from helpers import canonical_budget, crandn, scaled_channels, scalar_network
from oracles import oracle_solve
from relay_rtm import opt_ostbc
from relay_rtm.errors import DeadRelayError, ValidationError
from relay_rtm.evaluate import capacity, naf_rtm, verify_kkt_capacity
from relay_rtm.network import ChannelSet, Dims, PowerBudget
from relay_rtm.opt_capacity import (
    WaterfillSolution,
    _shaping_matrix,
    activation_thresholds,
    assemble_rtm,
    build_capacity_spectra,
    optimize_capacity_rtm,
    waterfill_capacity,
)
from relay_rtm.opt_ostbc import optimize_ostbc_rtm, waterfill_ostbc


class TestBuildSpectra:
    def test_scalar_network_hand_values(self):
        # A = 1*(1 + 0 + 1)^-1*1 = 0.5, B = 1, C = 2
        dims, ch = scalar_network()
        sp = build_capacity_spectra(ch, PowerBudget(1.0, 1.0), dims)
        np.testing.assert_allclose(sp.alpha, [0.5])
        np.testing.assert_allclose(sp.beta, [2.0])
        assert (sp.rho, sp.rho_a, sp.rho_b) == (1, 1, 1)

    def test_dead_first_hop_zeroes_alpha(self):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.eye(2), h1=np.zeros((2, 2)), h2=np.eye(2))
        with pytest.warns(UserWarning, match="h1"):
            sp = build_capacity_spectra(ch, PowerBudget(2.0, 2.0), dims)
        np.testing.assert_array_equal(sp.alpha, np.zeros(2))
        assert sp.rho_a == 0

    def test_dead_second_hop_raises(self):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.eye(2), h1=np.eye(2), h2=np.zeros((2, 2)))
        with pytest.warns(UserWarning):
            with pytest.raises(DeadRelayError, match="relay path dead"):
                build_capacity_spectra(ch, PowerBudget(2.0, 2.0), dims)

    def test_seeded_gain_bounds(self):
        rng = np.random.default_rng(77)
        dims = Dims(4, 4, 4, 4)
        for _ in range(20):
            ch = scaled_channels(rng, dims, rho0_db=10.0)
            sp = build_capacity_spectra(ch, canonical_budget(dims), dims)
            assert np.all(sp.alpha >= 0.0) and np.all(sp.alpha < 1.0)
            assert np.all(sp.beta > 0.0)
            assert np.all(np.diff(sp.alpha) <= 1e-12)

    def test_wide_relay_mode_count(self):
        # more relay antennas than relay inputs: rho capped at s
        rng = np.random.default_rng(3)
        dims = Dims(2, 4, 2, 4)
        ch = scaled_channels(rng, dims, rho0_db=0.0)
        sp = build_capacity_spectra(ch, canonical_budget(dims), dims)
        assert sp.rho_b == 4 and sp.rho == 2
        assert sp.u_a_thin.shape == (2, 2)
        assert sp.u_b_thin.shape == (4, 4)


#: The public calls that read mode gains and costs, with their test ids.
_MODE_CALLS = {
    "waterfill_capacity": lambda alpha, beta: waterfill_capacity(alpha, beta, 1.0),
    "waterfill_ostbc": lambda alpha, beta: waterfill_ostbc(alpha, beta, 1.0),
    "capacity_thresholds": activation_thresholds,
    "ostbc_thresholds": opt_ostbc.activation_thresholds,
}


class TestWaterfill:
    def test_single_mode_hand_solution(self):
        wf = waterfill_capacity(np.array([0.5]), np.array([1.0]), 1.0)
        np.testing.assert_allclose(wf.x, [1.0], rtol=1e-10)
        assert wf.xi == pytest.approx(6.0, rel=1e-10)
        assert np.array([1.0]) @ wf.x == pytest.approx(1.0, rel=1e-12)

    def test_zero_budget(self):
        wf = waterfill_capacity(np.array([0.5, 0.2]), np.array([1.0, 2.0]), 0.0)
        np.testing.assert_array_equal(wf.x, np.zeros(2))
        assert np.array([1.0, 2.0]) @ wf.x == 0.0
        assert not (wf.x > 0.0).any()

    def test_all_zero_gains_no_water(self):
        wf = waterfill_capacity(np.zeros(3), np.ones(3), 5.0)
        assert wf.xi is None
        np.testing.assert_array_equal(wf.x, np.zeros(3))
        assert np.ones(3) @ wf.x == 0.0

    def test_two_modes_against_grid_oracle(self):
        alpha = np.array([0.5, 0.3])
        beta = np.array([1.0, 5.0])
        last = activation_thresholds(alpha, beta)[1]
        # the budget is about 1.678 at the last threshold: the root of p2 = 1
        # lies between the thresholds, those of p2 = 2 and 40 past the last
        for p2 in (1.0, 2.0, 40.0):
            wf = waterfill_capacity(alpha, beta, p2)
            assert (wf.xi > last) == (p2 > 1.0)
            obj_wf = -np.sum(np.log(1.0 - alpha / (1.0 + wf.x)))
            _, obj_oracle = oracle_solve("capacity", alpha, beta, p2, grid_step=1e-4)
            assert abs(obj_wf - obj_oracle) < 1e-6

    def test_budget_equality_property(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            rho = int(rng.integers(1, 9))
            alpha = rng.uniform(0.0, 0.999, rho)
            beta = 10.0 ** rng.uniform(-4.0, 4.0, rho)
            p2 = float(10.0 ** rng.uniform(-3.0, 3.0))
            if not np.any(alpha > 0):
                continue
            wf = waterfill_capacity(alpha, beta, p2)
            assert beta @ wf.x == pytest.approx(p2, rel=1e-8)
            assert np.all(wf.x >= 0.0)
            rep = verify_kkt_capacity(alpha, beta, p2, wf)
            assert max(
                rep.stationarity_residual,
                rep.complementary_slackness,
                rep.primal_feasibility,
                rep.dual_feasibility,
            ) <= 1e-8

    def test_zero_gain_modes_stay_dry(self):
        wf = waterfill_capacity(np.array([0.6, 0.0]), np.array([1.0, 1e-6]), 3.0)
        assert wf.x[1] == 0.0
        assert (wf.x > 0.0).tolist() == [True, False]

    @pytest.mark.parametrize(
        "alpha,beta,p2",
        [
            ([0.5], [1.0], -1.0),
            ([1.0], [1.0], 1.0),
            ([-0.1], [1.0], 1.0),
            ([0.5], [0.0], 1.0),
            ([np.nan, 0.5], [1.0, 1.0], 2.0),
            ([[0.5, 0.2], [np.nan, 0.1]], [[1.0, 1.0], [1.0, 1.0]], 2.0),
            ([0.5], [1.0], True),
            ([0.5], [1.0], "1"),
            ([0.5], [1.0], None),
        ],
    )
    def test_input_validation(self, alpha, beta, p2):
        with pytest.raises(ValidationError):
            waterfill_capacity(np.array(alpha), np.array(beta), p2)

    @pytest.mark.parametrize(
        "call",
        [
            *_MODE_CALLS.values(),
            lambda alpha, beta: verify_kkt_capacity(alpha, beta, 1.0, WaterfillSolution(np.array([1.0]), 3.0)),
        ],
        ids=[*_MODE_CALLS, "verify_kkt_capacity"],
    )
    @pytest.mark.parametrize("which", ["alpha", "beta"])
    @pytest.mark.parametrize(
        "bad",
        [
            "a",
            [object()],
            [[0.5], [0.5, 0.25]],
            ["0.5"],
            np.array(["0.5"]),
            np.array(["0.5"], dtype=object),
            np.array([b"0.5"], dtype=object),
        ],
    )
    def test_non_numeric_modes_are_validation_errors(self, call, which, bad):
        # numpy raised a bare ValueError or TypeError here, or parsed a
        # numeric string as a number, also one held in an object array
        modes = {"alpha": [0.5], "beta": [1.0], which: bad}
        with pytest.raises(ValidationError, match=f"^{which} must hold numbers"):
            call(modes["alpha"], modes["beta"])

    @pytest.mark.parametrize("call", list(_MODE_CALLS.values()), ids=list(_MODE_CALLS))
    @pytest.mark.parametrize(
        "alpha, beta",
        [([0.5, 0.2], [1.0]), ([[0.5, 0.2]], [1.0, 1.0]), (0.5, 1.0)],
        ids=["lengths", "stack-vs-vector", "scalars"],
    )
    def test_unequal_mode_shapes_are_validation_errors(self, call, alpha, beta):
        with pytest.raises(ValidationError, match=r"^alpha and beta must be vectors \(or stacks of vectors\) of equal shape$"):
            call(alpha, beta)

    @pytest.mark.parametrize("solver", [waterfill_capacity, waterfill_ostbc])
    @pytest.mark.parametrize("p2", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_budget_beyond_float64_is_validation_error(self, solver, p2):
        # math.isfinite raised a bare OverflowError here
        with pytest.raises(ValidationError, match="^relay power budget must be a finite number >= 0"):
            solver([0.5], [1.0], p2)

    def test_thresholds(self):
        thr = activation_thresholds(np.array([0.5, 0.0]), np.array([1.0, 3.0]))
        np.testing.assert_allclose(thr[0], 1.0)  # (1-0.5)*1/0.5
        assert np.isinf(thr[1])
        # phi_0(6) = -0.75 + sqrt(0.0625 + 3) = 1, so p2 = 1 puts the water
        # level exactly at the second mode's threshold (1-0.5)*6/0.5 = 6
        alpha, beta = np.array([0.5, 0.5]), np.array([1.0, 6.0])
        wf = waterfill_capacity(alpha, beta, 1.0)
        assert wf.xi == pytest.approx(6.0, rel=1e-12)
        np.testing.assert_allclose(wf.x, [1.0, 0.0], rtol=1e-12, atol=1e-12)
        assert verify_kkt_capacity(alpha, beta, 1.0, wf).stationarity_residual < 1e-12


class TestAssemble:
    def test_scalar_hand_example(self):
        dims, ch = scalar_network()
        sp = build_capacity_spectra(ch, PowerBudget(1.0, 2.0), dims)
        wf = waterfill_capacity(sp.alpha, sp.beta, 2.0)
        assert wf.xi == pytest.approx(12.0, rel=1e-10)
        np.testing.assert_allclose(wf.x, [1.0], rtol=1e-10)
        sol = assemble_rtm(sp, wf)
        np.testing.assert_allclose(sol.x_matrix, [[1.0]], rtol=1e-10)
        assert sol.relay_power_used == pytest.approx(2.0, rel=1e-10)
        assert sol.kind == "opt1"

    @pytest.mark.parametrize("modes", [0, 2])
    def test_rejects_a_solution_of_another_mode_count(self, modes):
        dims, ch = scalar_network()
        sp = build_capacity_spectra(ch, PowerBudget(1.0, 2.0), dims)
        with pytest.raises(ValidationError, match=rf"^water-filling solution has {modes} modes, spectra expect 1$"):
            assemble_rtm(sp, WaterfillSolution(x=np.ones(modes), xi=1.0))

    def test_zero_modes_give_zero_matrix(self):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.eye(2), h1=np.zeros((2, 2)), h2=np.eye(2))
        with pytest.warns(UserWarning, match="h1"):
            sol = optimize_capacity_rtm(ch, PowerBudget(2.0, 2.0), dims)
        assert not np.any(sol.x_matrix)
        assert sol.relay_power_used == 0.0

    def test_seeded_diagonalization_and_power(self):
        rng = np.random.default_rng(2024)
        dims = Dims(4, 4, 4, 4)
        ch = scaled_channels(rng, dims, rho0_db=10.0)
        pb = canonical_budget(dims)
        sol = optimize_capacity_rtm(ch, pb, dims)
        sp, wf = sol.spectra, sol.wf
        # X^H B X diagonalizes to U_a diag(x) U_a^H
        b = ch.h2.conj().T @ ch.h2
        lhs = sol.x_matrix.conj().T @ b @ sol.x_matrix
        rhs = (sp.u_a_thin * wf.x) @ sp.u_a_thin.conj().T
        assert np.linalg.norm(lhs - rhs) < 1e-9 * max(np.linalg.norm(rhs), 1.0)
        assert sol.relay_power_used == pytest.approx(pb.p2, rel=1e-8)
        assert sol.relay_power_used == pytest.approx(sp.beta @ wf.x, rel=1e-8)
        assert np.linalg.matrix_rank(sol.x_matrix) <= sp.rho


def _eager_power(x, c):
    # the trace assemble_rtm and naf_rtm used to compute before returning
    return (x @ c @ x.conj().swapaxes(-1, -2)).trace(axis1=-2, axis2=-1).real


class TestRelayPowerOnRead:
    """``relay_power_used`` is computed from X and the memoized shaping
    matrix when read, with the bits of the trace the solvers computed
    eagerly, for one network, a plain stack and a sweep chunk's broadcast
    stack."""

    def _check(self, solver, ch, dims):
        pb = canonical_budget(dims)
        sol = solver(ch, pb, dims)
        c = _shaping_matrix(ch, pb, dims)
        # the solution holds the read-only array memoized on ch, not a copy
        assert sol.c_matrix is c and not c.flags.writeable
        power, expected = sol.relay_power_used, _eager_power(sol.x_matrix, c)
        assert type(power) is type(expected)
        assert np.shape(power) == np.shape(expected) == sol.x_matrix.shape[:-2]
        assert np.asarray(power).tobytes() == np.asarray(expected).tobytes()
        np.testing.assert_allclose(power, pb.p2, rtol=1e-8)
        return power

    @pytest.mark.parametrize("solver", [optimize_capacity_rtm, optimize_ostbc_rtm, naf_rtm])
    @pytest.mark.parametrize("dims", [Dims(4, 4, 4, 4), Dims(3, 2, 4, 3)])
    def test_lone_solve_gives_numpy_float64(self, solver, dims):
        ch = scaled_channels(np.random.default_rng(5), dims, rho0_db=10.0)
        assert type(self._check(solver, ch, dims)) is np.float64

    @pytest.mark.parametrize("solver", [optimize_capacity_rtm, optimize_ostbc_rtm, naf_rtm])
    def test_plain_stack(self, solver):
        dims, rng = Dims(4, 4, 4, 4), np.random.default_rng(6)
        ch = ChannelSet(*(crandn(rng, (5, rows, cols)) for rows, cols in ((4, 4), (4, 4), (4, 4))))
        assert self._check(solver, ch, dims).shape == (5,)

    @pytest.mark.parametrize("solver", [optimize_capacity_rtm, optimize_ostbc_rtm, naf_rtm])
    @pytest.mark.parametrize("swept", ["h0", "h1", "h2"])
    def test_broadcast_chunk_stack(self, solver, swept):
        # the swept matrix is (trials, points, ...), the others (trials, 1, ...)
        dims, rng = Dims(3, 2, 4, 3), np.random.default_rng(7)
        shapes = {"h0": (dims.r, dims.t), "h1": (dims.s, dims.t), "h2": (dims.r, dims.u)}
        ch = ChannelSet(**{
            name: crandn(rng, (3, 4 if name == swept else 1) + shape) for name, shape in shapes.items()
        })
        self._check(solver, ch, dims)


class TestOptimize:
    def test_scalar_capacity_value(self):
        dims, ch = scalar_network()
        pb = PowerBudget(1.0, 2.0)
        sol = optimize_capacity_rtm(ch, pb, dims)
        rep = capacity(ch, pb, dims, sol.x_matrix)
        assert rep.bits == pytest.approx(np.log2(1.5), abs=1e-12)

    def test_dead_relay_propagates(self):
        dims = Dims(1, 1, 1, 1)
        ch = ChannelSet(h0=np.ones((1, 1)), h1=np.ones((1, 1)), h2=np.zeros((1, 1)))
        with pytest.warns(UserWarning):
            with pytest.raises(DeadRelayError):
                optimize_capacity_rtm(ch, PowerBudget(1.0, 1.0), dims)

    def test_beats_random_challengers(self):
        rng = np.random.default_rng(555)
        dims = Dims(4, 4, 4, 4)
        ch = scaled_channels(rng, dims, rho0_db=10.0)
        pb = PowerBudget(float(dims.t), 4.0)
        sol = optimize_capacity_rtm(ch, pb, dims)
        best = capacity(ch, pb, dims, sol.x_matrix).bits
        c = sol.spectra.c_matrix
        for _ in range(200):
            z = crandn(rng, (dims.u, dims.s))
            power = float(np.real(np.trace(z @ c @ z.conj().T)))
            z *= np.sqrt(pb.p2 / power)
            assert capacity(ch, pb, dims, z).bits <= best + 1e-9

    def test_monotone_in_relay_budget(self):
        rng = np.random.default_rng(808)
        dims = Dims(3, 3, 3, 3)
        ch = scaled_channels(rng, dims, rho0_db=5.0)
        caps = []
        for p2 in np.linspace(0.25, 12.0, 10):
            sol = optimize_capacity_rtm(ch, PowerBudget(3.0, float(p2)), dims)
            caps.append(capacity(ch, PowerBudget(3.0, float(p2)), dims, sol.x_matrix).bits)
        assert np.all(np.diff(caps) >= -1e-12)

    def test_kkt_residuals_of_solver_output(self):
        rng = np.random.default_rng(321)
        dims = Dims(4, 4, 4, 4)
        for _ in range(20):
            ch = scaled_channels(rng, dims, rho0_db=10.0)
            pb = canonical_budget(dims)
            sol = optimize_capacity_rtm(ch, pb, dims)
            rep = verify_kkt_capacity(sol.spectra.alpha, sol.spectra.beta, pb.p2, sol.wf)
            assert rep.stationarity_residual < 1e-8
            assert rep.complementary_slackness < 1e-8
            assert rep.primal_feasibility < 1e-8 * max(pb.p2, 1.0)
            assert rep.dual_feasibility < 1e-8

    def test_convexity_no_feasible_perturbation_improves(self):
        rng = np.random.default_rng(99)
        dims = Dims(4, 4, 4, 4)
        ch = scaled_channels(rng, dims, rho0_db=10.0)
        pb = canonical_budget(dims)
        sol = optimize_capacity_rtm(ch, pb, dims)
        alpha, beta = sol.spectra.alpha, sol.spectra.beta

        def objective(x):
            return -np.sum(np.log(1.0 - alpha / (1.0 + x)))

        base = objective(sol.wf.x)
        for _ in range(100):
            delta = rng.standard_normal(alpha.size)
            delta *= 0.1 * rng.random() / np.linalg.norm(delta)
            trial = np.maximum(sol.wf.x + delta, 0.0)
            used = float(beta @ trial)
            if used > pb.p2 and used > 0:
                trial *= pb.p2 / used
            assert objective(trial) >= base - 1e-9

    def test_receive_factor_rotation_never_helps(self):
        # with the mode powers fixed, any other semi-unitary receive-side
        # factor gives at most the same capacity
        rng = np.random.default_rng(404)
        dims = Dims(4, 4, 4, 4)
        ch = scaled_channels(rng, dims, rho0_db=10.0)
        pb = canonical_budget(dims)
        sol = optimize_capacity_rtm(ch, pb, dims)
        sp, wf = sol.spectra, sol.wf
        best = capacity(ch, pb, dims, sol.x_matrix).bits
        idx = np.flatnonzero(wf.x > 0)
        scale = np.sqrt(wf.x[idx] / sp.lam_b_thin[idx])
        for _ in range(50):
            q, _ = np.linalg.qr(crandn(rng, (dims.s, dims.s)))
            v = q[:, : idx.size]
            challenger = (sp.u_b_thin[:, idx] * scale) @ v.conj().T
            assert capacity(ch, pb, dims, challenger).bits <= best + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(31415)
        dims = Dims(3, 2, 4, 3)
        ch = scaled_channels(rng, dims, rho0_db=0.0)
        pb = canonical_budget(dims)
        a = optimize_capacity_rtm(ch, pb, dims)
        b = optimize_capacity_rtm(ch, pb, dims)
        np.testing.assert_array_equal(a.x_matrix, b.x_matrix)
        np.testing.assert_array_equal(a.wf.x, b.wf.x)
