import itertools

import numpy as np
import pytest

from helpers import canonical_budget, scaled_channels, scalar_network
from oracles import oracle_solve, rearrangement_bounds
from relay_rtm.errors import DeadRelayError, ValidationError
from relay_rtm.evaluate import naf_rtm, ostbc_capacity
from relay_rtm.matalg import herm_eig, hermitian_part
from relay_rtm.network import ChannelSet, Dims, PowerBudget
from relay_rtm.opt_capacity import optimize_capacity_rtm
from relay_rtm.opt_ostbc import (
    activation_thresholds,
    build_ostbc_spectra,
    optimize_ostbc_rtm,
    waterfill_ostbc,
)


class TestBuildSpectra:
    def test_scalar_network_hand_values(self):
        # gain matrix H1 H1^H = 1, B = 1, C = 2
        dims, ch = scalar_network()
        sp = build_ostbc_spectra(ch, PowerBudget(1.0, 1.0), dims)
        np.testing.assert_allclose(sp.alpha, [1.0])
        np.testing.assert_allclose(sp.beta, [2.0])
        assert sp.variant == "ostbc"

    def test_zero_first_hop(self):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.eye(2), h1=np.zeros((2, 2)), h2=np.eye(2))
        with pytest.warns(UserWarning):
            sp = build_ostbc_spectra(ch, PowerBudget(2.0, 2.0), dims)
        np.testing.assert_array_equal(sp.alpha, np.zeros(2))

    def test_alpha_matches_independent_eigendecomposition(self):
        rng = np.random.default_rng(17)
        dims = Dims(4, 4, 4, 4)
        ch = scaled_channels(rng, dims, rho0_db=10.0)
        sp = build_ostbc_spectra(ch, canonical_budget(dims), dims)
        ref = herm_eig(hermitian_part(ch.h1 @ ch.h1.conj().T)).eigenvalues
        np.testing.assert_allclose(sp.alpha, ref[: sp.rho], atol=1e-12)

    def test_dead_second_hop_raises(self):
        dims = Dims(1, 1, 1, 1)
        ch = ChannelSet(h0=np.ones((1, 1)), h1=np.ones((1, 1)), h2=np.zeros((1, 1)))
        with pytest.warns(UserWarning):
            with pytest.raises(DeadRelayError):
                build_ostbc_spectra(ch, PowerBudget(1.0, 1.0), dims)


class TestWaterfill:
    def test_two_mode_hand_solution(self):
        wf = waterfill_ostbc(np.array([1.0, 1.0]), np.array([1.0, 4.0]), 3.0)
        assert wf.xi == pytest.approx(8.0 / 3.0, rel=1e-14)
        np.testing.assert_allclose(wf.x, [5.0 / 3.0, 1.0 / 3.0], rtol=1e-14)
        assert np.array([1.0, 4.0]) @ wf.x == pytest.approx(3.0, rel=1e-14)

    def test_zero_budget(self):
        wf = waterfill_ostbc(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 0.0)
        np.testing.assert_array_equal(wf.x, np.zeros(2))
        assert np.ones(2) @ wf.x == 0.0

    def test_all_zero_gains_no_water(self):
        wf = waterfill_ostbc(np.zeros(2), np.ones(2), 4.0)
        assert wf.xi is None
        assert not (wf.x > 0.0).any()

    def test_budget_exact_property(self):
        # the per-segment solve is closed form: no iteration error at all
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho = int(rng.integers(1, 7))
            alpha = np.sort(rng.uniform(0.0, 30.0, rho))[::-1]
            beta = rng.uniform(0.05, 10.0, rho)
            p2 = float(rng.uniform(0.0, 40.0))
            if not np.any(alpha > 0):
                continue
            wf = waterfill_ostbc(alpha, beta, p2)
            assert beta @ wf.x == pytest.approx(p2, rel=1e-12, abs=1e-12)

    def test_scaling_covariance(self):
        # scaling beta and the budget by c leaves x fixed, xi gains sqrt(c)
        rng = np.random.default_rng(6)
        alpha = np.sort(rng.uniform(0.1, 5.0, 4))[::-1]
        beta = rng.uniform(0.2, 3.0, 4)
        p2 = 7.0
        base = waterfill_ostbc(alpha, beta, p2)
        for _ in range(20):
            c = float(rng.uniform(0.05, 50.0))
            scaled = waterfill_ostbc(alpha, c * beta, c * p2)
            np.testing.assert_allclose(scaled.x, base.x, rtol=1e-10, atol=1e-12)
            assert scaled.xi == pytest.approx(np.sqrt(c) * base.xi, rel=1e-10)

    def test_random_problems_against_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            alpha = np.sort(rng.uniform(0.0, 4.0, 4))[::-1]
            beta = rng.uniform(0.1, 5.0, 4)
            p2 = float(rng.uniform(0.5, 15.0))
            wf = waterfill_ostbc(alpha, beta, p2)
            obj = float(np.sum(alpha / (1.0 + wf.x)))
            _, oracle_obj = oracle_solve("ostbc", alpha, beta, p2, grid_step=1e-3)
            assert abs(obj - oracle_obj) < 1e-6

    def test_mode_powers_nonincreasing_for_bundle_spectra(self):
        # the OSTBC gain matrix and the shaping matrix share eigenvectors,
        # so sorted gains force sorted mode powers
        rng = np.random.default_rng(8)
        dims = Dims(4, 4, 4, 4)
        for k in range(50):
            rho0 = 10.0 if k % 2 else None
            ch = scaled_channels(rng, dims, rho0_db=rho0)
            sp = build_ostbc_spectra(ch, canonical_budget(dims), dims)
            wf = waterfill_ostbc(sp.alpha, sp.beta, float(dims.u))
            assert np.all(np.diff(wf.x) <= 1e-9 * max(float(wf.x.max()), 1.0))

    def test_input_validation(self):
        cases = [
            ([1.0], [1.0], -2.0),
            ([-1.0], [1.0], 2.0),
            ([np.nan, 0.5], [1.0, 1.0], 2.0),
            ([np.inf, 0.5], [1.0, 1.0], 2.0),
            ([[1.0, 0.5], [np.inf, 0.5]], [[1.0, 1.0], [1.0, 1.0]], 2.0),
            ([1.0], [np.inf], 2.0),
            ([1.0], [1.0], True),
            ([1.0], [1.0], "2"),
        ]
        for alpha, beta, p2 in cases:
            with pytest.raises(ValidationError):
                waterfill_ostbc(np.array(alpha), np.array(beta), p2)


class TestOptimize:
    def test_scalar_pipeline(self):
        dims, ch = scalar_network()
        pb = PowerBudget(1.0, 2.0)
        sol = optimize_ostbc_rtm(ch, pb, dims)
        assert sol.wf.xi == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)
        np.testing.assert_allclose(sol.wf.x, [1.0], rtol=1e-12)
        np.testing.assert_allclose(sol.x_matrix, [[1.0]], rtol=1e-12)
        assert sol.kind == "opt2"

    def test_zero_first_hop_gives_zero_matrix(self):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.eye(2), h1=np.zeros((2, 2)), h2=np.eye(2))
        with pytest.warns(UserWarning):
            sol = optimize_ostbc_rtm(ch, PowerBudget(2.0, 2.0), dims)
        assert not np.any(sol.x_matrix)

    def test_dominates_on_its_own_objective(self):
        rng = np.random.default_rng(909)
        dims = Dims(4, 4, 4, 4)
        pb = canonical_budget(dims)
        for k in range(25):
            rho0 = 10.0 if k % 2 else None
            ch = scaled_channels(rng, dims, rho0_db=rho0)
            best = ostbc_capacity(
                ch, pb, dims, optimize_ostbc_rtm(ch, pb, dims).x_matrix
            ).bits
            rival_1 = ostbc_capacity(
                ch, pb, dims, optimize_capacity_rtm(ch, pb, dims).x_matrix
            ).bits
            rival_n = ostbc_capacity(ch, pb, dims, naf_rtm(ch, pb, dims).x_matrix).bits
            assert best >= rival_1 - 1e-9
            assert best >= rival_n - 1e-9

    def test_power_equality(self):
        rng = np.random.default_rng(910)
        dims = Dims(3, 2, 4, 3)
        ch = scaled_channels(rng, dims, rho0_db=0.0)
        pb = canonical_budget(dims)
        sol = optimize_ostbc_rtm(ch, pb, dims)
        assert sol.relay_power_used == pytest.approx(pb.p2, rel=1e-8)

    def test_pairing_permutations_never_beat_identity(self):
        # assigning the modes to other second-hop eigenvalues (the cost
        # numerator stays glued to its gain's eigenvector) and re-solving
        # can only raise the optimal trace objective
        rng = np.random.default_rng(911)
        dims = Dims(4, 4, 4, 4)
        pb = canonical_budget(dims)
        for k in range(8):
            rho0 = 10.0 if k % 2 else None
            ch = scaled_channels(rng, dims, rho0_db=rho0)
            sp = build_ostbc_spectra(ch, pb, dims)
            cost_num = sp.beta * sp.lam_b_thin[: sp.rho]
            wf = waterfill_ostbc(sp.alpha, sp.beta, pb.p2)
            base = float(np.sum(sp.alpha / (1.0 + wf.x)))
            for perm in itertools.permutations(range(sp.rho)):
                beta_perm = cost_num / sp.lam_b_thin[list(perm)]
                wf_p = waterfill_ostbc(sp.alpha, beta_perm, pb.p2)
                val = float(np.sum(sp.alpha / (1.0 + wf_p.x)))
                assert val >= base - 1e-9


class TestRearrangementBounds:
    def test_three_term_extremes(self):
        lower, upper = rearrangement_bounds(np.array([3.0, 2.0, 1.0]), np.array([3.0, 2.0, 1.0]))
        assert (lower, upper) == (10.0, 14.0)

    def test_constant_sequence_collapses(self):
        assert rearrangement_bounds(np.array([1.0, 1.0]), np.array([5.0, 0.0])) == (5.0, 5.0)
        assert rearrangement_bounds(np.array([2.0, 0.0]), np.array([1.0, 1.0])) == (2.0, 2.0)

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError, match="nonincreasing"):
            rearrangement_bounds(np.array([1.0, 2.0]), np.array([2.0, 1.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            rearrangement_bounds(np.array([1.0, -1.0]), np.array([2.0, 1.0]))

    def test_exhaustive_permutation_property(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            a = np.sort(rng.uniform(0.0, 10.0, n))[::-1]
            b = np.sort(rng.uniform(0.0, 10.0, n))[::-1]
            lower, upper = rearrangement_bounds(a, b)
            for perm in itertools.permutations(range(n)):
                val = float(a @ b[list(perm)])
                assert lower - 1e-12 <= val <= upper + 1e-12


def test_thresholds():
    thr = activation_thresholds(np.array([4.0, 0.0]), np.array([1.0, 1.0]))
    assert thr[0] == pytest.approx(0.5)
    assert np.isinf(thr[1])
