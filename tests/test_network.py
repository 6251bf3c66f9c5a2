import copy
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import canonical_budget, count_calls, crandn, db_to_lin, scaled_channels
from relay_rtm import evaluate, matalg, network, opt_capacity
from relay_rtm.errors import DeadRelayError, DeadRelayWarning, ValidationError
from relay_rtm.evaluate import capacity, naf_rtm, ostbc_capacity
from relay_rtm.network import (
    ChannelSet,
    Dims,
    PowerBudget,
    SnrScenario,
    translate_scenario,
    validate,
)
from relay_rtm.opt_capacity import optimize_capacity_rtm
from relay_rtm.opt_ostbc import optimize_ostbc_rtm
from test_waterfill_paths import _MIX_SHAPES


def _raw(rng, dims):
    return ChannelSet(
        h0=crandn(rng, (dims.r, dims.t)),
        h1=crandn(rng, (dims.s, dims.t)),
        h2=crandn(rng, (dims.r, dims.u)),
    )


class TestTypes:
    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 1.5, 1), (1, 1, True, 1)])
    def test_dims_rejects_bad_counts(self, bad):
        with pytest.raises(ValidationError):
            Dims(*bad)

    def test_channelset_coerces_complex(self):
        ch = ChannelSet(h0=np.eye(2), h1=np.eye(2), h2=np.eye(2))
        assert ch.h0.dtype == complex

    def test_channelset_rejects_vectors(self):
        with pytest.raises(ValidationError):
            ChannelSet(h0=np.ones(2), h1=np.eye(2), h2=np.eye(2))

    @pytest.mark.parametrize(
        "bad",
        ["a", [[1, "x"]], [[object()]], [[1.0], [1.0, 2.0]], [["1"]], [[b"1"]], np.array([[b"2"]], dtype=object)],
    )
    def test_channelset_rejects_non_numeric_entries(self, bad):
        with pytest.raises(ValidationError, match="^h1 must hold numbers"):
            ChannelSet(h0=np.eye(2), h1=bad, h2=np.eye(2))

    @pytest.mark.parametrize("p1,p2", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (np.inf, 1.0)])
    def test_power_budget_bounds(self, p1, p2):
        with pytest.raises(ValidationError):
            PowerBudget(p1, p2)

    def test_snr_scenario_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            SnrScenario(np.nan, 0.0, 0.0, Dims(1, 1, 1, 1))

    @pytest.mark.parametrize("field,p1,p2", [("p1", "1", 2.0), ("p1", True, 2.0), ("p2", 1.0, True), ("p2", 1.0, None)])
    def test_power_budget_rejects_non_numbers(self, field, p1, p2):
        bad = p1 if field == "p1" else p2
        with pytest.raises(ValidationError, match=rf"power {field} must be a finite number .* got {bad!r}$"):
            PowerBudget(p1, p2)

    @pytest.mark.parametrize("field", ["rho0_db", "rho1_db", "rho2_db"])
    @pytest.mark.parametrize("bad", ["1", True, None])
    def test_snr_scenario_rejects_non_numbers(self, field, bad):
        snrs = {"rho0_db": 0.0, "rho1_db": 0.0, "rho2_db": 0.0, field: bad}
        with pytest.raises(ValidationError, match=rf"^{field} must be a finite number, got {bad!r}$"):
            SnrScenario(**snrs, dims=Dims(1, 1, 1, 1))

    @pytest.mark.parametrize("field", ["rho0_db", "rho1_db", "rho2_db"])
    @pytest.mark.parametrize("bad", [3082.6, 4000, np.float64(4000.0), np.int64(5000)])
    def test_snr_scenario_rejects_overflowing_linear_power(self, field, bad):
        # 10^(dB/10) overflows float64 above about 3082.5 dB; _amplitude
        # raised a bare OverflowError there
        snrs = {"rho0_db": 0.0, "rho1_db": 0.0, "rho2_db": 0.0, field: bad}
        with pytest.raises(ValidationError, match=rf"^{field} .* dB overflows float64 as a linear power"):
            SnrScenario(**snrs, dims=Dims(1, 1, 1, 1))

    @pytest.mark.parametrize("field", ["rho0_db", "rho1_db", "rho2_db"])
    @pytest.mark.parametrize("bad", [10**400, -(10**400)])
    def test_snr_scenario_rejects_integers_beyond_float64(self, field, bad):
        snrs = {"rho0_db": 0.0, "rho1_db": 0.0, "rho2_db": 0.0, field: bad}
        with pytest.raises(ValidationError, match=rf"^{field} must be a finite number, got -?10+$"):
            SnrScenario(**snrs, dims=Dims(1, 1, 1, 1))

    @pytest.mark.parametrize("db", [3082.5, 3082, -4000.0])
    def test_snr_scenario_accepts_every_power_that_fits(self, db):
        dims = Dims(1, 1, 1, 1)
        raw = ChannelSet(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        ch, _ = translate_scenario(SnrScenario(0.0, db, 0.0, dims), raw)
        assert np.isfinite(ch.h1).all()

    @pytest.mark.parametrize("field", ["p1", "p2"])
    @pytest.mark.parametrize("bad", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_power_budget_rejects_integers_beyond_float64(self, field, bad):
        # math.isfinite raised a bare OverflowError here
        powers = {"p1": 1.0, "p2": 1.0, field: bad}
        with pytest.raises(ValidationError, match=rf"^\w+ power {field} must be a finite number"):
            PowerBudget(**powers)

    @pytest.mark.parametrize("bad", ["no", 0, 1, None])
    def test_snr_scenario_rejects_a_link_flag_that_is_not_a_bool(self, bad):
        # "no" used to turn the direct link on
        with pytest.raises(ValidationError, match=rf"^direct_link_enabled must be True or False, got {bad!r}$"):
            SnrScenario(0.0, 10.0, 10.0, Dims(1, 1, 1, 1), direct_link_enabled=bad)

    def test_numpy_scalars_are_numbers(self):
        assert PowerBudget(np.float64(1.0), np.int64(2)).p2 == 2
        assert SnrScenario(np.float64(3.0), np.int64(0), 0, Dims(1, 1, 1, 1)).rho0_db == 3.0


class TestValidate:
    def test_consistent_set_ok(self):
        rng = np.random.default_rng(0)
        dims = Dims(2, 2, 2, 2)
        validate(dims, _raw(rng, dims), PowerBudget(2.0, 2.0))

    def test_shape_error_names_matrix(self):
        rng = np.random.default_rng(0)
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=crandn(rng, (2, 2)), h1=crandn(rng, (3, 2)), h2=crandn(rng, (2, 2)))
        with pytest.raises(ValidationError, match="h1"):
            validate(dims, ch, PowerBudget(2.0, 2.0))

    def test_dead_relay_is_warning_not_error(self):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.eye(2), h1=np.eye(2), h2=np.zeros((2, 2)))
        with pytest.warns(DeadRelayWarning, match="h2"):
            validate(dims, ch, PowerBudget(2.0, 2.0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda ch, pb, dims: validate(dims, ch, pb),
            optimize_capacity_rtm,
            naf_rtm,
            lambda ch, pb, dims: ostbc_capacity(ch, pb, dims, np.eye(2), 1.0),
        ],
        ids=["validate", "opt1", "naf", "ostbc_capacity"],
    )
    def test_dead_relay_warning_names_the_caller(self, call):
        # a filter on the caller's module matches it
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.eye(2), h1=np.zeros((2, 2)), h2=np.eye(2))
        with pytest.warns(DeadRelayWarning, match="h1") as record:
            call(ch, PowerBudget(2.0, 2.0), dims)
        assert [w.filename for w in record] == [__file__]

    def test_nonfinite_rejected(self):
        dims = Dims(1, 1, 1, 1)
        ch = ChannelSet(h0=[[np.inf]], h1=[[1.0]], h2=[[1.0]])
        with pytest.raises(ValidationError, match="h0"):
            validate(dims, ch, PowerBudget(1.0, 1.0))

    def test_both_relay_hops_dead_warn_separately(self):
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=np.eye(2), h1=np.zeros((2, 2)), h2=np.zeros((2, 2)))
        with pytest.warns(DeadRelayWarning) as record:
            validate(dims, ch, PowerBudget(2.0, 2.0))
        texts = [str(w.message) for w in record]
        assert any("h1" in t for t in texts) and any("h2" in t for t in texts)

    def test_translate_rejects_mismatched_raw(self):
        rng = np.random.default_rng(1)
        dims = Dims(2, 2, 2, 2)
        raw = _raw(rng, Dims(3, 3, 3, 3))
        with pytest.raises(ValidationError):
            translate_scenario(SnrScenario(0.0, 0.0, 0.0, dims), raw)

    def test_batch_axes_broadcast(self):
        rng = np.random.default_rng(2)
        dims = Dims(2, 3, 4, 2)
        ch = ChannelSet(
            h0=crandn(rng, (2, 3, 3, 2)), h1=crandn(rng, (2, 1, 4, 2)), h2=crandn(rng, (3, 2))
        )
        validate(dims, ch, canonical_budget(dims))
        scaled, _ = translate_scenario(SnrScenario(0.0, 10.0, 20.0, dims), ch)
        assert [h.shape[:-2] for h in (scaled.h0, scaled.h1, scaled.h2)] == [(2, 3), (2, 1), ()]

    def test_batch_axes_that_do_not_broadcast(self):
        rng = np.random.default_rng(3)
        dims = Dims(2, 2, 2, 2)
        ch = ChannelSet(h0=crandn(rng, (2, 3, 2, 2)), h1=crandn(rng, (4, 2, 2)), h2=crandn(rng, (2, 2)))
        names = r"h0 \(2, 3, 2, 2\), h1 \(4, 2, 2\) and h2 \(2, 2\) do not broadcast"
        with pytest.raises(ValidationError, match=names):
            validate(dims, ch, PowerBudget(2.0, 2.0))
        with pytest.raises(ValidationError, match=names):
            translate_scenario(SnrScenario(0.0, 0.0, 0.0, dims), ch)


class TestTranslate:
    def test_unit_snr_is_identity(self):
        rng = np.random.default_rng(5)
        dims = Dims(2, 3, 4, 2)
        raw = _raw(rng, dims)
        scn = SnrScenario(0.0, 0.0, 0.0, dims)
        ch, pb = translate_scenario(scn, raw)
        np.testing.assert_array_equal(ch.h0, raw.h0)
        np.testing.assert_array_equal(ch.h1, raw.h1)
        np.testing.assert_array_equal(ch.h2, raw.h2)
        assert pb.p1 == dims.t and pb.p2 == dims.u

    def test_direct_link_disabled_zeroes_h0(self):
        rng = np.random.default_rng(6)
        dims = Dims(2, 2, 2, 2)
        raw = _raw(rng, dims)
        scn = SnrScenario(30.0, 0.0, 0.0, dims, direct_link_enabled=False)
        ch, _ = translate_scenario(scn, raw)
        assert not np.any(ch.h0)

    def test_snr_homogeneity(self):
        # doubling the linear first-hop SNR scales h1 by sqrt(2)
        rng = np.random.default_rng(7)
        dims = Dims(2, 2, 2, 2)
        raw = _raw(rng, dims)
        base = SnrScenario(0.0, 3.0, 5.0, dims)
        doubled = SnrScenario(0.0, 3.0 + 10.0 * np.log10(2.0), 5.0, dims)
        ch_a, _ = translate_scenario(base, raw)
        ch_b, _ = translate_scenario(doubled, raw)
        np.testing.assert_allclose(ch_b.h1, np.sqrt(2.0) * ch_a.h1, rtol=1e-12)
        np.testing.assert_array_equal(ch_b.h2, ch_a.h2)

    def test_matches_normalized_capacity_expression(self):
        # The generic engine on translated inputs must reproduce the
        # SNR-only capacity expression evaluated verbatim with the
        # substitution x_check = sqrt(rho1) * x.
        rng = np.random.default_rng(4242)
        m = 4
        dims = Dims(m, m, m, m)
        h1 = crandn(rng, (m, m))
        h2 = crandn(rng, (m, m))
        raw = ChannelSet(h0=np.zeros((m, m)), h1=h1, h2=h2)
        rho1, rho2 = db_to_lin(10.0), db_to_lin(10.0)
        scn = SnrScenario(0.0, 10.0, 10.0, dims, direct_link_enabled=False)
        ch, pb = translate_scenario(scn, raw)
        sol = optimize_capacity_rtm(ch, pb, dims)
        cap_generic = capacity(ch, pb, dims, sol.x_matrix).bits

        x_check = np.sqrt(rho1) * sol.x_matrix
        k = h2 @ x_check
        gram = np.eye(m) + (rho2 / rho1) * (k @ k.conj().T)
        inner = rho2 * h1.conj().T @ k.conj().T @ np.linalg.inv(gram) @ k @ h1
        arg = np.eye(m) + 0.5 * (inner + inner.conj().T)
        cap_verbatim = np.linalg.slogdet(arg)[1] / np.log(2.0)
        assert abs(cap_generic - cap_verbatim) < 1e-9

        constraint = np.real(
            np.trace(x_check @ (np.eye(m) + rho1 * (h1 @ h1.conj().T)) @ x_check.conj().T)
        )
        assert constraint == pytest.approx(m * rho1, rel=1e-8)


def test_helpers_consistent_with_translate():
    # scaled_channels mirrors translate_scenario's scaling convention
    dims = Dims(2, 2, 3, 3)
    rng_a = np.random.default_rng(99)
    ch_a = scaled_channels(rng_a, dims, rho0_db=None, rho1_db=10.0, rho2_db=20.0)
    rng_b = np.random.default_rng(99)
    raw = ChannelSet(
        h0=np.zeros((dims.r, dims.t)),
        h1=crandn(rng_b, (dims.s, dims.t)),
        h2=crandn(rng_b, (dims.r, dims.u)),
    )
    scn = SnrScenario(0.0, 10.0, 20.0, dims, direct_link_enabled=False)
    ch_b, pb = translate_scenario(scn, raw)
    np.testing.assert_allclose(ch_a.h1, ch_b.h1)
    np.testing.assert_allclose(ch_a.h2, ch_b.h2)
    assert canonical_budget(dims).p2 == pb.p2


_SOLVERS = {"opt1": optimize_capacity_rtm, "opt2": optimize_ostbc_rtm, "naf": naf_rtm}


def _figures(ch, pb, dims, kind):
    """X, relay power and both metrics' bits of one kind on one network."""
    sol = _SOLVERS[kind](ch, pb, dims)
    x = sol.x_matrix
    return x, sol.relay_power_used, capacity(ch, pb, dims, x).bits, ostbc_capacity(ch, pb, dims, x).bits


def _same(a, b):
    return all(np.array_equal(u, v) for u, v in zip(a, b))


class TestSharedFactors:
    """A ChannelSet builds its network-only factors once, for every solver
    and metric called on it, and figures do not depend on what ran first."""

    @pytest.mark.parametrize("shape", _MIX_SHAPES)
    @pytest.mark.parametrize(
        "order", [("opt1", "opt2", "naf"), ("opt2", "opt1", "naf"), ("naf", "opt2", "opt1")]
    )
    @pytest.mark.parametrize("rho0_db, eigs", [(5.0, 3), (None, 2)], ids=["link", "no-link"])
    def test_realization_factorizes_its_network_once(self, monkeypatch, order, shape, rho0_db, eigs):
        # the counts the benchmark's per-layer metrics read through these
        # module attributes, for every shape of its realization mix: B, A
        # and H1 H1^H are factorized with the direct link, and without it
        # opt1 reads its modes off H1 H1^H's factorization
        dims = Dims(*shape)
        ch = scaled_channels(np.random.default_rng(9), dims, rho0_db=rho0_db)
        pb = canonical_budget(dims)
        fresh = {kind: _figures(ChannelSet(ch.h0, ch.h1, ch.h2), pb, dims, kind) for kind in order}
        traced = (network.validate, matalg.thin_ud, matalg.herm_eig, evaluate.capacity_forms)
        calls = [count_calls(monkeypatch, fn) for fn in traced]
        shared = {kind: _figures(ch, pb, dims, kind) for kind in order}
        assert [len(c) for c in calls] == [1, 1, eigs, 3]
        for kind in order:
            assert _same(shared[kind], fresh[kind]), kind

    def test_memoized_factors_are_read_only_fresh_builds(self):
        # every memo slot hands back one shared, read-only array with the
        # bytes of a fresh build from the matrices
        rng = np.random.default_rng(12)
        dims = Dims(3, 2, 4, 3)
        pb = canonical_budget(dims)
        lone = scaled_channels(rng, dims, rho0_db=5.0)
        stack = ChannelSet(*(np.stack([m, 2.0 * m]) for m in (lone.h0, lone.h1, lone.h2)))
        for ch in (lone, stack):
            h1_gram = matalg.hermitian_part(ch.h1 @ matalg.conj_transpose(ch.h1))
            b = matalg.thin_ud(matalg.hermitian_part(matalg.conj_transpose(ch.h2) @ ch.h2))
            slots = (
                (lambda: network._g0(ch), matalg.conj_transpose(ch.h0) @ ch.h0),
                (lambda: network._h1_gram(ch), h1_gram),
                (lambda: opt_capacity._shaping_matrix(ch, pb, dims), np.eye(dims.s) + (pb.p1 / dims.t) * h1_gram),
                (lambda: opt_capacity._relay_side(ch, pb, dims)[0].u_thin, b.u_thin),
                (lambda: opt_capacity._relay_side(ch, pb, dims)[0].lam_thin, b.lam_thin),
                (lambda: opt_capacity._first_hop(ch).eigenvectors, matalg.herm_eig(h1_gram).eigenvectors),
            )
            for slot, want in slots:
                got = slot()
                assert slot() is got
                assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
                with pytest.raises(ValueError):
                    got[...] = 0.0

    def test_matrices_are_read_only_copies(self):
        rng = np.random.default_rng(10)
        dims = Dims(3, 3, 3, 3)
        given = [crandn(rng, (3, 3)) for _ in range(3)]
        kept = [m.copy() for m in given]
        ch = ChannelSet(*given)
        pb = canonical_budget(dims)
        before = {kind: _figures(ch, pb, dims, kind) for kind in _SOLVERS}
        with pytest.raises(ValueError):
            ch.h0[0, 0] = 1.0
        for m in given:
            m *= 2.0  # the caller's arrays stay theirs to change
        assert all(np.array_equal(getattr(ch, name), m) for name, m in zip(("h0", "h1", "h2"), kept))
        for kind in _SOLVERS:
            assert _same(_figures(ch, pb, dims, kind), before[kind]), kind
            assert _same(_figures(ChannelSet(*kept), pb, dims, kind), before[kind]), kind

    @pytest.mark.parametrize("solver", [optimize_capacity_rtm, optimize_ostbc_rtm])
    def test_shared_factors_come_back_read_only(self, solver):
        dims = Dims(3, 3, 3, 3)
        ch = scaled_channels(np.random.default_rng(11), dims)
        spectra = solver(ch, canonical_budget(dims), dims).spectra
        for arr in (spectra.u_a_thin, spectra.u_b_thin, spectra.c_matrix):
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_concurrent_first_calls_agree(self):
        # the memo takes no lock: callers racing on a fresh instance may
        # each build a factor, and every one gets the lone call's figures
        dims = Dims(4, 4, 4, 4)
        raw = scaled_channels(np.random.default_rng(13), dims, rho0_db=5.0)
        pb = canonical_budget(dims)
        expected = {kind: _figures(raw, pb, dims, kind) for kind in _SOLVERS}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(10):
                    ch = ChannelSet(raw.h0, raw.h1, raw.h2)
                    kinds = 2 * list(_SOLVERS)
                    futures = [pool.submit(_figures, ch, pb, dims, kind) for kind in kinds]
                    for kind, future in zip(kinds, futures):
                        assert _same(future.result(timeout=60), expected[kind]), kind
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("link", [True, False])
    def test_translated_matrices_are_read_only_and_the_raw_ones_untouched(self, link):
        # translate_scenario hands over the arrays it builds without a copy;
        # they must still be read-only and share nothing with the raw draw.
        # A copy or pickle keeps the second hop's record, so it solves bit
        # for bit as the translated network does.  A network built by hand
        # from the same matrices factorizes a^2 B0 itself instead of scaling
        # B0's eigenvalues, so it agrees to rounding: on this draw the worst
        # relative move of X (max entry), relay power and both metrics is
        # 9.1e-16, and the tolerance is 1e-14.
        dims = Dims(3, 2, 3, 2)
        raw = scaled_channels(np.random.default_rng(14), dims, rho0_db=0.0, rho1_db=0.0, rho2_db=0.0)
        kept = [m.copy() for m in (raw.h0, raw.h1, raw.h2)]
        ch, pb = translate_scenario(SnrScenario(3.0, 7.0, -2.0, dims, direct_link_enabled=link), raw)
        for name, m in zip(("h0", "h1", "h2"), kept):
            arr = getattr(ch, name)
            assert arr.dtype == complex and not arr.flags.writeable
            assert not np.shares_memory(arr, getattr(raw, name))
            with pytest.raises(ValueError):
                arr[...] = 0.0
            assert np.array_equal(getattr(raw, name), m)
        by_hand = ChannelSet(ch.h0, ch.h1, ch.h2)
        twins = [copy.copy(ch), copy.deepcopy(ch), pickle.loads(pickle.dumps(ch))]
        for kind in _SOLVERS:
            expected = _figures(ch, pb, dims, kind)
            for twin in twins:
                assert _same(_figures(twin, pb, dims, kind), expected), kind
            x, *scalars = _figures(by_hand, pb, dims, kind)
            assert np.abs(x - expected[0]).max() <= 1e-14 * np.abs(expected[0]).max(), kind
            for got, want in zip(scalars, expected[1:]):
                assert abs(got - want) <= 1e-14 * abs(want), kind

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda ch: pickle.loads(pickle.dumps(ch))])
    def test_a_copy_is_built_anew(self, clone):
        dims = Dims(2, 2, 2, 2)
        ch = scaled_channels(np.random.default_rng(12), dims)
        x = optimize_capacity_rtm(ch, canonical_budget(dims), dims).x_matrix
        twin = clone(ch)
        assert not twin.h1.flags.writeable
        assert np.array_equal(optimize_capacity_rtm(twin, canonical_budget(dims), dims).x_matrix, x)


class TestSecondHopRecord:
    """A translated network records the unit-variance H2 draw it scaled and
    the draw's power gain a^2; the second hop is factorized from the draw,
    and its eigenvalues are scaled by the gain before the rank cut."""

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda ch: pickle.loads(pickle.dumps(ch))])
    def test_the_record_survives_copies(self, clone):
        dims = Dims(3, 2, 3, 2)
        raw = _raw(np.random.default_rng(15), dims)
        lone, pb = translate_scenario(SnrScenario(3.0, 7.0, -2.0, dims), raw)
        a = network._amplitude(-2.0)
        assert lone._h2_draw[0] is raw.h2 and lone._h2_draw[1] == a * a
        # a swept stack: one draw per trial, a gain per point
        gains = np.array([[0.5], [2.0], [8.0]])
        draws = np.stack([raw.h2, 2.0 * raw.h2])[:, None]
        stack = network._owned(
            np.zeros((2, 1, 2, 3), complex), np.stack([raw.h1, raw.h1])[:, None], np.sqrt(gains)[:, :, None] * draws,
            draws, gains,
        )
        for ch in (lone, stack, ChannelSet(raw.h0, raw.h1, raw.h2)):
            twin = clone(ch)
            (draw, gain), (twin_draw, twin_gain) = ch._h2_draw, twin._h2_draw
            assert np.array_equal(twin_draw, draw) and np.array_equal(twin_gain, gain)
            assert not twin_draw.flags.writeable and not twin.h2.flags.writeable
            assert twin._memo == {}
            for kind in _SOLVERS:
                assert _same(_figures(twin, pb, dims, kind), _figures(ch, pb, dims, kind)), kind

    def test_a_network_built_by_hand_is_its_own_draw(self):
        ch = _raw(np.random.default_rng(16), Dims(2, 2, 2, 2))
        assert ch._h2_draw[0] is ch.h2 and ch._h2_draw[1] == 1.0

    @pytest.mark.parametrize("rho2_db", [-3000.0, -400.0, 1000.0, 2000.0, 3000.0, 3082.0])
    @pytest.mark.parametrize("link", [True, False])
    @pytest.mark.parametrize("kind", list(_SOLVERS))
    def test_extreme_second_hop_snrs_keep_their_errors(self, rho2_db, link, kind):
        # scaling B0's eigenvalues by a^2 can overflow where H2's entries
        # do not; a cut of 1e-10 * inf would keep no mode, and a live relay
        # would read as dead.  Every rho2 that SnrScenario accepts finishes
        # or raises what a factorization of the scaled B raises: a
        # DeadRelayError where every eigenvalue falls under the absolute
        # cut 1e-10, a ValidationError where B overflows float64
        overflowed = 0
        for shape in _MIX_SHAPES + [(1, 1, 1, 1), (3, 2, 4, 3)]:
            dims = Dims(*shape)
            for seed in range(3):
                raw = _raw(np.random.default_rng(seed), dims)
                ch, pb = translate_scenario(SnrScenario(10.0, 10.0, rho2_db, dims, direct_link_enabled=link), raw)
                try:
                    _SOLVERS[kind](ch, pb, dims)
                except DeadRelayError:
                    assert kind != "naf" and rho2_db < -100.0
                except ValidationError as exc:
                    assert kind != "naf" and rho2_db == 3082.0, exc
                    assert str(exc) == "matrix eigenvalues overflow float64"
                    overflowed += 1
                else:
                    assert kind == "naf" or rho2_db > 0.0
        if kind != "naf" and rho2_db == 3082.0:
            assert overflowed
