import contextlib
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import relay_rtm
from helpers import edited_sampler
from relay_rtm.errors import DeadRelayError, DeadRelayWarning, NumericalError, ValidationError
from relay_rtm.evaluate import capacity, naf_rtm
from relay_rtm.matalg import hermitian_part
from relay_rtm.montecarlo import _CHUNK_TRIALS, CurvePoint, SweepSpec, _chunk_values, _pcg64_states, run_sweep, sample_channels
from relay_rtm.network import ChannelSet, Dims, SnrScenario, translate_scenario
from relay_rtm.opt_capacity import RtmSolution, optimize_capacity_rtm
from relay_rtm.opt_ostbc import optimize_ostbc_rtm


def _spec(**kw):
    dims = kw.pop("dims", Dims(2, 2, 2, 2))
    scenario = SnrScenario(
        rho0_db=kw.pop("rho0_db", 0.0),
        rho1_db=kw.pop("rho1_db", 10.0),
        rho2_db=kw.pop("rho2_db", 10.0),
        dims=dims,
        direct_link_enabled=kw.pop("direct_link", False),
    )
    base = dict(
        scenario=scenario,
        sweep_axis="rho2",
        sweep_points_db=(0.0, 10.0),
        rtm_kinds=("opt1", "naf"),
        metrics=("capacity",),
        trials=4,
        seed=11,
    )
    base.update(kw)
    return SweepSpec(**base)


def _assert_numpy_stream(ch, index, dims, seed, trial):
    """Member ``index`` of ``ch`` is trial ``trial`` of ``seed``: each
    matrix drawn in turn from NumPy's generator of SeedSequence(entropy=seed,
    spawn_key=(trial,)), real parts then imaginary parts."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    for name, shape in (("h0", (dims.r, dims.t)), ("h1", (dims.s, dims.t)), ("h2", (dims.r, dims.u))):
        z = rng.standard_normal((2, *shape))
        assert getattr(ch, name)[index].tobytes() == ((z[0] + 1j * z[1]) / np.sqrt(2.0)).tobytes()


class TestSampleChannels:
    def test_deterministic_per_trial(self):
        dims = Dims(2, 3, 4, 2)
        a = sample_channels(dims, seed=1, trial_index=0)
        b = sample_channels(dims, seed=1, trial_index=0)
        np.testing.assert_array_equal(a.h0, b.h0)
        np.testing.assert_array_equal(a.h1, b.h1)
        np.testing.assert_array_equal(a.h2, b.h2)

    def test_trials_differ(self):
        dims = Dims(2, 2, 2, 2)
        a = sample_channels(dims, seed=1, trial_index=0)
        b = sample_channels(dims, seed=1, trial_index=1)
        assert not np.allclose(a.h1, b.h1)

    def test_seeds_differ(self):
        dims = Dims(2, 2, 2, 2)
        a = sample_channels(dims, seed=1, trial_index=0)
        b = sample_channels(dims, seed=2, trial_index=0)
        assert not np.allclose(a.h1, b.h1)

    def test_unit_variance(self):
        dims = Dims(10, 10, 10, 10)
        acc = []
        for trial in range(400):
            ch = sample_channels(dims, seed=3, trial_index=trial)
            acc.append(np.abs(ch.h0) ** 2)
            acc.append(np.abs(ch.h1) ** 2)
            acc.append(np.abs(ch.h2) ** 2)
        mean_power = float(np.mean(acc))  # 120k entries
        assert mean_power == pytest.approx(1.0, abs=0.02)

    def test_shapes_follow_dims(self):
        dims = Dims(1, 2, 3, 4)
        ch = sample_channels(dims, seed=0, trial_index=0)
        assert ch.h0.shape == (2, 1)
        assert ch.h1.shape == (3, 1)
        assert ch.h2.shape == (2, 4)

    def test_stream_is_pinned(self):
        # every sweep's figures rest on these draws
        ch = sample_channels(Dims(2, 3, 4, 5), 7, 3)
        expected = {
            ("h0", 0, 0): ("-0x1.6fbec8913a126p-1", "0x1.7a17000129642p-4"),
            ("h0", 2, 1): ("-0x1.864d5c38acca9p-2", "0x1.bb76099973f25p+0"),
            ("h1", 3, 1): ("0x1.07d3156dbaaf7p-2", "0x1.6f11ade13ff07p-2"),
            ("h2", 0, 0): ("-0x1.da807ad595c20p-1", "-0x1.51554f991e44cp-1"),
            ("h2", 2, 4): ("-0x1.726854dacd954p-1", "0x1.8e280a55d4033p-3"),
        }
        for (name, i, j), (re, im) in expected.items():
            entry = getattr(ch, name)[i, j]
            assert (entry.real, entry.imag) == (float.fromhex(re), float.fromhex(im))

    @pytest.mark.parametrize(
        "seed,trial_index,named",
        [
            (7.5, 0, "seed"),
            (True, 0, "seed"),
            (-1, 0, "seed"),
            ("7", 0, "seed"),
            (7, 2.0, "trial_index"),
            (7, False, "trial_index"),
            (7, -3, "trial_index"),
            (7, range(-1, 2), "trial_index"),
        ],
    )
    def test_rejects_bad_seed_and_trials(self, seed, trial_index, named):
        # 7.5 and True used to run as seeds 7 and 1, and a negative value
        # raised numpy's bare ValueError
        bad = seed if named == "seed" else (trial_index.start if isinstance(trial_index, range) else trial_index)
        with pytest.raises(ValidationError, match=f"{named} must be an integer >= 0, got {re.escape(repr(bad))}"):
            sample_channels(Dims(2, 2, 2, 2), seed, trial_index)

    def test_numpy_integers_are_counts(self):
        dims = Dims(2, 2, 2, 2)
        a = sample_channels(dims, np.int64(3), np.int32(1))
        b = sample_channels(dims, 3, 1)
        assert all(np.array_equal(getattr(a, n), getattr(b, n)) for n in ("h0", "h1", "h2"))

    def test_stack_members_match_single_draws(self):
        dims = Dims(2, 3, 4, 5)
        stack = sample_channels(dims, 7, range(5, 9))
        assert (stack.h0.shape, stack.h1.shape, stack.h2.shape) == ((4, 3, 2), (4, 4, 2), (4, 3, 5))
        for i, trial in enumerate(range(5, 9)):
            alone = sample_channels(dims, 7, trial)
            for name in ("h0", "h1", "h2"):
                assert np.array_equal(getattr(stack, name)[i], getattr(alone, name))

    @pytest.mark.parametrize("dims", [Dims(1, 1, 1, 1), Dims(2, 3, 4, 5), Dims(8, 8, 8, 8)])
    def test_one_draw_per_trial_matches_one_draw_per_matrix(self, dims):
        stack = sample_channels(dims, 11, range(3))
        for trial in range(3):
            _assert_numpy_stream(stack, trial, dims, 11, trial)

    # 1, 2, 5 and 7 words of seed
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**128 + 3, 2**200 + 12345])
    @pytest.mark.parametrize(
        "trials",
        [
            0, 1, 63, 64, 2**32 - 1, 2**32, 2**64,
            range(65),
            range(70, 0, -7),
            # one spawn word to two, and two to three
            range(2**32 - 2, 2**32 + 2),
            range(2**64 - 1, 2**64 + 1),
        ],
    )
    def test_each_trial_draws_numpys_spawned_stream(self, seed, trials):
        # the chunk's streams are seeded at once; each must stay the stream
        # of SeedSequence(entropy=seed, spawn_key=(trial,))
        dims = Dims(2, 3, 4, 5)
        drawn = sample_channels(dims, seed, trials)
        if isinstance(trials, range):
            for i, trial in enumerate(trials):
                _assert_numpy_stream(drawn, i, dims, seed, trial)
        else:
            _assert_numpy_stream(drawn, (), dims, seed, trials)

    @pytest.mark.parametrize("words", range(1, 14))
    def test_states_are_seed_sequence_states(self, words):
        # a seed of exactly `words` 32-bit words; trials of one to four words
        seed = int.from_bytes(bytes(range(1, 4 * words + 1)), "little")
        trials = [0, 1, 2**32 - 1, 2**32, 5, 2**64, 2**96 + 5, 3]
        states = _pcg64_states(seed, trials)
        assert states.dtype == np.uint64 and states.shape == (len(trials), 4)
        for state, trial in zip(states, trials):
            assert state.tolist() == np.random.SeedSequence(seed, spawn_key=(trial,)).generate_state(4, np.uint64).tolist()
        assert _pcg64_states(seed, []).shape == (0, 4)


class TestSweepSpecValidation:
    def test_accepts_lists(self):
        spec = _spec(sweep_points_db=[0, 5], rtm_kinds=["opt1"], metrics=["capacity"])
        assert spec.sweep_points_db == (0.0, 5.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(trials=0),
            dict(trials=2.5),
            dict(sweep_axis="rho3"),
            dict(sweep_points_db=()),
            dict(sweep_points_db=(10.0, 0.0)),
            dict(sweep_points_db=(np.inf,)),
            dict(rtm_kinds=()),
            dict(rtm_kinds=("opt9",)),
            dict(metrics=("bps",)),
            dict(symbol_rate=0.0),
            dict(seed="seven"),
            dict(seed=-1),
            dict(trials=True),
            dict(seed=True),
            dict(sweep_points_db=(None,)),
            dict(sweep_points_db=("x",)),
            dict(symbol_rate="1"),
            dict(sweep_axis="rho0"),  # with the direct link off
            # repeats would write a (sweep_db, rtm, metric) row twice
            dict(sweep_points_db=(0.0, 0.0)),
            dict(sweep_points_db=(0, 0.0, 10.0)),
            dict(rtm_kinds=("opt1", "opt1")),
            dict(rtm_kinds=("opt1", "naf", "opt1")),
            dict(metrics=("capacity", "capacity")),
            # a linear power 10^(dB/10) that overflows float64
            dict(sweep_points_db=(0.0, 4000.0)),
            dict(sweep_points_db=(10**400,)),
            dict(rho1_db=4000.0),
            # not a sequence: these raised a bare TypeError
            dict(rtm_kinds=5),
            dict(metrics=None),
            dict(sweep_points_db=5),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValidationError):
            _spec(**kw)

    def test_rho0_axis_needs_the_direct_link(self):
        # without the link rho0 scales nothing, so the sweep is refused
        with pytest.raises(ValidationError, match="sweep_axis 'rho0'"):
            _spec(sweep_axis="rho0", direct_link=False)


class TestRunSweep:
    def test_single_trial_matches_direct_computation(self):
        spec = _spec(trials=1, sweep_points_db=(10.0,), rtm_kinds=("opt1",))
        [point] = run_sweep(spec)
        raw = sample_channels(spec.scenario.dims, spec.seed, 0)
        ch, pb = translate_scenario(spec.scenario, raw)
        sol = optimize_capacity_rtm(ch, pb, spec.scenario.dims)
        expected = capacity(ch, pb, spec.scenario.dims, sol.x_matrix).bits
        assert point.mean_bits == expected
        assert point.stderr_bits == 0.0
        assert point.trials == 1

    def test_point_grid_complete_and_ordered(self):
        spec = _spec(metrics=("capacity", "ostbc"))
        points = run_sweep(spec)
        assert len(points) == 2 * 2 * 2
        keys = [(p.sweep_value_db, p.rtm_kind, p.metric) for p in points]
        assert keys[0] == (0.0, "opt1", "capacity")
        assert len(set(keys)) == len(keys)
        assert all(isinstance(p, CurvePoint) for p in points)

    def test_worker_count_invariance(self):
        # two chunks, so that workers=4 runs them on two processes
        spec = _spec(trials=_CHUNK_TRIALS + 5, dims=Dims(3, 3, 3, 3))
        serial = run_sweep(spec, workers=1)
        pooled = run_sweep(spec, workers=4)
        for a, b in zip(serial, pooled):
            assert a == b  # dataclass equality: bit-identical floats

    def test_lone_chunk_runs_inline(self, monkeypatch):
        # one chunk has nothing to spread over workers: no pool is started
        def no_pool():
            raise AssertionError("a pool was started for one chunk")

        monkeypatch.setattr("relay_rtm.montecarlo._pool_context", no_pool)
        spec = _spec(trials=_CHUNK_TRIALS)
        assert run_sweep(spec, workers=4) == run_sweep(spec, workers=1)

    @staticmethod
    def _dead_h1_in_second_chunk(monkeypatch):
        # a dead h1 is legal: it warns and does not raise
        def channels(trial, raw):
            if trial == _CHUNK_TRIALS + 2:
                return ChannelSet(h0=raw.h0, h1=np.zeros_like(raw.h1), h2=raw.h2)
            return raw

        monkeypatch.setattr("relay_rtm.montecarlo.sample_channels", edited_sampler(channels))

    def test_pooled_warnings_reach_the_caller(self, monkeypatch):
        # the caller sees the same warnings from pooled chunks as inline
        self._dead_h1_in_second_chunk(monkeypatch)
        spec = _spec(trials=_CHUNK_TRIALS + 5)
        seen = {}
        for workers in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                points = run_sweep(spec, workers=workers)
            seen[workers] = points, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        assert [(c, m) for c, m, _, _ in seen[1][1]] == [(DeadRelayWarning, "relay path dead: h1 is identically zero")]
        assert seen[2] == seen[1]

    def test_only_a_chunk_that_warned_reruns_in_the_caller(self, monkeypatch):
        # workers hand back values only; the caller computes a chunk again
        # only when its worker saw a warning or an error
        spec = _spec(trials=_CHUNK_TRIALS + 5)
        calls = []

        def counted(spec, trials):
            calls.append(trials)
            return _chunk_values(spec, trials)

        monkeypatch.setattr("relay_rtm.montecarlo._chunk_values", counted)
        run_sweep(spec, workers=2)
        assert calls == []
        self._dead_h1_in_second_chunk(monkeypatch)
        with pytest.warns(DeadRelayWarning):
            pooled = run_sweep(spec, workers=2)
        assert calls == [range(_CHUNK_TRIALS, _CHUNK_TRIALS + 5)]
        with pytest.warns(DeadRelayWarning):
            assert pooled == run_sweep(spec, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warnings_as_errors_raise_from_pooled_chunks(self, monkeypatch, workers):
        self._dead_h1_in_second_chunk(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeadRelayWarning, match="relay path dead: h1 is identically zero"):
                run_sweep(_spec(trials=_CHUNK_TRIALS + 5), workers=workers)

    @pytest.mark.parametrize("axis", ["rho0", "rho1", "rho2"])
    def test_sweep_never_reads_relay_power(self, monkeypatch, axis):
        # a sweep reports metrics of X alone, so it never computes the trace
        spec = _spec(
            dims=Dims(3, 2, 4, 3), direct_link=True, sweep_axis=axis, sweep_points_db=(0.0, 10.0, 20.0),
            rtm_kinds=("opt1", "opt2", "naf"), metrics=("capacity", "ostbc"), trials=3,
        )
        expected = _chunk_values(spec, range(3))

        def unread(sol):
            raise AssertionError("a sweep read relay_power_used")

        monkeypatch.setattr(RtmSolution, "relay_power_used", property(unread))
        got = _chunk_values(spec, range(3))
        assert got.shape == (3, 3, 3, 2)
        assert got.tobytes() == expected.tobytes()

    def test_rerun_identical(self):
        spec = _spec(trials=3)
        assert run_sweep(spec) == run_sweep(spec)

    def test_optimizer_dominates_naive_baseline(self):
        spec = _spec(trials=30, dims=Dims(4, 4, 4, 4), sweep_points_db=(0.0, 10.0, 20.0))
        points = run_sweep(spec)
        by_key = {(p.sweep_value_db, p.rtm_kind): p.mean_bits for p in points}
        for db in (0.0, 10.0, 20.0):
            assert by_key[(db, "opt1")] >= by_key[(db, "naf")]

    def test_common_randomness_across_points(self):
        # the same fading draw underlies every sweep point of a trial
        spec = _spec(trials=1, sweep_points_db=(0.0, 30.0), rtm_kinds=("opt1",))
        points = run_sweep(spec)
        raw = sample_channels(spec.scenario.dims, spec.seed, 0)
        for p in points:
            scn = SnrScenario(
                rho0_db=spec.scenario.rho0_db,
                rho1_db=spec.scenario.rho1_db,
                rho2_db=p.sweep_value_db,
                dims=spec.scenario.dims,
                direct_link_enabled=False,
            )
            ch, pb = translate_scenario(scn, raw)
            sol = optimize_capacity_rtm(ch, pb, spec.scenario.dims)
            assert p.mean_bits == capacity(ch, pb, spec.scenario.dims, sol.x_matrix).bits

    def test_per_trial_first_hop_ceiling(self):
        # every transform's capacity sits below the trial's first-hop
        # information ceiling, realization by realization
        spec = _spec(trials=8, dims=Dims(4, 4, 4, 4), rtm_kinds=("opt1", "opt2", "naf"))
        dims = spec.scenario.dims
        for trial in range(spec.trials):
            raw = sample_channels(dims, spec.seed, trial)
            for point in spec.sweep_points_db:
                scn = SnrScenario(
                    spec.scenario.rho0_db,
                    spec.scenario.rho1_db,
                    point,
                    dims,
                    direct_link_enabled=spec.scenario.direct_link_enabled,
                )
                ch, pb = translate_scenario(scn, raw)
                arg = np.eye(dims.t) + (pb.p1 / dims.t) * (
                    ch.h0.conj().T @ ch.h0 + ch.h1.conj().T @ ch.h1
                )
                ceiling = np.linalg.slogdet(hermitian_part(arg))[1] / np.log(2.0)
                for builder in (optimize_capacity_rtm, optimize_ostbc_rtm, naf_rtm):
                    sol = builder(ch, pb, dims)
                    assert capacity(ch, pb, dims, sol.x_matrix).bits <= ceiling + 1e-9

    def test_high_second_hop_snr_reaches_first_hop_ceiling(self):
        # at very large relay->destination SNR the relay stops being the
        # bottleneck: every transform's mean capacity sits within 0.1 bit
        # of the mean first-hop information ceiling
        dims = Dims(4, 4, 4, 4)
        spec = _spec(
            dims=dims,
            trials=300,
            rho2_db=50.0,
            sweep_points_db=(50.0,),
            rtm_kinds=("opt1", "opt2", "naf"),
        )
        points = run_sweep(spec, workers=2)
        ceilings = []
        for trial in range(spec.trials):
            raw = sample_channels(dims, spec.seed, trial)
            ch, pb = translate_scenario(spec.scenario, raw)
            arg = np.eye(dims.t) + (pb.p1 / dims.t) * (
                ch.h0.conj().T @ ch.h0 + ch.h1.conj().T @ ch.h1
            )
            ceilings.append(np.linalg.slogdet(hermitian_part(arg))[1] / np.log(2.0))
        ceiling_mean = float(np.mean(ceilings))
        for p in points:
            assert abs(p.mean_bits - ceiling_mean) < 0.1
            assert p.mean_bits <= ceiling_mean + 1e-9

    @pytest.mark.parametrize("failure", ["dead_relay", "capacity_forms"])
    def test_dead_relay_aborts_with_context(self, monkeypatch, failure):
        # a per-trial failure keeps its type and names (seed, trial, axis, point)
        if failure == "dead_relay":
            def dead_channels(trial, raw):
                return ChannelSet(
                    h0=np.zeros_like(raw.h0),
                    h1=np.ones_like(raw.h1),
                    h2=np.zeros_like(raw.h2),
                )

            monkeypatch.setattr("relay_rtm.montecarlo.sample_channels", edited_sampler(dead_channels))
            error, warned = DeadRelayError, pytest.warns(UserWarning)
        else:
            def disagreeing_forms(*args, **kwargs):
                raise NumericalError("capacity forms disagree: 1.0 vs 2.0 bits")

            monkeypatch.setattr("relay_rtm.evaluate.capacity", disagreeing_forms)
            error, warned = NumericalError, contextlib.nullcontext()
        spec = _spec(trials=2)
        with warned:
            with pytest.raises(error, match=r"trial 0 \(seed 11\) at rho2=0.0 dB: "):
                run_sweep(spec)

    def test_singular_solve_at_extreme_snr_names_its_member(self):
        # at 1000 dB the relay path overflows and its solve meets a singular
        # system; the kernel's error is a NumericalError, so the replay
        # names the first failing problem instead of numpy escaping bare
        spec = SweepSpec(
            SnrScenario(10, 10, 0, Dims(2, 2, 4, 4), direct_link_enabled=False),
            "rho2", (1000.0,), ("opt1", "opt2", "naf"), ("capacity", "ostbc"), trials=8, seed=0,
        )
        with pytest.raises(NumericalError, match=r"^trial \d+ \(seed 0\) at rho2=1000.0 dB: "):
            run_sweep(spec)

    def test_stacked_eigenvalue_overflow_names_its_member(self):
        # near 3080 dB the second hop's eigenvalues, scaled to the point,
        # overflow float64 in the chunk's (trial x point) stack; the replay
        # names the first member that overflows alone
        spec = _spec(trials=3, rtm_kinds=("opt1", "opt2"), sweep_points_db=(0.0, 3080.0))
        with pytest.raises(ValidationError, match=rf"^trial 0 \(seed {spec.seed}\) at rho2=3080.0 dB: matrix eigenvalues overflow float64$"):
            run_sweep(spec)

    def test_naf_alone_survives_a_rank_zero_second_hop(self):
        # at -150 dB H2^H H2 has numerical rank 0: no mode of an eigen-based
        # kind can be served, but NAF needs no factorization of it
        spec = _spec(trials=2, rtm_kinds=("naf",), sweep_points_db=(-150.0, 0.0))
        assert all(np.isfinite(p.mean_bits) for p in run_sweep(spec))
        with pytest.raises(DeadRelayError, match=r"at rho2=-150.0 dB: "):
            run_sweep(replace(spec, rtm_kinds=("naf", "opt2")))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_first_failing_problem_is_named(self, monkeypatch, workers):
        # trials 1 and 3 of the first chunk and one trial of the second are
        # dead; the error names the first of them, at the first point
        def channels(trial, raw):
            if trial in (1, 3, _CHUNK_TRIALS + 1):
                return ChannelSet(h0=raw.h0, h1=raw.h1, h2=np.zeros_like(raw.h2))
            return raw

        monkeypatch.setattr("relay_rtm.montecarlo.sample_channels", edited_sampler(channels))
        with pytest.warns(UserWarning):
            with pytest.raises(DeadRelayError, match=r"^trial 1 \(seed 11\) at rho2=0.0 dB: "):
                run_sweep(_spec(trials=_CHUNK_TRIALS + 5), workers=workers)

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True, "2"])
    def test_rejects_bad_worker_count(self, workers):
        with pytest.raises(ValidationError, match=rf"workers must be an integer >= 1, got {re.escape(repr(workers))}"):
            run_sweep(_spec(), workers=workers)

    def test_vanishing_direct_link_matches_disabled_link(self):
        # a -40 dB direct link is indistinguishable from none at curve scale
        base = dict(dims=Dims(3, 3, 3, 3), trials=20, sweep_points_db=(0.0, 10.0), rtm_kinds=("opt1",))
        off = run_sweep(_spec(**base))
        faint = run_sweep(_spec(**base, direct_link=True, rho0_db=-40.0))
        for a, b in zip(off, faint):
            assert abs(a.mean_bits - b.mean_bits) < 0.01
            assert b.mean_bits >= a.mean_bits  # extra observation never hurts

    def test_symbol_rate_flows_into_ostbc_metric(self):
        full = _spec(trials=2, metrics=("ostbc",), rtm_kinds=("opt2",))
        half = _spec(trials=2, metrics=("ostbc",), rtm_kinds=("opt2",), symbol_rate=0.5)
        bits_full = [p.mean_bits for p in run_sweep(full)]
        bits_half = [p.mean_bits for p in run_sweep(half)]
        assert all(h < f for h, f in zip(bits_half, bits_full))


def test_import_loads_no_process_pool():
    # the pool's modules are imported by the first sweep that uses them:
    # importing them costs a noticeable share of the package's start-up time
    src = str(Path(relay_rtm.__file__).resolve().parents[1])
    code = "import relay_rtm, sys; print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
