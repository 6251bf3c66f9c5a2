"""Timed parts of the relay-rtm benchmark: set-up probes, sweep
repetitions, closed-loop realizations, and the traced run."""

from __future__ import annotations

import contextlib
import io
import itertools
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import spans
import workloads
from manifest import nproc
from relay_rtm import cli, montecarlo
from relay_rtm.errors import RelayRtmError

HERE = Path(__file__).resolve().parent

#: Realizations per timed block of the closed loop.
BLOCK = 32
#: Passes over each block of the timed closed loop; a realization's latency
#: is its fastest solve, which drops preemption that hits a single pass.
LATENCY_REPEATS = 3
#: Timed blocks whose latency percentile is taken together and scaled by
#: the calibration units around them: 256 realizations, so that at least ten
#: lie beyond the 95th percentile.
LATENCY_CHUNK_BLOCKS = 8
#: Fewest repetitions or blocks of each timed part, whatever --seconds says.
MIN_SAMPLES = 4
#: One-trial sweeps in the coverage pass of a traced run.
COVERAGE_SWEEPS = 8
#: Realization and sweep numbers of the coverage pass, apart from the timed ones.
COVERAGE_FIRST_INDEX = 1 << 30
#: Realizations of the high-SNR probe of a traced run, and the first of
#: their numbers.
HIGH_SNR_PROBE = 128
HIGH_SNR_FIRST_INDEX = 1 << 31
#: Matrices in one calibration unit.
CALIBRATION_MATRICES = 256
#: Calibration units on each side of a sample that scale it.
CALIBRATION_WINDOW = 4
#: Median seconds of one calibration unit on the reference host (Intel Xeon,
#: 2 vCPUs, numpy 2.4 with OpenBLAS 0.3.31), where the benchmark was defined.
CALIBRATION_REFERENCE_S = 0.008


def setup_seconds(workload, seed) -> float:
    """Seconds from starting a fresh interpreter to the set-up probe's
    'ready' line."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode} after {line!r}")
    return seconds


def sweep_once(spec, workers, tally, where, expected=None, rtol=0.0):
    """Time one run_sweep call, then check and tally its CSV, against
    ``expected`` CSV text within ``rtol`` when given.  Returns the seconds
    (None when the sweep raised) and the CSV text."""
    t0 = time.perf_counter()
    try:
        points = montecarlo.run_sweep(spec, workers=workers)
    except RelayRtmError as exc:
        tally.sweep(where, spec, error=exc)
        return None, None
    seconds = time.perf_counter() - t0
    buf = io.StringIO()
    cli.write_csv(points, buf)
    text = buf.getvalue()
    problems = checks.check_sweep_csv(text, spec)
    if expected is not None:
        problems += checks.compare_reference(text, expected, rtol)
    tally.sweep(where, spec, problems=problems)
    return seconds, text


def check_reference(workload, spec, tally) -> None:
    """The config's own seed at the reduced trial count, against the CSV
    captured when the benchmark was defined."""
    reference = (HERE / "reference" / f"{workload.name}.csv").read_text()
    sweep_once(spec, 1, tally, f"reference sweep seed={spec.seed}", reference, checks.REFERENCE_RTOL)


def interleave(parts, seconds, between) -> None:
    """Run one unit of whichever part is furthest behind its share of the
    time, until ``seconds`` are spent and every part ran MIN_SAMPLES units.
    ``parts`` maps a function that runs one unit to its share; ``between``
    runs before the first unit and after every unit.  Interleaved parts see
    the same stretches of machine load."""
    units, shares = list(parts), list(parts.values())
    spent, runs = [0.0] * len(units), [0] * len(units)
    between()
    while sum(spent) < seconds or min(runs) < MIN_SAMPLES:
        i = min(range(len(units)), key=lambda j: spent[j] / shares[j])
        t0 = time.perf_counter()
        units[i]()
        spent[i] += time.perf_counter() - t0
        runs[i] += 1
        between()


class Loop:
    """Closed-loop single realizations of one workload, numbered from one
    counter so that every realization of a run is distinct."""

    def __init__(self, spec, seed, tally, first_index=0):
        self.spec, self.seed, self.tally = spec, seed, tally
        self.next_index = first_index

    def inputs(self, count):
        first, self.next_index = self.next_index, self.next_index + count
        return [workloads.realization(self.spec, self.seed, i) for i in range(first, first + count)]

    def _tally(self, inputs, outputs):
        for r, (p2, results) in zip(inputs, outputs):
            self.tally.realization(r, p2, results)

    def block(self, tracer=None, inputs=None, repeats=1):
        """One caller solves ``inputs``, by default BLOCK new realizations,
        in turn, in ``repeats`` passes; returns for each the wall-clock
        seconds of its first solve and the fewest process CPU seconds of
        any."""
        inputs = self.inputs(BLOCK) if inputs is None else inputs
        walls, cpus = [[] for _ in inputs], [[] for _ in inputs]
        with tracer or contextlib.nullcontext():
            for _ in range(repeats):
                outputs = []
                for r, wall, cpu in zip(inputs, walls, cpus):
                    t0, c0 = time.perf_counter(), time.process_time()
                    outputs.append(workloads.solve(r))
                    wall.append(time.perf_counter() - t0)
                    cpu.append(time.process_time() - c0)
        times = [(wall[0], min(cpu)) for wall, cpu in zip(walls, cpus)]
        self._tally(inputs, outputs)
        return times

    def parallel_round(self, pool, callers):
        """``callers`` threads solve BLOCK realizations each; returns
        realizations per second of wall time."""
        chunks = [self.inputs(BLOCK) for _ in range(callers)]
        t0 = time.perf_counter()
        outputs = list(pool.map(lambda chunk: [workloads.solve(r) for r in chunk], chunks))
        rate = BLOCK * callers / (time.perf_counter() - t0)
        for chunk, out in zip(chunks, outputs):
            self._tally(chunk, out)
        return rate


class Calibration:
    """A fixed numpy workload, independent of the program, whose speed
    tracks the host's: small complex eigendecompositions, solves, log-dets
    and products, the operations the program spends its time on.

    The host's speed drifts by tens of percent within seconds, so a timed
    sample is scaled by the host slowdown measured by the calibration units
    run around it.  A median over a few units on each side keeps a single
    disturbed unit from scaling a sample."""

    def __init__(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((2, CALIBRATION_MATRICES, 4, 4))
        z = z[0] + 1j * z[1]
        self.matrices = list(z @ z.conj().transpose(0, 2, 1) + np.eye(4))
        self.seconds = []

    def unit(self) -> None:
        t0 = time.perf_counter()
        for m in self.matrices:
            w, v = np.linalg.eigh(m)
            np.linalg.solve(m, v)
            np.linalg.slogdet(m)
            m @ v
        self.seconds.append(time.perf_counter() - t0)

    def mark(self) -> int:
        """Index of the calibration unit before the sample about to be taken."""
        return len(self.seconds) - 1

    def slowdown_around(self, marks) -> float:
        """Median time of the calibration units just before and just after
        the samples ``marks``, over their time on the reference host."""
        around = [x for mark in marks for x in self.seconds[max(0, mark):mark + 2]]
        return statistics.median(around) / CALIBRATION_REFERENCE_S

    def slowdown(self, mark=None) -> float:
        """Median time of the CALIBRATION_WINDOW calibration units on either
        side of sample ``mark`` (of all units when None), over their time
        on the reference host."""
        around = self.seconds if mark is None else self.seconds[max(0, mark + 1 - CALIBRATION_WINDOW):mark + 1 + CALIBRATION_WINDOW]
        return statistics.median(around) / CALIBRATION_REFERENCE_S


def chunked_percentile(blocks, q, calibration=None) -> float:
    """Median over chunks of LATENCY_CHUNK_BLOCKS consecutive timed blocks
    (a short last chunk joins the one before) of the ``q``-th percentile of
    their samples, each scaled by the calibration units around its blocks
    when ``calibration`` is given.  ``blocks`` holds (calibration mark,
    samples).  A burst of host load moves the chunks it lands in, not the
    median."""
    n = LATENCY_CHUNK_BLOCKS
    chunks = [blocks[i:i + n] for i in range(0, len(blocks), n)]
    if len(chunks) > 1 and len(chunks[-1]) < n:
        chunks[-2] += chunks.pop()
    values = []
    for chunk in chunks:
        value = float(np.percentile([x for _, samples in chunk for x in samples], q))
        if calibration is not None:
            value /= calibration.slowdown_around([mark for mark, _ in chunk])
        values.append(value)
    return statistics.median(values)


def end_to_end(workload, spec, seed, seconds, tally):
    """Untraced timed parts, interleaved, with a calibration unit between
    any two units.  Returns ({metric: (value, sample count)}, {metric:
    note}, host slowdown of the run).  Times and rates are scaled to the
    reference host; the raw figures go into the notes.

    Solve latency is process CPU time, not wall-clock time, whose tail on a
    VM is preemption.  Even CPU time stretches while the host takes the CPU
    away, so each block is solved in LATENCY_REPEATS passes and a
    realization's latency is its fastest solve; a percentile is the median
    over chunks of consecutive blocks, each scaled by the calibration units
    around it (``chunked_percentile``)."""
    calibration = Calibration()
    setup = []  # (seconds, calibration mark)
    single, parallel = [], []  # (trials per second, calibration mark) with one and nproc callers
    latencies = []  # (calibration mark, CPU seconds of each realization) per block
    loop = Loop(spec, seed, tally)
    loop.block()  # warm-up
    calibration.unit()  # warm-up
    calibration.seconds.clear()
    reps = itertools.count()

    def probe():
        mark = calibration.mark()
        setup.append((setup_seconds(workload, seed), mark))

    def closed_loop():
        mark = calibration.mark()
        times = loop.block(repeats=LATENCY_REPEATS)
        latencies.append((mark, [cpu for _, cpu in times]))
        if spec is None:
            single.append((len(times) / sum(wall for wall, _ in times), mark))

    def sweeps():
        """One fresh sweep seed, run with one worker and with nproc workers,
        whose CSV must equal the one-worker CSV."""
        mark = calibration.mark()
        rep_spec = replace(spec, seed=workloads.sweep_seed(seed, next(reps)))
        where = f"sweep seed={rep_spec.seed}"
        dt, text = sweep_once(rep_spec, 1, tally, where + " workers=1")
        if dt is not None:
            single.append((spec.trials / dt, mark))
            dt, _ = sweep_once(rep_spec, nproc(), tally, where + f" workers={nproc()}", text)
            if dt is not None:
                parallel.append((spec.trials / dt, mark))

    with ThreadPoolExecutor(max_workers=nproc()) as pool:

        def callers():
            mark = calibration.mark()
            parallel.append((loop.parallel_round(pool, nproc()), mark))

        if spec is not None:
            check_reference(workload, spec, tally)
            parts = {sweeps: 0.45, closed_loop: 0.45, probe: 0.1}
        else:
            parts = {closed_loop: 0.55, callers: 0.35, probe: 0.1}
        interleave(parts, seconds, calibration.unit)

    def scaled(samples, is_rate):
        return [x * calibration.slowdown(m) if is_rate else x / calibration.slowdown(m) for x, m in samples]

    values, notes = {}, {}
    for name, samples, is_rate in (
        ("setup_s", setup, False),
        ("trials_per_s", single, True),
        ("trials_per_s_nproc", parallel, True),
    ):
        values[name] = (statistics.median(scaled(samples, is_rate)), len(samples))
        notes[name] = f"raw {statistics.median(x for x, _ in samples):.9g}"
    for name, q in (("solve_p50_us", 50), ("solve_p95_us", 95)):
        count = sum(len(samples) for _, samples in latencies)
        values[name] = (chunked_percentile(latencies, q, calibration) * 1e6, count)
        notes[name] = f"raw {chunked_percentile(latencies, q) * 1e6:.9g}"
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return values, notes, calibration.slowdown()


def _layer_value(quantity, tracer, fn, trials):
    calls, inclusive, own = tracer.stats[fn]
    if quantity == "us_per_call":
        value = inclusive / calls * 1e6
    elif quantity == "calls_per_trial":
        value = calls / trials
    elif quantity == "self_us_per_trial":
        value = own / trials * 1e6
    elif quantity == "self_share":
        value = own / inclusive
    elif quantity == "budget_evals_per_solve":
        value = tracer.budget_evals / calls
    else:
        raise ValueError(f"no per-layer quantity {quantity!r}")
    return value, calls


def high_snr_probe(seed):
    """Mix realizations with every per-link SNR on ``workloads.HIGH_SNR_DB``,
    where the program fails some operations (ROADMAP item 4).  They are a
    measurement, not operations of the workload: the failures go into their
    own tally.  Returns that tally and the largest capacity-form gap."""
    tally, tracer = checks.Tally(seed), spans.Tracer()
    inputs = [
        workloads.realization(None, seed, HIGH_SNR_FIRST_INDEX + i, workloads.HIGH_SNR_DB)
        for i in range(HIGH_SNR_PROBE)
    ]
    Loop(None, seed, tally).block(tracer, inputs)
    return tally, tracer.form_gap_max_bits()


def per_layer(workload, spec, seed, seconds, tally, names):
    """The one-caller loop on the same inputs untraced and traced, in
    turn, then the coverage pass and the high-SNR probe.  Returns ({metric: (value, sample count)},
    {metric: note}, [metrics of functions the workload did not reach])."""
    main, coverage = spans.Tracer(), spans.Tracer()
    ratios = []  # traced over untraced time of the same inputs
    traced_trials = 0
    loop = Loop(spec, seed, tally)
    loop.block()  # warm-up
    if spec is not None:
        check_reference(workload, spec, tally)
    pairs = itertools.count()

    def pair():
        """The same inputs untraced and traced, in alternating order."""
        nonlocal traced_trials
        index = next(pairs)
        if spec is not None:
            rep_spec = replace(spec, seed=workloads.sweep_seed(seed, index))
        else:
            inputs = loop.inputs(BLOCK)
        taken = {}
        for traced in (index % 2 == 1, index % 2 == 0):
            if spec is not None:
                with main if traced else contextlib.nullcontext():
                    dt, _ = sweep_once(rep_spec, 1, tally, f"sweep seed={rep_spec.seed} traced={traced}")
                trials = spec.trials
            else:
                dt, trials = sum(wall for wall, _ in loop.block(main if traced else None, inputs)), len(inputs)
            if dt is not None:
                taken[traced] = dt
                traced_trials += trials * traced
        if len(taken) == 2:
            ratios.append(taken[True] / taken[False])

    interleave({pair: 1.0}, seconds, lambda: None)

    cover = Loop(spec, seed, tally, first_index=COVERAGE_FIRST_INDEX)
    with coverage:
        for i, r in enumerate(cover.inputs(COVERAGE_SWEEPS)):
            cspec = workloads.coverage_spec(r, workloads.sweep_seed(seed, COVERAGE_FIRST_INDEX + i))
            sweep_once(cspec, 1, tally, f"coverage sweep {i} seed={cspec.seed}")

    probe, probe_gap = high_snr_probe(seed)
    probe_note = (f"high-SNR probe, per-link SNR {workloads.HIGH_SNR_DB[0]:g} to {workloads.HIGH_SNR_DB[1]:g} dB: "
                  f"{probe.failed} of {probe.attempted} operations failed, not counted in attempted/failed")

    values, notes, missing = {}, {}, []
    for name in names:
        if name == "evaluate.high_snr_fail_share":
            values[name] = (probe.failed / probe.attempted, probe.attempted)
            notes[name] = probe_note
        elif name == "evaluate.high_snr_form_gap_max_bits":
            values[name] = (probe_gap, probe.attempted)
            notes[name] = probe_note
        elif name == "trace.overhead_share":
            values[name] = (statistics.median(ratios) - 1.0, len(ratios))
        elif name == "evaluate.form_gap_max_bits":
            if main.form_pairs:
                values[name] = (main.form_gap_max_bits(), len(main.form_pairs))
            else:
                missing.append(name)
        else:
            module, func, quantity = name.split(".")
            fn = f"{module}.{func}"
            if fn in workload.expected:
                tracer, trials = main, traced_trials
            else:
                tracer, trials = coverage, COVERAGE_SWEEPS
                notes[name] = "from the coverage pass"
            if tracer.stats[fn][0] == 0:
                missing.append(name)
            else:
                values[name] = _layer_value(quantity, tracer, fn, trials)
    return values, notes, missing
