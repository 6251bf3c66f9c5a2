"""Output checks and operation accounting of the relay-rtm benchmark.

An operation is one solve of one transform kind plus the evaluations of
its X: one (realization, kind), or in a sweep one (trial, point, kind).
It fails when the program raises a RelayRtmError or when its output fails
a check.  A run is incorrect when an output is wrong by the program's own
gates: a sweep CSV off its reference or not the same for every worker
count, a non-finite figure, or relay power off p2 by more than acceptance
criterion 7 allows.
"""

from __future__ import annotations

import csv
import io
import math

#: Relative tolerance of a sweep CSV value against its reference.
REFERENCE_RTOL = 1e-12
#: Relative tolerance of relay_power_used against the relay budget p2 for
#: an operation to pass.
POWER_RTOL = 1e-9
#: The program's own power-equality gate (acceptance criterion 7): power
#: further off p2 than this is a wrong output.
POWER_GATE_RTOL = 1e-8

_FLOAT_COLUMNS = ("sweep_db", "mean_bits", "stderr_bits")


def _rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def check_sweep_csv(csv_text: str, spec) -> list[str]:
    """Problems with a sweep CSV: row count, trial counts, finiteness."""
    rows = _rows(csv_text)
    problems = []
    expected = len(spec.sweep_points_db) * len(spec.rtm_kinds) * len(spec.metrics)
    if len(rows) != expected:
        problems.append(f"{len(rows)} CSV rows, expected {expected}")
    for row in rows:
        if int(row["trials"]) != spec.trials:
            problems.append(f"row {row} reports {row['trials']} trials, expected {spec.trials}")
        if not all(math.isfinite(float(row[c])) for c in _FLOAT_COLUMNS):
            problems.append(f"row {row} has a non-finite value")
    return problems


def compare_reference(csv_text: str, reference_text: str, rtol: float = REFERENCE_RTOL) -> list[str]:
    """Rows of a sweep CSV that differ from the reference: labels and trial
    counts exactly, numbers by more than ``rtol`` relative."""
    rows, refs = _rows(csv_text), _rows(reference_text)
    if len(rows) != len(refs):
        return [f"{len(rows)} CSV rows, reference has {len(refs)}"]
    problems = []
    for row, ref in zip(rows, refs):
        same = all(row[c] == ref[c] for c in ("rtm", "metric", "trials")) and all(
            abs(float(row[c]) - float(ref[c])) <= rtol * abs(float(ref[c])) for c in _FLOAT_COLUMNS
        )
        if not same:
            problems.append(f"row {dict(row)} differs from reference {dict(ref)}")
    return problems


def check_result(p2: float, power, bits) -> list[tuple[str, bool]]:
    """Problems with one solved kind of a realization, each with whether it
    is a wrong output."""
    problems = []
    error = abs(power - p2) / p2
    if not error <= POWER_RTOL:
        problems.append((f"relay_power_used {power!r} is {error:.3g} relative off p2 {p2!r}", not error <= POWER_GATE_RTOL))
    if not all(math.isfinite(b) for b in bits):
        problems.append((f"non-finite figure in {bits!r}", True))
    return problems


class Tally:
    """Attempted and failed operations of one run.  Each failure is listed
    once as (seed, where, kind, reason); a failed sweep is one entry."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.wrong_outputs = 0
        self.failures = []

    def _fail(self, where: str, kind: str, reason: str, ops: int, wrong: bool) -> None:
        self.failed += ops
        self.wrong_outputs += wrong
        self.failures.append((self.seed, where, kind, reason))

    def realization(self, r, p2: float, results) -> None:
        """Count the operations of one solved realization."""
        for kind, power, bits, error in results:
            self.attempted += 1
            if error is not None:
                self._fail(f"realization {r.index}", kind, f"{type(error).__name__}: {error}", 1, False)
                continue
            problems = check_result(p2, power, bits)
            if problems:
                reason = "; ".join(message for message, _ in problems)
                self._fail(f"realization {r.index}", kind, reason, 1, any(wrong for _, wrong in problems))

    def sweep(self, where: str, spec, error=None, problems=()) -> None:
        """Count the operations of one sweep; all of them fail when it
        raised or its output failed a check."""
        ops = spec.trials * len(spec.sweep_points_db) * len(spec.rtm_kinds)
        self.attempted += ops
        if error is not None:
            self._fail(where, "all", f"{type(error).__name__}: {error}", ops, False)
        elif problems:
            self._fail(where, "all", "; ".join(problems), ops, True)
