"""The benchmark's reference sweeps, checked in the test suite.

Runs the two sweep workloads of ``benchmarks/workloads.py`` and compares
their CSVs with ``benchmarks/reference/`` by the benchmark's own check, so
that a change that moves a figure past its 1e-12 relative gate fails here
before it fails the benchmark.
"""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

from relay_rtm.cli import write_csv
from relay_rtm.montecarlo import run_sweep

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


@pytest.mark.parametrize("name", ["sweep_rho2_pure", "sweep_rho0_link"])
def test_reference_sweep(name):
    spec = workloads.parse_spec(workloads.WORKLOADS[name])
    buf = io.StringIO()
    write_csv(run_sweep(spec), buf)
    reference = (BENCHMARKS / "reference" / f"{name}.csv").read_text()
    assert checks.compare_reference(buf.getvalue(), reference) == []
