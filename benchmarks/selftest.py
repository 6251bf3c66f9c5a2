"""Self-test of the relay-rtm benchmark.

    python3 benchmarks/selftest.py

Checks that a quick run of every workload prints every metric of
BENCHMARK.json with its unit, that the sweep output check rejects a CSV
value perturbed by 1e-9 relative, that tracing records spans and restores
every attribute it wrapped, and that injected failing operations raise the
failure share.  Takes about half a minute.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from relay_rtm import montecarlo, opt_ostbc  # noqa: E402
from relay_rtm.errors import NumericalError  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


class QuickRun(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout[-2000:])
        return proc.stdout.splitlines()

    def test_every_metric_printed_with_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines = self.run_bench(workload, trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in DECLARED[group]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    for name, unit in expected.items():
                        self.assertTrue(any(line.split()[:1] == [name] and unit in line.split() for line in lines), name)
                    self.assertTrue(any(line.startswith("fail_share ") for line in lines))


class OutputCheck(unittest.TestCase):
    def test_reference_rejects_perturbation(self):
        for name in ("sweep_rho2_pure", "sweep_rho0_link"):
            reference = (HERE / "reference" / f"{name}.csv").read_text()
            self.assertEqual(checks.compare_reference(reference, reference), [])
            header, first, *rest = reference.splitlines(keepends=True)
            cells = first.split(",")
            for rel, rejected in ((1e-9, True), (1e-13, False)):
                perturbed = cells[:3] + [repr(float(cells[3]) * (1.0 + rel))] + cells[4:]
                text = "".join([header, ",".join(perturbed), *rest])
                self.assertEqual(bool(checks.compare_reference(text, reference)), rejected, rel)

    def test_reference_sweep_passes(self):
        for workload in workloads.WORKLOADS.values():
            spec = workloads.parse_spec(workload)
            if spec is not None:
                tally = checks.Tally(0)
                measure.check_reference(workload, spec, tally)
                self.assertEqual((tally.failed, tally.wrong_outputs), (0, 0))


class Tracing(unittest.TestCase):
    def test_spans_recorded_and_attributes_restored(self):
        before = [dict(vars(module)) for module in spans.LAYERS.values()] + [dict(montecarlo._BUILDERS)]
        with spans.Tracer() as tracer:
            workloads.solve(workloads.realization(None, 1, 0))
        after = [dict(vars(module)) for module in spans.LAYERS.values()] + [dict(montecarlo._BUILDERS)]
        self.assertEqual(after, before)
        calls, inclusive, own = tracer.stats["opt_capacity.build_capacity_spectra"]
        self.assertEqual(calls, 1)
        self.assertEqual(tracer.stats["matalg.herm_eig"][0], 4)
        self.assertLess(own, inclusive)
        self.assertGreater(tracer.budget_evals, 0)
        self.assertEqual(len(tracer.form_pairs), 3)


class InjectedFailure(unittest.TestCase):
    def solve_block(self):
        tally = checks.Tally(5)
        spec = workloads.parse_spec(workloads.WORKLOADS["sweep_rho2_pure"])
        measure.Loop(spec, 5, tally).block()
        return tally

    def test_raise_counts_as_failed_operation(self):
        clean = self.solve_block()
        original, calls = opt_ostbc.optimize_ostbc_rtm, []

        def flaky(*args):
            calls.append(1)
            if len(calls) == 3:
                raise NumericalError("injected")
            return original(*args)

        opt_ostbc.optimize_ostbc_rtm = flaky
        try:
            injected = self.solve_block()
        finally:
            opt_ostbc.optimize_ostbc_rtm = original
        self.assertEqual(injected.attempted, clean.attempted)
        self.assertEqual(injected.failed, clean.failed + 1)
        self.assertEqual(injected.wrong_outputs, 0)
        self.assertIn("injected", injected.failures[-1][3])

    def test_wrong_power_makes_run_incorrect(self):
        r = workloads.realization(None, 5, 0)
        tally = checks.Tally(5)
        tally.realization(r, 2.0, [("opt1", 2.0, (1.0,), None), ("opt2", 2.0 * (1 + 5e-9), (1.0,), None),
                                   ("naf", 2.0 * (1 + 5e-8), (1.0,), None)])
        self.assertEqual((tally.attempted, tally.failed, tally.wrong_outputs), (3, 2, 1))


if __name__ == "__main__":
    unittest.main()
