"""The relay-rtm benchmark.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``workloads.py`` gives the reason for each):

- ``sweep_rho2_pure`` and ``sweep_rho0_link``: sweeps of two shipped
  configs at a fixed, reduced trial count.  ``--trace 0`` runs sweeps of a
  fresh seed each, once with one worker and once with ``nproc`` workers
  (45% of ``--seconds``), single realizations of the sweep's config in a
  closed loop with one caller (45%), and set-up probes (10%).
- ``realization_mix``: single realizations of mixed shapes and SNRs in a
  closed loop with one caller (55%), in rounds of ``nproc`` callers on
  threads (35%), and set-up probes (10%).

The parts are interleaved, so that each sees the same stretches of
machine load.  A set-up probe times a fresh interpreter that imports the
program, parses the workload's config and finishes one warm-up solve.
Every run of a sweep workload first checks the reference sweep, the
config's own seed at the reduced trial count, against ``reference/``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with no
tracing installed.  The host's speed drifts, so times and rates are scaled
to a reference host by calibration units run between the timed units, and
the raw figures are printed beside them; solve latency is the fastest
process CPU time of a few solves of the same realization
(``measure.end_to_end`` gives the reasons).  ``--trace 1`` runs the one-caller loop (sweeps or
realization blocks) on the same inputs untraced and traced, reports the
per-layer metrics of BENCHMARK.json from the traced runs and their extra
time as ``trace.overhead_share``.  Functions a workload does not reach are
timed in a coverage pass of one-trial sweeps at the workload's shapes and
SNRs.  A high-SNR probe of mix realizations at 50-60 dB, where the program
fails some operations, reports their share and the capacity-form gap as
per-layer metrics; its operations are not the workload's and are not
counted in ``attempted`` and ``failed``.

Standard output holds a manifest, one line per metric with its unit and
sample count, the failure share, every failed operation, and last a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0, 1 when an output was wrong (see ``checks.py``), and 2 when
the program is not found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="relay-rtm benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relay_rtm" / "__init__.py").is_file():
        print(f"benchmark: no relay_rtm package under {SRC}; run from a relay-rtm checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import checks
    import measure
    import workloads
    from manifest import manifest

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workload = workloads.WORKLOADS[args.workload]
    spec = workloads.parse_spec(workload)
    tally = checks.Tally(args.seed)
    extra = {"sweep_trials": spec.trials if spec else None}
    if args.trace:
        values, notes, missing = measure.per_layer(workload, spec, args.seed, args.seconds, tally, list(units))
    else:
        values, notes, extra["host_slowdown"] = measure.end_to_end(workload, spec, args.seed, args.seconds, tally)
        missing = []
    extra["operations"] = tally.attempted
    print(f"relay-rtm benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("manifest " + json.dumps(manifest(workload, args, extra), sort_keys=True))
    for name, (value, samples) in values.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name:<56} {value:>16.9g} {units[name]:<8} n={samples}{note}")
    for name in missing:
        print(f"{name:<56} {'missing':>16} {units[name]:<8} n=0: the workload made no such call")
    print(f"fail_share {tally.failed / tally.attempted:.6g} ({tally.failed} failed / {tally.attempted} attempted operations)")
    for seed, where, kind, reason in tally.failures:
        print(f"failed operation: seed={seed} {where} kind={kind}: {reason}")
    correct = tally.wrong_outputs == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
