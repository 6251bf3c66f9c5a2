"""Set-up probe of the relay-rtm benchmark, run in a fresh interpreter.

    python3 benchmarks/setup_probe.py WORKLOAD SEED

Imports the program, parses the workload's config, finishes one warm-up
solve and prints ``ready``: the point where a first timed trial could
start.  ``run.py`` times this from process start to that line.
"""

import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parent / "src")]
    import workloads

    workload, seed = workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2])
    spec = workloads.parse_spec(workload)
    workloads.solve(workloads.realization(spec, seed, 0))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
