"""Write the reference CSVs the benchmark checks sweeps against.

    python3 benchmarks/capture_reference.py

Each sweep workload's config is run at its own seed and the reduced trial
count, and the CSV goes to ``benchmarks/reference/<workload>.csv``.  Run it
only when the program's results are meant to change; the benchmark then
measures against the new figures.
"""

import io
import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parent / "src")]
    import workloads
    from relay_rtm import cli, montecarlo

    (here / "reference").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        spec = workloads.parse_spec(workload)
        if spec is None:
            continue
        buf = io.StringIO()
        cli.write_csv(montecarlo.run_sweep(spec), buf)
        (here / "reference" / f"{workload.name}.csv").write_text(buf.getvalue())
        print(f"wrote reference/{workload.name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
