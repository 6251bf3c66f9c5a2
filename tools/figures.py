"""Fingerprint every figure the program computes, one ``name sha256`` line
each, so that two trees are compared with one ``diff``.

The program is the ``relay_rtm`` package on the import path, so the tool
runs against any tree by putting that tree's ``src`` first::

    PYTHONPATH=src python3 tools/figures.py > change.txt
    mkdir parent && git archive HEAD~1 src | tar -x -C parent
    PYTHONPATH=parent/src python3 tools/figures.py > parent.txt
    diff parent.txt change.txt

It prints, in this order:

- ``csv/<config>/workers=<n>``: the CSV of each ``configs/*.json`` sweep at
  ``--trials`` trials, with one worker and with two;
- ``pairs/<config>``: the ``evaluate.capacity_forms`` pairs a watcher of
  that function sees during the one-worker sweep, values and Python types;
- ``mix/<low>..<high>dB/<kind>``: for each transform kind, over
  realizations of the benchmark's realization mix (its shapes, its SNR
  draws, the direct link on half of them), the transform's bytes, the
  watched pair, both metrics, the relay power and the repr of any
  ``RelayRtmError``.  ``--realizations`` are split 7 to 1 between
  -10..30 dB (seed 5) and 50..60 dB (seed 6), so the default 2048 gives
  1792 and 256.

A change that moves figures at rounding level changes every hash, so two
options show by how much instead.  ``--csv-dir DIR`` writes the one-worker
CSV of each config, and of each of the benchmark's reference sweeps
(``benchmarks/reference/``), to ``DIR/<name>.csv``, and each kind's mix
table, one row per realization with both metrics' bits, the relay power
and the repr of any error, to ``DIR/mix_<low>..<high>dB_<kind>.csv``.
``--against DIR`` then prints, after the hashes, one line per CSV and per
mix table::

    rel/<name> mean_bits <largest relative difference> stderr_bits <...>
    rel/mix/<low>..<high>dB/<kind> capacity <...> ostbc <...> power <...> errors <theirs> -> <ours> (<n> rows differ)

against those files of another tree (or ``rows differ``, or ``missing``).
A mix line counts the rows with an error in the other tree's table and in
this tree's, and the rows whose error differs, such as ``errors 4 -> 3 (6
rows differ)``.  So the CSV rule (1e-12 relative) and the size of a move
in the mix are checked by one run of each tree::

    PYTHONPATH=parent/src python3 tools/figures.py --csv-dir parent-csv
    PYTHONPATH=src python3 tools/figures.py --against parent-csv
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "benchmarks"))

import workloads  # noqa: E402  (the benchmark's realization mix)
from relay_rtm import cli, evaluate, montecarlo, network  # noqa: E402
from relay_rtm.errors import RelayRtmError  # noqa: E402

#: (seed, SNR band in dB) of each band of the mix.
_MIX_BANDS = ((5, workloads.MIX_SNR_DB), (6, workloads.HIGH_SNR_DB))
#: The columns of a kind's mix table: both metrics' bits and the relay
#: power (empty past an error), and the repr of the error, if any.
_MIX_COLUMNS = ("capacity", "ostbc", "power", "error")


def _canonical(value) -> tuple:
    """An array as its dtype, shape and bytes; anything else as its type
    and repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value).__name__, repr(value)


def _digest(values) -> str:
    return hashlib.sha256(repr([_canonical(v) for v in values]).encode()).hexdigest()


@contextlib.contextmanager
def _watched_pairs():
    """The pairs ``evaluate.capacity_forms`` returns while the block runs,
    each as its two values, seen as the benchmark's tracer sees them."""
    pairs, forms = [], evaluate.capacity_forms

    def watcher(*args, **kwargs):
        pair = forms(*args, **kwargs)
        pairs.extend(pair)
        return pair

    evaluate.capacity_forms = watcher
    try:
        yield pairs
    finally:
        evaluate.capacity_forms = forms


def _csv_text(points) -> str:
    out = io.StringIO()
    cli.write_csv(points, out)
    return out.getvalue()


def _sweep_lines(config: Path, trials: int, csvs: dict):
    """The config's lines; its one-worker CSV goes into ``csvs``."""
    doc = json.loads(config.read_text())
    doc["trials"] = trials
    spec = cli.parse_config(json.dumps(doc)).spec
    with _watched_pairs() as pairs:
        lone = montecarlo.run_sweep(spec)
    for workers, points in ((1, lone), (2, montecarlo.run_sweep(spec, workers=2))):
        text = _csv_text(points)
        csvs.setdefault(config.stem, text)
        yield f"csv/{config.stem}/workers={workers}", hashlib.sha256(text.encode()).hexdigest()
    yield f"pairs/{config.stem}", _digest(pairs)


def _rows(text: str) -> dict:
    return {(r["sweep_db"], r["rtm"], r["metric"], r["trials"]): r for r in csv.DictReader(io.StringIO(text))}


def _largest(pairs) -> str:
    """The largest relative difference of the (value, other) pairs, as
    text; a pair with one side empty is skipped."""
    worst = 0.0
    for a, b in pairs:
        if a and b:
            a, b = float(a), float(b)
            worst = max(worst, abs(a - b) / abs(b) if b else (0.0 if a == b else math.inf))
    return f"{worst:.2e}"


def _largest_relative(text: str, other: str) -> str:
    """The largest relative difference of ``mean_bits`` and of
    ``stderr_bits`` of a CSV from ``other``, which must have its rows."""
    rows, other_rows = _rows(text), _rows(other)
    if rows.keys() != other_rows.keys():
        return "rows differ"
    return " ".join(
        f"{column} {_largest((row[column], other_rows[key][column]) for key, row in rows.items())}"
        for column in ("mean_bits", "stderr_bits")
    )


def _mix_relative(text: str, other: str) -> str:
    """For a kind's mix table against ``other``'s, which must have as many
    rows: the largest relative difference of each magnitude over the rows
    where both sides have it, the rows with an error in ``other`` and here,
    and how many rows differ in their error."""
    rows, other_rows = (list(csv.DictReader(io.StringIO(t))) for t in (text, other))
    if len(rows) != len(other_rows):
        return "rows differ"
    pairs = list(zip(rows, other_rows))
    largest = [f"{column} {_largest((a[column], b[column]) for a, b in pairs)}" for column in _MIX_COLUMNS[:3]]
    theirs, ours = (sum(bool(row["error"]) for row in table) for table in (other_rows, rows))
    differ = sum(a["error"] != b["error"] for a, b in pairs)
    return " ".join(largest + [f"errors {theirs} -> {ours} ({differ} rows differ)"])


def _kind_figures(ch, pb, dims, kind: str) -> tuple:
    """What one kind gives on one realization, up to its first error, and
    its row of the kind's mix table."""
    figures, error = [], ""
    with _watched_pairs() as pairs:
        try:
            sol = montecarlo._BUILDERS[kind](ch, pb, dims)
            figures.append(sol.x_matrix)
            figures.append(evaluate.capacity(ch, pb, dims, sol.x_matrix).bits)
            figures.append(evaluate.ostbc_capacity(ch, pb, dims, sol.x_matrix).bits)
            figures.append(sol.relay_power_used)
        except RelayRtmError as exc:
            error = repr(exc)
            figures.append(error)
    # the row: the metrics and power computed before any error, then the error
    magnitudes = [repr(float(v)) for v in figures[1:4] if not isinstance(v, str)]
    return figures + pairs, magnitudes + [""] * (3 - len(magnitudes)) + [error]


def _table(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_MIX_COLUMNS)
    writer.writerows(rows)
    return out.getvalue()


def _mix_lines(realizations: int, tables: dict):
    """The mix's lines; each kind's table goes into ``tables``."""
    high = realizations // 8
    for (seed, band), count in zip(_MIX_BANDS, (realizations - high, high)):
        figures = {kind: [] for kind in montecarlo.RTM_KINDS}
        rows = {kind: [] for kind in montecarlo.RTM_KINDS}
        for index in range(count):
            r = workloads.realization(None, seed, index, snr_db=band)
            ch, pb = network.translate_scenario(r.scenario, r.raw)
            for kind in r.kinds:
                values, row = _kind_figures(ch, pb, r.scenario.dims, kind)
                figures[kind] += values
                rows[kind].append(row)
        low_db, high_db = (f"{v:g}" for v in band)
        for kind, values in figures.items():
            name = f"mix/{low_db}..{high_db}dB/{kind}"
            tables[name] = _table(rows[kind])
            yield name, _digest(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=300, help="trials of each config sweep (default 300)")
    parser.add_argument(
        "--realizations", type=int, default=2048, help="mix realizations, 7/8 at -10..30 dB (default 2048)"
    )
    parser.add_argument(
        "--csv-dir", type=Path, help="write each sweep's one-worker CSV and each kind's mix table to DIR/<name>.csv"
    )
    parser.add_argument(
        "--against", type=Path, help="print each CSV's and mix table's largest relative difference from DIR/<name>.csv"
    )
    args = parser.parse_args(argv)
    csvs, tables = {}, {}
    for config in sorted((_ROOT / "configs").glob("*.json")):
        for name, digest in _sweep_lines(config, args.trials, csvs):
            print(name, digest)
    for name, digest in _mix_lines(args.realizations, tables):
        print(name, digest)
    if args.csv_dir is None and args.against is None:
        return 0
    for name in ("sweep_rho2_pure", "sweep_rho0_link"):
        csvs[name] = _csv_text(montecarlo.run_sweep(workloads.parse_spec(workloads.WORKLOADS[name])))
    # a mix table's file is named after its line, "/" read as "_"
    files = [(name, name, text, _largest_relative) for name, text in csvs.items()]
    files += [(name, name.replace("/", "_"), text, _mix_relative) for name, text in tables.items()]
    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
        for _, stem, text, _ in files:
            (args.csv_dir / f"{stem}.csv").write_text(text)
    if args.against is not None:
        for name, stem, text, compare in files:
            other = args.against / f"{stem}.csv"
            print(f"rel/{name}", compare(text, other.read_text()) if other.exists() else "missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
