"""Command-line front end: run sweeps from a JSON config, emit CSV, and
dump single-realization diagnostics ("explain" mode).

Config document (strict: unknown keys are rejected)::

    {
      "format_version": 1,                  // optional, must be 1
      "dims": {"t": 4, "r": 4, "s": 4, "u": 4},
      "rho0_db": 10.0,                      // direct-link SNR; the link is on iff given or swept
      "rho1_db": 10.0,                      // source->relay SNR (omit if swept)
      "rho2_db": 10.0,                      // relay->destination SNR (omit if swept)
      "sweep": {"axis": "rho2", "points_db": [0, 5, 10]},
      "rtms": ["opt1", "opt2", "naf"],
      "metrics": ["capacity", "ostbc"],
      "symbol_rate": 1.0,                   // optional, OSTBC metric only
      "trials": 1000,
      "seed": 7,
      "output": "sweep.csv"                 // optional; --output overrides
    }

``explain CONFIG [--trial T]`` replays trial T (default 0) of the config's
sweep, drawn from its ``seed``, at the first sweep point.

Exit codes: 0 success, 1 config error, 2 numerical or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import opt_capacity, opt_ostbc
from .errors import ConfigError, RelayRtmError, ValidationError
from .evaluate import capacity_forms, ostbc_capacity, verify_kkt_capacity
from .montecarlo import _BUILDERS, SWEEP_AXES, SweepSpec, _scenario_at, run_sweep, sample_channels
from .network import Dims, SnrScenario, translate_scenario

CSV_HEADER = ("sweep_db", "rtm", "metric", "mean_bits", "stderr_bits", "trials")
DEFAULT_OUTPUT = "sweep.csv"
#: An output path that names one of the process's open descriptors.
_DESCRIPTOR_PATH = re.compile(r"/dev/std(out|err)|/(?:dev|proc/self)/fd/([0-9]+)")


@dataclass(frozen=True)
class RunConfig:
    spec: SweepSpec
    output_path: str


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}" if path else message)


def _require_keys(obj: dict, path: str, allowed: set, required: set):
    for key in obj:
        if key not in allowed:
            _fail(path, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            _fail(path, f"missing required key {key!r}")


_JSON_TYPES = {"object": dict, "list": list, "number": (int, float), "string": str}


def _typed(val, kind: str, path: str):
    """``val`` if it has the JSON type ``kind`` (true and false are not numbers)."""
    if isinstance(val, bool) or not isinstance(val, _JSON_TYPES[kind]):
        _fail(path, f"must be a JSON {kind}, got {val!r}")
    return val


def _section(obj: dict, key: str, fields: tuple) -> dict:
    """The JSON object at ``obj[key]``, which must have exactly ``fields``."""
    val = _typed(obj[key], "object", key)
    _require_keys(val, key, set(fields), set(fields))
    return val


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config document into a RunConfig.

    This checks the document's structure and JSON types; every value rule
    (ranges, membership, ordering) belongs to the domain type that carries
    the value, and its ValidationError is reported as a ConfigError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        _fail("", "config must be a JSON object")

    allowed = {
        "format_version", "dims", "rho0_db", "rho1_db", "rho2_db",
        "sweep", "rtms", "metrics", "symbol_rate", "trials", "seed", "output",
    }
    _require_keys(doc, "", allowed, {"dims", "sweep", "rtms", "metrics", "trials", "seed"})

    version = doc.get("format_version", 1)
    # true == 1 and 1.0 == 1 in Python; only the JSON integer 1 is version 1
    if type(version) is not int or version != 1:
        _fail("format_version", f"unsupported value {version!r} (this tool writes version 1)")

    dims_doc = _section(doc, "dims", ("t", "r", "s", "u"))
    sweep_doc = _section(doc, "sweep", ("axis", "points_db"))
    axis = sweep_doc["axis"]
    # The SNR key rules below depend on the axis, so it is checked first.
    if axis not in SWEEP_AXES:
        _fail("sweep.axis", f"must be one of {list(SWEEP_AXES)}, got {axis!r}")
    points = _typed(sweep_doc["points_db"], "list", "sweep.points_db")
    for i, p in enumerate(points):
        _typed(p, "number", f"sweep.points_db[{i}]")

    def snr(key: str) -> float:
        if key in doc:
            # not float(): SnrScenario rejects an integer too large for one
            return _typed(doc[key], "number", key)
        if axis == key[:-3] or key == "rho0_db":
            return 0.0  # placeholder, never used
        _fail("", f"missing required key {key!r} (not the swept axis)")

    snrs = {key: snr(key) for key in ("rho0_db", "rho1_db", "rho2_db")}

    try:
        dims = Dims(*(dims_doc[k] for k in ("t", "r", "s", "u")))
        spec = SweepSpec(
            scenario=SnrScenario(**snrs, dims=dims, direct_link_enabled="rho0_db" in doc or axis == "rho0"),
            sweep_axis=axis,
            sweep_points_db=points,
            rtm_kinds=_typed(doc["rtms"], "list", "rtms"),
            metrics=_typed(doc["metrics"], "list", "metrics"),
            trials=doc["trials"],
            seed=doc["seed"],
            symbol_rate=_typed(doc.get("symbol_rate", 1.0), "number", "symbol_rate"),
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    output = _typed(doc.get("output", DEFAULT_OUTPUT), "string", "output")
    return RunConfig(spec=spec, output_path=output)


def write_csv(points, stream) -> None:
    """CSV rows sorted by (sweep_db, rtm, metric); '\\n' newlines, header
    row mandatory, decimal points only (locale independent)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for cp in sorted(points, key=lambda c: (c.sweep_value_db, c.rtm_kind, c.metric)):
        writer.writerow(
            [
                repr(float(cp.sweep_value_db)),
                cp.rtm_kind,
                cp.metric,
                repr(float(cp.mean_bits)),
                repr(float(cp.stderr_bits)),
                cp.trials,
            ]
        )


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(cfg: RunConfig, output_override: Optional[str] = None) -> int:
    """Run the configured sweep, write the CSV, print a summary table.

    ``output_override``, unless None, replaces the config's output path;
    an empty one is an unwritable path, not an absent one.  The sweep's
    chunks are spread over every available CPU; the CSV is the same for
    any number of them.  The output is opened once, before the
    sweep, so an unwritable output fails before the sweep starts, but the
    CSV is written only once the sweep has returned.  An output named by a
    descriptor (``/dev/stdout``, ``/dev/stderr``, ``/dev/fd/N`` or
    ``/proc/self/fd/N``) is the caller's open stream, opened through the
    descriptor, which must be open for writing, and never reopened by name
    (a socket's name cannot be opened): the CSV goes to it at its position,
    ahead of the summary, and the file behind it is never truncated or
    replaced.  A regular file in a writable directory is replaced by a
    temporary file beside it (beside its target, for a symbolic link) that
    holds the whole CSV and the output's mode.  So a run that fails, in the
    sweep or in that write, leaves an existing CSV as it was, and no CSV
    where there was none.  Any other output, such as a device, a named pipe
    or a file in a directory that cannot be written, gets the CSV in place
    on the stream opened before the sweep: a named pipe's reader sees one
    stream, which holds the CSV, or nothing if the run fails.
    """
    path = cfg.output_path if output_override is None else output_override
    named = _DESCRIPTOR_PATH.fullmatch(path)
    created = not os.path.exists(path)
    try:
        if named:
            # the descriptor itself: a socket's name cannot be reopened
            import fcntl
            fd = int(named[2]) if named[2] else {"out": 1, "err": 2}[named[1]]
            if (fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE) not in (os.O_WRONLY, os.O_RDWR):
                raise OSError(f"descriptor {fd} is not open for writing")
            out = open(os.dup(fd), "w", newline="")
        else:
            out = open(path, "a", newline="")
    except (OSError, OverflowError) as exc:
        raise ConfigError(f"output path {path!r} is not writable: {exc}") from exc
    target = os.path.realpath(path)
    regular = not named and os.path.isfile(target)
    tmp = None
    try:
        with out:
            points = run_sweep(cfg.spec, workers=_available_cpus())
            if regular and os.access(os.path.dirname(target), os.W_OK | os.X_OK):
                fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=os.path.basename(target) + ".", dir=os.path.dirname(target))
                with open(fd, "w", newline="") as replacement:
                    write_csv(points, replacement)
                    replacement.flush()
                    os.fsync(replacement.fileno())
                shutil.copymode(target, tmp)
                os.replace(tmp, target)
            else:
                # what this process printed before goes first
                sys.stdout.flush()
                if regular:
                    out.truncate(0)
                write_csv(points, out)
    except BaseException:
        # neither the temporary file nor a file the open made (the target,
        # for a dangling symbolic link) outlives a failed run
        for made in filter(None, (tmp, created and target)):
            with contextlib.suppress(OSError):
                os.remove(made)
        raise

    print(f"wrote {len(points)} curve points to {path}")
    print(f"{'sweep_db':>9} {'rtm':>5} {'metric':>9} {'mean_bits':>12} {'stderr':>10} {'trials':>7}")
    for cp in sorted(points, key=lambda c: (c.sweep_value_db, c.rtm_kind, c.metric)):
        print(
            f"{cp.sweep_value_db:9.2f} {cp.rtm_kind:>5} {cp.metric:>9} "
            f"{cp.mean_bits:12.6f} {cp.stderr_bits:10.6f} {cp.trials:7d}"
        )
    return 0


def _vector(v: np.ndarray) -> str:
    return "[" + ", ".join(f"{float(x):.6g}" for x in np.atleast_1d(v)) + "]"


#: What ``explain`` calls each kind's relay transform.
_TITLES = {"opt1": "capacity-optimal", "opt2": "OSTBC-capacity-optimal", "naf": "scaled-identity"}


def _explain_solution(lines, sol, p2: float):
    spectra, wf = sol.spectra, sol.wf
    capacity = spectra.variant == "capacity"
    thresholds = (opt_capacity if capacity else opt_ostbc).activation_thresholds(spectra.alpha, spectra.beta)
    lines.append(f"  mode gains alpha:        {_vector(spectra.alpha)}")
    lines.append(f"  mode power costs beta:   {_vector(spectra.beta)}")
    lines.append(f"  mode counts: rho={spectra.rho} rho_a={spectra.rho_a} rho_b={spectra.rho_b}")
    lines.append(f"  activation thresholds:   {_vector(thresholds)}")
    if wf.xi is None:
        lines.append("  water level xi:          no water (all mode gains are zero)")
    else:
        lines.append(f"  water level xi:          {wf.xi:.12g}")
    lines.append(f"  mode powers x:           {_vector(wf.x)}")
    active = [str(i) for i in np.flatnonzero(wf.x > 0.0)]
    lines.append(f"  active modes:            {{{', '.join(active)}}} ({len(active)} of {spectra.rho})")
    if capacity:
        kkt = verify_kkt_capacity(spectra.alpha, spectra.beta, p2, wf)
        lines.append(
            "  kkt residuals:           "
            f"stationarity={kkt.stationarity_residual:.3e} "
            f"complementarity={kkt.complementary_slackness:.3e} "
            f"primal={kkt.primal_feasibility:.3e} "
            f"dual={kkt.dual_feasibility:.3e}"
        )
    elif wf.xi is not None:
        segment = int(np.sum(thresholds[np.isfinite(thresholds)] < wf.xi))
        lines.append(f"  linear segment:          {segment} threshold(s) below the water level")


def explain(cfg: RunConfig, trial: int = 0) -> str:
    """Single-realization diagnostic report of the solutions the sweep's
    solvers (``montecarlo._BUILDERS``) return for trial ``trial`` of the
    config's sweep, drawn from its seed, at the first sweep point, the
    scenario the sweep solves there."""
    seed = cfg.spec.seed
    scn = _scenario_at(cfg.spec, cfg.spec.sweep_points_db[0])
    dims = scn.dims
    ch, pb = translate_scenario(scn, sample_channels(dims, seed, trial))

    lines = [f"realization seed={seed} trial={trial}"]
    # without the link, rho0 is a placeholder the solve never reads
    link = f"rho0={scn.rho0_db:g} dB (direct link on)" if scn.direct_link_enabled else "direct link off"
    lines.append(
        f"scenario: t={dims.t} r={dims.r} s={dims.s} u={dims.u}; "
        f"{link}, rho1={scn.rho1_db:g} dB, "
        f"rho2={scn.rho2_db:g} dB; p1={pb.p1:g}, p2={pb.p2:g}"
    )

    for kind in cfg.spec.rtm_kinds:
        sol = _BUILDERS[kind](ch, pb, dims)
        lines += ["", f"[{sol.kind}] {_TITLES[kind]} relay transform"]
        if sol.spectra is None:
            lines.append(f"  diagonal gain:           {sol.x_matrix[0, 0].real:.12g}")
        else:
            _explain_solution(lines, sol, pb.p2)

        lines.append(f"  relay power used:        {sol.relay_power_used:.12g} of budget {pb.p2:.12g}")
        direct, ident = capacity_forms(ch, pb, dims, sol.x_matrix)
        ost = ostbc_capacity(ch, pb, dims, sol.x_matrix, cfg.spec.symbol_rate)
        lines.append(f"  capacity:                {direct:.9f} bit/s/Hz")
        lines.append(f"    (direct form {direct:.12f}, identity form {ident:.12f})")
        lines.append(
            f"  ostbc capacity (R={cfg.spec.symbol_rate:g}):  {ost.bits:.9f} bit/s/Hz"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relay-rtm",
        description="Optimal relay transform matrices for two-hop MIMO relay "
        "networks: run seeded ergodic-capacity sweeps or explain one realization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_help = "path to the JSON config document"
    run_parser = sub.add_parser("run", help="run the configured sweep and write a CSV")
    run_parser.add_argument("config", help=config_help)
    run_parser.add_argument("--output", default=None, help="override the CSV output path")
    explain_parser = sub.add_parser("explain", help="print spectra, water levels and KKT residuals for one realization")
    explain_parser.add_argument("config", help=config_help)
    explain_parser.add_argument("--trial", type=int, default=0, help="the sweep trial to replay (default 0)")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        cfg = parse_config(text)
        if args.command == "run":
            return run(cfg, output_override=args.output)
        if args.trial < 0:
            raise ConfigError(f"--trial must be an integer >= 0, got {args.trial}")
        print(explain(cfg, args.trial), end="")
        return 0
    except ConfigError as exc:
        print(f"relay-rtm: config error: {exc}", file=sys.stderr)
        return 1
    except (RelayRtmError, OSError) as exc:
        print(f"relay-rtm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
