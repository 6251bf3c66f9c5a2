"""Command-line front end: run sweeps from a JSON config, emit CSV, and
dump single-realization diagnostics ("explain" mode).

Config document (strict: unknown keys are rejected)::

    {
      "format_version": 1,                  // optional, must be 1
      "dims": {"t": 4, "r": 4, "s": 4, "u": 4},
      "rho0_db": 10.0,                      // direct-link SNR; presence enables the direct link
      "direct_link": true,                  // optional override of that rule
      "rho1_db": 10.0,                      // source->relay SNR (omit if swept)
      "rho2_db": 10.0,                      // relay->destination SNR (omit if swept)
      "sweep": {"axis": "rho2", "points_db": [0, 5, 10]},
      "rtms": ["opt1", "opt2", "naf"],
      "metrics": ["capacity", "ostbc"],
      "symbol_rate": 1.0,                   // optional, OSTBC metric only
      "trials": 1000,
      "seed": 7,
      "output": "sweep.csv",                // optional; --output overrides
      "explain": {"seed": 1, "trial": 0}    // optional, for the explain command
    }

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
from .evaluate import capacity_forms, naf_rtm, ostbc_capacity, verify_kkt_capacity
from .montecarlo import SWEEP_AXES, SweepSpec, run_sweep, sample_channels
from .network import Dims, SnrScenario, _check_count, translate_scenario

__all__ = ["RunConfig", "parse_config", "run", "explain", "main"]

CSV_HEADER = ("sweep_db", "rtm", "metric", "mean_bits", "stderr_bits", "trials")
DEFAULT_OUTPUT = "sweep.csv"
#: An output path that names one of the process's open descriptors.
_DESCRIPTOR_PATH = re.compile(r"/dev/std(out|err)|/(?:dev|proc/self)/fd/([0-9]+)")


@dataclass(frozen=True)
class RunConfig:
    spec: SweepSpec
    output_path: str
    explain_at: Optional[tuple]  # (seed, trial) for explain mode


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
    the value, or to the integer-count rule that the domain types share
    for the explain seed and trial, and its ValidationError is reported as
    a ConfigError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        _fail("", "config must be a JSON object")

    allowed = {
        "format_version", "dims", "rho0_db", "direct_link", "rho1_db", "rho2_db",
        "sweep", "rtms", "metrics", "symbol_rate", "trials", "seed", "output", "explain",
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

    # The link is on when rho0_db is given or rho0 is swept, unless set
    # explicitly; SweepSpec rejects a rho0 sweep with the link set off.
    direct_link = doc.get("direct_link", "rho0_db" in doc or axis == "rho0")
    if not isinstance(direct_link, bool):
        _fail("direct_link", f"must be true or false, got {direct_link!r}")

    def snr(key: str) -> float:
        swept = axis == key[:-3]
        if key in doc:
            # not float(): SnrScenario rejects an integer too large for one
            return _typed(doc[key], "number", key)
        if swept or (key == "rho0_db" and not direct_link):
            return 0.0  # placeholder, never used
        _fail("", f"missing required key {key!r} (not the swept axis)")

    snrs = {key: snr(key) for key in ("rho0_db", "rho1_db", "rho2_db")}

    explain_at = None
    try:
        if "explain" in doc:
            exp = _section(doc, "explain", ("seed", "trial"))
            for key in ("seed", "trial"):
                _check_count(f"explain.{key}", exp[key], 0)
            explain_at = (exp["seed"], exp["trial"])
        dims = Dims(*(dims_doc[k] for k in ("t", "r", "s", "u")))
        spec = SweepSpec(
            scenario=SnrScenario(**snrs, dims=dims, direct_link_enabled=direct_link),
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
    return RunConfig(spec=spec, output_path=output, explain_at=explain_at)


def _format_float(v: float) -> str:
    return repr(float(v))


def write_csv(points, stream) -> None:
    """CSV rows sorted by (sweep_db, rtm, metric); '\\n' newlines, header
    row mandatory, decimal points only (locale independent)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for cp in sorted(points, key=lambda c: (c.sweep_value_db, c.rtm_kind, c.metric)):
        writer.writerow(
            [
                _format_float(cp.sweep_value_db),
                cp.rtm_kind,
                cp.metric,
                _format_float(cp.mean_bits),
                _format_float(cp.stderr_bits),
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

    The sweep's chunks are spread over every available CPU; the CSV is the
    same for any number of them.  An unwritable output path fails before
    the sweep starts, but the CSV is written only once the sweep has
    returned.  An output named by a descriptor (``/dev/stdout``,
    ``/dev/stderr``, ``/dev/fd/N`` or ``/proc/self/fd/N``) is the caller's
    open stream, probed through the descriptor and never reopened by name
    (a socket's name cannot be opened): the CSV goes to it at its
    position, ahead of the summary, and the file behind it is never
    truncated or replaced.  A regular file
    in a writable directory is replaced by a temporary file beside it
    (beside its target, for a symbolic link) that holds the whole CSV and
    the output's mode.  So a run that fails, in the sweep or in that write,
    leaves an existing CSV as it was, and no CSV where there was none.  Any
    other output, such as a device, a pipe or a file in a directory that
    cannot be written, is written in place.
    """
    path = output_override or cfg.output_path
    named = _DESCRIPTOR_PATH.fullmatch(path)
    created = not os.path.exists(path)
    try:
        if named:
            # the descriptor itself: a socket's name cannot be reopened
            fd = int(named[2]) if named[2] else {"out": 1, "err": 2}[named[1]]
            os.fstat(fd)
        else:
            open(path, "a").close()
    except (OSError, OverflowError) as exc:
        raise ConfigError(f"output path {path!r} is not writable: {exc}") from exc
    target = os.path.realpath(path)
    directory = os.path.dirname(target)
    tmp = None
    try:
        points = run_sweep(cfg.spec, workers=_available_cpus())
        if named:
            # what this process printed before goes first
            sys.stdout.flush()
            with open(os.dup(fd), "w", newline="") as out:
                write_csv(points, out)
        elif os.path.isfile(target) and os.access(directory, os.W_OK | os.X_OK):
            fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=os.path.basename(target) + ".", dir=directory)
            with open(fd, "w", newline="") as out:
                write_csv(points, out)
                out.flush()
                os.fsync(out.fileno())
            shutil.copymode(target, tmp)
            os.replace(tmp, target)
        else:
            with open(path, "w", newline="") as out:
                write_csv(points, out)
    except BaseException:
        # neither the temporary file nor a file the probe made (the target,
        # for a dangling symbolic link) outlives a failed run
        for made in (tmp, target if created else None):
            if made is not None:
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


def _explain_solution(lines, sol, thresholds):
    spectra, wf = sol.spectra, sol.wf
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


def explain(cfg: RunConfig) -> str:
    """Single-realization diagnostic report of the solutions the solvers
    return for the config's (seed, trial) realization."""
    if cfg.explain_at is None:
        raise ConfigError("explain: config has no \"explain\" section")
    seed, trial = cfg.explain_at
    scn = cfg.spec.scenario
    dims = scn.dims
    ch, pb = translate_scenario(scn, sample_channels(dims, seed, trial))

    lines = [f"realization seed={seed} trial={trial}"]
    link = "on" if scn.direct_link_enabled else "off"
    lines.append(
        f"scenario: t={dims.t} r={dims.r} s={dims.s} u={dims.u}; "
        f"rho0={scn.rho0_db:g} dB (direct link {link}), rho1={scn.rho1_db:g} dB, "
        f"rho2={scn.rho2_db:g} dB; p1={pb.p1:g}, p2={pb.p2:g}"
    )

    for kind in cfg.spec.rtm_kinds:
        lines.append("")
        if kind == "opt1":
            sol = opt_capacity.optimize_capacity_rtm(ch, pb, dims)
            lines.append("[opt1] capacity-optimal relay transform")
            alpha, beta = sol.spectra.alpha, sol.spectra.beta
            _explain_solution(lines, sol, opt_capacity.activation_thresholds(alpha, beta))
            kkt = verify_kkt_capacity(alpha, beta, pb.p2, sol.wf)
            lines.append(
                "  kkt residuals:           "
                f"stationarity={kkt.stationarity_residual:.3e} "
                f"complementarity={kkt.complementary_slackness:.3e} "
                f"primal={kkt.primal_feasibility:.3e} "
                f"dual={kkt.dual_feasibility:.3e}"
            )
        elif kind == "opt2":
            sol = opt_ostbc.optimize_ostbc_rtm(ch, pb, dims)
            lines.append("[opt2] OSTBC-capacity-optimal relay transform")
            thresholds = opt_ostbc.activation_thresholds(sol.spectra.alpha, sol.spectra.beta)
            _explain_solution(lines, sol, thresholds)
            if sol.wf.xi is not None:
                segment = int(np.sum(thresholds[np.isfinite(thresholds)] < sol.wf.xi))
                lines.append(
                    f"  linear segment:          {segment} threshold(s) below the water level"
                )
        else:
            sol = naf_rtm(ch, pb, dims)
            lines.append(f"[{sol.kind}] scaled-identity relay transform")
            lines.append(f"  diagonal gain:           {sol.x_matrix[0, 0].real:.12g}")

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
    sub.add_parser(
        "explain", help="print spectra, water levels and KKT residuals for one realization"
    ).add_argument("config", help=config_help)
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
        report = explain(cfg)
        print(report, end="")
        return 0
    except ConfigError as exc:
        print(f"relay-rtm: config error: {exc}", file=sys.stderr)
        return 1
    except (RelayRtmError, OSError) as exc:
        print(f"relay-rtm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
