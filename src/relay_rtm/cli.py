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

Exit codes: 0 success, 1 config error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import opt_capacity, opt_ostbc
from .errors import ConfigError, RelayRtmError
from .evaluate import capacity_forms, naf_rtm, ostbc_capacity, verify_kkt_capacity
from .montecarlo import (
    METRICS,
    RTM_KINDS,
    SWEEP_AXES,
    SweepSpec,
    run_sweep,
    sample_channels,
)
from .network import ChannelSet, Dims, PowerBudget, SnrScenario, translate_scenario

__all__ = ["RunConfig", "parse_config", "run", "explain", "main"]

CSV_HEADER = ("sweep_db", "rtm", "metric", "mean_bits", "stderr_bits", "trials")
DEFAULT_OUTPUT = "sweep.csv"


@dataclass(frozen=True)
class RunConfig:
    spec: SweepSpec
    output_path: str
    explain_at: Optional[tuple]  # (seed, trial) for explain mode
    format_version: int = 1


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}" if path else message)


def _require_keys(obj: dict, path: str, allowed: set, required: set):
    for key in obj:
        if key not in allowed:
            _fail(path, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            _fail(path, f"missing required key {key!r}")


def _get_int(obj: dict, key: str, path: str, minimum: int) -> int:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        _fail(f"{path}{key}", f"must be an integer, got {val!r}")
    if val < minimum:
        _fail(f"{path}{key}", f"must be >= {minimum}, got {val}")
    return val


def _get_number(obj: dict, key: str, path: str) -> float:
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        _fail(f"{path}{key}", f"must be a finite number, got {val!r}")
    return float(val)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document into a RunConfig."""
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
    if version != 1:
        _fail("format_version", f"unsupported value {version!r} (this tool writes version 1)")

    dims_doc = doc["dims"]
    if not isinstance(dims_doc, dict):
        _fail("dims", "must be an object with keys t, r, s, u")
    _require_keys(dims_doc, "dims", {"t", "r", "s", "u"}, {"t", "r", "s", "u"})
    dims = Dims(*(_get_int(dims_doc, k, "dims.", 1) for k in ("t", "r", "s", "u")))

    sweep_doc = doc["sweep"]
    if not isinstance(sweep_doc, dict):
        _fail("sweep", "must be an object with keys axis, points_db")
    _require_keys(sweep_doc, "sweep", {"axis", "points_db"}, {"axis", "points_db"})
    axis = sweep_doc["axis"]
    if axis not in SWEEP_AXES:
        _fail("sweep.axis", f"must be one of {list(SWEEP_AXES)}, got {axis!r}")
    points = sweep_doc["points_db"]
    if not isinstance(points, list) or not points:
        _fail("sweep.points_db", "must be a nonempty list of numbers")
    points_db = []
    for i, p in enumerate(points):
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not math.isfinite(p):
            _fail(f"sweep.points_db[{i}]", f"must be a finite number, got {p!r}")
        points_db.append(float(p))
    if sorted(points_db) != points_db:
        _fail("sweep.points_db", "must be sorted nondecreasing")

    # Sweeping rho0 implies the direct link is in play; otherwise the link
    # is on exactly when rho0_db is given, unless overridden explicitly.
    direct_link = doc.get("direct_link", "rho0_db" in doc or axis == "rho0")
    if not isinstance(direct_link, bool):
        _fail("direct_link", f"must be true or false, got {direct_link!r}")
    if axis == "rho0":
        direct_link = True

    def snr(key: str) -> float:
        swept = axis == key[:-3]
        if key in doc:
            return _get_number(doc, key, "")
        if swept or (key == "rho0_db" and not direct_link):
            return 0.0  # placeholder, never used
        _fail("", f"missing required key {key!r} (not the swept axis)")

    scenario = SnrScenario(
        rho0_db=snr("rho0_db"),
        rho1_db=snr("rho1_db"),
        rho2_db=snr("rho2_db"),
        dims=dims,
        direct_link_enabled=direct_link,
    )

    rtms = doc["rtms"]
    if not isinstance(rtms, list) or not rtms:
        _fail("rtms", f"must be a nonempty list drawn from {list(RTM_KINDS)}")
    for i, k in enumerate(rtms):
        if k not in RTM_KINDS:
            _fail(f"rtms[{i}]", f"must be one of {list(RTM_KINDS)}, got {k!r}")
    metrics = doc["metrics"]
    if not isinstance(metrics, list) or not metrics:
        _fail("metrics", f"must be a nonempty list drawn from {list(METRICS)}")
    for i, m in enumerate(metrics):
        if m not in METRICS:
            _fail(f"metrics[{i}]", f"must be one of {list(METRICS)}, got {m!r}")

    symbol_rate = 1.0
    if "symbol_rate" in doc:
        symbol_rate = _get_number(doc, "symbol_rate", "")
        if not (0.0 < symbol_rate <= 1.0):
            _fail("symbol_rate", f"must lie in (0, 1], got {symbol_rate}")

    trials = _get_int(doc, "trials", "", 1)
    seed = _get_int(doc, "seed", "", 0)

    explain_at = None
    if "explain" in doc:
        exp = doc["explain"]
        if not isinstance(exp, dict):
            _fail("explain", "must be an object with keys seed, trial")
        _require_keys(exp, "explain", {"seed", "trial"}, {"seed", "trial"})
        explain_at = (_get_int(exp, "seed", "explain.", 0), _get_int(exp, "trial", "explain.", 0))

    output = doc.get("output", DEFAULT_OUTPUT)
    if not isinstance(output, str) or not output:
        _fail("output", f"must be a nonempty path string, got {output!r}")

    spec = SweepSpec(
        scenario=scenario,
        sweep_axis=axis,
        sweep_points_db=tuple(points_db),
        rtm_kinds=tuple(rtms),
        metrics=tuple(metrics),
        trials=trials,
        seed=seed,
        symbol_rate=symbol_rate,
    )
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


def run(cfg: RunConfig, threads: int = 1, output_override: Optional[str] = None) -> int:
    """Run the configured sweep, write the CSV, print a summary table."""
    path = output_override or cfg.output_path
    try:
        out = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"output path {path!r} is not writable: {exc}") from exc
    with out:
        points = run_sweep(cfg.spec, workers=threads)
        buf = io.StringIO()
        write_csv(points, buf)
        out.write(buf.getvalue())

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
    active = [str(i) for i in np.flatnonzero(wf.active)]
    lines.append(f"  active modes:            {{{', '.join(active)}}} ({len(active)} of {spectra.rho})")


def explain(
    cfg: RunConfig,
    *,
    channels: Optional[ChannelSet] = None,
    power: Optional[PowerBudget] = None,
) -> str:
    """Single-realization diagnostic report of the solutions the solvers
    return.

    Normally samples the (seed, trial) realization from the config and
    translates the scenario; tests may inject exact ``channels`` and
    ``power`` instead (both must then be given in canonical form).
    """
    if cfg.explain_at is None:
        raise ConfigError("explain: config has no \"explain\" section")
    seed, trial = cfg.explain_at
    dims = cfg.spec.scenario.dims
    if channels is None:
        raw = sample_channels(dims, seed, trial)
        ch, pb = translate_scenario(cfg.spec.scenario, raw)
    else:
        ch = channels
        pb = power if power is not None else PowerBudget(float(dims.t), float(dims.u))

    lines = [f"realization seed={seed} trial={trial}"]
    scn = cfg.spec.scenario
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
            gain = float(np.sqrt(sol.wf.x[0])) if sol.wf.x.size else 0.0
            lines.append(f"  diagonal gain:           {gain:.12g}")

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
    for name, help_text in (
        ("run", "run the configured sweep and write a CSV"),
        ("explain", "print spectra, water levels and KKT residuals for one realization"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the JSON config document")
        p.add_argument(
            "--threads",
            type=int,
            default=os.cpu_count() or 1,
            help="worker threads for the sweep (default: all cores)",
        )
        p.add_argument("--output", default=None, help="override the CSV output path")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        cfg = parse_config(text)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.command == "run":
            return run(cfg, threads=args.threads, output_override=args.output)
        report = explain(cfg)
        print(report, end="")
        return 0
    except ConfigError as exc:
        print(f"relay-rtm: config error: {exc}", file=sys.stderr)
        return 1
    except RelayRtmError as exc:
        print(f"relay-rtm: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"relay-rtm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
