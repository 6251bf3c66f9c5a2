import csv
import json
import os
import re
import socket
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import relay_rtm
from helpers import scalar_network
from relay_rtm import cli, montecarlo
from relay_rtm.cli import explain, main, parse_config, run
from relay_rtm.errors import ConfigError, NumericalError
from relay_rtm.evaluate import naf_rtm
from relay_rtm.montecarlo import run_sweep
from relay_rtm.network import ChannelSet, PowerBudget

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = {
    "dims": {"t": 4, "r": 4, "s": 4, "u": 4},
    "rho1_db": 10.0,
    "sweep": {"axis": "rho2", "points_db": [0, 5, 10, 15, 20, 25, 30]},
    "rtms": ["opt1", "naf"],
    "metrics": ["capacity"],
    "trials": 1000,
    "seed": 7,
}


def make_config(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_minimal_document_echoes_values(self):
        cfg = parse_config(json.dumps(MINIMAL))
        spec = cfg.spec
        assert spec.scenario.dims.t == 4
        assert spec.scenario.rho1_db == 10.0
        assert not spec.scenario.direct_link_enabled
        assert spec.sweep_axis == "rho2"
        assert spec.sweep_points_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert spec.rtm_kinds == ("opt1", "naf")
        assert spec.trials == 1000 and spec.seed == 7
        assert cfg.output_path == "sweep.csv"

    def test_rho0_presence_enables_direct_link(self):
        cfg = parse_config(json.dumps(make_config(rho0_db=10.0)))
        assert cfg.spec.scenario.direct_link_enabled
        assert cfg.spec.scenario.rho0_db == 10.0

    def test_missing_seed_named(self):
        doc = make_config()
        del doc["seed"]
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config(json.dumps(doc))

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config(json.dumps(make_config(trials=0)))

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="'trails'"):
            parse_config(json.dumps(make_config(trails=10)))

    def test_unknown_nested_key_has_path(self):
        doc = make_config(dims={"t": 2, "r": 2, "s": 2, "u": 2, "v": 2})
        with pytest.raises(ConfigError, match="dims.*'v'"):
            parse_config(json.dumps(doc))

    def test_swept_axis_base_value_optional(self):
        doc = make_config()
        assert "rho2_db" not in doc
        parse_config(json.dumps(doc))  # no error

    def test_missing_unswept_snr_rejected(self):
        doc = make_config()
        del doc["rho1_db"]
        with pytest.raises(ConfigError, match="'rho1_db'"):
            parse_config(json.dumps(doc))

    def test_rho0_axis_forces_direct_link(self):
        doc = make_config(sweep={"axis": "rho0", "points_db": [0, 10]}, rho2_db=10.0)
        cfg = parse_config(json.dumps(doc))
        assert cfg.spec.scenario.direct_link_enabled

    @pytest.mark.parametrize("value", [True, False, 1, "yes"])
    def test_direct_link_key_is_unknown(self, tmp_path, capsys, value):
        # the link follows rho0_db and the axis alone: the key is refused
        # like any unknown one, before the sweep and its output
        doc = make_config(rho0_db=10.0, direct_link=value, output=str(tmp_path / "out.csv"))
        with pytest.raises(ConfigError, match="unknown key 'direct_link'"):
            parse_config(json.dumps(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 1
        assert "unknown key 'direct_link'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_unsorted_points_rejected(self):
        doc = make_config(sweep={"axis": "rho2", "points_db": [10, 0]})
        with pytest.raises(ConfigError, match="sorted"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("source", ["README", "cli docstring"])
    def test_documented_example_parses(self, source):
        # a key the parser no longer takes must not stay in the docs
        if source == "README":
            readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
            text = re.search(r"```json\n(.*?)```", readme, re.S)[1]
        else:
            doc = cli.__doc__
            text = re.sub(r"//.*", "", doc[doc.index("{"):doc.rindex("}") + 1])
        cfg = parse_config(text)
        assert cfg.spec.scenario.direct_link_enabled and cfg.spec.sweep_axis == "rho2"

    def test_bad_json_reported(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_format_version_checked(self):
        # true and 1.0 compare equal to 1 in Python, but are not the JSON integer 1
        for version in (2, True, 1.0, "1", None):
            with pytest.raises(ConfigError, match="format_version"):
                parse_config(json.dumps(make_config(format_version=version)))

    def test_format_version_one_accepted(self):
        assert parse_config(json.dumps(make_config(format_version=1))) == parse_config(json.dumps(make_config()))

    @pytest.mark.parametrize("command", ["run", "explain"])
    def test_explain_key_is_unknown(self, tmp_path, capsys, command):
        # explain replays the sweep's own seed and takes its trial from
        # --trial: a document that still names the section is refused
        doc = make_config(explain={"seed": 3, "trial": 9}, output=str(tmp_path / "out.csv"))
        with pytest.raises(ConfigError, match="unknown key 'explain'"):
            parse_config(json.dumps(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 1
        assert "unknown key 'explain'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_bad_symbol_rate(self):
        with pytest.raises(ConfigError, match="symbol_rate"):
            parse_config(json.dumps(make_config(symbol_rate=2.0)))

    # Value rules live in Dims and SweepSpec; the CLI reports their
    # ValidationError as a config error (exit 1) that names the value.
    @pytest.mark.parametrize(
        "overrides, named",
        [
            (dict(dims={"t": 0, "r": 4, "s": 4, "u": 4}), "got 0"),
            (dict(dims={"t": 2.5, "r": 4, "s": 4, "u": 4}), "got 2.5"),
            (dict(sweep={"axis": "rho2", "points_db": []}), "got ()"),
            (dict(sweep={"axis": "rho2", "points_db": [10, 0]}), "got (10.0, 0.0)"),
            (dict(rtms=["opt1", "opt9"]), "'opt9'"),
            (dict(rtms=[]), "got ()"),
            (dict(metrics=["bps"]), "'bps'"),
            (dict(symbol_rate=2.0), "got 2.0"),
            (dict(trials=0), "got 0"),
            (dict(trials=True), "got True"),
            (dict(seed=-1), "got -1"),
            # repeats would write a (sweep_db, rtm, metric) row twice
            (dict(rtms=["opt1", "opt1"], metrics=["capacity", "capacity"]), "without repeats, got ('opt1', 'opt1')"),
            (dict(metrics=["capacity", "ostbc", "capacity"]), "without repeats, got ('capacity', 'ostbc', 'capacity')"),
            (dict(sweep={"axis": "rho2", "points_db": [0, 5, 5]}), "strictly increasing, got (0.0, 5.0, 5.0)"),
            # a linear power 10^(dB/10) beyond float64 raised a bare OverflowError
            (dict(rho1_db=4000), "rho1_db 4000 dB overflows float64"),
            (dict(rho0_db=3100.5), "rho0_db 3100.5 dB overflows float64"),
            (dict(sweep={"axis": "rho2", "points_db": [0, 4000]}), "sweep point 4000 dB overflows float64"),
            (dict(rho1_db=10**400), "rho1_db must be a finite number, got 1000"),
            (dict(symbol_rate=10**400), "symbol_rate must lie in (0, 1], got 1000"),
        ],
    )
    def test_domain_rule_is_config_error(self, tmp_path, capsys, overrides, named):
        doc = make_config(output=str(tmp_path / "out.csv"), **overrides)
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse_config(json.dumps(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    # Structure and JSON-type rules live in the parser itself.
    @pytest.mark.parametrize(
        "text, named",
        [
            ("[]", "config must be a JSON object"),
            ('"config"', "config must be a JSON object"),
            (json.dumps(make_config(rtms="opt1")), "rtms: must be a JSON list, got 'opt1'"),
            (json.dumps(make_config(dims=[4, 4, 4, 4])), "dims: must be a JSON object, got [4, 4, 4, 4]"),
            (json.dumps(make_config(sweep={"axis": "rho2", "points_db": [0, "5"]})), "sweep.points_db[1]: must be a JSON number, got '5'"),
            (json.dumps(make_config(rho1_db=True)), "rho1_db: must be a JSON number, got True"),
            (json.dumps(make_config(sweep={"axis": "rho9", "points_db": [0]})), "sweep.axis: must be one of ['rho0', 'rho1', 'rho2'], got 'rho9'"),
        ],
    )
    def test_structure_error_is_config_error(self, tmp_path, capsys, text, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse_config(text)
        path = tmp_path / "config.json"
        path.write_text(text)
        for command in ("run", "explain"):
            assert main([command, str(path)]) == 1
            assert f"relay-rtm: config error: {named}" in capsys.readouterr().err


def _small_config(tmp_path, **overrides):
    doc = make_config(
        dims={"t": 2, "r": 2, "s": 2, "u": 2},
        trials=3,
        sweep={"axis": "rho2", "points_db": [0, 10]},
        output=str(tmp_path / "out.csv"),
    )
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


class TestRun:
    def test_csv_schema_and_rows(self, tmp_path, capsys):
        path, doc = _small_config(tmp_path, metrics=["capacity", "ostbc"])
        cfg = parse_config(path.read_text())
        assert run(cfg) == 0
        with open(doc["output"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sweep_db", "rtm", "metric", "mean_bits", "stderr_bits", "trials"]
        assert len(rows) == 1 + 2 * 2 * 2  # points x rtms x metrics
        # sorted by (sweep_db, rtm, metric)
        keys = [(float(r[0]), r[1], r[2]) for r in rows[1:]]
        assert keys == sorted(keys)
        for r in rows[1:]:
            assert float(r[3]) >= 0.0
            assert float(r[4]) >= 0.0
            assert int(r[5]) == 3
        assert "wrote" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path, capsys):
        path, doc = _small_config(tmp_path)
        cfg = parse_config(path.read_text())
        run(cfg)
        first = Path(doc["output"]).read_bytes()
        run(cfg)
        assert Path(doc["output"]).read_bytes() == first

    def test_monotone_capacity_in_second_hop_snr(self, tmp_path, capsys):
        path, doc = _small_config(
            tmp_path,
            dims={"t": 4, "r": 4, "s": 4, "u": 4},
            trials=25,
            rho1_db=10.0,
            sweep={"axis": "rho2", "points_db": [0, 5, 10, 15, 20, 25, 30]},
            rtms=["opt1"],
        )
        cfg = parse_config(path.read_text())
        run(cfg)
        with open(doc["output"], newline="") as fh:
            rows = [r for r in csv.DictReader(fh)]
        means = [float(r["mean_bits"]) for r in rows]
        assert means == sorted(means)

    def test_sweep_uses_every_available_cpu(self, tmp_path, capsys, monkeypatch):
        path, _ = _small_config(tmp_path)
        cfg = parse_config(path.read_text())
        seen = []

        def recording(spec, workers=1):
            seen.append(workers)
            return []

        monkeypatch.setattr("relay_rtm.cli.run_sweep", recording)
        run(cfg)
        expected = [len(os.sched_getaffinity(0))] if hasattr(os, "sched_getaffinity") else [os.cpu_count() or 1]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count in (5, None):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            run(cfg)
        assert seen == expected + [5, 1]

    def test_output_override(self, tmp_path, capsys):
        path, doc = _small_config(tmp_path)
        cfg = parse_config(path.read_text())
        alt = tmp_path / "alt.csv"
        run(cfg, output_override=str(alt))
        assert alt.exists()


class TestExplain:
    def _scalar_cfg(self, p2=2.0, rtms=("opt1",)):
        doc = {
            "dims": {"t": 1, "r": 1, "s": 1, "u": 1},
            "rho1_db": 0.0,
            "rho2_db": 0.0,
            "sweep": {"axis": "rho2", "points_db": [0]},
            "rtms": list(rtms),
            "metrics": ["capacity"],
            "trials": 1,
            "seed": 0,
        }
        return parse_config(json.dumps(doc))

    @staticmethod
    def _inject(monkeypatch, ch):
        """Have explain solve ``ch`` under p1 = 1, p2 = 2 instead of the
        sampled realization."""
        monkeypatch.setattr(
            "relay_rtm.cli.translate_scenario", lambda scn, raw: (ch, PowerBudget(1.0, 2.0))
        )

    def test_worked_scalar_example(self, monkeypatch):
        dims, ch = scalar_network()
        self._inject(monkeypatch, ch)
        report = explain(self._scalar_cfg())
        assert "alpha:        [0.5]" in report.replace("  ", " ") or "[0.5]" in report
        assert "[2]" in report      # beta
        assert "12" in report        # water level
        assert "[1]" in report       # mode powers
        assert "0.584962500" in report
        assert "kkt residuals" in report

    def test_no_water_state_reported(self, monkeypatch):
        cfg = self._scalar_cfg()
        self._inject(
            monkeypatch, ChannelSet(h0=np.zeros((1, 1)), h1=np.zeros((1, 1)), h2=np.ones((1, 1)))
        )
        with pytest.warns(UserWarning):
            report = explain(cfg)
        assert "no water" in report

    def test_opt2_segment_identity(self):
        cfg = parse_config(
            json.dumps(
                {
                    "dims": {"t": 4, "r": 4, "s": 4, "u": 4},
                    "rho1_db": 10.0,
                    "rho2_db": 10.0,
                    "sweep": {"axis": "rho2", "points_db": [10]},
                    "rtms": ["opt2"],
                    "metrics": ["capacity", "ostbc"],
                    "trials": 1,
                    "seed": 42,
                }
            )
        )
        report = explain(cfg)
        assert "[opt2]" in report
        assert "linear segment" in report
        assert "threshold(s) below the water level" in report

    def test_sampled_path_all_kinds(self):
        cfg = parse_config(
            json.dumps(
                {
                    "dims": {"t": 2, "r": 2, "s": 3, "u": 2},
                    "rho0_db": 5.0,
                    "rho1_db": 10.0,
                    "rho2_db": 10.0,
                    "sweep": {"axis": "rho2", "points_db": [10]},
                    "rtms": ["opt1", "opt2", "naf"],
                    "metrics": ["capacity"],
                    "trials": 1,
                    "seed": 5,
                }
            )
        )
        report = explain(cfg, trial=2)
        assert report.startswith("realization seed=5 trial=2\n")
        for tag in ("[opt1]", "[opt2]", "[naf-rect]"):
            assert tag in report
        assert "capacity:" in report and "ostbc capacity" in report

    def test_solves_through_the_sweep_builders(self, monkeypatch):
        # explain reports what a sweep of the same kinds solves
        calls = []

        def builder(ch, pb, dims):
            calls.append(dims)
            return naf_rtm(ch, pb, dims)

        monkeypatch.setitem(montecarlo._BUILDERS, "opt1", builder)
        report = explain(self._scalar_cfg())
        assert len(calls) == 1
        assert "[naf] capacity-optimal relay transform\n  diagonal gain:" in report
        assert "kkt residuals" not in report

    @pytest.mark.parametrize("template", [{}, {"rho2_db": 20.0}])
    def test_solves_the_first_sweep_point(self, template):
        # the point the sweep solves first, whatever the template holds for
        # the swept SNR: its capacity and OSTBC lines read the figures a
        # one-trial sweep averages there
        doc = make_config(
            rtms=["opt1", "opt2", "naf"],
            metrics=["capacity", "ostbc"],
            sweep={"axis": "rho2", "points_db": [5, 10]},
            trials=1,
            **template,
        )
        cfg = parse_config(json.dumps(doc))
        report = explain(cfg)
        assert "rho1=10 dB, rho2=5 dB;" in report
        means = {
            (cp.rtm_kind, cp.metric): f"{cp.mean_bits:.9f}"
            for cp in run_sweep(cfg.spec)
            if cp.sweep_value_db == 5.0
        }
        assert re.findall(r"^  capacity: +(\S+) bit/s/Hz$", report, re.M) == [
            means[kind, "capacity"] for kind in doc["rtms"]
        ]
        assert re.findall(r"^  ostbc capacity \(R=1\): +(\S+) bit/s/Hz$", report, re.M) == [
            means[kind, "ostbc"] for kind in doc["rtms"]
        ]

    def test_scenario_line_names_rho0_only_with_the_link(self):
        # without the link rho0 is the placeholder parse_config never uses
        lines = {}
        for name in ("pure_relay_m4", "direct_link_gain_m4"):
            lines[name] = explain(parse_config((CONFIGS / f"{name}.json").read_text())).splitlines()[1]
        assert lines["pure_relay_m4"] == (
            "scenario: t=4 r=4 s=4 u=4; direct link off, rho1=10 dB, rho2=0 dB; p1=4, p2=4"
        )
        assert lines["direct_link_gain_m4"].startswith(
            "scenario: t=4 r=4 s=4 u=4; rho0=-10 dB (direct link on), rho1=10 dB, "
        )

    def test_titles_name_every_kind(self):
        assert list(cli._TITLES) == list(montecarlo.RTM_KINDS)

    @pytest.mark.parametrize("trial", [0, 3])
    def test_replays_the_sweeps_trial(self, trial):
        # trial T of explain is trial T of the sweep, drawn from the
        # config's seed: its direct capacity form is the capacity the
        # sweep computes for that member at the first point
        doc = make_config(
            dims={"t": 2, "r": 3, "s": 2, "u": 2}, rho0_db=5.0, rtms=["opt1", "opt2", "naf"], trials=4
        )
        cfg = parse_config(json.dumps(doc))
        report = explain(cfg, trial=trial)
        assert report.startswith(f"realization seed=7 trial={trial}\n")
        direct = [float(v) for v in re.findall(r"^    \(direct form (\S+),", report, re.M)]
        swept = montecarlo._chunk_values(cfg.spec, range(trial, trial + 1))[0, 0, :, 0]
        np.testing.assert_allclose(direct, swept, rtol=0, atol=1e-11)
        assert report != explain(cfg, trial=1)


class TestMain:
    def test_run_roundtrip(self, tmp_path, capsys):
        path, doc = _small_config(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mean_bits" in out

    def test_explain_command(self, tmp_path, capsys):
        path, doc = _small_config(tmp_path)
        assert main(["explain", str(path), "--trial", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("realization seed=7 trial=2\n") and "[opt1]" in out

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_explain_runs_on_every_shipped_config(self, capsys, name):
        assert main(["explain", str(CONFIGS / name)]) == 0
        assert capsys.readouterr().out.startswith("realization seed=7 trial=0\n")

    def test_negative_trial_is_config_error(self, tmp_path, capsys):
        path, doc = _small_config(tmp_path)
        assert main(["explain", str(path), "--trial", "-1"]) == 1
        assert capsys.readouterr().err == "relay-rtm: config error: --trial must be an integer >= 0, got -1\n"

    def test_empty_output_is_config_error(self, tmp_path, capsys, monkeypatch):
        # an empty --output names no file; it does not fall back to the
        # config's output, and it fails before the sweep
        path, doc = _small_config(tmp_path)
        swept = []
        monkeypatch.setattr("relay_rtm.cli.run_sweep", lambda spec, workers=1: swept.append(spec) or [])
        assert main(["run", str(path), "--output", ""]) == 1
        assert capsys.readouterr().err.startswith("relay-rtm: config error: output path '' is not writable: ")
        assert swept == []
        assert not os.path.exists(doc["output"])

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_config_content(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["run", str(path)]) == 1

    def test_numerical_error_maps_to_exit_2(self, tmp_path, capsys, monkeypatch):
        path, _ = _small_config(tmp_path)

        def boom(spec, workers=1):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr("relay_rtm.cli.run_sweep", boom)
        assert main(["run", str(path)]) == 2
        assert "synthetic failure" in capsys.readouterr().err

    def test_singular_solve_maps_to_exit_2(self, tmp_path, capsys):
        # a real LAPACK failure, not a patched one: at 1000 dB the relay
        # path overflows and a solve meets a singular system
        path, _ = _small_config(
            tmp_path,
            dims={"t": 2, "r": 2, "s": 4, "u": 4},
            rtms=["opt1", "opt2", "naf"],
            metrics=["capacity", "ostbc"],
            trials=8,
            seed=0,
            sweep={"axis": "rho2", "points_db": [1000.0]},
        )
        assert main(["run", str(path)]) == 2
        assert re.search(r"relay-rtm: error: trial \d+ \(seed 0\) at rho2=1000.0 dB: ", capsys.readouterr().err)

    def test_failed_run_leaves_existing_csv(self, tmp_path, capsys, monkeypatch):
        path, doc = _small_config(tmp_path)
        previous = b"sweep_db,rtm,metric,mean_bits,stderr_bits,trials\n0.0,opt1,capacity,1.0,0.0,3\n"
        with open(doc["output"], "wb") as fh:
            fh.write(previous)

        def boom(spec, workers=1):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr("relay_rtm.cli.run_sweep", boom)
        assert main(["run", str(path)]) == 2
        with open(doc["output"], "rb") as fh:
            assert fh.read() == previous

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_run_leaves_the_output_as_it_was(self, tmp_path, capsys, monkeypatch, existed):
        # the writability probe creates a missing file; a failed sweep
        # removes it again and keeps an existing one byte for byte
        path, doc = _small_config(tmp_path)
        previous = b"sweep_db,rtm,metric,mean_bits,stderr_bits,trials\n"
        if existed:
            with open(doc["output"], "wb") as fh:
                fh.write(previous)

        def boom(spec, workers=1):
            assert os.path.exists(doc["output"])
            raise NumericalError("synthetic failure")

        monkeypatch.setattr("relay_rtm.cli.run_sweep", boom)
        with pytest.raises(NumericalError, match="synthetic failure"):
            run(parse_config(path.read_text()))
        if existed:
            with open(doc["output"], "rb") as fh:
                assert fh.read() == previous
        else:
            assert not os.path.exists(doc["output"])
        assert main(["run", str(path)]) == 2
        assert os.path.exists(doc["output"]) == existed

    def test_os_error_after_the_sweep_maps_to_exit_2(self, tmp_path, capsys, monkeypatch):
        # the output passed the writability probe, but writing the CSV fails
        path, _ = _small_config(tmp_path)

        def full_disk(points, stream):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("relay_rtm.cli.write_csv", full_disk)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "relay-rtm: error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_write_leaves_the_output_as_it_was(self, tmp_path, capsys, monkeypatch, existed):
        # a write that fails part way, as on a full disk, after the sweep
        path, doc = _small_config(tmp_path)
        previous = b"sweep_db,rtm,metric,mean_bits,stderr_bits,trials\n0.0,opt1,capacity,1.0,0.0,3\n"
        if existed:
            with open(doc["output"], "wb") as fh:
                fh.write(previous)

        def full_disk(points, stream):
            stream.write("sweep_db,rtm")
            stream.flush()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("relay_rtm.cli.write_csv", full_disk)
        assert main(["run", str(path)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        if existed:
            with open(doc["output"], "rb") as fh:
                assert fh.read() == previous
        # no temporary file is left beside it, nor a CSV that was not there
        assert sorted(os.listdir(tmp_path)) == (["config.json", "out.csv"] if existed else ["config.json"])

    def test_failed_run_keeps_a_dangling_link(self, tmp_path, capsys, monkeypatch):
        # the probe creates the link's target; a failed sweep removes that
        # file, not the link
        path, doc = _small_config(tmp_path)
        link, target = Path(doc["output"]), tmp_path / "target.csv"
        link.symlink_to(target)

        def boom(spec, workers=1):
            assert target.exists()
            raise NumericalError("synthetic failure")

        monkeypatch.setattr("relay_rtm.cli.run_sweep", boom)
        assert main(["run", str(path)]) == 2
        assert link.is_symlink() and not link.exists()
        assert not target.exists()

    @pytest.mark.parametrize("output", ["/dev/stdout", "/dev/fd/1"])
    @pytest.mark.parametrize("append", [True, False])
    def test_descriptor_output_is_the_open_stream(self, tmp_path, capsys, output, append):
        # `run --output /dev/stdout >> run.log` keeps the log's earlier lines
        # and adds the CSV, then the summary; `> run.log` holds the CSV, then
        # the summary
        path, doc = _small_config(tmp_path)
        assert main(["run", str(path)]) == 0
        with open(doc["output"]) as fh:
            csv_text = fh.read()
        log = tmp_path / "run.log"
        log.write_text("earlier line\n")
        src = str(Path(relay_rtm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        with open(log, "a" if append else "w") as stdout:
            done = subprocess.run(
                [sys.executable, "-m", "relay_rtm.cli", "run", str(path), "--output", output],
                env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
            )
        assert done.returncode == 0, done.stderr
        text = log.read_text()
        earlier = "earlier line\n" if append else ""
        assert text.startswith(earlier + csv_text + f"wrote 4 curve points to {output}\n")
        assert len(text[len(earlier + csv_text):].splitlines()) == 2 + 4

    def test_descriptor_output_may_be_a_socket(self, tmp_path, capsys):
        # as under a service manager whose stdout is a socket: the name
        # /dev/stdout cannot be opened, the descriptor is written
        path, doc = _small_config(tmp_path)
        assert main(["run", str(path)]) == 0
        with open(doc["output"]) as fh:
            csv_text = fh.read()
        src = str(Path(relay_rtm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        ours, theirs = socket.socketpair()
        with ours, theirs:
            done = subprocess.run(
                [sys.executable, "-m", "relay_rtm.cli", "run", str(path), "--output", "/dev/stdout"],
                env=env, stdout=theirs, stderr=subprocess.PIPE, text=True,
            )
            theirs.close()
            text = b"".join(iter(lambda: ours.recv(65536), b"")).decode()
        assert done.returncode == 0, done.stderr
        assert text.startswith(csv_text + "wrote 4 curve points to /dev/stdout\n")
        assert len(text[len(csv_text):].splitlines()) == 2 + 4

    @pytest.mark.parametrize("fails", [False, True])
    def test_named_pipe_output_is_one_stream(self, tmp_path, capsys, fails):
        # `mkfifo out.fifo; cat out.fifo &; run --output out.fifo`: the
        # reader gets the CSV once and then EOF, or nothing from a failed run
        path, doc = _small_config(tmp_path)
        assert main(["run", str(path)]) == 0
        with open(doc["output"]) as fh:
            csv_text = fh.read()
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo) as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        failing_sweep = "def boom(*args, **kwargs): raise NumericalError('synthetic failure')\ncli.run_sweep = boom\n"
        code = (
            "import sys\nfrom relay_rtm import cli\nfrom relay_rtm.errors import NumericalError\n"
            + (failing_sweep if fails else "")
            + "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(relay_rtm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-c", code, "run", str(path), "--output", str(fifo)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert done.returncode == (2 if fails else 0), done.stderr
        assert received == ["" if fails else csv_text]

    def test_closed_descriptor_output_is_config_error(self, tmp_path, capsys):
        path, _ = _small_config(tmp_path)
        fd = 987
        with pytest.raises(OSError):
            os.fstat(fd)
        assert main(["run", str(path), "--output", f"/dev/fd/{fd}"]) == 1
        assert "not writable" in capsys.readouterr().err

    def test_read_only_descriptor_output_is_refused_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        # a descriptor open for reading only used to pass the probe, and the
        # run failed with exit 2 after the whole sweep
        path, _ = _small_config(tmp_path)
        monkeypatch.setattr("relay_rtm.cli.run_sweep", lambda *args, **kwargs: pytest.fail("the sweep ran"))
        fd = os.open(path, os.O_RDONLY)
        try:
            assert main(["run", str(path), "--output", f"/dev/fd/{fd}"]) == 1
        finally:
            os.close(fd)
        assert "not open for writing" in capsys.readouterr().err

    def test_csv_has_the_mode_of_a_plain_open(self, tmp_path, capsys):
        path, doc = _small_config(tmp_path)
        reference = tmp_path / "reference"
        open(reference, "w").close()
        assert main(["run", str(path)]) == 0
        assert stat.S_IMODE(os.stat(doc["output"]).st_mode) == stat.S_IMODE(os.stat(reference).st_mode)
        # writing into an existing file keeps its mode
        os.chmod(doc["output"], 0o640)
        assert main(["run", str(path)]) == 0
        assert stat.S_IMODE(os.stat(doc["output"]).st_mode) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["config.json", "out.csv", "reference"]

    def test_symbolic_link_output_is_written_through(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "sweep.csv"
        target.write_text("old\n")
        link = tmp_path / "out.csv"
        link.symlink_to(target)
        path, _ = _small_config(tmp_path)
        assert main(["run", str(path)]) == 0
        assert link.is_symlink()
        assert target.read_text().startswith("sweep_db,rtm,metric,")
        assert sorted(os.listdir(tmp_path / "data")) == ["sweep.csv"]

    def test_no_temporary_file_during_the_sweep(self, tmp_path, capsys, monkeypatch):
        # a run ended by a signal mid-sweep leaves nothing beside the output
        path, _ = _small_config(tmp_path)
        seen = []

        def watched(*args, **kwargs):
            seen.append(sorted(os.listdir(tmp_path)))
            return run_sweep(*args, **kwargs)

        monkeypatch.setattr("relay_rtm.cli.run_sweep", watched)
        assert main(["run", str(path)]) == 0
        assert seen == [["config.json", "out.csv"]]
        assert sorted(os.listdir(tmp_path)) == ["config.json", "out.csv"]

    def test_device_output_is_written_in_place(self, tmp_path, capsys):
        path, _ = _small_config(tmp_path)
        assert main(["run", str(path), "--output", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    def test_file_in_unwritable_directory_is_written_in_place(self, tmp_path, capsys, monkeypatch):
        path, doc = _small_config(tmp_path)
        with open(doc["output"], "w") as fh:
            fh.write("old\n")
        inode = os.stat(doc["output"]).st_ino
        monkeypatch.setattr("relay_rtm.cli.os.access", lambda *args: False)
        assert main(["run", str(path)]) == 0
        assert os.stat(doc["output"]).st_ino == inode
        with open(doc["output"]) as fh:
            assert fh.read().startswith("sweep_db,rtm,metric,")

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        path, _ = _small_config(tmp_path, output=str(tmp_path / "no_dir" / "x.csv"))
        assert main(["run", str(path)]) == 1
        assert "not writable" in capsys.readouterr().err
