import importlib.util
import re
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "figures.py"
_spec = importlib.util.spec_from_file_location("figures", _TOOL)
figures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(figures)

_MIX = [f"mix/{band}/{kind}" for band in ("-10..30dB", "50..60dB") for kind in ("opt1", "opt2", "naf")]


def test_two_runs_print_the_same_lines(capsys):
    args = ["--trials", "2", "--realizations", "16"]
    figures.main(args)
    first = capsys.readouterr().out
    figures.main(args)
    assert capsys.readouterr().out == first
    names = []
    for line in first.splitlines():
        name, digest = line.split(" ")
        assert re.fullmatch("[0-9a-f]{64}", digest)
        names.append(name)
    configs = sorted(p.stem for p in (_TOOL.parent.parent / "configs").glob("*.json"))
    sweeps = [name for c in configs for name in (f"csv/{c}/workers=1", f"csv/{c}/workers=2", f"pairs/{c}")]
    assert names == sweeps + _MIX


def test_against_prints_the_largest_relative_difference(tmp_path, capsys):
    # a tree against its own CSVs reads 0; one figure moved by 1e-10
    # relative reads 1e-10, a CSV with other rows and a missing CSV say so
    args = ["--trials", "2", "--realizations", "0"]
    figures.main(args + ["--csv-dir", str(tmp_path)])
    hashes = capsys.readouterr().out
    configs = sorted(p.stem for p in (_TOOL.parent.parent / "configs").glob("*.json"))
    names = configs + ["sweep_rho2_pure", "sweep_rho0_link"]
    assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(names + [s.replace("/", "_") for s in _MIX])

    pure = tmp_path / "pure_relay_m4.csv"
    header, first, *rest = pure.read_text().splitlines()
    cells = first.split(",")
    cells[4] = repr(float(cells[4]) * (1.0 + 1e-10))
    pure.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    link = tmp_path / "direct_link_gain_m4.csv"
    link.write_text("\n".join(link.read_text().splitlines()[:-1]) + "\n")
    (tmp_path / "full_network_m4.csv").unlink()

    figures.main(args + ["--against", str(tmp_path)])
    out = capsys.readouterr().out
    assert out.startswith(hashes)
    lines = dict(line.split(" ", 1) for line in out[len(hashes):].splitlines())
    assert list(lines) == [f"rel/{name}" for name in names + _MIX]
    for name in _MIX:
        assert lines.pop(f"rel/{name}") == "capacity 0.00e+00 ostbc 0.00e+00 power 0.00e+00 errors 0 -> 0 (0 rows differ)"
    assert lines.pop("rel/direct_link_gain_m4") == "rows differ"
    assert lines.pop("rel/full_network_m4") == "missing"
    mean, stderr = re.fullmatch(r"mean_bits (\S+) stderr_bits (\S+)", lines.pop("rel/pure_relay_m4")).groups()
    assert float(mean) == 0.0 and float(stderr) == pytest.approx(1e-10, rel=1e-3)
    assert set(lines.values()) == {"mean_bits 0.00e+00 stderr_bits 0.00e+00"}


def test_against_measures_the_mix(tmp_path, capsys):
    # each kind's table holds a row per realization; a figure moved by
    # 1e-10 relative reads 1e-10, a changed error counts once, a table with
    # other rows and a missing table say so
    args = ["--trials", "2", "--realizations", "16"]
    figures.main(args + ["--csv-dir", str(tmp_path)])
    hashes = capsys.readouterr().out
    opt1 = tmp_path / "mix_-10..30dB_opt1.csv"
    header, first, *rest = opt1.read_text().splitlines()
    assert header == "capacity,ostbc,power,error" and len(rest) == 13
    capacity, ostbc, power, error = first.split(",")
    assert float(capacity) > 0.0 and float(ostbc) > 0.0 and float(power) > 0.0 and error == ""
    opt1.write_text("\n".join([header, f"{float(capacity) * (1.0 + 1e-10)!r},{ostbc},,Boom()", *rest]) + "\n")
    opt2 = tmp_path / "mix_-10..30dB_opt2.csv"
    opt2.write_text("\n".join(opt2.read_text().splitlines()[:-1]) + "\n")
    (tmp_path / "mix_50..60dB_naf.csv").unlink()

    figures.main(args + ["--against", str(tmp_path)])
    out = capsys.readouterr().out
    assert out.startswith(hashes)
    lines = dict(line.split(" ", 1) for line in out[len(hashes):].splitlines() if line.startswith("rel/mix/"))
    assert list(lines) == [f"rel/{name}" for name in _MIX]
    moved = re.fullmatch(
        r"capacity (\S+) ostbc (\S+) power (\S+) errors (\d+) -> (\d+) \((\d+) rows differ\)",
        lines.pop("rel/mix/-10..30dB/opt1"),
    )
    assert float(moved[1]) == pytest.approx(1e-10, rel=1e-3) and float(moved[2]) == float(moved[3]) == 0.0
    # the error written into the other side's table: 1 there, 0 here
    assert moved.group(4, 5, 6) == ("1", "0", "1")
    assert lines.pop("rel/mix/-10..30dB/opt2") == "rows differ"
    assert lines.pop("rel/mix/50..60dB/naf") == "missing"
    assert set(lines.values()) == {"capacity 0.00e+00 ostbc 0.00e+00 power 0.00e+00 errors 0 -> 0 (0 rows differ)"}
