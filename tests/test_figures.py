import importlib.util
import re
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "figures.py"
_spec = importlib.util.spec_from_file_location("figures", _TOOL)
figures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(figures)


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
    mix = [f"mix/{band}/{kind}" for band in ("-10..30dB", "50..60dB") for kind in ("opt1", "opt2", "naf")]
    assert names == sweeps + mix


def test_against_prints_the_largest_relative_difference(tmp_path, capsys):
    # a tree against its own CSVs reads 0; one figure moved by 1e-10
    # relative reads 1e-10, a CSV with other rows and a missing CSV say so
    args = ["--trials", "2", "--realizations", "0"]
    figures.main(args + ["--csv-dir", str(tmp_path)])
    hashes = capsys.readouterr().out
    configs = sorted(p.stem for p in (_TOOL.parent.parent / "configs").glob("*.json"))
    names = configs + ["sweep_rho2_pure", "sweep_rho0_link"]
    assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(names)

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
    assert list(lines) == [f"rel/{name}" for name in names]
    assert lines.pop("rel/direct_link_gain_m4") == "rows differ"
    assert lines.pop("rel/full_network_m4") == "missing"
    mean, stderr = re.fullmatch(r"mean_bits (\S+) stderr_bits (\S+)", lines.pop("rel/pure_relay_m4")).groups()
    assert float(mean) == 0.0 and float(stderr) == pytest.approx(1e-10, rel=1e-3)
    assert set(lines.values()) == {"mean_bits 0.00e+00 stderr_bits 0.00e+00"}
