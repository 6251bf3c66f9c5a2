import importlib.util
import re
from pathlib import Path

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
