import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_MODULE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps the line

# a comment line


class Box:
    """Class docstring."""

    size = 2

    def area(self):
        """Method docstring
        on two lines.
        """
        text = """a multi-line string
        that is not a docstring"""
        return math.pi * self.size ** 2, text


def f(x):
    "A one-line docstring in plain quotes."
    y = (x +
         1)
    return y
'''


def test_counts_a_synthetic_module():
    # code: import, class, size, def area, text (2 lines), return,
    # def f, y (2 lines), return
    assert code_lines.count(_MODULE) == (11, len(_MODULE.splitlines()))


def test_docstring_free_source_counts_every_nonblank_line():
    assert code_lines.count("x = 1\n\ny = 2\n") == (2, 3)


def test_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_MODULE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    raw = len(_MODULE.splitlines())
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["a.py", "11", "code", str(raw), "raw"],
        ["b.py", "1", "code", "1", "raw"],
        ["total", "12", "code", str(raw + 1), "raw"],
    ]


def test_against_prints_both_counts_and_the_delta(tmp_path, capsys):
    other, new = tmp_path / "other", tmp_path / "new"
    other.mkdir()
    new.mkdir()
    (other / "changed.py").write_text("x = 1\n")
    (new / "changed.py").write_text(_MODULE)
    (new / "added.py").write_text("x = 1\ny = 2\n")
    (other / "removed.py").write_text("x = 1\ny = 2\nz = 3\n")
    (other / "same.py").write_text("x = 1\n")
    (new / "same.py").write_text("# a comment\nx = 1\n")
    assert code_lines.main(["code_lines.py", str(new), "--against", str(other)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["module", "other", "dir", "delta"],
        ["added.py", "0", "2", "+2"],
        ["changed.py", "1", "11", "+10"],
        ["removed.py", "3", "0", "-3"],
        ["same.py", "1", "1", "+0"],
        ["total", "5", "14", "+9"],
    ]
