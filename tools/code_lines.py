"""Count the code lines of the ``relay_rtm`` package.

A code line is a line that holds some token of a statement: docstrings
(the first string statement of a module, class or function), comments and
blank lines are not code.  A docstring's own lines are skipped, and so are
lines that hold only comments.  Raw lines count every line.

    python3 tools/code_lines.py [DIR] [--against OTHER]

prints one line per module and a total, for ``src/relay_rtm`` by default.
With ``--against OTHER`` it prints the code lines of each module in OTHER
and in DIR and their difference, a module missing from one side counting
0 there, and the same for the totals.  OTHER is, for example, a parent
commit's package unpacked by ``git archive``::

    mkdir parent && git archive HEAD~1 src/relay_rtm | tar -x -C parent
    python3 tools/code_lines.py --against parent/src/relay_rtm
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of the first token of every docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(code lines, raw lines) of Python ``source``."""
    starts = _docstring_starts(ast.parse(source))
    code = set()
    in_docstring = False
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            in_docstring = in_docstring and tok.type not in (tokenize.NEWLINE, tokenize.ENDMARKER)
            continue
        # a docstring's statement runs from its first string token to its NEWLINE
        in_docstring = in_docstring or tok.start in starts
        if not in_docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), len(source.splitlines())


def _code_lines(root: Path) -> dict:
    """Code lines of each module directly in ``root``, by file name."""
    return {path.name: count(path.read_text())[0] for path in sorted(root.glob("*.py"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog=Path(argv[0]).name, description="Count the code lines of a package.")
    parser.add_argument("dir", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent / "src" / "relay_rtm")
    parser.add_argument("--against", type=Path, metavar="OTHER", help="also count OTHER and print the difference")
    args = parser.parse_args(argv[1:])
    if args.against is not None:
        before, after = _code_lines(args.against), _code_lines(args.dir)
        print(f"{'module':24s} {'other':>6s} {'dir':>6s} {'delta':>6s}")
        for name in sorted(before.keys() | after.keys()):
            old, new = before.get(name, 0), after.get(name, 0)
            print(f"{name:24s} {old:6d} {new:6d} {new - old:+6d}")
        old, new = sum(before.values()), sum(after.values())
        print(f"{'total':24s} {old:6d} {new:6d} {new - old:+6d}")
        return 0
    total_code = total_raw = 0
    for path in sorted(args.dir.glob("*.py")):
        code, raw = count(path.read_text())
        total_code += code
        total_raw += raw
        print(f"{path.name:24s} {code:6d} code {raw:6d} raw")
    print(f"{'total':24s} {total_code:6d} code {total_raw:6d} raw")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
