"""Count the code lines of the ``relay_rtm`` package.

A code line is a line that holds some token of a statement: docstrings
(the first string statement of a module, class or function), comments and
blank lines are not code.  A docstring's own lines are skipped, and so are
lines that hold only comments.  Raw lines count every line.

    python3 tools/code_lines.py [DIR]

prints one line per module and a total, for ``src/relay_rtm`` by default.
"""

from __future__ import annotations

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


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "relay_rtm"
    total_code = total_raw = 0
    for path in sorted(root.glob("*.py")):
        code, raw = count(path.read_text())
        total_code += code
        total_raw += raw
        print(f"{path.name:24s} {code:6d} code {raw:6d} raw")
    print(f"{'total':24s} {total_code:6d} code {total_raw:6d} raw")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
