"""Count the code lines of Python files: non-blank lines that hold more than
comments and docstrings.

A line counts when it holds a token other than a comment, a newline, an
indent or dedent, or a docstring (the string expression that opens a
module, class or function body, found by ``ast``).  So a line with code
and a trailing comment counts, and a line that continues a multi-line
statement counts.

Usage: ``python tools/code_lines.py [PATH ...]`` prints each file's count
and each path's total (a directory's ``*.py`` files, recursively; ``src``
and ``tests`` when no path is given), then the grand total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    source = path.read_bytes()
    docstrings = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    grand = 0
    for root in argv or ["src", "tests"]:
        base = Path(root)
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        total = 0
        for path in files:
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path}")
        print(f"{total:6d}  {root} (total)")
        grand += total
    print(f"{grand:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
