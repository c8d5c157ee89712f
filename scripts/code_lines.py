"""Count the code lines of each ``src/lmkad`` module and of the package.

A code line is a physical line that holds part of a Python token other
than a comment, after removing the lines of docstrings (the leading
string of a module, class or function body); blank lines and comment
lines do not count.  A statement split over several lines counts each of
them.

Usage: ``python scripts/code_lines.py [PACKAGE_DIR]`` (default: the
``src/lmkad`` next to this script).  Prints one ``<lines> <module>`` line
per module, sorted by name, then ``<lines> total``.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lmkad"

#: tokens that are not code
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
