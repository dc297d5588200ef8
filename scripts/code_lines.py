#!/usr/bin/env python3
"""Print the size of each `src/smhc` module and of the package.

Two counts per module: all lines, and code lines, which leaves out blank
lines, comment-only lines and the lines of docstrings (the string that
opens a module, class or function body).  A line that holds code and a
trailing comment is code.  The last row is the total.

Usage: python3 scripts/code_lines.py [SRC_DIR]   (default: src/smhc of
this checkout)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    code = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "smhc"
    total_all = total_code = 0
    print(f"{'module':<16}{'all':>7}{'code':>7}")
    for path in sorted(src.glob("*.py")):
        n_all, n_code = counts(path.read_text())
        total_all += n_all
        total_code += n_code
        print(f"{path.name:<16}{n_all:>7}{n_code:>7}")
    print(f"{'total':<16}{total_all:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
