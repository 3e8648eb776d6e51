"""Count code lines in the sepconv3d package.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, and lies outside every module, class and function
docstring.  A token that spans lines (a multi-line string) counts each
line it covers.

    python tools/code_lines.py    # one line per module, then the total
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sepconv3d"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted(_PACKAGE.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
