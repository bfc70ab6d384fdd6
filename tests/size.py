"""Size of ``src/kunent``: lines, code lines and docstring lines, per
module and in total.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the first statement of a module, class or function,
when it is a string).  Blank lines, comment-only lines and docstrings are
not code.  Run from anywhere, with only the standard library:

    python tests/size.py

pytest does not collect this file (it is not named ``test_*.py``).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kunent"

#: Tokens that make no line a code line.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(text: str) -> set[int]:
    """1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(text: str) -> tuple[int, int, int]:
    """(lines, code lines, docstring lines) of one module's source."""
    docs = docstring_lines(text)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docs), len(docs)


def main() -> int:
    rows = [(path.name, *size(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    print(f"{'module':<14}{'lines':>7}{'code':>7}{'docs':>7}")
    for name, *counts in rows:
        print(f"{name:<14}" + "".join(f"{c:>7,}" for c in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
