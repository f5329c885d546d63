"""Count the code lines of each module of the infoqm package.

    python scripts/code_lines.py

A code line is a line that holds a token of code.  Blank lines, comments
and docstrings (of the module, a class or a function) are not code; the
tokens come from ``tokenize`` and the docstrings from ``ast``.  The script
prints one line per module of ``src/infoqm``, their total, and last the
count the ROADMAP quotes: the lines of ``src/`` that are neither blank
nor comments, docstrings included.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of source that hold a token other than a comment or a docstring."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, _DEFS) and ast.get_docstring(node, clean=False) is not None
    }
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def roadmap_lines(source: str) -> int:
    """Lines that are neither blank nor comments; docstrings count."""
    return sum(1 for line in source.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted((SRC / "infoqm").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16s} {count:5d}")
    print(f"{'total':16s} {total:5d}")
    roadmap = sum(roadmap_lines(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py")))
    print(f"{'src/ non-blank, non-comment':16s} {roadmap:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
