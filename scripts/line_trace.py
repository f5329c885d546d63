"""List the statements of the infoqm package that a pytest run never runs.

    python scripts/line_trace.py [pytest arguments]

Runs ``pytest.main`` on the given arguments under ``sys.settrace``, with
a line tracer only in the frames of ``src/infoqm``, and imports the
package from ``src``.  A statement (an ``ast`` node, its decorators
included; a bare string such as a docstring is not one) counts as run
when any of its lines ran, so a compound statement counts as run when
its header or any line of its body did.  Prints each statement that
never ran as ``module:line  source``, then per module how many of its
statements never ran, and exits with pytest's exit code.  Needs only
the standard library and pytest.  Tracing roughly doubles the run time
of the suite.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "infoqm"


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, lines) of every statement of the module at path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or bare constant compiles to nothing
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        found.append((first, set(range(first, node.end_lineno + 1))))
    return sorted(found, key=lambda s: s[0])


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per file of the package, the lines that ran."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(args: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    code, ran = traced_run(args)
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        stmts = statements(path)
        missed = [first for first, span in stmts if not span & lines]
        for first in missed:
            print(f"{path.name}:{first}  {source[first - 1].strip()}")
        counts.append((path.name, len(missed), len(stmts)))
    for name, missed, total in counts:
        print(f"{name:<16}{missed:>5} of {total:>4} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
