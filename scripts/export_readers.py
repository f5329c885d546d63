"""List the names the infoqm package exports that no program reads.

    python scripts/export_readers.py

An export is a name that ``src/infoqm/__init__.py`` imports.  It is read
where a line names it as a whole word, other than the line of its own
``def`` or ``class``, in a module of the package other than
``__init__.py``, in a script under ``scripts/`` or ``perfbench/``, or in
``tests/test_acceptance.py``.  The script prints each export that no line
reads, one a line, and exits 1 if there is one.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "infoqm"


def exports() -> list[str]:
    """The names __init__.py imports, in its order."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def is_read(name: str, lines: list[str]) -> bool:
    """True iff a line names name as a whole word and does not define it."""
    own = re.compile(rf"\s*(def|class)\s+{name}\b")
    return any(re.search(rf"\b{name}\b", line) and not own.match(line) for line in lines)


def main() -> int:
    readers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    readers += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    readers.append(ROOT / "tests" / "test_acceptance.py")
    lines = [line for path in readers for line in path.read_text(encoding="utf-8").splitlines()]
    unread = [name for name in exports() if not is_read(name, lines)]
    for name in unread:
        print(name)
    return 1 if unread else 0


if __name__ == "__main__":
    sys.exit(main())
