"""List the names the infoqm package exports that no program reads.

    python scripts/export_readers.py

An export is a name that ``src/infoqm/__init__.py`` imports.  It is read
where a name token of code (a ``tokenize`` NAME token, so not a comment
or a string) is the name, other than the name of its own ``def`` or
``class``, in a module of the package other than ``__init__.py``, in a
script under ``scripts/`` or ``perfbench/``, or in
``tests/test_acceptance.py``.  The script prints each export that no
token reads, one a line, and exits 1 if there is one.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "infoqm"


def exports() -> list[str]:
    """The names __init__.py imports, in its order."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def read_names(path: Path) -> set[str]:
    """The names of path's NAME tokens, less each name a def or class defines."""
    names = set()
    previous = None
    with tokenize.open(path) as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(token.string)
            if token.type not in (tokenize.COMMENT, tokenize.NL):
                previous = token.string
    return names


def main() -> int:
    readers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    readers += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    readers.append(ROOT / "tests" / "test_acceptance.py")
    read = set().union(*(read_names(path) for path in readers))
    unread = [name for name in exports() if name not in read]
    for name in unread:
        print(name)
    return 1 if unread else 0


if __name__ == "__main__":
    sys.exit(main())
