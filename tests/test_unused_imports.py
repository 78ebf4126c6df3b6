"""No module under ``src/weakrank``, ``scripts`` or ``tests`` imports a name
it never reads.

A name an import binds counts as read when the module loads it anywhere
(``ast.Name`` in a load context; an attribute chain ``a.b`` reads ``a``).
Package ``__init__.py`` files re-export their imports, so they are not
scanned, and ``from __future__ import ...`` binds nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    for top in ("src/weakrank", "scripts", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and never reads, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_scan_flags_exactly_the_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, json as js\n"
        "import os.path\n"
        "from typing import Any, List as L\n"
        "def f(x: Any) -> int:\n"
        "    return os.getpid()\n"
    )
    assert unused_imports(source) == ["js", "L"]


def test_no_module_imports_a_name_it_never_reads():
    found = {str(path.relative_to(ROOT)): names for path in _modules()
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
