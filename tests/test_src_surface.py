"""Every function and class that ``src/weakrank`` defines is used by the
program: by the package itself, a script or the benchmark.

A name is counted by its word-bounded occurrences across ``src/``,
``scripts/`` and ``perfbench/``, less its own definitions. The package's
``__init__.py`` only re-exports, so its mentions do not count. A name left
at zero is reached only from the tests; it belongs in ``tests/oracles.py``
or nowhere.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defined_names() -> Counter:
    names = Counter()
    for path in sorted((ROOT / "src" / "weakrank").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names[node.name] += 1
    return names


# Reached only from the tests. ``controller.reinforce_update``, the second
# REINFORCE step, merges into the episode loop's step under ROADMAP item 2,
# after a benchmark change has updated perfbench's traced ``TARGETS``.
TEST_ONLY = {"reinforce_update"}


def test_every_src_definition_is_used_outside_the_tests():
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for top in ("src", "scripts", "perfbench")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path != ROOT / "src" / "weakrank" / "__init__.py"
    )
    defined = _defined_names()
    assert len(defined) > 100
    unused = sorted(name for name, n in defined.items()
                    if len(re.findall(rf"\b{re.escape(name)}\b", text)) - n <= 0)
    assert unused == sorted(TEST_ONLY)
