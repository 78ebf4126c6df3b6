"""Every function and class that ``src/weakrank`` defines is used by the
program: by the package itself, a script or the benchmark.

Uses are read from the code, not from its words:

- The syntax trees of ``src/`` and ``scripts/`` are read. A function or
  class counts each ``Name`` and attribute access of its name.
- A method (a function in a class body) counts attribute accesses
  ``obj.name`` alone. Where ``name`` is also a data attribute (assigned as
  ``x.name = ...`` or declared in a class body), only calls ``obj.name(...)``
  count, unless the method is a property.
- The benchmark counts only through the lookup sites of
  ``perfbench/child.py``'s ``TARGETS``, the names it traces.

The package's ``__init__.py`` only re-exports, so it is not read. A name
left at zero is reached only from the tests; it belongs in
``tests/oracles.py`` or nowhere.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Reached only from the tests. ``controller.reinforce_update`` already steps
# through ``nncore.optimizer_step`` like the episode loop; what it keeps of
# its own is the non-finite reward check and the skipped step at zero
# advantage without an entropy bonus. It merges into the episode loop's step
# under ROADMAP item 8, which a benchmark change must unblock first:
# perfbench's ``TARGETS`` looks up ``zero_grads`` in ``controller`` and
# ``action_log_prob`` and ``zero_grads`` in ``trainer``. Wherever the single
# step lives, one of those sites stops resolving (``test_trace_targets.py``)
# or stays behind as an import nothing reads (``test_unused_imports.py``).
TEST_ONLY = {"reinforce_update"}


def _definitions(tree) -> dict[str, bool]:
    """Each definition's name (``Class.method`` for a method) and whether it
    is a property."""
    found = {}
    for node in ast.walk(tree):
        body = node.body if isinstance(node, ast.ClassDef) else ()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if child.name.startswith("__") and child.name.endswith("__"):
                continue
            if child in body and not isinstance(child, ast.ClassDef):
                found[f"{node.name}.{child.name}"] = any(
                    isinstance(d, ast.Name) and d.id == "property" for d in child.decorator_list)
            else:
                found[child.name] = False
    return found


def unused_definitions(defining: dict[str, str], referencing: dict[str, str],
                       traced_sites=()) -> list[str]:
    """The definitions of the ``defining`` sources that neither the
    ``referencing`` sources nor a traced ``module:name`` or
    ``module:Class.method`` site uses, by the rules above."""
    defined = {}
    for source in defining.values():
        defined.update(_definitions(ast.parse(source)))
    trees = [ast.parse(source) for source in referencing.values()]
    data = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                data.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    targets = (item.targets if isinstance(item, ast.Assign)
                               else [item.target] if isinstance(item, ast.AnnAssign) else [])
                    data.update(t.id for t in targets if isinstance(t, ast.Name))
    names, attributes, called = Counter(), Counter(), Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes[node.attr] += 1
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called[node.func.attr] += 1
    for site in traced_sites:
        path = site.partition(":")[2]
        (attributes if "." in path else names)[path.rpartition(".")[2]] += 1
        called[path.rpartition(".")[2]] += "." in path

    def used(qualified: str, is_property: bool) -> bool:
        owner, _, name = qualified.rpartition(".")
        if not owner:
            return names[name] + attributes[name] > 0
        return (attributes if is_property or name not in data else called)[name] > 0

    return sorted(name for name, is_property in defined.items() if not used(name, is_property))


def _sources(*tops) -> dict[str, str]:
    return {str(path): path.read_text(encoding="utf-8")
            for top in tops for path in sorted((ROOT / top).rglob("*.py"))
            if path != ROOT / "src" / "weakrank" / "__init__.py"}


def _traced_sites() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_child",
                                                  ROOT / "perfbench" / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [site for _, sites, _ in module.TARGETS for site in sites]


def test_every_src_definition_is_used_outside_the_tests():
    src = _sources("src")
    assert sum(len(_definitions(ast.parse(s))) for s in src.values()) > 100
    unused = unused_definitions(src, _sources("src", "scripts"), _traced_sites())
    assert unused == sorted(TEST_ONLY)


def test_a_test_only_method_named_like_another_identifier_is_unused():
    """The case the word count missed: a method only the tests call, named
    like a data attribute read elsewhere and like a function in use."""
    registry = ("class Registry:\n"
                "    def index_of(self, name):\n"
                "        return 0\n"
                "REGISTRY = Registry()\n")
    graph = ("class Graph:\n"
             "    def __init__(self, nodes):\n"
             "        self.index_of = {n: i for i, n in enumerate(nodes)}\n"
             "    def node(self, key):\n"
             "        return self.index_of[key]\n"
             "def index_of(nodes, key):\n"
             "    return Graph(nodes).node(key)\n"
             "index_of([1], 1)\n")
    sources = {"registry.py": registry, "graph.py": graph}
    assert unused_definitions(sources, sources) == ["Registry.index_of"]
    called = {**sources, "cli.py": "def main(registry):\n    return registry.index_of('x')\n"}
    assert unused_definitions(sources, called) == []
    assert unused_definitions(sources, sources, ["registry:Registry.index_of"]) == []
