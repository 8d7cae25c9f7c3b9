"""Every function, class and method of the package is used by the package.

A definition is used when its name appears somewhere in `src/stochns/`
outside its own definition: as a name, as an attribute, or in a string
annotation. `__init__.py` only re-exports, so its names do not count.
Names are matched without scopes, so a method counts as used wherever an
attribute of that name is read. Dunder methods are called by Python itself
and are not checked. Code that only tests call belongs in `tests/`.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stochns"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# used from outside the package on purpose (the console-script entry point
# `cli.main` needs no entry: the module's __main__ block calls it)
ALLOWED = {
    "snapshots.load_state",                 # the README's snapshot reader
    "fields.gevrey_sobolev_norm_sq",        # the README's overflow-checked Gevrey norm
    "brownian.refine",                      # one block's bridge; a benchmarks/tracing.py target
    "studies.budget_exceedance",            # acceptance-only verification engines,
    "diagnostics.check_convective_bounds",  # run by tests/test_acceptance.py
}


def name_uses(tree: ast.AST) -> Counter:
    """How often each name is read in tree, as a name, an attribute or in a
    string annotation."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                uses += name_uses(ast.parse(ann.value, mode="eval"))
    return uses


def definitions(tree: ast.Module):
    """(qualified name, node) of every top-level function and class and of
    every method that is not a dunder."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """module.qualified name of each definition in sources that no code
    outside its own definition uses."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((name_uses(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            if total[node.name] - name_uses(node)[node.name] == 0:
                unused.append(f"{module}.{qualname}")
    return unused


def test_package_uses_every_definition():
    unused = unused_definitions({p.stem: p.read_text() for p in MODULES})
    assert sorted(set(unused) - ALLOWED) == []
    # an entry that is used after all, or no longer exists, is dropped here
    assert ALLOWED <= set(unused)


def test_unused_definition_is_found():
    sources = {
        "a": "def used():\n    return 1\n\n"
             "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
             "class Box:\n    def __init__(self):\n        self.x = used()\n\n"
             "    def read(self):\n        return self.x\n\n"
             "    def spare(self):\n        return self.read()\n",
        "b": "from .a import Box\n\ndef take(box: 'Box'):\n    return box.read()\n",
    }
    assert unused_definitions(sources) == ["a.recursive", "a.Box.spare", "b.take"]
