"""The package holds no code that only tests use.

Every function, method and class defined in ``src/wikitalk``, and every
name a module assigns at its top level, must be named somewhere in the
program: in ``src/`` beyond its own definition, in ``perfbench/`` or in
``scripts/``. A name used only inside definitions that are themselves
unused does not count, so code that serves only a test-only helper is
caught with it. Test helpers and oracles live under ``tests/``.
Dunder names are read by Python itself and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wikitalk"
PROGRAM_DIRS = [ROOT / "src", ROOT / "perfbench", ROOT / "scripts"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees():
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for d in PROGRAM_DIRS
        for path in sorted(d.rglob("*.py"))
    }


def _definitions(tree):
    """(name, node) of every function and class in ``tree``, and of every
    module-level assignment to a plain name."""
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        yield from ((target.id, node) for target in targets if isinstance(target, ast.Name))


def _names(node, skip):
    """Every name loaded, read as an attribute or spelled as a string
    (``getattr`` and patching take names as strings) under ``node``, outside
    the definitions in ``skip``. An import or an assignment alone is not a
    use."""
    if node in skip:
        return
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from _names(child, skip)


def test_every_package_definition_is_used_by_the_program():
    trees = _trees()
    definitions = [
        (f"{path.name}:{node.lineno} {name}", name, node)
        for path, tree in trees.items()
        if path.is_relative_to(PACKAGE)
        for name, node in _definitions(tree)
        if not name.startswith("__")
    ]
    unused: set = set()
    while True:
        referenced = {name for tree in trees.values() for name in _names(tree, unused)}
        now_unused = {node for _, name, node in definitions if name not in referenced}
        if now_unused == unused:
            break
        unused = now_unused
    assert [where for where, _, node in definitions if node in unused] == []
