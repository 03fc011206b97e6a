"""No module-level private function or class in the package goes unused.

A private name (leading underscore) is not part of the public surface,
so when nothing in the package refers to it, it is dead code. Names are
matched on the parsed source: a load of the name, an attribute access
or an import of it anywhere in the package counts as a reference, except
inside the definition itself.
"""

import ast
import collections
import pathlib

import mvsde

PACKAGE = pathlib.Path(mvsde.__file__).parent


def _referenced(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def test_every_private_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    uses = collections.Counter()
    for tree in trees.values():
        uses.update(_referenced(tree))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if uses[name] - list(_referenced(node)).count(name) == 0:
                unused.append("%s:%d %s" % (path.relative_to(PACKAGE),
                                            node.lineno, name))
    assert not unused, "unreferenced private definitions: %s" % (
        ", ".join(unused))
