"""No module-level definition in the package goes unused.

A private name (leading underscore) is not part of the public surface,
so when nothing in the package refers to it, it is dead code. A public
module-level function, class or assigned name is dead code too when
nothing refers to it in the package, in the benchmark (perfbench/) or in
the README, which documents the API: what only tests use is not surface.

Names are matched on the parsed source: a load of the name, an attribute
access or an import of it anywhere in the package counts as a reference,
except inside the definition itself. In perfbench/ and the README any
occurrence of the name as a word counts, strings and prose included,
since the benchmark looks some attributes up by name.
"""

import ast
import collections
import pathlib
import re

import mvsde

PACKAGE = pathlib.Path(mvsde.__file__).parent
ROOT = PACKAGE.parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _referenced(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _defined(node):
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [sub.id for target in node.targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name)]
    return []


def _package_trees():
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.rglob("*.py"))}


def _unreferenced(trees, outside, wanted):
    uses = collections.Counter()
    for tree in trees.values():
        uses.update(_referenced(tree))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            for name in _defined(node):
                if name.startswith("__") or not wanted(name):
                    continue
                own = list(_referenced(node)).count(name)
                if uses[name] - own == 0 and name not in outside:
                    unused.append("%s:%d %s" % (path.relative_to(PACKAGE),
                                                node.lineno, name))
    return unused


def test_every_private_definition_is_referenced():
    unused = _unreferenced(_package_trees(), set(),
                           lambda name: name.startswith("_"))
    assert not unused, "unreferenced private definitions: %s" % (
        ", ".join(unused))


def test_every_public_definition_is_referenced():
    texts = [path.read_text() for path in sorted(ROOT.glob("perfbench/*.py"))]
    texts.append((ROOT / "README.md").read_text())
    outside = set(WORD.findall("\n".join(texts)))
    unused = _unreferenced(_package_trees(), outside,
                           lambda name: not name.startswith("_"))
    assert not unused, "public definitions nothing outside tests uses: %s" % (
        ", ".join(unused))
