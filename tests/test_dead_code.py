"""No module-level definition in the package goes unused.

A module-level function, class or assigned name counts as referenced
only when

  - a module of the package or of the benchmark (perfbench/*.py) imports
    it from the module that defines it, or reads it as an attribute of
    that module (``config_mod.parse_config``), or
  - the defining module itself uses it by bare name outside its own
    definition.

Imports are resolved to modules, so a name is not kept alive by another
module's namesake, by the same word in prose or strings, or by tests:
what only tests use is not surface. A private name (leading underscore)
that nothing references is dead code, and so is a public one.

Methods of the package's module-level classes are held to the same rule
by name: a method other than a dunder counts as referenced when a module
of the package or of the benchmark reads an attribute of that name
(``cb.observe``), or when it overrides a method of a base class, which
the base class's own callers reach.
"""

import ast
import importlib
import pathlib

import mvsde

PACKAGE = pathlib.Path(mvsde.__file__).parent
ROOT = PACKAGE.parent.parent


def _module(path):
    """(dotted module name, its package) of a package file."""
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
        return ".".join(parts), ".".join(parts)
    return ".".join(parts), ".".join(parts[:-1])


def _imported_from(package, node):
    """The module an ImportFrom statement reads from."""
    if not node.level:
        return node.module
    parts = package.split(".")
    base = parts[:len(parts) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _references(tree, package, modules):
    """(module, name) pairs the file reaches through imports and module
    attributes; modules is the set of the package's module names."""
    bound = {}  # local name -> module it is bound to
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom):
            source = _imported_from(package, node)
            for alias in node.names:
                refs.add((source, alias.name))
                if "%s.%s" % (source, alias.name) in modules:
                    bound[alias.asname or alias.name] = "%s.%s" % (
                        source, alias.name)

    def owner(node):
        # the module an expression denotes, or None
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = owner(node.value)
            if base and "%s.%s" % (base, node.attr) in modules:
                return "%s.%s" % (base, node.attr)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = owner(node.value)
            if base:
                refs.add((base, node.attr))
    return refs


def _bare_uses(node):
    return [sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)]


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


def _benchmark_trees():
    return [ast.parse(path.read_text(), str(path))
            for path in sorted(ROOT.glob("perfbench/*.py"))]


def _unreferenced(wanted):
    trees = _package_trees()
    modules = {_module(path)[0] for path in trees}
    refs = set()
    for path, tree in trees.items():
        refs |= _references(tree, _module(path)[1], modules)
    for tree in _benchmark_trees():
        refs |= _references(tree, "", modules)
    unused = []
    for path, tree in trees.items():
        module = _module(path)[0]
        uses = _bare_uses(tree)
        for node in tree.body:
            own = _bare_uses(node)
            for name in _defined(node):
                if name.startswith("__") or not wanted(name):
                    continue
                if ((module, name) not in refs
                        and uses.count(name) == own.count(name)):
                    unused.append("%s:%d %s" % (path.relative_to(PACKAGE),
                                                node.lineno, name))
    return unused


def test_every_private_definition_is_referenced():
    unused = _unreferenced(lambda name: name.startswith("_"))
    assert not unused, "unreferenced private definitions: %s" % (
        ", ".join(unused))


def test_every_public_definition_is_referenced():
    unused = _unreferenced(lambda name: not name.startswith("_"))
    assert not unused, "public definitions nothing outside tests uses: %s" % (
        ", ".join(unused))


def _unread_methods():
    """module:line Class.method for each method nothing reads by name."""
    trees = _package_trees()
    reads = {node.attr
             for tree in list(trees.values()) + _benchmark_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(importlib.import_module(_module(path)[0]),
                          node.name)
            bases = cls.__mro__[1:]
            for item in node.body:
                if (not isinstance(item, ast.FunctionDef)
                        or item.name.startswith("__")
                        or item.name in reads
                        or any(hasattr(base, item.name) for base in bases)):
                    continue
                unread.append("%s:%d %s.%s" % (path.relative_to(PACKAGE),
                                               item.lineno, node.name,
                                               item.name))
    return unread


def test_every_method_is_read():
    unread = _unread_methods()
    assert not unread, "methods nothing outside tests reads: %s" % (
        ", ".join(unread))
