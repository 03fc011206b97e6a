"""The README's promises resolve to tests, and its examples run.

The ``## Contracts`` table of README.md gives each promise of the package
in one row, with the tests that enforce it written as
``tests/<file>.py::<test_function>``. A row that names no test, a file
that does not exist or a function that its file does not define at
module level fails here. Test files are read with ``ast``, never
imported, so no test module is collected twice.

The README quotes no run time: a figure in seconds goes stale with the
next machine, so stating one fails. Each ``python`` block runs in a
fresh working directory, each ``ini`` block must parse, and every name
``import mvsde`` exposes must be documented.
"""

import ast
import pathlib
import re

import mvsde
from mvsde.config import parse_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TEST_ID = re.compile(r"`(tests/[\w/]+\.py)::(\w+)`")
SECONDS = re.compile(r"\b\d+(?:\.\d+)?\s?(?:s|secs?|seconds?|ms|us|µs)\b")


def _text():
    return README.read_text(encoding="utf-8")


def _contract_rows():
    """(promise, [(file, function), ...]) for each row of the table under
    the ``## Contracts`` heading, header and rule rows left out."""
    lines = _text().splitlines()
    start = lines.index("## Contracts")
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] in ("promise", "---") or set(cells[0]) <= {"-"}:
            continue
        rows.append((cells[0], TEST_ID.findall(cells[-1])))
    return rows


def _module_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _blocks(language):
    return re.findall(r"^```%s\n(.*?)^```$" % language, _text(),
                      flags=re.S | re.M)


def test_every_contract_names_a_test():
    rows = _contract_rows()
    assert rows, "README.md has no contract rows under ## Contracts"
    bare = [promise for promise, ids in rows if not ids]
    assert not bare, "contracts that name no test: %s" % bare


def test_every_named_test_is_defined():
    missing = []
    defined = {}
    for promise, ids in _contract_rows():
        for name, function in ids:
            path = ROOT / name
            if not path.is_file():
                missing.append("%s (no such file)" % name)
                continue
            if name not in defined:
                defined[name] = _module_functions(path)
            if function not in defined[name]:
                missing.append("%s::%s" % (name, function))
    assert not missing, "contract tests that do not resolve: %s" % missing


def test_no_figure_in_seconds():
    figures = [line for line in _text().splitlines()
               if SECONDS.search(line)]
    assert not figures, "README states run times: %s" % figures


def test_python_examples_run(tmp_path, monkeypatch):
    blocks = _blocks("python")
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_ini_examples_parse():
    blocks = _blocks("ini")
    assert blocks
    for block in blocks:
        parse_config(block)


def test_public_names_are_documented():
    text = _text()
    undocumented = [name for name in mvsde.__all__
                    if "`%s`" % name not in text]
    assert not undocumented, undocumented
