"""Every numerical threshold of the package is named once, in matcore's table.

The guard reads the syntax tree of each package module. A float literal
small or large enough to be a tolerance (0 < |v| < 1e-3 or |v| > 1e6) may
appear only in a module-level assignment of ``matcore``; no other module
binds a float constant, or an alias of one, at module level; and no
function takes a per-call tolerance except the admission tolerances of the
density check and the CLI loaders that pass ``--tol`` to them. Only
``matcore`` reads ``CLAMP``, so the spectral zero is one rule that the other
modules call. Every name of the table governs a decision somewhere, and the
README's tolerance table lists exactly the table's names.
"""

import ast
import pathlib
import re

import pytest

import buresgeo

MODULES = sorted(pathlib.Path(buresgeo.__file__).parent.glob("*.py"))
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TOLERANCE_PARAMETERS = {("states", "admit"), ("cli", "state_from_json"),
                        ("cli", "load_state"), ("cli", "add_common")}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _is_tolerance(value):
    return isinstance(value, float) and (0.0 < abs(value) < 1e-3 or abs(value) > 1e6)


def _module_assignments(tree):
    return [stmt for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_tolerance_literal_outside_the_table(path):
    tree = _tree(path)
    table = set()
    if path.stem == "matcore":
        table = {id(node) for stmt in _module_assignments(tree) for node in ast.walk(stmt)}
    found = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and _is_tolerance(node.value)
             and id(node) not in table]
    assert found == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "matcore"],
                         ids=lambda p: p.stem)
def test_no_other_module_defines_a_tolerance_constant(path):
    found = []
    for stmt in _module_assignments(_tree(path)):
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)) or \
                    (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id == "matcore"):
                found.append((stmt.lineno, ast.unparse(stmt)))
    assert found == []


def _clamp_reads(tree):
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "CLAMP")
            or (isinstance(node, ast.Name) and node.id == "CLAMP")
            or (isinstance(node, ast.alias) and node.name == "CLAMP")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "matcore"],
                         ids=lambda p: p.stem)
def test_only_matcore_reads_the_spectral_zero(path):
    assert _clamp_reads(_tree(path)) == []


def test_the_spectral_zero_guard_sees_matcore():
    assert _clamp_reads(_tree(next(p for p in MODULES if p.stem == "matcore")))


def test_only_the_admission_checks_take_a_tolerance():
    found = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg in ("tol", "clamp") or arg.arg.endswith("_tol"):
                        found.add((path.stem, node.name))
    assert found == TOLERANCE_PARAMETERS


def _table_names():
    matcore = next(p for p in MODULES if p.stem == "matcore")
    return {node.id for stmt in _module_assignments(_tree(matcore)) for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def test_every_table_name_is_read():
    read = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "matcore":
                read.add(node.attr)
            elif path.stem == "matcore" and isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    assert _table_names() - read == set()


def test_readme_table_matches_the_table():
    section = README.read_text(encoding="utf-8").split("## Tolerance policy", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert set(re.findall(r"^\| `(\w+)` \|", section, flags=re.M)) == _table_names()
