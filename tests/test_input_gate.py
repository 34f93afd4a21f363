"""Outside input is checked by one gate, in matcore.

The guard reads the syntax tree of each package module. Only ``matcore``
tests finiteness (``np.isfinite`` or ``math.isfinite``) and only it raises
the integer-dimension message, so every other module coerces its input
through matcore's gate instead of keeping its own copy of the rule.
"""

import ast
import pathlib

import pytest

import buresgeo

MODULES = sorted(pathlib.Path(buresgeo.__file__).parent.glob("*.py"))
DIMENSION_MESSAGE = "must be an integer"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _finiteness_tests(tree):
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "isfinite")
            or (isinstance(node, ast.Name) and node.id == "isfinite")
            or (isinstance(node, ast.alias) and node.name == "isfinite")]


def _raised_strings(tree):
    return [node.value for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise)
            for node in ast.walk(stmt)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "matcore"],
                         ids=lambda p: p.stem)
def test_only_matcore_tests_finiteness(path):
    assert _finiteness_tests(_tree(path)) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "matcore"],
                         ids=lambda p: p.stem)
def test_only_matcore_raises_the_dimension_message(path):
    assert [s for s in _raised_strings(_tree(path)) if DIMENSION_MESSAGE in s] == []


def test_the_guard_sees_the_gate():
    tree = _tree(next(p for p in MODULES if p.stem == "matcore"))
    assert _finiteness_tests(tree)
    assert any(DIMENSION_MESSAGE in s for s in _raised_strings(tree))
