"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import rmflab

SOURCES = sorted(Path(rmflab.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {"cli.py", "optim.py", "rbound.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    """Contract checks raise explicit exceptions: ``python -O`` strips asserts."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"
