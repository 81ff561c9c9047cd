"""Checks on the package source itself."""

import ast
import fnmatch
import re
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


BENCH = Path(__file__).resolve().parents[1] / "bench"
CRITERION = re.compile(r"acceptance\s+criterion\s+\d+", re.IGNORECASE)


def _names_in(nodes) -> set[str]:
    """Every name and attribute read or written under ``nodes``; a lookup
    ``globals()["cmd_" + ...]`` gives the pattern ``cmd_*``."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Call)
                and getattr(sub.value.func, "id", None) == "globals"
                and isinstance(sub.slice, ast.BinOp)
                and isinstance(sub.slice.left, ast.Constant)
            ):
                found.add(sub.slice.left.value + "*")
    return found


def unreached_public_names(sources, callers) -> list[str]:
    """Public top-level functions and classes of ``sources`` that no code reaches.

    Code reaches a name when module-level code of ``sources``, any code of
    ``callers``, or the body of a function or class it already reaches,
    refers to it.  A definition whose docstring names the acceptance
    criterion that runs it counts as reached.  Names match by spelling
    across modules; an import or an ``__all__`` entry refers to nothing.
    """
    bodies: dict[str, list] = {}
    roots = set()
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
                if CRITERION.search(ast.get_docstring(node) or ""):
                    roots.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names_in([node])
    for path in callers:
        roots |= _names_in([ast.parse(path.read_text(encoding="utf-8"))])

    def defined(names):
        return {name for name in bodies if any(fnmatch.fnmatchcase(name, used) for used in names)}

    reached, todo = set(), defined(roots)
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= defined(_names_in(bodies[name])) - reached
    return sorted(name for name in bodies if not name.startswith("_") and name not in reached)


def test_every_public_name_is_reached():
    """The library is what the CLI and the bench run: a public name that
    only tests call is deleted, moved to ``tests/``, or names the
    acceptance criterion that runs it."""
    unreached = unreached_public_names(SOURCES, sorted(BENCH.glob("*.py")))
    assert unreached == [], f"public names no code in src/ or bench/ reaches: {unreached}"
