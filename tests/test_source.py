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
    """Every name and attribute read under ``nodes``; a lookup
    ``globals()["cmd_" + ...]`` gives the pattern ``cmd_*``.  A name that
    is only written (an assignment target, a dataclass field) is no read."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
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


def _definitions(node):
    """(name, spelling, node, parts) of a top-level function or class and
    of each public method of a class: a class's parts are all of it but its
    public methods, which are definitions of their own."""
    if not isinstance(node, ast.ClassDef):
        return [(node.name, node.name, node, [node])]
    methods = [
        sub for sub in node.body
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not sub.name.startswith("_")
    ]
    rest = [sub for sub in ast.iter_child_nodes(node) if sub not in methods]
    return [(node.name, node.name, node, rest)] + [(f"{node.name}.{m.name}", m.name, m, [m]) for m in methods]


def unreached_public_names(sources, callers) -> list[str]:
    """Public top-level functions and classes and public methods of
    ``sources`` that no code reaches.

    Code reaches a definition when module-level code of ``sources``, any
    code of ``callers``, or the code of a definition it already reaches
    reads its name (a method's name as an attribute).  A definition whose
    docstring names the acceptance criterion that runs it counts as
    reached.  Names match by spelling across modules and classes; an
    import or an ``__all__`` entry refers to nothing.
    """
    bodies: dict[str, list] = {}
    spelling: dict[str, str] = {}
    roots = set()
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for name, spelled, defn, parts in _definitions(node):
                    bodies.setdefault(name, []).extend(parts)
                    spelling[name] = spelled
                    if CRITERION.search(ast.get_docstring(defn) or ""):
                        roots.add(spelled)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names_in([node])
    for path in callers:
        roots |= _names_in([ast.parse(path.read_text(encoding="utf-8"))])

    def defined(names):
        return {name for name in bodies if any(fnmatch.fnmatchcase(spelling[name], used) for used in names)}

    reached, todo = set(), defined(roots)
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= defined(_names_in(bodies[name])) - reached
    return sorted(
        name for name in bodies if not spelling[name].startswith("_") and name not in reached
    )


def test_every_public_name_is_reached():
    """The library is what the CLI and the bench run: a public name that
    only tests call is deleted, moved to ``tests/``, or names the
    acceptance criterion that runs it."""
    unreached = unreached_public_names(SOURCES, sorted(BENCH.glob("*.py")))
    assert unreached == [], f"public names no code in src/ or bench/ reaches: {unreached}"
