"""The package imports no name it never uses.

An unused import is dead weight that reads like a dependency.  The walk
lists, per module under ``src/repro``, every name an ``import`` binds
that the module never mentions.  A name counts as used when code reads
it, when a string annotation (``"Config"``, ``Dict[str, "Program"]``)
names it, or when ``__all__`` lists it (a re-export).  Imports inside an
``if TYPE_CHECKING:`` block exist for the type checker alone and count
as used, and so does ``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotations(tree: ast.AST):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg,
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_annotation_names(tree: ast.AST):
    """Names mentioned inside the string parts of annotations."""
    names = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                }
    return names


def _exported(tree: ast.AST):
    """The strings a module-level ``__all__`` lists."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            }
    return names


def _type_checking_imports(tree: ast.AST):
    """The import statements inside ``if TYPE_CHECKING:`` blocks."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            for inner in node.body:
                for sub in ast.walk(inner):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        yield sub


def _unused_imports(tree: ast.AST):
    """``(line, name)`` of every imported name the module never uses."""
    exempt = set(map(id, _type_checking_imports(tree)))
    bound = {}
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _string_annotation_names(tree) | _exported(tree)
    return sorted(
        (line, name) for name, line in bound.items() if name not in used
    )


def test_no_module_imports_an_unused_name():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(), str(path)))
        if unused:
            offenders[path.relative_to(SRC).as_posix()] = unused
    assert offenders == {}


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os", [(1, "os")]),
        ("import os.path\nos.sep", []),
        ("from typing import Dict, Tuple\nx: Dict = {}", [(1, "Tuple")]),
        ("from a import b as c\nb", [(1, "c")]),
        ("from __future__ import annotations", []),
        ("from a import Config\ndef f(x: 'Config'): pass", []),
        ("from a import C, P\ndef f() -> 'Dict[str, C]':\n    y: 'P'", []),
        ("from a import C\nx = 'C'", [(1, "C")]),
        ("from a import C\n__all__ = ['C']", []),
        (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    from a import C",
            [],
        ),
        ("def f():\n    import os", [(2, "os")]),
    ],
)
def test_walker_flags_each_form(source, unused):
    assert _unused_imports(ast.parse(source)) == unused
