"""The package reads no environment variables.

Every run is configured by CLI flags and constructor arguments only, so
a verdict cannot depend on a variable the caller did not see.  The walk
flags any use of ``os.environ``, ``os.getenv`` or ``os.putenv`` in
``src/repro``, also through an alias of the module or a ``from os
import``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ENV_NAMES = frozenset({"environ", "getenv", "putenv"})


def _environment_reads(tree: ast.AST):
    """Line numbers that touch the process environment."""
    modules = {"os"}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {
                a.asname or a.name for a in node.names if a.name == "os"
            }
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in ENV_NAMES for a in node.names):
                hits.append(node.lineno)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            hits.append(node.lineno)
    return sorted(hits)


def test_no_module_reads_the_environment():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        hits = _environment_reads(ast.parse(path.read_text(), str(path)))
        if hits:
            offenders[path.relative_to(SRC).as_posix()] = hits
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    [
        "import os\nos.environ.get('X')",
        "import os\nos.getenv('X')",
        "import os as o\no.putenv('X', '1')",
        "from os import environ",
        "from os import getenv as g",
    ],
)
def test_walker_flags_each_form(source):
    assert _environment_reads(ast.parse(source)) == [len(source.splitlines())]
