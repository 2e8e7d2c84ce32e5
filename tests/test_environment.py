"""No module of tcbounds reads the environment.

Identical flags must give identical output, so every input of a command
comes from its flags and files.  A read of `os.environ` or `os.getenv`
(as an attribute, or imported from `os`) in any module under
src/tcbounds fails this test.  The sources are read as text and parsed;
nothing is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "tcbounds").glob("*.py"))
READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: Path) -> list[str]:
    """file:line and name of every environment read in one source file."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            reads.append(f"{path.name}:{node.lineno} {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in READERS]
    return reads


def test_every_module_is_checked():
    assert {path.stem for path in PACKAGE} >= {"arith", "bounds", "cli", "macaulay", "quotient"}


@pytest.mark.parametrize("path", PACKAGE, ids=[path.stem for path in PACKAGE])
def test_module_reads_no_environment(path):
    assert environment_reads(path) == []
