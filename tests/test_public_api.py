"""Every public name of tcbounds has a caller outside the tests.

A name listed in a module's `__all__` must be used somewhere in the
package or in the benchmark harness, other than by its own `def` or
`class` and its `__all__` entry.  A use is a load of the name or of an
attribute of that name.  Test files do not count: API that only tests
call either gets a real caller or moves into the tests.  The sources are
read as text and parsed; nothing is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "tcbounds").glob("*.py"))
CALLERS = PACKAGE + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(path: Path) -> list[str]:
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _loads() -> set[str]:
    names = set()
    for path in CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


PUBLIC = [(path.stem, name) for path in PACKAGE for name in _exported(path)]
USED = _loads()


def test_every_module_is_read():
    assert {stem for stem, _ in PUBLIC} >= {"arith", "bounds", "macaulay", "quotient"}


@pytest.mark.parametrize("module,name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_caller(module, name):
    assert name in USED, f"tcbounds.{module}.{name} is used only by tests"
