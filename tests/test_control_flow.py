"""No module of tcbounds catches PreconditionError except `cli.main`.

A PreconditionError means a request is refused: `cli.main` turns it into
exit 1 and an `error:` line.  Anywhere else a handler for it would make a
refusal into control flow, so a check that can be written as a condition
is written as one.  A handler counts when it names PreconditionError or
one of the catch-alls (`Exception`, `BaseException`, or a bare `except`).
`except ValueError` is not flagged: its handlers wrap `int()` parsing.
The sources are read as text and parsed; nothing is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "tcbounds").glob("*.py"))
CAUGHT = {"PreconditionError", "Exception", "BaseException"}
ALLOWED = {("cli", "main")}


def _names(node: ast.expr | None) -> set[str]:
    """The exception class names a handler's type expression mentions."""
    if node is None:
        return {"BaseException"}
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def precondition_handlers(stem: str, source: str) -> list[str]:
    """Module:line and enclosing function of every handler that catches
    PreconditionError outside the allowed places, in one module's source."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and _names(child.type) & CAUGHT:
                if (stem, function) not in ALLOWED:
                    found.append(f"{stem}:{child.lineno} in {function}")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_every_module_is_checked():
    assert {path.stem for path in PACKAGE} >= {"arith", "bounds", "cli", "macaulay", "quotient"}


HANDLERS = """\
def main():
    try:
        run()
    except (KeyError, arith.PreconditionError):
        pass
    try:
        run()
    except:
        pass
    try:
        int(text)
    except ValueError:
        pass
"""


def test_handlers_are_found():
    # the first two handlers catch it, the third does not
    assert precondition_handlers("bounds", HANDLERS) == ["bounds:4 in main", "bounds:8 in main"]
    # only cli.main may catch it
    assert precondition_handlers("cli", HANDLERS) == []
    other = HANDLERS.replace("def main", "def other")
    assert precondition_handlers("cli", other) == ["cli:4 in other", "cli:8 in other"]


@pytest.mark.parametrize("path", PACKAGE, ids=[path.stem for path in PACKAGE])
def test_no_precondition_caught_as_control_flow(path):
    assert precondition_handlers(path.stem, path.read_text(encoding="utf-8")) == []
