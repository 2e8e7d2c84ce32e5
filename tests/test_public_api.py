"""Every public name of tcbounds has a caller outside the tests.

A name listed in a module's `__all__` must be used somewhere in the
package or in the benchmark harness, other than by its own `def` or
`class` and its `__all__` entry.  A use is a load of the name or of an
attribute of that name.  Every public method and property of a class in
`__all__` must be read too, as an attribute, and so must every field of
an exported dataclass, either as an attribute or by its name in a string
constant (callers such as `cli._BOUND_KEYS` read fields through
`getattr`); a load from the argparse namespace `args` reads a flag, so it
does not count.  Test files do not count: API that only tests call either
gets a real caller or moves into the tests.  The sources are read as
text and parsed; nothing is imported.
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


def _members(path: Path) -> list[str]:
    """Class.member for each public method and property of an exported class."""
    exported = set(_exported(path))
    return [
        f"{cls.name}.{node.name}"
        for cls in _tree(path).body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _fields(path: Path) -> list[str]:
    """Class.field for each field of an exported dataclass."""
    exported = set(_exported(path))
    return [
        f"{cls.name}.{node.target.id}"
        for cls in _tree(path).body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        and any(
            getattr(deco.func if isinstance(deco, ast.Call) else deco, "id", None) == "dataclass"
            for deco in cls.decorator_list
        )
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
    ]


def _loads(trees) -> tuple[set[str], set[str], set[str]]:
    """The names loaded, the attribute names loaded, and the string
    constants, in the given modules.  A load from the argparse namespace
    `args` is not an attribute load: `args.seed` reads a flag, not a
    field of any tcbounds object."""
    names, attrs, strings = set(), set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
                    attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return names, attrs, strings


PUBLIC = [(path.stem, name) for path in PACKAGE for name in _exported(path)]
MEMBERS = [(path.stem, member) for path in PACKAGE for member in _members(path)]
FIELDS = [(path.stem, field) for path in PACKAGE for field in _fields(path)]
NAMES, ATTRS, STRINGS = _loads(_tree(path) for path in CALLERS)


def test_every_module_is_read():
    assert {stem for stem, _ in PUBLIC} >= {"arith", "bounds", "macaulay", "quotient"}
    assert {stem for stem, _ in MEMBERS} >= {"arith", "froeberg", "macaulay", "quotient"}
    assert {stem for stem, _ in FIELDS} >= {"bounds", "fixtures", "macaulay", "quotient"}


def test_argparse_loads_are_not_reads():
    _, attrs, _ = _loads([ast.parse("print(args.seed, report.p)")])
    assert attrs == {"p"}


@pytest.mark.parametrize("module,name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_caller(module, name):
    assert name in NAMES | ATTRS, f"tcbounds.{module}.{name} is used only by tests"


@pytest.mark.parametrize("module,member", MEMBERS, ids=[f"{m}.{n}" for m, n in MEMBERS])
def test_public_member_has_a_reader(module, member):
    assert member.split(".")[1] in ATTRS, f"tcbounds.{module}.{member} is used only by tests"


@pytest.mark.parametrize("module,field", FIELDS, ids=[f"{m}.{n}" for m, n in FIELDS])
def test_dataclass_field_has_a_reader(module, field):
    name = field.split(".")[1]
    assert name in ATTRS | STRINGS, f"tcbounds.{module}.{field} is read only by tests"
