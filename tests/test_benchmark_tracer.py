"""The benchmark's tracer binds names that tcbounds still has.

`perfbench/spans.py` wraps package functions and methods by name when a
run asks for `--trace 1`.  A rename in the package would break only that
run, so this test installs the tracer on the package and uninstalls it,
with no workload in between: every wrapped name must exist, be wrapped,
and be restored afterwards.  `spans` is loaded from its file, as the
benchmark loads it, and nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import tcbounds.cli  # noqa: F401  (install wraps cli.main; import every module first)
from tcbounds import arith, quotient

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("tcbounds_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict[tuple[str, str], object]:
    # every attribute of every tcbounds module, and of the classes whose
    # methods the tracer wraps, by identity
    owners = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "tcbounds"}
    owners["Echelon"], owners["GradedQuotient"] = arith.Echelon, quotient.GradedQuotient
    return {
        (name, attr): value for name, owner in owners.items() for attr, value in vars(owner).items()
    }


def test_tracer_wraps_existing_names_and_restores_them():
    spans = _load_spans()
    before = _bindings()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in tracer._undo}
        during = _bindings()
    finally:
        tracer.uninstall()
    assert ("GradedQuotient", "relation_echelon") in wrapped
    assert ("Echelon", "reduce") in wrapped
    assert ("tcbounds.quotient", "tight_witness_scan") in wrapped
    for key in wrapped:
        assert before[key] is not during[key]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
