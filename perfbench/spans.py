"""Layer spans recorded from outside tcbounds.

Tracing replaces public functions of the package with timing wrappers,
in every tcbounds module that holds them: `tcbounds.macaulay` and
`tcbounds.quotient` bind `fp_rank` and `fp_echelon` at import, so the
wrapper must replace the name there too, not only in `tcbounds.arith`.
Nothing under `src/` changes.

A span's self time is its duration minus the durations of the spans it
encloses.  A counter-only probe counts calls without opening a span, so
its time stays with its caller.  Spans are kept in memory as per-name
totals; nothing is written while the workload runs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

__all__ = ["Tracer", "install", "wrapper_cost", "LAYER_METRICS"]

_clock = time.perf_counter


class Tracer:
    """Per-name totals of self time, inclusive time, calls and counts."""

    def __init__(self) -> None:
        self.recording = False
        self.stack: list[list] = []  # [name, seconds covered by child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(tracer, args, result) adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                tracer.stack.pop()
                tracer.self_s[name] += elapsed - frame[1]
                tracer.incl_s[name] += elapsed
                tracer.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that its calls are counted, without a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def replace(self, original, wrapper) -> None:
        """Rebind every tcbounds module attribute that is `original`."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "tcbounds" or modname.startswith("tcbounds.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original.__qualname__} is bound in no tcbounds module")

    def replace_method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def span_calls(self) -> int:
        return sum(self.calls.values())

    def probe_calls(self) -> int:
        return sum(self.counts[k] for k in _PROBES)


def _rank_after(tr, args, result):
    rows, cols = np.shape(args[0])
    tr.counts["arith.rank_cells"] += int(rows) * int(cols)


def _echelon_after(tr, args, result):
    rows, cols = np.shape(args[0])
    tr.counts["arith.echelon_cells"] += int(rows) * int(cols)
    if tr.parent() != "quotient.relation_echelon":
        tr.counts["quotient.stacked_rows"] += int(rows)


def _build_after(tr, args, result):
    tr.counts["macaulay.build_cells"] += int(result.shape[0]) * int(result.shape[1])


_PROBES = ("macaulay.hilbert_value_calls", "froeberg.value_calls")


def install(tracer: Tracer) -> None:
    """Wrap the public functions whose layers the benchmark reports."""
    from tcbounds import arith, bounds, cli, froeberg, macaulay, quotient

    span = tracer.span
    tracer.replace(arith.fp_rank, span("arith.rank", arith.fp_rank, _rank_after))
    tracer.replace(arith.fp_echelon, span("arith.echelon", arith.fp_echelon, _echelon_after))
    tracer.replace_method(arith.Echelon, "reduce", span("arith.reduce", arith.Echelon.reduce))

    tracer.replace(macaulay.random_form_system, span("macaulay.draw", macaulay.random_form_system))
    tracer.replace(macaulay.macaulay_matrix, span("macaulay.build", macaulay.macaulay_matrix, _build_after))
    tracer.replace(macaulay.product_row_matrix, span("macaulay.build", macaulay.product_row_matrix))
    tracer.replace(macaulay.hilbert_value, tracer.counter("macaulay.hilbert_value_calls", macaulay.hilbert_value))
    tracer.replace(macaulay.froeberg_check, span("macaulay.check", macaulay.froeberg_check))

    relation_echelon = quotient.GradedQuotient.relation_echelon

    def relation_echelon_probe(self, m):
        before = tracer.calls["arith.echelon"]
        result = relation_echelon(self, m)
        if tracer.recording:
            hit = tracer.calls["arith.echelon"] == before
            tracer.counts["quotient.relation_hits" if hit else "quotient.relation_misses"] += 1
        return result

    tracer.replace_method(
        quotient.GradedQuotient,
        "relation_echelon",
        span("quotient.relation_echelon", functools.wraps(relation_echelon)(relation_echelon_probe)),
    )
    tracer.replace(quotient.tight_witness_scan, span("quotient.scan", quotient.tight_witness_scan))

    tracer.replace(froeberg.froeberg_value, tracer.counter("froeberg.value_calls", froeberg.froeberg_value))
    tracer.replace(froeberg.smallest_zero, span("froeberg.zero", froeberg.smallest_zero))
    tracer.replace(froeberg.froeberg_series, span("froeberg.series", froeberg.froeberg_series))

    tracer.replace(bounds.bound_report, span("bounds.report", bounds.bound_report))
    tracer.replace(bounds.build_table, span("bounds.table", bounds.build_table))
    tracer.replace(cli.main, span("cli.main", cli.main))


def wrapper_cost(calls: int = 50_000) -> tuple[float, float]:
    """Seconds a span and a counter probe add to one call, measured on a
    function that does nothing."""

    def noop():
        return None

    tracer = Tracer()
    tracer.recording = True
    timings = []
    for fn in (noop, tracer.span("noop", noop), tracer.counter("noop", noop)):
        t0 = _clock()
        for _ in range(calls):
            fn()
        timings.append((_clock() - t0) / calls)
    return max(timings[1] - timings[0], 0.0), max(timings[2] - timings[0], 0.0)


# Per-layer metrics: (name, unit, how it is read from the tracer).  Times
# are self times unless the name says otherwise; every value is per round.
LAYER_METRICS = (
    ("arith.rank_s", "s", ("self", "arith.rank")),
    ("arith.rank_calls", "count", ("calls", "arith.rank")),
    ("arith.rank_cells", "count", ("count", "arith.rank_cells")),
    ("arith.echelon_s", "s", ("self", "arith.echelon")),
    ("arith.echelon_calls", "count", ("calls", "arith.echelon")),
    ("arith.echelon_cells", "count", ("count", "arith.echelon_cells")),
    ("arith.reduce_s", "s", ("self", "arith.reduce")),
    ("arith.reduce_calls", "count", ("calls", "arith.reduce")),
    ("macaulay.draw_s", "s", ("self", "macaulay.draw")),
    ("macaulay.build_s", "s", ("self", "macaulay.build")),
    ("macaulay.build_cells", "count", ("count", "macaulay.build_cells")),
    ("macaulay.hilbert_value_calls", "count", ("count", "macaulay.hilbert_value_calls")),
    ("macaulay.check_self_s", "s", ("self", "macaulay.check")),
    ("quotient.relation_hits", "count", ("count", "quotient.relation_hits")),
    ("quotient.relation_misses", "count", ("count", "quotient.relation_misses")),
    ("quotient.relation_echelon_s", "s", ("incl", "quotient.relation_echelon")),
    ("quotient.stacked_rows", "count", ("count", "quotient.stacked_rows")),
    ("quotient.scan_self_s", "s", ("self", "quotient.scan")),
    ("froeberg.value_calls", "count", ("count", "froeberg.value_calls")),
    ("froeberg.zero_calls", "count", ("calls", "froeberg.zero")),
    ("froeberg.zero_s", "s", ("self", "froeberg.zero")),
    ("froeberg.series_s", "s", ("self", "froeberg.series")),
    ("bounds.report_self_s", "s", ("self", "bounds.report")),
    ("bounds.table_self_s", "s", ("self", "bounds.table")),
    ("cli.main_self_s", "s", ("self", "cli.main")),
)
