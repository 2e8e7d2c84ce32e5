"""Degree bounds derived from the smallest Froberg zero m0.

For generic forms f_1,...,f_n of a degree type in a graded ring R of
dimension d+1: R_m lies in the tight closure of (f_1,...,f_n) from
m = m0 + d on, in the Frobenius closure from m0 + d + 1 on (R normal),
and in the ideal itself from m0 + d + 1 + a_inv on (R Cohen-Macaulay of
dimension >= 2 with a-invariant a_inv). Two unconditional-in-genericity
competitors are the Koszul bound, the sum of the d+1 largest degrees, and
the strongly-semistable syzygy bound ceil(d * total / (n-1)); for d=1 and
three equal odd degrees a the latter improves the Frobenius bound to
(3a+1)/2.  Each is one line of bound_report, whose m0 needs n >= d+1, so
n >= 2 there.  Each bound carries the hypothesis it needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import PreconditionError
from .froeberg import DegreeType, smallest_zero

__all__ = [
    "BoundReport",
    "BoundTable",
    "bound_report",
    "build_table",
]

_HYPOTHESES = {
    "tight": "generic forms of the degree type; R any standard-graded ring of dimension d+1 over a field of positive characteristic",
    "frobenius": "generic forms; R normal",
    "ideal": "generic forms; R Cohen-Macaulay of dimension d+1 >= 2 with the supplied a-invariant",
    "koszul": "any homogeneous parameter-spanning system (no genericity needed)",
    "semistable": "the first syzygy bundle of the forms is strongly semistable",
    "semistable_frobenius": "d=1, three equal odd degrees, strongly semistable syzygy bundle",
}


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one degree type, with the hypothesis each one needs."""

    m0: int
    tight: int
    frobenius: int
    koszul: int
    semistable: int
    ideal: int | None
    a_invariant: int | None
    semistable_frobenius: int | None
    notes: tuple[tuple[str, str], ...]


def bound_report(dt: DegreeType, a_invariant: int | None = None) -> BoundReport:
    """Every bound for the degree type.  a_invariant = -d-1 makes the ideal
    bound m0, the inclusion degree in the polynomial ring; a hypersurface
    of degree k in v variables has a_invariant = k - v."""
    m0 = smallest_zero(dt)
    tight = m0 + dt.d
    ideal = None if a_invariant is None else tight + 1 + a_invariant
    a = dt.degrees[0]
    # (3a+1)/2, one below the generic Frobenius bound (3a+3)/2
    improved = (3 * a + 1) // 2 if dt.d == 1 and dt.n == 3 and dt.is_constant and a % 2 else None
    names = ["tight", "frobenius", "koszul", "semistable"]
    if ideal is not None:
        names.append("ideal")
    if improved is not None:
        names.append("semistable_frobenius")
    return BoundReport(
        m0=m0,
        tight=tight,
        frobenius=tight + 1,
        koszul=sum(dt.degrees[: dt.d + 1]),
        semistable=-(-dt.d * dt.total // (dt.n - 1)),
        ideal=ideal,
        a_invariant=a_invariant,
        semistable_frobenius=improved,
        notes=tuple((name, _HYPOTHESES[name]) for name in names),
    )


@dataclass(frozen=True)
class BoundTable:
    """Koszul / semistable / generic tight bounds over a range of n at one
    constant degree, with the n -> infinity limit of each row."""

    d: int
    a: int
    n_values: tuple[int, ...]
    rows: tuple[tuple[str, tuple[int, ...]], ...]
    limits: tuple[tuple[str, int], ...]


def build_table(d: int, a: int, n_values: list[int] | tuple[int, ...]) -> BoundTable:
    """Tabulate the three bound families for constant degree a.

    Limits for n -> infinity: the Koszul bound is the constant (d+1)a, the
    semistable bound decreases to d*a + 1, and the generic tight bound
    decreases to a + d (every monomial is consumed once n reaches the number
    of degree-a monomials).
    """
    if any(n < d + 1 for n in n_values):
        raise PreconditionError(f"every n must be >= d+1, got {tuple(n_values)}")
    reports = [bound_report(DegreeType.constant(d, n, a)) for n in n_values]
    rows = (
        ("koszul", tuple(r.koszul for r in reports)),
        ("semistable", tuple(r.semistable for r in reports)),
        ("generic", tuple(r.tight for r in reports)),
    )
    limits = (
        ("koszul", (d + 1) * a),
        ("semistable", d * a + 1),
        ("generic", a + d),
    )
    return BoundTable(d=d, a=a, n_values=tuple(n_values), rows=rows, limits=limits)

