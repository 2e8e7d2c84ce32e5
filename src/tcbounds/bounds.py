"""Degree bounds derived from the smallest Froberg zero m0.

For generic forms f_1,...,f_n of a degree type in a graded ring R of
dimension d+1: R_m lies in the tight closure of (f_1,...,f_n) from
m = m0 + d on, in the Frobenius closure from m0 + d + 1 on (R normal),
and in the ideal itself from m0 + d + 1 + a_inv on (R Cohen-Macaulay of
dimension >= 2 with a-invariant a_inv). Two unconditional-in-genericity
competitors are the Koszul bound and the strongly-semistable syzygy bound.
Each bound carries the hypothesis it needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import PreconditionError
from .froeberg import DegreeType, smallest_zero

__all__ = [
    "BoundReport",
    "BoundTable",
    "koszul_bound",
    "semistable_bound",
    "semistable_frobenius_improvement",
    "a_invariant_complete_intersection",
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


def koszul_bound(dt: DegreeType) -> int:
    """Sum of the d+1 largest degrees; inclusion bound for tight closure
    needing no genericity."""
    if dt.n < dt.d + 1:
        raise PreconditionError(
            f"a primary ideal needs at least d+1 generators: n={dt.n}, d={dt.d}"
        )
    return sum(dt.degrees[: dt.d + 1])


def semistable_bound(dt: DegreeType) -> int:
    """ceil(d * total / (n-1)), valid when the syzygy bundle of the forms is
    strongly semistable."""
    if dt.n < 2:
        raise PreconditionError(f"semistable bound needs n >= 2, got n={dt.n}")
    return -(-dt.d * dt.total // (dt.n - 1))


def semistable_frobenius_improvement(dt: DegreeType) -> int:
    """(3a+1)/2 for d=1 and three equal odd degrees a: the Frobenius-closure
    bound improves by one over the generic value (3a+3)/2."""
    if not (dt.d == 1 and dt.n == 3 and dt.is_constant and dt.degrees[0] % 2 == 1):
        raise PreconditionError(
            "improvement needs d=1 and three equal odd degrees, got "
            f"d={dt.d}, degrees={dt.degrees}"
        )
    return (3 * dt.degrees[0] + 1) // 2


def a_invariant_complete_intersection(relation_degrees: tuple[int, ...], v: int) -> int:
    """a-invariant of a graded complete intersection: sum of the relation
    degrees minus the number of polynomial-ring variables."""
    if v < 1:
        raise PreconditionError(f"need at least one variable, got v={v}")
    if any(c < 1 for c in relation_degrees):
        raise PreconditionError(f"relation degrees must be positive: {relation_degrees}")
    return sum(relation_degrees) - v


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
    bound m0, the inclusion degree in the polynomial ring."""
    m0 = smallest_zero(dt)
    tight = m0 + dt.d
    ideal = None if a_invariant is None else tight + 1 + a_invariant
    try:
        improved = semistable_frobenius_improvement(dt)
    except PreconditionError:
        improved = None
    names = ["tight", "frobenius", "koszul", "semistable"]
    if ideal is not None:
        names.append("ideal")
    if improved is not None:
        names.append("semistable_frobenius")
    return BoundReport(
        m0=m0,
        tight=tight,
        frobenius=tight + 1,
        koszul=koszul_bound(dt),
        semistable=semistable_bound(dt),
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

