"""Finite-field Hilbert-function oracle for ideals of random forms.

The degree-m piece of an ideal I = (f_1,...,f_n) in P = F_p[x_0..x_v-1] is
spanned by the products {mu * f_i : deg mu = m - deg f_i}; its dimension is
the rank of the Macaulay matrix M_m whose rows are indexed by the degree-m
monomials and whose columns are those products. H(m) = dim P_m - rank.

A whole table H(0..T) is read from one elimination of M_T.  P is a
domain, so multiplication by x_0^(T-m) maps P_m into P_T injectively; it
takes the product mu * f_i of degree m to the product x_0^(T-m) mu * f_i
of degree T.  So rank M_m is the rank of the columns of M_T whose shift
is divisible by x_0^(T-m), that is whose level T - e_0(shift) is at most
m.  With the columns of M_T stably sorted by level, those columns are a
prefix, and the pivot columns of Gaussian elimination are the
lexicographically first column basis, so the rank of every prefix is the
number of pivots in it (the rank profile of arith._eliminate_blocked).

The rows of that M_T are sorted stably by level too, T - e_0 of their
monomial.  A column of level l is a multiple of x_0^(T-l), so it is zero
on every row of level above l: the matrix is a staircase, and the
elimination skips the zero tail under each panel of columns (see
arith._eliminate_blocked).  Permuting rows leaves the rank of every
column prefix as it was, so the pivot columns, and every H(m), are those
of M_T in canonical row order.  macaulay_matrix keeps canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from . import arith
from .arith import PreconditionError, PrimeField, SplitMix64, binom, fp_rank
from .froeberg import DegreeType, froeberg_series, initial_segment, smallest_zero

__all__ = [
    "Form",
    "FormSystem",
    "HilbertTable",
    "TrialResult",
    "FroebergCheckReport",
    "monomials_of_degree",
    "monomial_count",
    "random_form",
    "random_form_system",
    "form_product",
    "macaulay_matrix",
    "product_row_matrix",
    "product_support",
    "hilbert_value",
    "hilbert_table",
    "froeberg_check",
    "write_form_system",
    "read_form_system",
]


# Cap on one matrix, in cells, compared before it is built: a Macaulay
# matrix (dim P_m x products), which theorem C builds for J's and I's
# forms, or for a membership test its stacked shape, (rows of J's product
# matrix + rows of I's product matrix) x dim P_m.  A membership oracle
# builds less: a (sum_g dim R_{m - deg g}) x dim R_m residual and k normal
# forms per generator, each one vector.  The largest of each in the suite,
# README and benchmark, with the interpreter, numpy and tcbounds at about
# 29 MiB RSS, peak in a fresh process at (measured):
# - 34.7 MiB, theorem B on the Fermat cubic, (1; 2,2,2), p = 5, seed 8, q up
#   to 25 (at q = 25: stacked shape 8829 x 5151, 45.5M cells; residual 450 x 300);
# - 49.9 MiB, theorem C on poly-ring, (3; 5 x4), C = 17 (1140 x 1820).
_MAX_CELLS = 2**26


def _over_cap(rows: int, cols: int) -> bool:
    return rows * cols > _MAX_CELLS


def _check_cells(what: str, rows: int, cols: int) -> None:
    if _over_cap(rows, cols):
        raise PreconditionError(
            f"{what} needs a {rows} x {cols} matrix "
            f"({rows * cols} cells), over the cap of {_MAX_CELLS}"
        )


@lru_cache(maxsize=None)
def _exponent_tuples(v: int, m: int) -> tuple[tuple[int, ...], ...]:
    # canonical order: ascending lexicographic on the reversed exponent
    # tuple, which is descending degree-reverse-lexicographic.  The reversed
    # tuple (e_(v-1), ..., e_0) is the gaps between v - 1 bars placed among
    # m + v - 1 slots, and combinations lists the bar positions, so also
    # the gaps, in ascending lexicographic order: O(v) work per tuple
    n = m + v - 1
    count = binom(n, v - 1)
    flat = chain.from_iterable(combinations(range(n), v - 1))
    bars = np.fromiter(flat, dtype=np.int64, count=count * (v - 1)).reshape(count, v - 1)
    gaps = np.diff(bars, axis=1, prepend=-1, append=n) - 1
    return tuple(map(tuple, gaps[:, ::-1].tolist()))


def monomial_count(v: int, m: int) -> int:
    return binom(m + v - 1, v - 1)


def monomials_of_degree(v: int, m: int) -> list[tuple[int, ...]]:
    """The exponent tuples of all monomials in v variables of total degree
    m, in a fixed order (descending degrevlex), stable across runs."""
    if v < 1:
        raise PreconditionError(f"need at least one variable, got v={v}")
    if m < 0:
        raise PreconditionError(f"degree must be >= 0, got m={m}")
    return list(_exponent_tuples(v, m))


@lru_cache(maxsize=None)
def _binomials(v: int, m: int) -> np.ndarray:
    # table[j, r] = C(r + j, j + 1) for j < v - 1 and r <= m.  With r_j =
    # e_0 + ... + e_j, the canonical index of x^e of degree m is
    #     monomial_count(v, m) - 1 - sum_{j < v-1} C(r_j + j, j + 1),
    # since C(r_j + j, j + 1) counts the degree-m monomials that agree with
    # x^e in e_{j+2..v-1} and have a larger e_{j+1}, that is, those after
    # x^e (the combinatorial number system: Knuth, TAOCP 4A, 7.2.1.3).
    # Every entry and every partial sum lies in [0, monomial_count(v, m)),
    # so below 2^63 monomials no int64 can wrap.
    if monomial_count(v, m) >= 2**63:
        raise PreconditionError(f"too many degree-{m} monomials in {v} variables")
    table = np.empty((v - 1, m + 1), dtype=np.int64)
    for j in range(v - 1):
        table[j] = np.cumsum(table[j - 1]) if j else np.arange(m + 1)
    table.flags.writeable = False  # cached: one write would corrupt every later index
    return table


@lru_cache(maxsize=None)
def _partial_degrees(v: int, m: int) -> np.ndarray:
    # row j: r_j = e_0 + ... + e_j of each degree-m monomial, in canonical order
    exps = np.array(_exponent_tuples(v, m), dtype=np.int64).reshape(-1, v)
    part = np.ascontiguousarray(exps.cumsum(axis=1).T)
    part.flags.writeable = False  # cached, like _binomials
    return part


@dataclass(frozen=True)
class Form:
    """A homogeneous polynomial: terms map monomials to nonzero residues.

    terms are stored as (exponents, coefficient) pairs in the canonical
    monomial order, so equal forms compare equal and serialization is
    deterministic.
    """

    v: int
    degree: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise PreconditionError(f"degree must be >= 0, got {self.degree}")
        seen = set()
        for exps, coeff in self.terms:
            if len(exps) != self.v or min(exps, default=0) < 0:
                raise PreconditionError(f"term {exps} is not {self.v} exponents >= 0")
            if sum(exps) != self.degree:
                raise PreconditionError(
                    f"term {exps} has degree {sum(exps)}, form says {self.degree}"
                )
            if coeff == 0:
                raise PreconditionError("zero coefficients must not be stored")
            if exps in seen:
                raise PreconditionError(f"repeated monomial {exps}")
            seen.add(exps)

    @classmethod
    def make(cls, v: int, degree: int, coeffs: dict[tuple[int, ...], int]) -> "Form":
        """Build a form from a monomial -> coefficient mapping, dropping
        zeros and ordering terms canonically: ascending lexicographic on
        the reversed exponent tuple, as in _exponent_tuples."""
        items = [(e, c) for e, c in coeffs.items() if c != 0]
        items.sort(key=lambda item: item[0][::-1])
        return cls(v=v, degree=degree, terms=tuple(items))

    @property
    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class FormSystem:
    """Generators of a homogeneous ideal over one prime field."""

    field: PrimeField
    v: int
    forms: tuple[Form, ...]

    def __post_init__(self) -> None:
        for f in self.forms:
            if f.v != self.v:
                raise PreconditionError(
                    f"form in {f.v} variables inside a {self.v}-variable system"
                )
            for _, coeff in f.terms:
                if not (0 < coeff < self.field.p):
                    raise PreconditionError(
                        f"coefficient {coeff} not a nonzero residue mod {self.field.p}"
                    )

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(f.degree for f in self.forms)

    @property
    def total_degree(self) -> int:
        return sum(f.degree for f in self.forms)


def random_form(v: int, degree: int, field: PrimeField | int, rng: SplitMix64) -> Form:
    """Dense random form: one uniform residue per degree-`degree` monomial,
    drawn in canonical order; zero draws are simply not stored."""
    fld = arith._as_field(field)
    if degree < 1:
        raise PreconditionError(f"degree must be >= 1, got {degree}")
    coeffs = {}
    for exps in _exponent_tuples(v, degree):
        c = rng.next_below(fld.p)
        if c:
            coeffs[exps] = c
    return Form.make(v, degree, coeffs)


def random_form_system(
    v: int, degrees: tuple[int, ...], field: PrimeField | int, rng: SplitMix64
) -> FormSystem:
    fld = arith._as_field(field)
    return FormSystem(
        field=fld, v=v, forms=tuple(random_form(v, a, fld, rng) for a in degrees)
    )


def form_product(a: Form, b: Form, p: int) -> Form:
    """Product of two forms with coefficients reduced mod p."""
    if a.v != b.v:
        raise PreconditionError("variable count mismatch")
    coeffs: dict[tuple[int, ...], int] = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            key = tuple(x + y for x, y in zip(ea, eb))
            coeffs[key] = (coeffs.get(key, 0) + ca * cb) % p
    return Form.make(a.v, a.degree + b.degree, coeffs)


def _monomial_index(m: int, *factors: np.ndarray) -> np.ndarray:
    # canonical index among the degree-m monomials of the product of one monomial
    # per factor, each given by partial degrees down axis 0 (other axes broadcast).
    # Row j of the table starts at j * (m + 1) of its flat view, and every r_j
    # of a degree-m product is at most m, so each gather stays in its own row,
    # which a per-row np.take used to check
    v = factors[0].shape[0]
    table = _binomials(v, m)
    if v == 1:  # one monomial of each degree
        return np.zeros_like(sum(f[0] for f in factors))
    flat, width = table.ravel(), m + 1
    out = monomial_count(v, m) - 1 - flat[sum(f[0] for f in factors)]
    for j in range(1, v - 1):
        out -= flat[sum((f[j] for f in factors), j * width)]
    return out


def product_support(form: Form, m: int) -> np.ndarray:
    """Where the products {mu * form : deg mu = m - deg form} sit among the
    degree-m monomials: entry [s, j] is the canonical index of the s-th
    shift mu (in canonical order) times the j-th term of form.  Multiplying
    by mu keeps the canonical order, so every row increases."""
    v, shift_deg = form.v, m - form.degree
    if shift_deg < 0:
        return np.zeros((0, len(form.terms)), dtype=np.int64)
    _binomials(v, m)  # refuses indices beyond int64 before the shifts are listed
    terms = np.array([e for e, _ in form.terms], dtype=np.int64).reshape(-1, v).cumsum(axis=1).T
    return _monomial_index(m, _partial_degrees(v, shift_deg)[:, :, None], terms[:, None, :])


def _check_macaulay(v: int, degrees: tuple[int, ...], m: int) -> None:
    # the degree-m Macaulay matrix of forms of these degrees, sized from
    # binomials alone: dim P_m rows, one column per product mu * f_i
    _check_cells(
        f"Macaulay matrix in degree {m}",
        monomial_count(v, m),
        sum(monomial_count(v, m - a) for a in degrees if a <= m),
    )


def _product_columns(system: FormSystem, m: int, levelled: bool) -> tuple[np.ndarray, np.ndarray]:
    """The degree-m Macaulay matrix and the level m - e_0(mu) of each of
    its columns mu * f_i.  Rows are the degree-m monomials and columns are
    generator-major with shifts, both in canonical order; when levelled
    each order is stably sorted by level, m - e_0 for a row.  The shape is
    refused over the cap before anything is built, and each product is
    written once, straight into its column."""
    if m < 0:
        raise PreconditionError(f"degree must be >= 0, got {m}")
    _check_macaulay(system.v, system.degrees, m)
    forms = [f for f in system.forms if f.degree <= m]
    rows = monomial_count(system.v, m)
    levels = np.concatenate(
        [m - _partial_degrees(system.v, m - f.degree)[0] for f in forms]
        or [np.zeros(0, dtype=np.int64)]
    )
    dest, row_dest = np.arange(levels.size), np.arange(rows)
    if levelled:
        order = np.argsort(levels, kind="stable")
        dest[order] = np.arange(levels.size)
        levels = levels[order]
        row_levels = m - _partial_degrees(system.v, m)[0]
        row_dest[np.argsort(row_levels, kind="stable")] = np.arange(rows)
    out = np.zeros((rows, levels.size), dtype=np.int64, order="F")
    col0 = 0
    for f in forms:
        support = product_support(f, m)
        cols = dest[col0 : col0 + support.shape[0]]
        out[row_dest[support], cols[:, None]] = [c for _, c in f.terms]
        col0 += support.shape[0]
    return out, levels


def macaulay_matrix(system: FormSystem, m: int) -> np.ndarray:
    """Degree-m multiplication matrix: rows are the degree-m monomials in
    canonical order, columns the products (generator-major, shifts in
    canonical order). Its rank is dim I_m."""
    return _product_columns(system, m, levelled=False)[0]


def product_row_matrix(system: FormSystem, m: int) -> np.ndarray:
    """The same products as rows over the degree-m monomial coordinates
    (the orientation echelon-based membership tests use)."""
    return np.ascontiguousarray(macaulay_matrix(system, m).T)


def hilbert_value(system: FormSystem, m: int) -> int:
    """H(m) = dim (P/I)_m, exactly, from the rank of M_m alone."""
    if m < 0:
        raise PreconditionError(f"degree must be >= 0, got {m}")
    if all(f.degree > m for f in system.forms):
        return monomial_count(system.v, m)
    return monomial_count(system.v, m) - fp_rank(macaulay_matrix(system, m), system.field)


@dataclass(frozen=True)
class HilbertTable:
    """H(0..N) together with the first zero if one occurred by N.

    Once H hits 0 it stays 0 (a standard-graded quotient is generated in
    degree 1, so a vanishing piece kills all higher ones); the table
    therefore stops at the first zero.
    """

    values: tuple[int, ...]
    first_zero: int | None


def _search_window(system: FormSystem) -> int:
    # a primary system of this degree type has vanished by total - d;
    # one degree of slack keeps the guard strict, and H(0) is always shown
    return max(system.total_degree - (system.v - 1) + 1, 0)


def _top_degree(system: FormSystem, window: int) -> int:
    # min(m0, window) for the Froberg zero m0 of the nonzero forms: H(m) >=
    # F+(m) > 0 below m0, so the first zero is never below this.  F has no
    # zero when fewer than v forms have positive degree.  A nonzero
    # constant vanishes at 0.
    degrees = tuple(f.degree for f in system.forms if not f.is_zero)
    if 0 in degrees:
        return 0
    if system.v < 2 or len(degrees) < system.v:
        return window
    return min(smallest_zero(DegreeType(system.v - 1, degrees)), window)


def _hilbert_prefix(system: FormSystem, top: int) -> list[int]:
    # H(0..top) from one elimination of M_top in level order: rank M_m is
    # the number of pivot columns of level <= m.  The build is eliminated
    # in place, with no reduced copy: it is a fresh array that nothing else
    # holds, F-ordered so that its transpose is the C-ordered column store
    # the kernel takes, and every entry is a coefficient that FormSystem
    # has checked to lie in [0, p), where arith._columns would put it.
    matrix, levels = _product_columns(system, top, levelled=True)
    _, pivots = arith._eliminate_blocked(matrix.T, system.field.p)
    ranks = np.cumsum(np.bincount(levels[pivots], minlength=top + 1))
    return [monomial_count(system.v, m) - int(r) for m, r in enumerate(ranks)]


def hilbert_table(system: FormSystem, window: int | None = None) -> HilbertTable:
    """H(0..window), or up to its first zero, from one elimination.

    The top degree T = min(m0, window), where m0 is the Froberg zero of the
    system's nonzero forms, is the first degree where H may vanish; every
    H(m) with m <= T is read from the column rank profile of M_T (see the
    module docstring).  Only if H(T) > 0 does the table go on, one
    elimination per further degree.  So T only decides where the first
    elimination stops, never a value, and no matrix is built past the
    first zero or the window.
    """
    if window is None:
        window = _search_window(system)
    values: list[int] = []
    top = _top_degree(system, window)
    while top <= window:
        values += _hilbert_prefix(system, top)[len(values) :]
        if values[-1] == 0:
            zero = values.index(0)
            return HilbertTable(values=tuple(values[: zero + 1]), first_zero=zero)
        top += 1
    return HilbertTable(values=tuple(values), first_zero=None)


@dataclass(frozen=True)
class TrialResult:
    trial: int
    first_zero: int | None
    values: tuple[int, ...]
    equality: bool


@dataclass(frozen=True)
class FroebergCheckReport:
    """Randomized comparison of Hilbert functions against the prediction.

    predicted_clipped uses the initial-non-negative-segment clip: beyond its
    first non-positive index the alternating sum may recover positive values
    while the Hilbert function of any ideal with a zero piece stays zero, so
    the pointwise clip would be the wrong comparison target. The two clips
    agree up to and including m0.
    """

    window: int
    m0: int | None
    predicted: tuple[int, ...]
    predicted_clipped: tuple[int, ...]
    results: tuple[TrialResult, ...]
    equality_rate: float
    inequality_violations: tuple[dict, ...]


def _padded_values(table: HilbertTable, window: int) -> tuple[int, ...]:
    values = list(table.values)
    if table.first_zero is not None:
        values.extend([0] * (window + 1 - len(values)))
    return tuple(values[: window + 1])


def froeberg_check(
    d: int,
    degrees: tuple[int, ...],
    field: PrimeField | int,
    trials: int,
    seed: int,
) -> FroebergCheckReport:
    """Draw `trials` random systems of the degree type and compare their
    Hilbert functions with the predicted generic one.

    H(m) >= predicted_clipped[m] for every m is a theorem, so any violation
    recorded in inequality_violations indicates a defect somewhere.  Whether
    H == predicted_clipped everywhere (generic equality) is recorded per
    trial.  Trial t draws from an independent stream seeded seed + t.
    """
    if trials < 1:
        raise PreconditionError(f"need at least one trial, got {trials}")
    fld = arith._as_field(field)
    dt = DegreeType(d, degrees)
    v = d + 1
    window = max(dt.total - dt.d, 0)
    series = froeberg_series(dt, window)
    clipped = initial_segment(series)
    m0 = smallest_zero(dt) if dt.n >= dt.d + 1 else None
    # each trial's first build is at min(m0, window) (hilbert_table), so it
    # is sized before any draw; a draw with a zero form only starts higher
    _check_macaulay(v, dt.degrees, window if m0 is None else min(m0, window))

    results = []
    for t in range(trials):
        system = random_form_system(v, dt.degrees, fld, SplitMix64(seed + t))
        table = hilbert_table(system, window)
        values = _padded_values(table, window)
        results.append(TrialResult(t, table.first_zero, values, values == clipped))

    violations = []
    for res in results:
        for m, (h, f) in enumerate(zip(res.values, clipped)):
            if h < f:
                violations.append(
                    {"trial": res.trial, "m": m, "hilbert": h, "predicted": f}
                )
    equality_rate = sum(1 for r in results if r.equality) / trials
    return FroebergCheckReport(
        window=window,
        m0=m0,
        predicted=series,
        predicted_clipped=clipped,
        results=tuple(results),
        equality_rate=equality_rate,
        inequality_violations=tuple(violations),
    )


def write_form_system(system: FormSystem) -> str:
    """Serialize: header `p=<p> v=<v>`, then one line per form,
    `degree; e_1 .. e_v:coeff, ...` with terms in canonical order."""
    lines = [f"p={system.field.p} v={system.v}"]
    for f in system.forms:
        terms = ", ".join(
            f"{' '.join(str(e) for e in exps)}:{coeff}" for exps, coeff in f.terms
        )
        lines.append(f"{f.degree}; {terms}" if terms else f"{f.degree};")
    return "\n".join(lines) + "\n"


def read_form_system(text: str) -> FormSystem:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if not lines:
        raise PreconditionError("empty form-system text")
    header = lines[0].split()
    keys = sorted(part.partition("=")[0] for part in header)
    if keys != ["p", "v"]:
        raise PreconditionError(f"header {lines[0]!r} must set p and v once each")
    try:
        fields = dict(part.split("=", 1) for part in header)
        p = int(fields["p"])
        v = int(fields["v"])
    except ValueError as exc:
        raise PreconditionError(f"malformed header {lines[0]!r}") from exc
    if v < 1:
        raise PreconditionError(f"need at least one variable, got v={v}")
    fld = PrimeField(p)
    forms = []
    for line in lines[1:]:
        head, _, rest = line.partition(";")
        try:
            degree = int(head.strip())
        except ValueError as exc:
            raise PreconditionError(f"malformed form line {line!r}") from exc
        coeffs: dict[tuple[int, ...], int] = {}
        rest = rest.strip()
        if rest:
            for chunk in rest.split(","):
                exppart, _, coeffpart = chunk.strip().rpartition(":")
                try:
                    exps = tuple(int(x) for x in exppart.split())
                    coeff = int(coeffpart)
                except ValueError as exc:
                    raise PreconditionError(f"malformed term {chunk!r}") from exc
                if exps in coeffs:
                    raise PreconditionError(f"repeated monomial {exps} in {line!r}")
                coeffs[exps] = coeff % p
        forms.append(Form.make(v, degree, coeffs))
    return FormSystem(field=fld, v=v, forms=tuple(forms))
