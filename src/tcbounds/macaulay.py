"""Finite-field Hilbert-function oracle for ideals of random forms.

The degree-m piece of an ideal I = (f_1,...,f_n) in P = F_p[x_0..x_v-1] is
spanned by the products {mu * f_i : deg mu = m - deg f_i}; its dimension is
the rank of the Macaulay matrix whose rows are indexed by the degree-m
monomials and whose columns are those products. H(m) = dim P_m - rank.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import PreconditionError, PrimeField, SplitMix64, binom, fp_rank
from .froeberg import DegreeType, froeberg_series, initial_segment, smallest_zero

__all__ = [
    "Monomial",
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
    "form_vector",
    "macaulay_matrix",
    "product_row_matrix",
    "hilbert_value",
    "hilbert_table",
    "first_inclusion_degree",
    "froeberg_check",
    "write_form_system",
    "read_form_system",
]


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.exponents):
            raise PreconditionError(f"negative exponent in {self.exponents}")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def v(self) -> int:
        return len(self.exponents)

    def __pow__(self, q: int) -> "Monomial":
        return Monomial(tuple(e * q for e in self.exponents))


@lru_cache(maxsize=None)
def _exponent_tuples(v: int, m: int) -> tuple[tuple[int, ...], ...]:
    # canonical order: ascending lexicographic on the reversed exponent
    # tuple, which is descending degree-reverse-lexicographic
    out: list[tuple[int, ...]] = []

    def descend(idx: int, rem: int, acc: tuple[int, ...]) -> None:
        if idx == 0:
            out.append((rem,) + acc)
            return
        for e in range(rem + 1):
            descend(idx - 1, rem - e, (e,) + acc)

    descend(v - 1, m, ())
    return tuple(out)


def monomial_count(v: int, m: int) -> int:
    return binom(m + v - 1, v - 1)


def monomials_of_degree(v: int, m: int) -> list[Monomial]:
    """All monomials in v variables of total degree m, in a fixed order
    (descending degrevlex), stable across runs."""
    if v < 1:
        raise PreconditionError(f"need at least one variable, got v={v}")
    if m < 0:
        raise PreconditionError(f"degree must be >= 0, got m={m}")
    return [Monomial(e) for e in _exponent_tuples(v, m)]


def _pack_bits(v: int, m: int) -> int | None:
    # pack each exponent into 63//v bits so that adding codes adds exponent
    # vectors without carries and the code order equals the canonical order
    bits = 63 // v
    if m < (1 << bits) and v * bits <= 63:
        return bits
    return None


def _pack(exps, v: int, bits: int) -> np.ndarray:
    # code sum_i e_i << (bits * i) of each exponent row, as one integer dot
    # product with the bit weights
    weights = np.left_shift(1, bits * np.arange(v, dtype=np.int64))
    return np.array(exps, dtype=np.int64).reshape(-1, v) @ weights


@lru_cache(maxsize=None)
def _codes(v: int, m: int, bits: int) -> np.ndarray:
    return _pack(_exponent_tuples(v, m), v, bits)


@lru_cache(maxsize=None)
def _index_of(v: int, m: int) -> dict[tuple[int, ...], int]:
    return {t: i for i, t in enumerate(_exponent_tuples(v, m))}


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
            if len(exps) != self.v:
                raise PreconditionError(f"term {exps} has wrong variable count")
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
        zeros and ordering terms canonically."""
        order = _index_of(v, degree)
        items = [(e, c) for e, c in coeffs.items() if c != 0]
        for exps, _ in items:
            if exps not in order:
                raise PreconditionError(
                    f"{exps} is not a degree-{degree} monomial in {v} variables"
                )
        items.sort(key=lambda item: order[item[0]])
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
    fld = field if isinstance(field, PrimeField) else PrimeField(field)
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
    fld = field if isinstance(field, PrimeField) else PrimeField(field)
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


def form_vector(form: Form, p: int) -> np.ndarray:
    """Coefficient vector of a form over the canonical degree basis."""
    vec = np.zeros(monomial_count(form.v, form.degree), dtype=np.int64)
    index = _index_of(form.v, form.degree)
    for exps, coeff in form.terms:
        vec[index[exps]] = coeff % p
    return vec


def _fill_product_columns(
    out: np.ndarray, col0: int, form: Form, v: int, m: int
) -> int:
    """Write the columns {mu * form : deg mu = m - deg form} into out
    starting at col0; returns the number of columns written."""
    shift_deg = m - form.degree
    if shift_deg < 0:
        return 0
    ncols = monomial_count(v, shift_deg)
    if form.is_zero:
        return ncols
    bits = _pack_bits(v, m)
    if bits is not None:
        target = _codes(v, m, bits)
        shifts = _codes(v, shift_deg, bits)
        term_codes = _pack([exps for exps, _ in form.terms], v, bits)
        coeffs = np.array([c for _, c in form.terms], dtype=np.int64)
        prod = shifts[:, None] + term_codes[None, :]
        rows = np.searchsorted(target, prod)
        cols = np.broadcast_to(
            np.arange(col0, col0 + ncols, dtype=np.int64)[:, None], prod.shape
        )
        out[rows.ravel(), cols.ravel()] = np.broadcast_to(coeffs[None, :], prod.shape).ravel()
    else:
        index = _index_of(v, m)
        for j, mu in enumerate(_exponent_tuples(v, shift_deg)):
            for exps, coeff in form.terms:
                row = index[tuple(a + b for a, b in zip(mu, exps))]
                out[row, col0 + j] = coeff
    return ncols


def macaulay_matrix(system: FormSystem, m: int) -> np.ndarray:
    """Degree-m multiplication matrix: rows are the degree-m monomials in
    canonical order, columns the products (generator-major, shifts in
    canonical order). Its rank is dim I_m."""
    if m < 0:
        raise PreconditionError(f"degree must be >= 0, got {m}")
    nrows = monomial_count(system.v, m)
    ncols = sum(
        monomial_count(system.v, m - f.degree) for f in system.forms if f.degree <= m
    )
    out = np.zeros((nrows, ncols), dtype=np.int64)
    col0 = 0
    for f in system.forms:
        col0 += _fill_product_columns(out, col0, f, system.v, m)
    return out


def product_row_matrix(system: FormSystem, m: int) -> np.ndarray:
    """The same products as rows over the degree-m monomial coordinates
    (the orientation echelon-based membership tests use)."""
    return np.ascontiguousarray(macaulay_matrix(system, m).T)


def hilbert_value(system: FormSystem, m: int) -> int:
    """H(m) = dim (P/I)_m, exactly."""
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
    # one degree of slack keeps the guard strict
    return system.total_degree - (system.v - 1) + 1


def hilbert_table(system: FormSystem, window: int | None = None) -> HilbertTable:
    if window is None:
        window = _search_window(system)
    values: list[int] = []
    for m in range(window + 1):
        h = hilbert_value(system, m)
        values.append(h)
        if h == 0:
            return HilbertTable(values=tuple(values), first_zero=m)
    return HilbertTable(values=tuple(values), first_zero=None)


def first_inclusion_degree(system: FormSystem) -> int:
    """Smallest m with (P/I)_m = 0, i.e. P_m contained in I."""
    window = _search_window(system)
    table = hilbert_table(system, window)
    if table.first_zero is None:
        raise PreconditionError(f"ideal not primary up to degree {window}")
    return table.first_zero


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

    degree_type: DegreeType
    p: int
    seed: int
    trials: int
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
    workers: int = 1,
) -> FroebergCheckReport:
    """Draw `trials` random systems of the degree type and compare their
    Hilbert functions with the predicted generic one.

    H(m) >= predicted_clipped[m] for every m is a theorem, so any violation
    recorded in inequality_violations indicates a defect somewhere.  Whether
    H == predicted_clipped everywhere (generic equality) is recorded per
    trial.  Trial t draws from an independent stream seeded seed + t, so
    results do not depend on the worker count.
    """
    if trials < 1:
        raise PreconditionError(f"need at least one trial, got {trials}")
    fld = field if isinstance(field, PrimeField) else PrimeField(field)
    dt = DegreeType(d, degrees)
    v = d + 1
    window = dt.total - dt.d
    series = froeberg_series(dt, window)
    clipped = initial_segment(series).coeffs
    m0 = smallest_zero(dt) if dt.n >= dt.d + 1 else None

    def run_trial(t: int) -> TrialResult:
        rng = SplitMix64(seed + t)
        system = random_form_system(v, dt.degrees, fld, rng)
        table = hilbert_table(system, window)
        values = _padded_values(table, window)
        return TrialResult(
            trial=t,
            first_zero=table.first_zero,
            values=values,
            equality=values == clipped,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(run_trial, range(trials)))
    else:
        results = tuple(run_trial(t) for t in range(trials))

    violations = []
    for res in results:
        for m, (h, f) in enumerate(zip(res.values, clipped)):
            if h < f:
                violations.append(
                    {"trial": res.trial, "m": m, "hilbert": h, "predicted": f}
                )
    equality_rate = sum(1 for r in results if r.equality) / trials
    return FroebergCheckReport(
        degree_type=dt,
        p=fld.p,
        seed=seed,
        trials=trials,
        window=window,
        m0=m0,
        predicted=series.coeffs,
        predicted_clipped=clipped,
        results=results,
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
    try:
        fields = dict(part.split("=", 1) for part in header)
        p = int(fields["p"])
        v = int(fields["v"])
    except (ValueError, KeyError) as exc:
        raise PreconditionError(f"malformed header {lines[0]!r}") from exc
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
                coeffs[exps] = coeff % p
        forms.append(Form.make(v, degree, coeffs))
    return FormSystem(field=fld, v=v, forms=tuple(forms))
