"""Membership tests in graded quotient rings R = P/J over a prime field.

Everything happens inside one graded piece: for graded ideals the degree-m
part of I*R is the image of I_m in R_m = P_m / J_m, so ideal membership,
Frobenius-power membership f^q in I^[q], and tight-closure witness tests
all reduce to exact rank computations in R_m.  Theorem C needs only dim
(R/IR)_m, the Hilbert function of P/(I + J), which macaulay.hilbert_table
reads at every m at once, with no normal form; dim R_m is binomials.

J is zero or one relation f, so R is P or the hypersurface P/(f).  A
single relation is a Groebner basis of its own ideal, the monomials that
its leading monomial does not divide are a basis of R_m, and the normal
form NF: P_m -> R_m follows by division, with no elimination (Cox, Little
and O'Shea, Ideals, Varieties, and Algorithms, ch. 2 section 9 and ch. 5
section 3).  A membership test eliminates only the residual, NF of each
generator g of I times the standard monomials of degree m - deg g, a
(sum_g dim R_{m - deg g}) x dim R_m matrix, and reports rank J_m plus its
rank: the rank of (I + J)_m in P_m.  These products span (I*R)_m, since
g * R_{m - deg g} is spanned by g times a basis of R_{m - deg g}.  Where
a product b * g stays standard for a monomial generator g, its row has a
single nonzero entry, so its column is a pivot outright; such unit rows
are peeled off before the rest is eliminated (the "known pivots" of
Faugere and Lachartre, Parallel Gaussian elimination for Groebner bases
computations in finite fields, PASCO 2010).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import Echelon, PreconditionError, SplitMix64, fp_echelon
from .bounds import bound_report
from .froeberg import DegreeType
from .macaulay import (
    Form,
    FormSystem,
    form_product,
    hilbert_table,
    monomial_count,
    monomials_of_degree,
    product_support,
    random_form_system,
)
from .macaulay import _check_cells, _over_cap

__all__ = [
    "GradedQuotient",
    "MembershipVerdict",
    "MembershipOracle",
    "WitnessScanReport",
    "TheoremCReport",
    "TheoremBReport",
    "ring_dimension_at",
    "ring_basis",
    "frobenius_power_ideal",
    "tight_witness_scan",
    "verify_theorem_c",
    "verify_theorem_b",
]


class GradedQuotient:
    """R = P/J for J empty or one homogeneous relation of positive degree;
    a second relation is refused.  P's field and variable count are those
    of the system.

    The leading monomial of the relation is its first term, the largest in
    the canonical (degrevlex) order.  J's fully reduced echelons (normal
    forms) are cached per degree.
    """

    def __init__(self, modulus: FormSystem):
        if modulus.v < 1:
            raise PreconditionError(f"need at least one variable, got v={modulus.v}")
        if len(modulus.forms) > 1:
            raise PreconditionError(
                f"the ring takes at most one relation, got {len(modulus.forms)}"
            )
        for f in modulus.forms:
            if f.degree < 1:
                raise PreconditionError("modulus forms must have degree >= 1")
            if f.is_zero:
                raise PreconditionError("modulus forms must be nonzero")
        self.field = modulus.field
        self.v = modulus.v
        self.modulus = modulus
        self._relation_echelons: dict[int, _NormalForm] = {}
        self._standard_masks: dict[int, np.ndarray] = {}

    @property
    def krull_dimension(self) -> int:
        # a nonzero relation is a nonzerodivisor of the domain P, so P/(f)
        # has dimension v - 1
        return self.v - len(self.modulus.forms)

    def relation_echelon(self, m: int) -> _NormalForm:
        """J_m's fully reduced echelon, kept as the normal form it defines:
        `pivot` marks its pivot columns, the monomials mu that the leading
        monomial divides, and its row for mu is e_mu - NF(mu), with NF(mu)
        a row of `table`."""
        if m < 0:
            raise PreconditionError(f"degree must be >= 0, got {m}")
        cached = self._relation_echelons.get(m)
        if cached is None:
            _check_cells(f"relation echelon in degree {m}", *_stacked_shape(self, (), m))
            cached = self._divide(m)
            self._relation_echelons[m] = cached
        return cached

    def _standard(self, m: int) -> np.ndarray:
        # the degree-m monomials that the leading monomial does not divide,
        # the coordinates of R_m, cached per degree; those it divides, each
        # LM(f) * nu, are the first column of f's product support
        mask = self._standard_masks.get(m)
        if mask is None:
            mask = np.ones(monomial_count(self.v, m), dtype=bool)
            for f in self.modulus.forms:
                mask[product_support(f, m)[:, 0]] = False
            mask.flags.writeable = False  # shared by every caller
            self._standard_masks[m] = mask
        return mask

    def _divide(self, m: int) -> _NormalForm:
        # mu = LM(f) * nu has NF(mu) = -lc^-1 * sum_t c_t NF(nu * t) over
        # f's other terms t.  Each pass computes NF of the pivots not yet
        # done whose nu * t are all done.  Every nu * t comes after mu in
        # the canonical order, so the last pivot not yet done always
        # qualifies and each pass makes progress.
        p = self.field.p
        standard = self._standard(m)
        rank = standard.size - int(standard.sum())
        nf = _NormalForm(~standard, np.zeros((rank, standard.size - rank), dtype=np.int64), p)
        done = standard.copy()
        for f in self.modulus.forms:
            support = product_support(f, m)
            mus, rest = support[:, 0], support[:, 1:]
            coeffs, scale = [c for _, c in f.terms[1:]], p - self.field.inv(f.terms[0][1])
            while not done.all():
                now = ~done[mus] & done[rest].all(axis=1)
                nf.table[nf.index[mus[now]]] = nf.of(rest[now], coeffs) * scale % p
                done[mus[now]] = True
        return nf


class _NormalForm:
    """NF: P_m -> R_m, the form in which J_m's fully reduced echelon is
    kept.  The i-th pivot monomial maps to row i of `table`, any other
    monomial to itself; the non-pivot monomials, in canonical order, are
    the coordinates of R_m, so `table` is rank J_m x dim R_m."""

    def __init__(self, pivot: np.ndarray, table: np.ndarray, p: int):
        self.pivot, self.table, self.p = pivot, table, p
        self.index = np.empty(pivot.size, dtype=np.int64)  # row of table, or basis position
        self.index[pivot] = np.arange(table.shape[0])
        self.index[~pivot] = np.arange(table.shape[1])

    def of(self, support: np.ndarray, coeffs) -> np.ndarray:
        """NF of sum_j coeffs[j] * (monomial support[s, j]) for each row s.
        Reducing mod p after each term keeps every entry below
        p + (p-1)^2 < 2^63 for p < 2^31."""
        p = self.p
        out = np.zeros((support.shape[0], self.table.shape[1]), dtype=np.int64)
        for col, c in zip(support.T, coeffs):
            c %= p
            at, piv = self.index[col], self.pivot[col]
            basis = np.flatnonzero(~piv)
            out[basis, at[basis]] += c
            reduced = np.flatnonzero(piv)
            out[reduced] += c * self.table[at[reduced]]
            out %= p
        return out


def ring_dimension_at(ring: GradedQuotient, m: int) -> int:
    """dim_k R_m = dim P_m - sum_f dim P_{m - deg f}, with nothing built: a
    nonzero relation f is a nonzerodivisor of the domain P."""
    if m < 0:
        raise PreconditionError(f"degree must be >= 0, got {m}")
    v = ring.v
    return monomial_count(v, m) - sum(monomial_count(v, m - a) for a in ring.modulus.degrees)


def ring_basis(ring: GradedQuotient, m: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the monomials whose classes form a basis of R_m:
    those that the relation's leading monomial does not divide, the
    non-pivot coordinates of J_m's echelon."""
    pivot = ring.relation_echelon(m).pivot
    return [mono for mono, piv in zip(monomials_of_degree(ring.v, m), pivot) if not piv]


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of one rank test: contained iff appending the element does
    not raise the rank."""

    contained: bool
    degree: int
    rank_without: int
    rank_with: int


def _stacked_shape(ring: GradedQuotient, degrees: tuple[int, ...], m: int) -> tuple[int, int]:
    # product rows of J and of an ideal of the given degrees, over dim P_m
    rows = sum(monomial_count(ring.v, m - a) for a in ring.modulus.degrees + degrees if a <= m)
    return rows, monomial_count(ring.v, m)


def _check_membership(ring: GradedQuotient, degrees: tuple[int, ...], m: int) -> None:
    # a membership test in degree m for an ideal of the given degrees,
    # sized from binomials alone, so that it can be refused before a draw
    _check_cells(f"membership test in degree {m}", *_stacked_shape(ring, degrees, m))


class MembershipOracle:
    """Membership in (I^[q] + J)_m inside P_m, i.e. in I^[q]*R at degree m.

    The test is sized from binomials when the oracle is made and refused
    over the cap.  On the first query the residual is eliminated once: NF
    of each generator g of I^[q] times the standard monomials b of degree
    m - deg g, of shape (sum_g dim R_{m - deg g}) x dim R_m.  Its rows span
    NF((I^[q])_m), since any shift mu of g has mu = NF(mu) mod J and NF(mu)
    is a combination of such b.  An element g is a member iff NF(g) lies in
    the residual's row space.  Its unit rows, those with one nonzero entry
    (b * g standard for a monomial g), are peeled off first, and only the
    rest, on the columns they leave, reaches fp_echelon: of the 78 x 78
    residual of a witness test at p = q = 13 on the Fermat cubic, 4 x 5."""

    def __init__(self, ring: GradedQuotient, ideal: FormSystem, m: int, q: int = 1):
        if ideal.field != ring.field:
            raise PreconditionError("ideal field does not match ring field")
        if ideal.v != ring.v:
            raise PreconditionError("ideal variable count does not match ring")
        self.ring, self.ideal, self.degree = ring, frobenius_power_ideal(ideal, q), m
        _check_membership(ring, self.ideal.degrees, m)

    def _products(self, nf: _NormalForm, form: Form) -> np.ndarray:
        """NF of b * form for the standard monomials b of degree m - deg form,
        those that the leading monomial does not divide, in canonical
        order."""
        standard = self.ring._standard(self.degree - form.degree)
        support = product_support(form, self.degree)[standard]
        return nf.of(support, [c for _, c in form.terms])

    def _residual(self) -> np.ndarray:
        # NF of every generator's products, stacked generator by generator
        nf = self.ring.relation_echelon(self.degree)
        residual = [np.zeros((0, nf.table.shape[1]), dtype=np.int64)]
        residual += [self._products(nf, g) for g in self.ideal.forms]
        return np.concatenate(residual)

    @cached_property
    def _eliminated(self) -> tuple[int, np.ndarray, Echelon]:
        """The residual's rank, its kept columns, and the echelon of the
        rest of it on them.

        A unit row, one whose only nonzero entry is in column c, puts e_c
        in the row space, so c is a pivot outright.  The row space is then
        span{e_c : c covered} plus the other rows on the kept columns,
        those that no unit row covers, and the sum is direct.  On the kept
        columns the other rows may have unit rows of their own, so these
        are peeled off in turn until none is left, and rows that vanish go
        with them.  So the rank is the number of covered columns plus the
        rank of the rest, and NF(g) is in the row space iff its entries on
        the kept columns are in the rest's.  A residual with no unit row,
        such as one of random forms, is eliminated whole."""
        rest = self._residual()
        kept = np.ones(rest.shape[1], dtype=bool)
        while True:
            count = np.count_nonzero(rest, axis=1)
            unit = count == 1
            if not unit.any():
                break
            covered = rest[unit].any(axis=0)
            kept[np.flatnonzero(kept)[covered]] = False
            rest = rest[count > 1][:, ~covered]
        ech = fp_echelon(rest, self.ring.field)
        return kept.size - int(kept.sum()) + ech.rank, kept, ech

    def verdicts(self, elements: list[Form]) -> list[MembershipVerdict]:
        """One verdict per element, each a Form of degree m."""
        nf = self.ring.relation_echelon(self.degree)
        residual_rank, kept, ech = self._eliminated
        rank = nf.table.shape[0] + residual_rank  # rank J_m + rank of the residual
        out = []
        for g in elements:
            if g.v != self.ring.v:
                raise PreconditionError("form variable count does not match ring")
            if g.degree != self.degree:
                raise PreconditionError(
                    f"element of degree {g.degree} in a degree-{self.degree} test"
                )
            contained = not ech.reduce(self._products(nf, g)[0][kept]).any()
            rank_with = rank if contained else rank + 1
            out.append(MembershipVerdict(contained, self.degree, rank, rank_with))
        return out


def _check_prime_power(q: int, p: int) -> None:
    r = q
    while r > 1 and r % p == 0:
        r //= p
    if r != 1:
        raise PreconditionError(f"q={q} is not a power of the characteristic {p}")


def _frobenius_power_form(f: Form, q: int) -> Form:
    # (sum c_e x^e)^q = sum c_e x^(qe) over F_p: Frobenius is additive and
    # c^q = c; scaling every exponent by q preserves the canonical order
    return Form(
        v=f.v,
        degree=f.degree * q,
        terms=tuple((tuple(e * q for e in exps), c) for exps, c in f.terms),
    )


def frobenius_power_ideal(ideal: FormSystem, q: int) -> FormSystem:
    """I^[q] = (f_1^q, ..., f_n^q), computed by exact exponent scaling."""
    _check_prime_power(q, ideal.field.p)
    return FormSystem(
        field=ideal.field,
        v=ideal.v,
        forms=tuple(_frobenius_power_form(f, q) for f in ideal.forms),
    )


@dataclass(frozen=True)
class WitnessScanReport:
    q_list: tuple[int, ...]
    verdicts: tuple[tuple[MembershipVerdict, ...], ...]
    passing: tuple[int, ...]


def _q_powers(
    ring: GradedQuotient, degrees: tuple[int, ...], q_max: int, base: int
) -> tuple[int, ...]:
    """q = p, p^2, ... up to q_max, stopping at the first q whose test in
    (I^[q] + J) at degree q * base, for I of the given degrees, would
    exceed the size cap."""
    qs = []
    q = ring.field.p
    while q <= q_max:
        shape = _stacked_shape(ring, tuple(q * a for a in degrees), q * base)
        if _over_cap(*shape):
            break
        qs.append(q)
        q *= ring.field.p
    return tuple(qs)


def _default_witnesses(v: int) -> tuple[Form, ...]:
    # the ambient quotients here are hypersurface domains, so any nonzero
    # element works as a multiplier; monomials of degree <= 2 are plenty
    pool = []
    for deg in (0, 1, 2):
        for mono in monomials_of_degree(v, deg):
            pool.append(Form(v=v, degree=deg, terms=((mono, 1),)))
    return tuple(pool)


def tight_witness_scan(
    ring: GradedQuotient,
    ideal: FormSystem,
    f: Form,
    q_list: tuple[int, ...],
    witnesses: tuple[Form, ...] | None = None,
) -> WitnessScanReport:
    """Scan candidate witnesses u over the given nonempty list of powers q
    of p: u passes q iff u * f^q lies in (I^[q] + J) at degree
    deg u + q deg f.  A u passing every listed q is recorded in `passing`:
    evidence for f in (I*R)^*, never a certificate (the definition
    quantifies over almost all q)."""
    if f.v != ring.v:
        raise PreconditionError("form variable count does not match ring")
    p = ring.field.p
    if witnesses is None:
        witnesses = _default_witnesses(ring.v)
    witnesses = tuple(witnesses)
    for u in witnesses:
        if u.is_zero:
            raise PreconditionError("witness must be nonzero")
        if u.v != ring.v:
            raise PreconditionError("witness variable count does not match ring")
    q_list = tuple(q_list)
    if not q_list:
        raise PreconditionError("q_list must be nonempty")

    # every test is sized before any is run
    tests = sorted({(q, u.degree + q * f.degree) for q in q_list for u in witnesses})
    oracles = {(q, m): MembershipOracle(ring, ideal, m, q) for q, m in tests}
    rows = []
    for u in witnesses:
        prods = [form_product(u, _frobenius_power_form(f, q), p) for q in q_list]
        rows.append(tuple(oracles[q, g.degree].verdicts([g])[0] for q, g in zip(q_list, prods)))
    passing = tuple(i for i, row in enumerate(rows) if all(verdict.contained for verdict in row))
    return WitnessScanReport(q_list, tuple(rows), passing)


@dataclass(frozen=True)
class TheoremCReport:
    """Ideal inclusion at C = m0 + d + 1 + a_invariant on the last draw:
    dim R_C, the first m <= C with R_m in the ideal (or None), and dim
    (R/IR)_C, 0 on a pass.  Decidable at the given prime, so passed=False
    after the retry budget means the configuration failed."""

    p: int
    a_invariant: int
    bound: int
    draws: int
    system: FormSystem
    basis_size: int
    inclusion_degree: int | None
    deficit: int
    passed: bool


def _check_dimension(ring: GradedQuotient, dt: DegreeType) -> None:
    if ring.krull_dimension != dt.d + 1:
        raise PreconditionError(
            f"ring dimension {ring.krull_dimension} does not match d+1={dt.d + 1}"
        )


def verify_theorem_c(
    ring: GradedQuotient,
    dt: DegreeType,
    a_invariant: int,
    seed: int,
    max_redraws: int = 8,
) -> TheoremCReport:
    """Draw a random system of the degree type and test that all of R_C
    lies in the ideal, C = m0 + d + 1 + a_invariant.  R/IR = P/(I + J), so
    one hilbert_table of J's and I's forms up to C gives dim (R/IR)_m at
    every m: its first zero is the inclusion degree, its value at C the deficit.

    The statement holds for generic systems; a bad draw is redrawn from the
    same stream (bounded retries, draw count reported).
    """
    _check_dimension(ring, dt)
    bound = bound_report(dt, a_invariant).ideal
    if bound < 0:
        raise PreconditionError(f"inclusion degree {bound} is negative")
    if max_redraws < 1:
        raise PreconditionError(f"need at least one draw, got {max_redraws}")
    _check_membership(ring, dt.degrees, bound)  # J's and I's M_C, before any draw
    rng = SplitMix64(seed)
    draws, degree = 0, None
    while draws < max_redraws and degree is None:
        draws += 1
        system = random_form_system(ring.v, dt.degrees, ring.field, rng)
        both = FormSystem(field=ring.field, v=ring.v, forms=ring.modulus.forms + system.forms)
        table = hilbert_table(both, bound)
        degree = table.first_zero
    return TheoremCReport(
        p=ring.field.p,
        a_invariant=a_invariant,
        bound=bound,
        draws=draws,
        system=system,
        basis_size=ring_dimension_at(ring, bound),
        inclusion_degree=degree,
        deficit=table.values[-1],  # H(C) on a failing draw, else the first zero's 0
        passed=degree is not None,
    )


@dataclass(frozen=True)
class TheoremBReport:
    """Frobenius-closure verification at degree B = m0 + d + 1: for each
    basis element the smallest q with b^q in I^[q], or None if no q up to
    q_max worked.  Unresolved elements are open, not counterexamples:
    membership in the Frobenius closure only requires SOME power q."""

    p: int
    bound: int
    q_max: int
    q_list: tuple[int, ...]
    ideal: FormSystem
    elements: tuple[tuple[tuple[int, ...], int | None], ...]
    all_resolved: bool
    note: str


def verify_theorem_b(
    ring: GradedQuotient,
    dt: DegreeType,
    q_max: int | None = None,
    seed: int = 7,
    ideal: FormSystem | None = None,
) -> TheoremBReport:
    """For each monomial basis element b of R at degree B = m0 + d + 1,
    search q in {1, p, p^2, ...} up to q_max for b^q in I^[q] + J.

    With ideal=None a system of the degree type is drawn from the seed;
    an explicit ideal (e.g. variables of a named fixture) must match the
    degree type.
    """
    _check_dimension(ring, dt)
    p = ring.field.p
    if q_max is None:
        q_max = p**4
    if q_max < 1:
        raise PreconditionError(f"q_max must be >= 1, got {q_max}")
    if ideal is not None and tuple(sorted(ideal.degrees, reverse=True)) != dt.degrees:
        raise PreconditionError(
            f"ideal degrees {ideal.degrees} do not match degree type {dt.degrees}"
        )
    bound = bound_report(dt).frobenius

    # every test is sized before any is run: _q_powers stops below the
    # cap, so only the q = 1 test can be refused, and it is before a draw
    q_list = (1,) + _q_powers(ring, dt.degrees, q_max, bound)
    _check_membership(ring, dt.degrees, bound)
    if ideal is None:
        ideal = random_form_system(ring.v, dt.degrees, ring.field, SplitMix64(seed))
    oracles = [MembershipOracle(ring, ideal, q * bound, q) for q in q_list]

    basis = ring_basis(ring, bound)
    forms = [Form(v=ring.v, degree=bound, terms=((b, 1),)) for b in basis]
    resolved: list[int | None] = [None] * len(basis)
    for q, oracle in zip(q_list, oracles):
        open_indices = [i for i, r in enumerate(resolved) if r is None]
        if not open_indices:
            break
        found = oracle.verdicts([_frobenius_power_form(forms[i], q) for i in open_indices])
        for i, verdict in zip(open_indices, found):
            if verdict.contained:
                resolved[i] = q
    elements = tuple(zip(basis, resolved))
    return TheoremBReport(
        p=p,
        bound=bound,
        q_max=q_max,
        q_list=q_list,
        ideal=ideal,
        elements=elements,
        all_resolved=all(r is not None for _, r in elements),
        note=(
            "Frobenius-closure membership requires some power q; elements "
            f"unresolved up to q_max={q_max} are open at this scale, not "
            "counterexamples."
        ),
    )
