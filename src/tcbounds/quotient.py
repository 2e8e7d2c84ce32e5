"""Membership tests in graded quotient rings R = P/J over a prime field.

Everything happens inside one graded piece: for graded ideals the degree-m
part of I*R is the image of I_m in R_m = P_m / J_m, so ideal membership,
Frobenius-power membership f^q in I^[q], and tight-closure witness tests
all reduce to exact rank computations in R_m.  Theorem C needs only dim
(R/IR)_m, the Hilbert function of P/(I + J), which macaulay.hilbert_table
reads at every m at once, with no normal form; dim R_m is binomials.

J is zero or one relation f led by c x_0^k, so R is P or P/(f), free over
k[x_1, ..., x_{v-1}] with basis 1, x_0, ..., x_0^{k-1} (Noether
normalisation; Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
ch. 2 section 9 and ch. 5 section 3).  The standard monomials, those of
x_0-degree < k, are a basis of R_m, NF: P_m -> R_m is Horner in x_0 with
the one rewrite x_0^k = -c^-1 (f - c x_0^k), and no table of J is built.
A membership test eliminates only the residual, NF of each generator g of
I times the standard monomials of degree m - deg g, a (sum_g dim
R_{m - deg g}) x dim R_m matrix, and reports rank J_m = dim P_m - dim R_m
plus its rank: the rank of (I + J)_m in P_m.  These products span (I*R)_m,
since g * R_{m - deg g} is spanned by g times a basis of it.  Where
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
    random_form_system,
)
from .macaulay import _check_cells, _check_macaulay, _monomial_index, _over_cap, _partial_degrees

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
    """R = P/J for J empty or one homogeneous relation f of degree k >= 1
    whose first term, the largest in the canonical (degrevlex) order, is
    c x_0^k; a second relation, or one led otherwise, is refused.  P's
    field and variable count are those of the system.  The ring keeps k
    and f's other terms scaled by -c^-1, the rewrite of x_0^k, and no
    table of J."""

    def __init__(self, modulus: FormSystem):
        if modulus.v < 1:
            raise PreconditionError(f"need at least one variable, got v={modulus.v}")
        if len(modulus.forms) > 1:
            raise PreconditionError(
                f"the ring takes at most one relation, got {len(modulus.forms)}"
            )
        self.field = modulus.field
        self.v = modulus.v
        self.modulus = modulus
        self._masks: dict[int, np.ndarray] = {}
        self._ladders: dict[Form, list[np.ndarray]] = {}
        # x_0^k = sum_t scaled_t * t over f's other terms t, by partial degrees
        self._k: int | None = None
        for f in modulus.forms:
            if f.degree < 1:
                raise PreconditionError("modulus forms must have degree >= 1")
            if f.is_zero:
                raise PreconditionError("modulus forms must be nonzero")
            (lead, c), tail = f.terms[0], f.terms[1:]
            if lead[0] != f.degree:
                raise PreconditionError(
                    f"the relation must be led by a term c * x_0^{f.degree}, "
                    f"got the leading monomial {lead}"
                )
            p, scale = self.field.p, self.field.p - self.field.inv(c)
            self._k = f.degree
            exps = np.array([e for e, _ in tail], dtype=np.int64).reshape(-1, self.v)
            self._tail = exps.cumsum(axis=1).T
            self._scaled = np.array([c_t * scale % p for _, c_t in tail], dtype=np.int64)

    @property
    def krull_dimension(self) -> int:
        # a nonzero relation is a nonzerodivisor of the domain P, so P/(f)
        # has dimension v - 1
        return self.v - len(self.modulus.forms)

    def relation_echelon(self, m: int) -> np.ndarray:
        """The standard monomials of degree m, those of x_0-degree < k (all
        on P), as a read-only mask in canonical order, cached per degree:
        the coordinates of R_m, and all that NF needs of J_m's echelon.  The
        name stays while the benchmark's tracer (perfbench/spans.py) wraps it."""
        if m < 0:
            raise PreconditionError(f"degree must be >= 0, got {m}")
        mask = self._masks.get(m)
        if mask is None:
            _check_cells(f"relation echelon in degree {m}", *_stacked_shape(self, (), m))
            mask = _partial_degrees(self.v, m)[0] < (self._k or m + 1)  # all on P
            mask.flags.writeable = False  # shared by every caller
            self._masks[m] = mask
        return mask

    def _reduce(self, h: np.ndarray, n: int) -> np.ndarray:
        # NF of each row of h over P_n, in place: each pass rewrites x_0^k in
        # every monomial of x_0-degree e >= k of every row at once, into
        # x_0-degrees e - k..e - 1.  Entries stay in [0, p): each product of
        # residues (< 2^62) is reduced, then added.  h is C-ordered, so flat is
        # a view of it.
        p, part, flat = self.field.p, _partial_degrees(self.v, n), h.reshape(-1)
        high = part[0] >= (self._k or n + 1)  # none on P
        while (at := np.nonzero(high & (h != 0)))[0].size:
            row, col = at
            added = h[at][:, None] * self._scaled % p
            h[at] = 0
            cofactor = part[:, col, None] - self._k  # x_0^(e-k) nu
            index = _monomial_index(n, cofactor, self._tail[:, None, :])
            np.add.at(flat, index + h.shape[1] * row[:, None], added)
            h %= p
        return h

    def _normal_forms(self, forms: list[Form], n: int) -> np.ndarray:
        # NF of forms of degree n over P_n, one row each, zero off the
        # standard monomials: one scatter of every term, then one _reduce
        h = np.zeros((len(forms), monomial_count(self.v, n)), dtype=np.int64)
        terms = [(i, e, c) for i, form in enumerate(forms) for e, c in form.terms]
        if terms:
            rows, exps, coeffs = zip(*terms)
            part = np.array(exps, dtype=np.int64).reshape(-1, self.v).cumsum(axis=1).T
            h[rows, _monomial_index(n, part)] = np.array(coeffs) % self.field.p
        return self._reduce(h, n)

    def _times_x0(self, h: np.ndarray, n: int) -> np.ndarray:
        # NF(x_0 * h) over P_{n+1} for h over P_n on standard monomials, a
        # step of Horner's rule: only x_0-degree k - 1 reaches x_0^k
        at = np.flatnonzero(h)
        out = np.zeros((1, monomial_count(self.v, n + 1)), dtype=np.int64)
        out[0, _monomial_index(n + 1, _partial_degrees(self.v, n)[:, at] + 1)] = h[at]
        return self._reduce(out, n + 1)[0]

    def _ladder(self, form: Form) -> list[np.ndarray]:
        """NF(x_0^s form) over P_{deg form + s} for s < k (s = 0 on P), read-only
        and cached per form, so that every oracle of one I^[q], whatever its
        degree, scatters the same k normal forms."""
        ladder = self._ladders.get(form)
        if ladder is None:
            ladder = [self._normal_forms([form], form.degree)[0]]
            for s in range(1, self._k or 1):
                ladder.append(self._times_x0(ladder[-1], form.degree + s - 1))
            for nf in ladder:
                nf.flags.writeable = False
            self._ladders[form] = ladder
        return ladder


def ring_dimension_at(ring: GradedQuotient, m: int) -> int:
    """dim_k R_m = dim P_m - sum_f dim P_{m - deg f}, with nothing built: a
    nonzero relation f is a nonzerodivisor of the domain P."""
    if m < 0:
        raise PreconditionError(f"degree must be >= 0, got {m}")
    v = ring.v
    return monomial_count(v, m) - sum(monomial_count(v, m - a) for a in ring.modulus.degrees)


def ring_basis(ring: GradedQuotient, m: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the monomials whose classes form a basis of R_m:
    the standard ones, of x_0-degree below the relation's degree k."""
    standard = ring.relation_echelon(m)
    return [mono for mono, std in zip(monomials_of_degree(ring.v, m), standard) if std]


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
    is a combination of such b; each is an index scatter of one of k normal
    forms per generator (_products), which the ring caches, so oracles of
    one I^[q] at several degrees share them.  An element g is a member iff
    NF(g) lies in the residual's row space.  verdicts takes a batch: each
    _reduce pass rewrites x_0^k in every element's normal form at once,
    and one Echelon.reduce call reduces them all.  The residual's unit
    rows, those with one nonzero entry (b * g standard for a monomial g),
    are peeled off first, and only the rest, on the columns they leave,
    reaches fp_echelon: of the 78 x 78 residual of a witness test at p =
    q = 13 on the Fermat cubic, 4 x 5."""

    def __init__(self, ring: GradedQuotient, ideal: FormSystem, m: int, q: int = 1):
        if ideal.field != ring.field:
            raise PreconditionError("ideal field does not match ring field")
        if ideal.v != ring.v:
            raise PreconditionError("ideal variable count does not match ring")
        self.ring, self.ideal, self.degree = ring, frobenius_power_ideal(ideal, q), m
        _check_membership(ring, self.ideal.degrees, m)

    def _products(self, form: Form) -> np.ndarray:
        """NF of b * form over R_m for the standard b of degree m - deg form,
        in canonical order.  b = x_0^s beta, s < k, beta free of x_0 (on P,
        s = 0 and beta = b), maps standard monomials to standard ones, so
        NF(b * form) = beta * NF(x_0^s form): each row is an index scatter
        of one of the k normal forms of the ring's ladder of form."""
        ring, m, v, a = self.ring, self.degree, self.ring.v, form.degree
        dim = ring_dimension_at(ring, m)
        if a > m:
            return np.zeros((0, dim), dtype=np.int64)
        position = np.cumsum(ring.relation_echelon(m)) - 1  # of each standard monomial in R_m
        shifts = _partial_degrees(v, m - a)[:, ring.relation_echelon(m - a)]
        s = shifts[0] if ring._k is not None else np.zeros_like(shifts[0])
        out = np.zeros((shifts.shape[1], dim), dtype=np.int64)
        for level, nf in enumerate(ring._ladder(form)[: s.max(initial=-1) + 1]):
            rows, at = np.flatnonzero(s == level), np.flatnonzero(nf)
            beta = shifts[:, rows, None] - level
            mu = _partial_degrees(v, a + level)[:, at]
            out[rows[:, None], position[_monomial_index(m, beta, mu[:, None, :])]] = nf[at]
        return out

    def _residual(self) -> np.ndarray:
        # NF of every generator's products, stacked generator by generator
        empty = np.zeros((0, ring_dimension_at(self.ring, self.degree)), dtype=np.int64)
        return np.concatenate([empty] + [self._products(g) for g in self.ideal.forms])

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
        """One verdict per element, each a Form of degree m, in order.
        Every element is checked before any is reduced; then their normal
        forms are one matrix, whose _reduce passes each rewrite x_0^k in
        every row at once, and one Echelon.reduce call reduces all its rows
        by the rest's echelon."""
        for g in elements:
            if g.v != self.ring.v:
                raise PreconditionError("form variable count does not match ring")
            if g.degree != self.degree:
                raise PreconditionError(
                    f"element of degree {g.degree} in a degree-{self.degree} test"
                )
        residual_rank, kept, ech = self._eliminated
        ring, m = self.ring, self.degree
        rank = monomial_count(ring.v, m) - ring_dimension_at(ring, m) + residual_rank
        nf = ring._normal_forms(elements, m)[:, ring.relation_echelon(m)][:, kept]
        outside = ech.reduce(nf).any(axis=1)
        return [MembershipVerdict(not out, m, rank, rank + int(out)) for out in outside]


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
    products = {
        (i, j): form_product(u, _frobenius_power_form(f, q), p)
        for j, q in enumerate(q_list)
        for i, u in enumerate(witnesses)
    }
    found = {}  # one verdicts call per oracle, on all the products of its (q, degree)
    for (q, m), oracle in oracles.items():
        at = [(i, j) for (i, j), g in products.items() if q_list[j] == q and g.degree == m]
        found.update(zip(at, oracle.verdicts([products[ij] for ij in at])))
    rows = tuple(tuple(found[i, j] for j in range(len(q_list))) for i in range(len(witnesses)))
    passing = tuple(i for i, row in enumerate(rows) if all(verdict.contained for verdict in row))
    return WitnessScanReport(q_list, rows, passing)


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
    _check_macaulay(ring.v, ring.modulus.degrees + dt.degrees, bound)  # J's and I's M_C
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
