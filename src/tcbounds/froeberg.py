"""The Froberg function F(m), its clipped variants, the predicted generic
Hilbert series, the smallest zero m0, and closed forms for m0.

For a degree type (a_1,...,a_n) in a polynomial ring with d+1 variables,
F(m) is the alternating sum over sub-multisets B of the degrees of
(-1)^|B| * C(d + m - sum(B), d), equivalently the degree-m coefficient of
prod(1 - t^(a_i)) / (1 - t)^(d+1). Its first non-positive index m0 is the
degree from which a generic ideal of that type contains the whole ring.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, product

from .arith import PreconditionError, TruncatedSeries, binom

__all__ = [
    "DegreeType",
    "froeberg_value",
    "froeberg_series",
    "initial_segment",
    "smallest_zero",
    "closed_form_parameter",
    "closed_form_almost_parameter",
    "closed_form_dim1",
    "closed_form_dim2",
]


@dataclass(frozen=True)
class DegreeType:
    """Degrees (a_1,...,a_n) of a homogeneous system, stored sorted
    descending, together with the ambient parameter d (the polynomial ring
    has d+1 variables; the graded ring the bounds live in has dimension d+1).
    """

    d: int
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise PreconditionError(f"d must be >= 1, got {self.d}")
        if len(self.degrees) < 1:
            raise PreconditionError("degree type needs at least one degree")
        if any(a < 1 for a in self.degrees):
            raise PreconditionError(f"degrees must be positive, got {self.degrees}")
        object.__setattr__(
            self, "degrees", tuple(sorted(self.degrees, reverse=True))
        )

    @classmethod
    def constant(cls, d: int, n: int, a: int) -> "DegreeType":
        if n < 1:
            raise PreconditionError(f"n must be >= 1, got {n}")
        return cls(d, (a,) * n)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def total(self) -> int:
        return sum(self.degrees)

    @property
    def is_constant(self) -> bool:
        return self.degrees[0] == self.degrees[-1]


def froeberg_value(dt: DegreeType, m: int) -> int:
    """F(m): alternating sub-multiset sum, exact.

    Sub-multisets are enumerated by multiplicity vectors over the distinct
    degrees, so repeated degrees cost polynomially, not 2^n.
    """
    if m < 0:
        raise PreconditionError(f"m must be >= 0, got {m}")
    counts = Counter(dt.degrees)
    distinct = sorted(counts)
    total = 0
    for mults in product(*(range(counts[a] + 1) for a in distinct)):
        size = sum(mults)
        weight = sum(k * a for k, a in zip(mults, distinct))
        term = binom(dt.d + m - weight, dt.d)
        if term == 0:
            continue
        coeff = 1
        for k, a in zip(mults, distinct):
            coeff *= math.comb(counts[a], k)
        total += (-1) ** size * coeff * term
    return total


def froeberg_series(dt: DegreeType, cutoff: int) -> TruncatedSeries:
    """Coefficients of prod(1 - t^(a_i)) / (1 - t)^(d+1) up to the cutoff.

    Computed as a series, independently of froeberg_value; the two must
    agree coefficient by coefficient.  Each factor 1 - t^a is one in-place
    pass from the top degree down, and each factor 1/(1 - t) one prefix
    sum, so the cost is (n + d + 1) passes over the cutoff.
    """
    if cutoff < 0:
        raise PreconditionError(f"cutoff must be >= 0, got {cutoff}")
    coeffs = [1] + [0] * cutoff
    for a in dt.degrees:
        for m in range(cutoff, a - 1, -1):
            coeffs[m] -= coeffs[m - a]
    for _ in range(dt.d + 1):
        coeffs = list(accumulate(coeffs))
    return TruncatedSeries(tuple(coeffs))


def initial_segment(s: TruncatedSeries) -> TruncatedSeries:
    """Initial non-negative segment: zero from the first non-positive
    coefficient onwards.

    This is the convention under which H(m) >= F+(m) is a theorem for every
    m: the alternating sum can recover positive values beyond its first
    non-positive index (e.g. d=3, six generators of degree 10 give
    F(21) = -100 but F(36) = 70) while the generic Hilbert function stays 0
    once it vanishes. The pointwise clip max(0, F(m)) and this clip agree
    up to and including m0.
    """
    out = []
    alive = True
    for c in s.coeffs:
        if alive and c <= 0:
            alive = False
        out.append(c if alive else 0)
    return TruncatedSeries(tuple(out))


def smallest_zero(dt: DegreeType) -> int:
    """m0 = min{m : F(m) <= 0}; requires n >= d+1, and m0 <= total - d.

    The generating polynomial has degree total - d - 1 when n >= d+1, so the
    scan is guaranteed to terminate by total - d.
    """
    if dt.n < dt.d + 1:
        raise PreconditionError(
            f"no inclusion bound (n < d+1): n={dt.n}, d={dt.d}"
        )
    limit = dt.total - dt.d
    # F(m) = C(d+m, d) > 0 below the smallest degree
    m = min(dt.degrees)
    while m < limit:
        if froeberg_value(dt, m) <= 0:
            return m
        m += 1
    return limit


def closed_form_parameter(dt: DegreeType) -> int:
    """m0 for a parameter system (n = d+1): sum of the degrees minus d."""
    if dt.n != dt.d + 1:
        raise PreconditionError(
            f"parameter closed form needs n = d+1, got n={dt.n}, d={dt.d}"
        )
    return dt.total - dt.d


def closed_form_almost_parameter(dt: DegreeType) -> int:
    """m0 for n = d+2 generators of one constant degree a:
    floor(n(a-1)/2) + 1."""
    if dt.n != dt.d + 2 or not dt.is_constant:
        raise PreconditionError(
            "almost-parameter closed form needs n = d+2 and constant degree, "
            f"got n={dt.n}, d={dt.d}, degrees={dt.degrees}"
        )
    a = dt.degrees[0]
    return dt.n * (a - 1) // 2 + 1


def closed_form_dim1(n: int, a: int) -> int:
    """m0 for d=1 and n generators of constant degree a: ceil(na/(n-1)) - 1."""
    if n < 2:
        raise PreconditionError(f"d=1 closed form needs n >= 2, got n={n}")
    if a < 1:
        raise PreconditionError(f"degree must be positive, got {a}")
    return -(-n * a // (n - 1)) - 1


def closed_form_dim2(n: int, a: int) -> int:
    """m0 for d=2 and n generators of constant degree a.

    3a-2 when n=3; for n >= 4 the exact ceiling of the real root of the
    active quadratic piece of F, computed entirely in integers: the
    candidate from the integer square root is incremented until
    C*m - A >= 0 and (C*m - A)^2 >= D.
    """
    if n < 3:
        raise PreconditionError(f"d=2 closed form needs n >= 3, got n={n}")
    if a < 1:
        raise PreconditionError(f"degree must be positive, got {a}")
    if n == 3:
        return 3 * a - 2
    # the positive root of the quadratic piece of F is (A + sqrt(D)) / C
    num = 3 - 3 * n + 2 * a * n
    disc = 1 - 2 * n + n * n + 4 * a * a * n
    den = 2 * (n - 1)
    m = (num + math.isqrt(disc)) // den
    while not (den * m - num >= 0 and (den * m - num) ** 2 >= disc):
        m += 1
    return m
