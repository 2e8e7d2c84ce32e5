"""The Froberg function F(m), its clipped variants, the predicted generic
Hilbert series, the smallest zero m0, and closed forms for m0.

For a degree type (a_1,...,a_n) in a polynomial ring with d+1 variables,
F(m) is the degree-m coefficient of prod(1 - t^(a_i)) / (1 - t)^(d+1),
read from one sparse numerator {w: c_w} of prod(1 - t^(a_i)). Its first
non-positive index m0 is the degree from which a generic ideal of that
type contains the whole ring.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, repeat

from .arith import PreconditionError, binom

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


def _numerator(dt: DegreeType, top: int) -> dict[int, int]:
    """Nonzero coefficients {w: c_w} of prod(1 - t^(a_i)), truncated to the
    exponents w <= top: F up to top reads no higher term."""
    num = {0: 1}
    for a in dt.degrees:
        for w, c in list(num.items()):
            if w + a <= top:
                num[w + a] = num.get(w + a, 0) - c
    return {w: c for w, c in num.items() if c}


def _values(dt: DegreeType, top: int) -> Iterator[int]:
    """F(0), ..., F(top), lazily: d + 1 running sums of the numerator's
    coefficients, carried across blocks of 4096 degrees (a chain of d + 1
    lazy accumulate()s would overflow the C stack near d = 10^6)."""
    num = _numerator(dt, top)
    carries = [0] * (dt.d + 1)
    for start in range(0, top + 1, 4096):
        block = list(map(num.get, range(start, min(start + 4096, top + 1)), repeat(0)))
        for i, carry in enumerate(carries):
            block[0] += carry
            block = list(accumulate(block))
            carries[i] = block[-1]
        yield from block


def froeberg_value(dt: DegreeType, m: int) -> int:
    """F(m) = sum over the numerator's terms c_w t^w, w <= m, of
    c_w * C(d + m - w, d), exact."""
    if m < 0:
        raise PreconditionError(f"m must be >= 0, got {m}")
    return sum(c * binom(dt.d + m - w, dt.d) for w, c in _numerator(dt, m).items())


def froeberg_series(dt: DegreeType, cutoff: int) -> tuple[int, ...]:
    """Coefficients of prod(1 - t^(a_i)) / (1 - t)^(d+1) up to the cutoff,
    indexed by degree.

    Read from the same numerator as froeberg_value, by d + 1 running
    sums, so the two do not check each other.
    """
    if cutoff < 0:
        raise PreconditionError(f"cutoff must be >= 0, got {cutoff}")
    return tuple(_values(dt, cutoff))


def initial_segment(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Initial non-negative segment: zero from the first non-positive
    coefficient onwards.

    This is the convention under which H(m) >= F+(m) is a theorem for every
    m: the alternating sum can recover positive values beyond its first
    non-positive index (e.g. d=3, six generators of degree 10 give
    F(21) = -100 but F(36) = 70) while the generic Hilbert function stays 0
    once it vanishes. The pointwise clip max(0, F(m)) and this clip agree
    up to and including m0.
    """
    cut = next((m for m, c in enumerate(coeffs) if c <= 0), len(coeffs))
    return tuple(coeffs[:cut]) + (0,) * (len(coeffs) - cut)


def smallest_zero(dt: DegreeType) -> int:
    """m0 = min{m : F(m) <= 0}; requires n >= d+1.

    For n = d+1 the generating polynomial is prod(1 + t + ... +
    t^(a_i - 1)), positive up to its degree total - d - 1, so m0 is
    total - d without a scan.  For constant degree a with n = d+2, d = 1 or
    d = 2, F is linear or quadratic on [a, 2a) and m0 < 2a, so the closed
    forms are exact there too.
    """
    if dt.n < dt.d + 1:
        raise PreconditionError(
            f"no inclusion bound (n < d+1): n={dt.n}, d={dt.d}"
        )
    if dt.n == dt.d + 1:
        return closed_form_parameter(dt)
    if dt.is_constant:
        if dt.n == dt.d + 2:
            return closed_form_almost_parameter(dt)
        if dt.d == 1:
            return closed_form_dim1(dt.n, dt.degrees[0])
        if dt.d == 2:
            return closed_form_dim2(dt.n, dt.degrees[0])
    # The d+1 smallest degrees alone give m0 = (their sum) - d. Adding a
    # form of degree a turns F(m) into F(m) - F(m - a), still <= 0 at the
    # old first non-positive index, as F(m - a) >= 0 there: no added form
    # moves m0 up. Running past that limit means F is wrong.
    limit = sum(dt.degrees[-dt.d - 1:]) - dt.d
    for m, f in enumerate(_values(dt, limit)):
        if f <= 0:
            return m
    raise AssertionError(f"F has no non-positive value by {limit}: {dt}")


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
