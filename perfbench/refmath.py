"""Reference computations that the benchmark checks tcbounds against.

Nothing here imports tcbounds. Every value is recomputed from its
definition by a different route from the one the package takes:

* F(m) is the degree-m coefficient of prod(1 - t^a_i) / (1 - t)^(d+1),
  taken as sum_k c_k C(m - k + d, d) over the coefficients c_k of the
  numerator polynomial (tcbounds enumerates sub-multisets, or multiplies
  truncated series).
* Ranks mod p come from Gaussian elimination on rows packed into Python
  ints, one 64-bit field per column (tcbounds eliminates int64/float64
  numpy arrays).
* Products mu * f are formed from exponent dictionaries in a monomial
  order of this module's own.
"""

from __future__ import annotations

import math
from array import array
from itertools import combinations_with_replacement

__all__ = [
    "numerator",
    "froeberg_F",
    "froeberg_plus",
    "m0_scan",
    "m0_closed_form",
    "hilbert_ci",
    "monomials",
    "product_rows",
    "rank_packed",
    "rank_mod_p",
    "macaulay_rank",
]


def numerator(degrees) -> list[tuple[int, int]]:
    """Nonzero terms (k, c_k) of prod(1 - t^a) over the degrees."""
    poly = {0: 1}
    for a in degrees:
        out = dict(poly)
        for k, c in poly.items():
            out[k + a] = out.get(k + a, 0) - c
        poly = {k: c for k, c in out.items() if c}
    return sorted(poly.items())


def _series_coeff(num: list[tuple[int, int]], d: int, m: int) -> int:
    # degree-m coefficient of num(t) / (1 - t)^(d+1)
    return sum(c * math.comb(m - k + d, d) for k, c in num if k <= m)


def froeberg_F(d: int, degrees, m: int) -> int:
    return _series_coeff(numerator(degrees), d, m)


def froeberg_plus(d: int, degrees, top: int) -> list[int]:
    """F+(0..top): F up to its first non-positive value, zero from there on."""
    num = numerator(degrees)
    out, alive = [], True
    for m in range(top + 1):
        f = _series_coeff(num, d, m) if alive else 0
        if f <= 0:
            alive, f = False, 0
        out.append(f)
    return out


def m0_scan(d: int, degrees) -> int:
    """Smallest m with F(m) <= 0, scanning upwards.  The scan starts at the
    smallest degree: below it F(m) = C(m+d, d) > 0."""
    num = numerator(degrees)
    m = min(degrees)
    while _series_coeff(num, d, m) > 0:
        m += 1
    return m


def m0_closed_form(d: int, degrees) -> int | None:
    """The paper's closed forms for m0, or None where none applies.

    parameter (n = d+1): sum(a) - d.  almost-parameter (n = d+2, constant
    a): floor(n(a-1)/2) + 1.  d = 1, constant a: ceil(na/(n-1)) - 1.
    d = 2, constant a: 3a - 2 for n = 3; for n >= 4 the ceiling of the
    larger root of (n-1)m^2 - (2an + 3 - 3n)m + (na^2 - 3na + 2n - 2), the
    quadratic that C(m+2,2) - n C(m-a+2,2) = 0 reduces to.
    """
    degrees = tuple(degrees)
    n = len(degrees)
    if n == d + 1:
        return sum(degrees) - d
    if len(set(degrees)) != 1:
        return None
    a = degrees[0]
    if n == d + 2:
        return n * (a - 1) // 2 + 1
    if d == 1:
        return -(-n * a // (n - 1)) - 1
    if d == 2:
        if n == 3:
            return 3 * a - 2
        qa, qb, qc = n - 1, -(2 * a * n + 3 - 3 * n), n * a * a - 3 * n * a + 2 * n - 2
        disc = qb * qb - 4 * qa * qc
        s = math.isqrt(disc)
        if s * s == disc:
            return -((qb - s) // (2 * qa))
        return (s - qb) // (2 * qa) + 1
    return None


def hilbert_ci(v: int, degrees, m: int) -> int:
    """Hilbert function at m of P/(g_1..g_k), P in v variables, for a
    regular sequence g of the given degrees: the F of that degree type."""
    return froeberg_F(v - 1, degrees, m)


def monomials(v: int, m: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the degree-m monomials in v variables."""
    out = []
    for combo in combinations_with_replacement(range(v), m):
        e = [0] * v
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def product_rows(forms, v: int, m: int) -> list[dict[int, int]]:
    """The products mu * f (deg mu = m - deg f) as sparse rows over an
    index of the degree-m monomials.  forms: (degree, {exps: coeff})."""
    index = {e: i for i, e in enumerate(monomials(v, m))}
    rows = []
    for deg, terms in forms:
        if deg > m:
            continue
        for mu in monomials(v, m - deg):
            rows.append(
                {index[tuple(x + y for x, y in zip(mu, e))]: c for e, c in terms.items()}
            )
    return rows


_WIDTH = 64
_MASK = (1 << _WIDTH) - 1


def _pack(fields: list[int]) -> int:
    return int.from_bytes(array("Q", fields).tobytes(), "little")


def _unpack(row: int, n: int) -> list[int]:
    return array("Q", row.to_bytes(8 * n, "little")).tolist()


def rank_packed(rows: list[dict[int, int]], ncols: int, p: int) -> int:
    """Rank over F_p of sparse rows {column: value in [0, p)}.

    Each row is one Python int with a 64-bit field per column, lowest field
    first.  A row update r += (p - k) * pivot adds less than p^2 to every
    field; a row is reduced field by field before its updates could reach
    2^64, so no field ever carries into the next.  Columns are taken in
    order; after each column every remaining row is shifted down one field,
    so the current column is always the lowest field.
    """
    if not 2 <= p < 2**31:
        raise ValueError(f"p={p} outside [2, 2^31)")
    budget = (_MASK - p) // (p * p)
    live = []
    for row in rows:
        fields = [0] * ncols
        for col, val in row.items():
            fields[col] = val % p
        live.append([_pack(fields), 0])
    rank = 0
    width = ncols
    for _ in range(ncols):
        pivot = None
        rest = []
        for item in live:
            c = (item[0] & _MASK) % p
            if pivot is None:
                if c:
                    pivot = item[0]
                    pivot_inv = pow(c, p - 2, p)
                    if item[1]:
                        pivot = _pack([x % p for x in _unpack(pivot, width)])
                    continue
            elif c:
                if item[1] >= budget:
                    item[0] = _pack([x % p for x in _unpack(item[0], width)])
                    item[1] = 0
                    c = item[0] & _MASK
                item[0] += (p - c * pivot_inv % p) * pivot
                item[1] += 1
            item[0] >>= _WIDTH
            if item[0]:
                rest.append(item)
        if pivot is not None:
            rank += 1
        live = rest
        width -= 1
        if not live:
            break
    return rank


def rank_mod_p(matrix, p: int) -> int:
    """Rank over F_p of a dense matrix given as a list of integer rows."""
    matrix = [list(r) for r in matrix]
    ncols = len(matrix[0]) if matrix else 0
    rows = [{j: x % p for j, x in enumerate(r) if x % p} for r in matrix]
    return rank_packed(rows, ncols, p)


def macaulay_rank(forms, v: int, m: int, p: int) -> int:
    """dim I_m for the ideal of the given forms: rank of the products."""
    return rank_packed(product_rows(forms, v, m), math.comb(m + v - 1, v - 1), p)
