"""Exact integer, binomial, modular, and truncated-power-series arithmetic.

Integers are Python ints throughout (arbitrary precision, never wrapped).
Matrix ranks over a prime field use hand-written Gaussian elimination on
int64 numpy arrays; see fp_rank for the exactness argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PreconditionError",
    "PrimeField",
    "TruncatedSeries",
    "SplitMix64",
    "Echelon",
    "binom",
    "series_one_minus_power",
    "series_inv_one_minus_lambda_pow",
    "series_mul",
    "fp_rank",
    "fp_echelon",
]


class PreconditionError(ValueError):
    """A mathematical precondition of an operation is violated."""


def binom(n: int, k: int) -> int:
    """C(n, k), taken to be zero unless n >= k >= 0."""
    if n >= k >= 0:
        return math.comb(n, k)
    return 0


def _is_prime(p: int) -> bool:
    # trial division; p < 2**31 so the divisor loop stays below 46341
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """F_p with p prime, 2 <= p < 2**31; elements are residues in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        if not (2 <= self.p < 2**31):
            raise PreconditionError(f"modulus {self.p} out of range [2, 2^31)")
        if not _is_prime(self.p):
            raise PreconditionError(f"modulus {self.p} is not prime")

    def normalize(self, x: int) -> int:
        return x % self.p

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(x, self.p - 2, self.p)


def _as_field(field_or_p: PrimeField | int) -> PrimeField:
    if isinstance(field_or_p, PrimeField):
        return field_or_p
    return PrimeField(int(field_or_p))


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series kept exactly up to a cutoff degree.

    coeffs[m] is the degree-m coefficient; the cutoff is len(coeffs) - 1.
    Arithmetic beyond the cutoff is discarded, never wrapped around.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise PreconditionError("series needs at least the degree-0 coefficient")

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int) -> int:
        return self.coeffs[m]

    def __len__(self) -> int:
        return len(self.coeffs)


def series_one_minus_power(a: int, cutoff: int) -> TruncatedSeries:
    """The polynomial 1 - lambda^a as a series truncated at the cutoff."""
    if a < 1:
        raise PreconditionError(f"exponent a must be >= 1, got {a}")
    coeffs = [0] * (cutoff + 1)
    coeffs[0] = 1
    if a <= cutoff:
        coeffs[a] = -1
    return TruncatedSeries(tuple(coeffs))


def series_inv_one_minus_lambda_pow(e: int, cutoff: int) -> TruncatedSeries:
    """(1 - lambda)^(-e); the degree-m coefficient is C(e-1+m, e-1)."""
    if e < 1:
        raise PreconditionError(f"exponent e must be >= 1, got {e}")
    return TruncatedSeries(tuple(binom(e - 1 + m, e - 1) for m in range(cutoff + 1)))


def series_mul(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common cutoff; cutoffs must match."""
    if s.cutoff != t.cutoff:
        raise PreconditionError(f"cutoff mismatch: {s.cutoff} != {t.cutoff}")
    n = s.cutoff
    out = [0] * (n + 1)
    for i, ci in enumerate(s.coeffs):
        if ci == 0:
            continue
        for j in range(n + 1 - i):
            cj = t.coeffs[j]
            if cj:
                out[i + j] += ci * cj
    return TruncatedSeries(tuple(out))


class SplitMix64:
    """SplitMix64: public 64-bit mixing generator, portable across languages.

    state advances by the golden-gamma constant; output is the standard
    two-round xor-multiply finalizer. Used so seeded fixtures reproduce
    byte-for-byte anywhere.
    """

    __slots__ = ("state",)

    _MASK = 0xFFFFFFFFFFFFFFFF

    def __init__(self, seed: int) -> None:
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform draw in [0, bound) by reduction; bias < bound/2^64."""
        if bound <= 0:
            raise PreconditionError("bound must be positive")
        return self.next_u64() % bound


# Blocked elimination keeps every intermediate below _BLOCK * p^2, which must
# stay under 2^53 for the float64 matmul update to be exact and under 2^63
# for the int64 panel arithmetic. p above the limit falls back to the
# per-step-reduced path.
_BLOCK = 64
_BLOCK_P_LIMIT = 2_000_000
_SIMPLE_MIN_DIM = 64


def _eliminate_simple(a: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Row elimination reducing mod p after every update; any p < 2^31."""
    rows, cols = a.shape
    rank = 0
    pivots: list[int] = []
    for col in range(cols):
        if rank == rows:
            break
        colv = a[rank:, col] % p
        a[rank:, col] = colv
        nz = np.nonzero(colv)[0]
        if nz.size == 0:
            continue
        i0 = rank + int(nz[0])
        if i0 != rank:
            a[[rank, i0]] = a[[i0, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank, col:] = (a[rank, col:] % p) * inv % p
        mults = a[rank + 1 :, col]
        if mults.size and col + 1 < cols:
            a[rank + 1 :, col + 1 :] = (
                a[rank + 1 :, col + 1 :] - mults[:, None] * a[rank, col + 1 :][None, :]
            ) % p
        a[rank + 1 :, col] = 0
        pivots.append(col)
        rank += 1
    return rank, pivots


def _eliminate_blocked(a: np.ndarray, p: int, block: int = _BLOCK) -> tuple[int, list[int]]:
    """Panel elimination with a blocked trailing update.

    Invariant entering each panel: all entries are reduced into [0, p).
    Within a panel only the panel columns are updated (entries grow up to
    block * p^2 < 2^63); the trailing block is updated once per panel by an
    exact float64 matmul (all integers < block * p^2 < 2^53) and re-reduced.
    Pivot choice is the first nonzero entry, so the result is deterministic.
    """
    rows, cols = a.shape
    rank = 0
    pivots: list[int] = []
    for panel_start in range(0, cols, block):
        if rank == rows:
            break
        panel_end = min(panel_start + block, cols)
        mult = np.zeros((rows - rank, panel_end - panel_start), dtype=np.int64)
        scales: list[int] = []
        t = 0
        for col in range(panel_start, panel_end):
            if rank + t == rows:
                break
            colv = a[rank + t :, col] % p
            a[rank + t :, col] = colv
            nz = np.nonzero(colv)[0]
            if nz.size == 0:
                continue
            i0 = int(nz[0])
            if i0 != 0:
                r0, r1 = rank + t, rank + t + i0
                a[[r0, r1]] = a[[r1, r0]]
                mult[[t, t + i0]] = mult[[t + i0, t]]
            inv = pow(int(a[rank + t, col]), p - 2, p)
            a[rank + t, col:panel_end] = (a[rank + t, col:panel_end] % p) * inv % p
            below = a[rank + t + 1 :, col]
            mult[t + 1 :, t] = below
            if below.size and col + 1 < panel_end:
                a[rank + t + 1 :, col + 1 : panel_end] -= (
                    below[:, None] * a[rank + t, col + 1 : panel_end][None, :]
                )
            a[rank + t + 1 :, col] = 0
            scales.append(inv)
            pivots.append(col)
            t += 1
        if t and panel_end < cols:
            # replay the panel's row operations on the pivot rows' trailing
            # parts, then clear everything below them with one matmul
            trail = a[rank : rank + t, panel_end:]
            for j in range(t):
                # row j is reduced here and never touched again; later rows
                # accumulate at most block * p^2 < 2^63 before their turn
                trail[j] = (trail[j] % p) * scales[j] % p
                if j + 1 < t:
                    trail[j + 1 :] -= mult[j + 1 : t, j][:, None] * trail[j][None, :]
            if rank + t < rows:
                lower = mult[t:, :t]
                prod = lower.astype(np.float64) @ trail.astype(np.float64)
                a[rank + t :, panel_end:] -= prod.astype(np.int64)
                a[rank + t :, panel_end:] %= p
        rank += t
    return rank, pivots


def _eliminate(a: np.ndarray, p: int) -> tuple[int, list[int]]:
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 0, []
    if p > _BLOCK_P_LIMIT or min(rows, cols) <= _SIMPLE_MIN_DIM:
        return _eliminate_simple(a, p)
    return _eliminate_blocked(a, p)


def _to_matrix(matrix, p: int) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.int64)
    if a.ndim != 2:
        raise PreconditionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a % p


def fp_rank(matrix, field: PrimeField | int) -> int:
    """Rank of a dense matrix over F_p.

    Accepts any rectangular array-like of integers (reduced mod p on entry).
    Deterministic: pivoting always takes the first nonzero entry.
    """
    fld = _as_field(field)
    a = _to_matrix(matrix, fld.p)
    rank, _ = _eliminate(a, fld.p)
    return rank


@dataclass(frozen=True)
class Echelon:
    """Row-echelon basis of a row space over F_p with unit pivots."""

    p: int
    rank: int
    pivot_columns: tuple[int, ...]
    rows: np.ndarray = field(repr=False)

    def reduce(self, vector) -> np.ndarray:
        """Residue of a coefficient vector modulo the row space."""
        v = np.asarray(vector, dtype=np.int64) % self.p
        if v.shape != (self.rows.shape[1],):
            raise PreconditionError(
                f"vector shape {v.shape} does not match {self.rows.shape[1]} columns"
            )
        for i, col in enumerate(self.pivot_columns):
            c = int(v[col])
            if c:
                v -= c * self.rows[i]
                v %= self.p
        return v

    def contains(self, vector) -> bool:
        return not self.reduce(vector).any()


def fp_echelon(matrix, field: PrimeField | int) -> Echelon:
    """Row-echelon form of the row space of a matrix over F_p.

    The returned rows have unit pivots in strictly increasing columns and
    zeros below every pivot (entries above are merely reduced mod p), which
    is all that membership tests need.
    """
    fld = _as_field(field)
    a = _to_matrix(matrix, fld.p)
    rank, pivots = _eliminate(a, fld.p)
    return Echelon(p=fld.p, rank=rank, pivot_columns=tuple(pivots), rows=a[:rank].copy())
