"""Exact integer, binomial, modular, and truncated-power-series arithmetic.

Integers are Python ints throughout (arbitrary precision, never wrapped).
Matrix ranks over a prime field use hand-written Gaussian elimination on
int64 numpy arrays.  For p up to _BLOCK_P_LIMIT the blocked kernel delays
modular reduction: it reduces an entry only where it reads it, and between
reads an entry accumulates at most (p-1)^2 per pivot.  That is exact while
block * (p-1)^2 < 2^53 (float64 matmuls) and
p + min(rows, cols) * (p-1)^2 < 2^63 (int64 entries), which the kernel
checks before it starts (see _eliminate_blocked).  Larger p use a path
that reduces after every step.
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


# _eliminate_blocked works on panels of _BLOCK columns, sub-panels of
# _SUB_BLOCK columns, and updates the rows below a panel _CHUNK_ROWS at a
# time.  p above _BLOCK_P_LIMIT, and any matrix with a side of at most
# _SIMPLE_MIN_DIM, take the per-step-reduced path instead.
_BLOCK = 64
_SUB_BLOCK = 16
_CHUNK_ROWS = 256
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


def _check_exact(p: int, block: int, rows: int, cols: int) -> None:
    if block * (p - 1) ** 2 >= 2**53:
        raise PreconditionError(
            f"float64 matmul over {block} terms is not exact mod {p}: "
            f"{block} * (p-1)^2 >= 2^53"
        )
    n = min(rows, cols)
    if p + n * (p - 1) ** 2 >= 2**63:
        raise PreconditionError(
            f"int64 accumulation over {n} pivots is not exact mod {p}: "
            f"p + {n} * (p-1)^2 >= 2^63"
        )


def _panel_ops(mult: np.ndarray, scales: list[int], p: int) -> np.ndarray:
    """The t x t matrix T of a panel's row operations on its t pivot rows.

    Pivot row j had rows i < j subtracted from it, mult[i, j] times each,
    and was then scaled by scales[j].  The same steps on the identity give
    T, so that the final pivot rows are T @ (the rows on entry) mod p.  An
    entry of T accumulates at most t * (p-1)^2 before its row is reduced.
    """
    t = len(scales)
    ops = np.eye(t, dtype=np.int64)
    for j in range(t):
        ops[j, : j + 1] = ops[j, : j + 1] % p * scales[j] % p
        ops[j + 1 :, : j + 1] -= mult[j, j + 1 :, None] * ops[j, : j + 1]
    return ops


def _apply_pivots(
    top: np.ndarray, below: np.ndarray, ops: np.ndarray, mult: np.ndarray, p: int
) -> None:
    """Carry t pivots into columns that their elimination did not touch.

    top (t rows: the pivot rows in those columns) becomes ops @ top mod p,
    its final value; then below -= mult @ top, where mult (rows of below x
    t) holds the reduced multipliers.  Both are float64 matmuls of operands
    in [0, p) over t <= block terms, so exact.  below is updated in chunks
    of rows, so no float64 temporary of its full size is made.
    """
    top[...] = (ops.astype(np.float64) @ (top % p).astype(np.float64)).astype(np.int64) % p
    top_f = top.astype(np.float64)
    mult_f = mult.astype(np.float64)
    for s in range(0, below.shape[0], _CHUNK_ROWS):
        part = below[s : s + _CHUNK_ROWS]
        np.subtract(
            part, mult_f[s : s + _CHUNK_ROWS] @ top_f, out=part, dtype=np.int64, casting="unsafe"
        )


def _eliminate_blocked(a: np.ndarray, p: int, block: int = _BLOCK) -> tuple[int, list[int]]:
    """Panel elimination with delayed reduction and blocked updates.

    Each panel of `block` columns (below the pivot rows found so far) is
    copied out transposed, so that its columns are contiguous.  It is
    eliminated a sub-panel of _SUB_BLOCK columns at a time: rank-one
    updates inside the sub-panel, then one _apply_pivots to the rest of
    the panel.  Multipliers stay in the copy below their pivots, as in LU,
    and are zeroed when the copy is written back.  One _apply_pivots then
    makes the pivot rows' trailing parts final and clears the trailing
    block below them.

    Reduction mod p is delayed: an entry is reduced only where it is read,
    that is a column before its pivot search, a pivot row before it is
    scaled, and both operands of every float64 matmul.  Every other entry
    only accumulates: it starts in [0, p) and takes at most one
    contribution in [0, (p-1)^2] per pivot, subtracted.  This is exact
    while block * (p-1)^2 < 2^53 (float64 matmuls over at most `block`
    terms) and p + min(rows, cols) * (p-1)^2 < 2^63 (int64 entries); both
    are checked before `a` is touched.  The pivot is the first nonzero
    entry of its column, so ranks, pivot columns and the pivot rows, all
    reduced into [0, p), are those of _eliminate_simple.
    """
    rows, cols = a.shape
    _check_exact(p, block, rows, cols)
    rank = 0
    pivots: list[int] = []
    for panel_start in range(0, cols, block):
        if rank == rows:
            break
        panel_end = min(panel_start + block, cols)
        width = panel_end - panel_start
        pan = np.ascontiguousarray(a[rank:, panel_start:panel_end].T)
        local: list[int] = []  # pivot columns within the panel
        scales: list[int] = []
        t = 0
        for sub_start in range(0, width, _SUB_BLOCK):
            sub_end = min(sub_start + _SUB_BLOCK, width)
            t0 = t
            for c in range(sub_start, sub_end):
                if rank + t == rows:
                    break
                colv = pan[c, t:] % p
                pan[c, t:] = colv
                nz = np.flatnonzero(colv)
                if nz.size == 0:
                    continue
                i0 = t + int(nz[0])
                if i0 != t:
                    # both rows are zero left of the panel
                    pan[:, [t, i0]] = pan[:, [i0, t]]
                    a[[rank + t, rank + i0], panel_end:] = a[[rank + i0, rank + t], panel_end:]
                inv = pow(int(pan[c, t]), p - 2, p)
                pan[c:sub_end, t] = pan[c:sub_end, t] % p * inv % p
                rest = pan[c + 1 : sub_end]
                rest[:, t + 1 :] -= rest[:, t, None] * pan[c, None, t + 1 :]
                local.append(c)
                scales.append(inv)
                pivots.append(panel_start + c)
                t += 1
            if t > t0 and sub_end < width:
                mult = pan[local[t0:], t0:]
                _apply_pivots(
                    pan[sub_end:, t0:t].T,
                    pan[sub_end:, t:].T,
                    _panel_ops(mult[:, : t - t0], scales[t0:], p),
                    mult[:, t - t0 :].T,
                    p,
                )
        mult = pan[local]
        for j, c in enumerate(local):
            pan[c, j + 1 :] = 0
        a[rank:, panel_start:panel_end] = pan.T
        if t and panel_end < cols:
            _apply_pivots(
                a[rank : rank + t, panel_end:],
                a[rank + t :, panel_end:],
                _panel_ops(mult[:, :t], scales, p),
                mult[:, t:].T,
                p,
            )
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
