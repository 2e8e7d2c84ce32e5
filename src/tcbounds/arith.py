"""Exact integer, binomial and modular arithmetic.

Integers are Python ints throughout (arbitrary precision, never wrapped).
Matrix ranks over a prime field use one hand-written Gaussian elimination,
in place on an int64 matrix stored by columns, one panel of columns at a
time: rank-one updates inside the panel, each down to the last row it
changes, then one blocked carry into the columns right of it, with
delayed modular reduction.  A matrix of at most 2 * _BLOCK columns is one
panel and needs no carry.  It is exact for every p < 2^31: _check_exact
derives from p, the panel width and the shape what keeps its float64 and
int64 intermediates exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PreconditionError",
    "PrimeField",
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

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(x, self.p - 2, self.p)


def _as_field(field_or_p: PrimeField | int) -> PrimeField:
    if isinstance(field_or_p, PrimeField):
        return field_or_p
    return PrimeField(int(field_or_p))


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


# _eliminate_blocked works on the column store in panels of _BLOCK
# columns, or in one panel when there are at most 2 * _BLOCK, and carries
# each panel's pivots into the columns right of it _CHUNK_ROWS at a time.
_BLOCK = 64
_CHUNK_ROWS = 256


def _check_exact(p: int, block: int, rows: int, cols: int) -> tuple[bool, bool]:
    """(split, eager) that keep _eliminate_blocked exact on a rows x cols
    matrix mod p with panels of `block` columns.

    split: a float64 matmul of operands in [0, p) over `block` terms may
    reach block * (p-1)^2 >= 2^53, so each splits its right operand into
    16-bit halves.  Their products stay below block * (p-1) * (2^16-1),
    which is < 2^53 for every p < 2^31 while block <= 64; a pair where it
    is not is refused.  eager: min(rows, cols) pivots of (p-1)^2 each may
    take an int64 entry past 2^63, so each update is reduced as written.
    """
    split = block * (p - 1) ** 2 >= 2**53
    if split and block * (p - 1) * (2**16 - 1) >= 2**53:
        raise PreconditionError(f"float64 matmul over {block} terms mod {p} may reach 2^53")
    eager = p + min(rows, cols) * (p - 1) ** 2 >= 2**63
    return split, eager


def _panel_ops(mult: np.ndarray, scales: list[int], p: int, eager: bool) -> np.ndarray:
    """The t x t matrix T of a panel's row operations on its t pivot rows.

    Pivot row j had rows i < j subtracted from it, mult[i, j] times each,
    and was then scaled by scales[j].  The same steps on the identity give
    T, so that the final pivot rows are T @ (the rows on entry) mod p.  An
    entry of T accumulates at most t * (p-1)^2 before its row is reduced,
    or is reduced after each step when eager.
    """
    t = len(scales)
    ops = np.eye(t, dtype=np.int64)
    for j in range(t):
        ops[j, : j + 1] = ops[j, : j + 1] % p * scales[j] % p
        ops[j + 1 :, : j + 1] -= mult[j, j + 1 :, None] * ops[j, : j + 1]
        if eager:
            ops[j + 1 :, : j + 1] %= p
    return ops


def _right_operand(x: np.ndarray, split: bool) -> np.ndarray:
    """x, with entries in [0, p), as the float64 right operand of a matmul:
    as it is, or when split its high and low 16-bit halves side by side."""
    if split:
        x = np.concatenate((x >> 16, x & 0xFFFF), axis=1)
    return x.astype(np.float64)


def _product(left_f: np.ndarray, right_f: np.ndarray, p: int, split: bool) -> np.ndarray:
    """left_f @ right for right_f = _right_operand(right, split), exactly:
    as float64, or when split as int64 reduced mod p, the halves' products
    combined as (hi mod p) * 2^16 + lo < 2^47 + 2^53."""
    prod = left_f @ right_f
    if not split:
        return prod
    prod = prod.astype(np.int64)
    w = prod.shape[1] // 2
    return ((prod[:, :w] % p << 16) + prod[:, w:]) % p


def _apply_pivots(
    top: np.ndarray,
    below: np.ndarray,
    ops: np.ndarray,
    mult: np.ndarray,
    p: int,
    split: bool,
    eager: bool,
) -> None:
    """Carry t pivots into columns that their elimination did not touch.

    In the column store, top (w x t: those columns on the t pivot rows)
    becomes top @ ops.T mod p, its final value; then below (w x rows
    below) -= top @ mult, where mult (t x rows below) holds the reduced
    multipliers, and below is reduced mod p at once when eager.  Both are
    matmuls of operands in [0, p) over t <= block terms, exact by
    _check_exact.  below is updated _CHUNK_ROWS columns at a time, so no
    product wider than that is made.
    """
    ops_f = _right_operand(ops.T, split)
    top[...] = _product((top % p).astype(np.float64), ops_f, p, split).astype(np.int64) % p
    top_f = top.astype(np.float64)
    mult_f = _right_operand(mult, split)
    for s in range(0, below.shape[0], _CHUNK_ROWS):
        part = below[s : s + _CHUNK_ROWS]
        prod = _product(top_f[s : s + _CHUNK_ROWS], mult_f, p, split)
        np.subtract(part, prod, out=part, dtype=np.int64, casting="unsafe")
        del prod  # one chunk's product alive at a time
        if eager:
            part %= p


def _eliminate_blocked(g: np.ndarray, p: int, block: int | None = None) -> tuple[int, list[int]]:
    """Panel elimination with delayed reduction and blocked updates, in
    place on the column store g (g[c] is column c of the matrix).

    Each panel of `block` columns is eliminated column by column, with
    rank-one updates across the rest of the panel.  Then one carry
    applies the panel's pivots to the columns right of it (_panel_ops and
    _apply_pivots; the last panel has none): it makes the pivot rows there
    final and clears the block below them.  Multipliers stay below their
    pivots, as in LU, and are zeroed after the carry.  On return
    g[:, :rank].T are the echelon rows.  With block None the width follows
    from the shape: a matrix of at most 2 * _BLOCK columns is one panel,
    which needs no carry, and a wider one has panels of _BLOCK columns.
    On such narrow matrices the carry's fixed cost outweighs the
    elementwise work it saves, and on wider ones the reverse.

    Reduction mod p is delayed: an entry is reduced only where it is read,
    that is a column before its pivot search, a pivot row before it is
    scaled, and both operands of every float64 matmul.  Every other entry
    only accumulates: it starts in [0, p) and takes at most one
    contribution in [0, (p-1)^2] per pivot, subtracted.  The split and
    eager facts of _check_exact, derived before g is touched, keep this
    exact for every p < 2^31; one panel makes no matmul, so only an
    explicit block can be refused.  The pivot is the first nonzero entry
    of its column, so ranks, pivot columns and the pivot rows, all reduced
    into [0, p), are those of plain Gaussian elimination.  The pivot
    columns, returned in increasing order, are the lexicographically first
    column basis, since a column is a pivot exactly when it is not in the
    span of the columns before it.  So the rank of the first k columns is
    the number of pivots below k.

    Each panel works only on rows rank..hi-1, where hi is one past the
    last row at or below rank that is nonzero in any of the panel's
    columns: the pivot search, the rank-one updates, the carried
    multipliers and the block below them, and the zeroing of multipliers
    all stop at hi.  Skipping the rows past hi is exact: their entries in
    the panel's columns are exactly 0 and stay 0, since a row takes each
    update times its own entry in the pivot's column.  So every
    multiplier there is 0, every update they would take subtracts 0, and
    none of them is a pivot or swapped.  hi is read from the entries as
    stored, unreduced, so an entry that is only a multiple of p keeps its
    row inside the panel; hi is then larger than it need be, which is
    still exact.  On a matrix whose rows are sorted by leading column (the
    level-ordered Macaulay matrix of macaulay.hilbert_table) hi is that
    staircase's step under the panel, and most rows are skipped.  Each
    pivot's rank-one update stops in the same way at its last nonzero
    multiplier, read after the pivot search has reduced its column, so
    there a multiple of p is 0 and is skipped.
    """
    cols, rows = g.shape
    if rows == 0 or cols == 0:
        return 0, []
    split, eager = _check_exact(p, block or _BLOCK, rows, cols)
    width = block or (cols if cols <= 2 * _BLOCK else _BLOCK)
    rank = 0
    pivots: list[int] = []
    for panel_start in range(0, cols, width):
        if rank == rows:
            break
        panel_end = min(panel_start + width, cols)
        live = np.flatnonzero(g[panel_start:panel_end, rank:].any(axis=0))
        if live.size == 0:
            continue
        hi = rank + int(live[-1]) + 1
        scales: list[int] = []
        for c in range(panel_start, panel_end):
            r = rank + len(scales)
            if r == hi:
                break
            colv = g[c, r:hi]
            np.remainder(colv, p, out=colv)
            nz = colv.nonzero()[0]
            if nz.size == 0:
                continue
            i0 = r + int(nz[0])
            if i0 != r:
                # both rows are zero left of the panel
                row = g[panel_start:, r].copy()
                g[panel_start:, r] = g[panel_start:, i0]
                g[panel_start:, i0] = row
            # the update ends at the last nonzero multiplier; the swap left
            # row r's zero at i0
            end = r + int(nz[-1]) + 1 if nz.size > 1 else r + 1
            inv = pow(int(g[c, r]), p - 2, p)
            prow = g[c:panel_end, r]
            prow %= p
            prow *= inv
            prow %= p
            rest = g[c + 1 : panel_end]
            rest[:, r + 1 : end] -= rest[:, r, None] * g[c, None, r + 1 : end]
            if eager:
                rest[:, r + 1 : end] %= p
            scales.append(inv)
            pivots.append(c)
        t = len(scales)
        if t and panel_end < cols:
            mult = g[pivots[rank:], rank:hi]
            ops = _panel_ops(mult[:, :t], scales, p, eager)
            top, below = g[panel_end:, rank : rank + t], g[panel_end:, rank + t : hi]
            _apply_pivots(top, below, ops, mult[:, t:], p, split, eager)
        for j, c in enumerate(pivots[rank:]):
            g[c, rank + j + 1 : hi] = 0
        rank += t
    return rank, pivots


def _columns(matrix, p: int) -> np.ndarray:
    """The column store of a matrix reduced mod p: row c is column c."""
    a = np.asarray(matrix, dtype=np.int64)
    if a.ndim != 2:
        raise PreconditionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return np.remainder(a.T, p, order="C")


def fp_rank(matrix, field: PrimeField | int) -> int:
    """Rank of a dense matrix over F_p.  Accepts any rectangular array-like
    of integers (reduced mod p on entry)."""
    fld = _as_field(field)
    rank, _ = _eliminate_blocked(_columns(matrix, fld.p), fld.p)
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


def fp_echelon(matrix, field: PrimeField | int) -> Echelon:
    """Row-echelon form of the row space of a matrix over F_p.

    The returned rows have unit pivots in strictly increasing columns and
    zeros below every pivot (entries above are merely reduced mod p), which
    is all that membership tests need.
    """
    fld = _as_field(field)
    g = _columns(matrix, fld.p)
    rank, pivots = _eliminate_blocked(g, fld.p)
    rows = np.ascontiguousarray(g[:, :rank].T)
    return Echelon(p=fld.p, rank=rank, pivot_columns=tuple(pivots), rows=rows)
