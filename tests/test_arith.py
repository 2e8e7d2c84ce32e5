"""Tests for exact arithmetic, series, and finite-field rank."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tcbounds.arith import (
    Echelon,
    PreconditionError,
    PrimeField,
    SplitMix64,
    TruncatedSeries,
    binom,
    fp_echelon,
    fp_rank,
)
from tcbounds.arith import (
    _BLOCK,
    _BLOCK_P_LIMIT,
    _check_exact,
    _eliminate_blocked,
    _eliminate_simple,
    _is_prime,
)
from tcbounds.macaulay import macaulay_matrix, random_form_system


def echelon_reference(matrix, p: int) -> tuple[int, list[int], list[list[int]]]:
    """Independent row echelon form on Python ints, no numpy.

    Pivots like the kernel: for each column in turn, the first row at or
    below the current rank with a nonzero entry is swapped up, scaled to a
    unit pivot and subtracted from the rows below it.  Returns the rank,
    the pivot columns and the pivot rows, every entry in [0, p).
    """
    rows = [[int(x) % p for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank, pivots = 0, []
    for col in range(ncols):
        if rank == len(rows):
            break
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        top = [x * inv % p for x in rows[rank]]
        rows[rank] = top
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        pivots.append(col)
        rank += 1
    return rank, pivots, rows[:rank]


class TestBinom:
    def test_small_pascal_value(self):
        assert binom(5, 2) == 10

    def test_zero_when_k_exceeds_n(self):
        assert binom(3, 5) == 0

    def test_zero_when_n_negative(self):
        assert binom(-1, 0) == 0

    def test_negative_k(self):
        assert binom(5, -2) == 0

    def test_pascal_rule_sweep(self):
        for n in range(1, 40):
            for k in range(1, n + 1):
                assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)

    def test_exact_big_values(self):
        assert binom(200, 100) == math.comb(200, 100)


class TestPrimeField:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 32003, 2147483629):
            assert PrimeField(p).p == p

    def test_rejects_composites(self):
        for p in (1, 4, 9, 32001, 2**31 - 2):
            with pytest.raises(PreconditionError):
                PrimeField(p)

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            PrimeField(2**31 + 11)

    def test_inverse(self):
        f = PrimeField(32003)
        for x in (1, 2, 17, 32002):
            assert f.inv(x) * x % 32003 == 1

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(7).inv(0)


class TestSeries:
    def test_empty_series_rejected(self):
        with pytest.raises(PreconditionError):
            TruncatedSeries(())


class TestSplitMix64:
    def test_reference_sequence(self):
        # first outputs for seed 1234567, from the published algorithm
        rng = SplitMix64(1234567)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [6457827717110365317, 3203168211198807973, 9817491932198370423]

    def test_determinism(self):
        a = SplitMix64(7)
        b = SplitMix64(7)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_next_below(self):
        rng = SplitMix64(0)
        draws = [rng.next_below(5) for _ in range(100)]
        assert all(0 <= x < 5 for x in draws)
        with pytest.raises(PreconditionError):
            rng.next_below(0)


class TestFpRank:
    def test_identity(self):
        assert fp_rank(np.eye(3, dtype=np.int64), 7) == 3

    def test_zero_matrix(self):
        assert fp_rank(np.zeros((2, 5), dtype=np.int64), 5) == 0

    def test_proportional_rows(self):
        assert fp_rank([[1, 2], [2, 4]], 5) == 1

    def test_rank_drops_only_mod_p(self):
        # rows independent over Q but dependent mod 5
        assert fp_rank([[1, 2], [6, 7]], 5) == 1
        assert fp_rank([[1, 2], [6, 7]], 7) == 2

    def test_empty_shapes(self):
        assert fp_rank(np.zeros((0, 4), dtype=np.int64), 7) == 0
        assert fp_rank(np.zeros((4, 0), dtype=np.int64), 7) == 0

    def test_against_oracle_random(self):
        rng = np.random.default_rng(20260816)
        for trial in range(60):
            p = (2, 3, 5, 7, 97, 32003)[trial % 6]
            r = int(rng.integers(1, 28))
            c = int(rng.integers(1, 28))
            k = int(rng.integers(1, min(r, c) + 1))
            left = rng.integers(0, p, (r, k))
            right = rng.integers(0, p, (k, c))
            a = (left @ right) % p
            expected = echelon_reference(a.tolist(), p)[0]
            assert fp_rank(a, p) == expected

    def test_blocked_path_against_simple(self):
        rng = np.random.default_rng(3)
        p = 32003
        for r, c, k in ((150, 190, 80), (200, 150, 150), (130, 130, 129)):
            a = (rng.integers(0, p, (r, k)) @ rng.integers(0, p, (k, c))) % p
            r1, piv1 = _eliminate_simple(a.astype(np.int64).copy(), p)
            r2, piv2 = _eliminate_blocked(a.astype(np.int64).copy(), p)
            assert (r1, piv1) == (r2, piv2)
            assert r1 <= k

    def test_blocked_small_blocks_against_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            p = (3, 7, 32003)[trial % 3]
            r = int(rng.integers(5, 40))
            c = int(rng.integers(5, 40))
            k = int(rng.integers(1, min(r, c) + 1))
            a = (rng.integers(0, p, (r, k)) @ rng.integers(0, p, (k, c))) % p
            got, _ = _eliminate_blocked(a.astype(np.int64).copy(), p, block=8)
            assert got == echelon_reference(a.tolist(), p)[0]

    def test_big_prime_path(self):
        p = 2147483629
        rng = np.random.default_rng(5)
        a = rng.integers(0, p, (40, 50)).astype(np.int64)
        a[13] = (3 * a[2] + 11 * a[7]) % p
        a[29] = (a[0] + p - 1) * 1 % p * 0  # zero row
        assert fp_rank(a, p) == echelon_reference(a.tolist(), p)[0]

    def test_transpose_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = 32003
            a = rng.integers(0, p, (int(rng.integers(2, 30)), int(rng.integers(2, 30))))
            assert fp_rank(a, p) == fp_rank(a.T, p)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        p = 97
        a = rng.integers(0, p, (12, 9))
        base = fp_rank(a, p)
        for _ in range(5):
            perm = rng.permutation(12)
            assert fp_rank(a[perm], p) == base

    def test_accepts_field_instance(self):
        assert fp_rank([[1, 0], [0, 1]], PrimeField(5)) == 2


class TestFpEchelon:
    def test_structure(self):
        p = 7
        a = [[0, 2, 4], [0, 1, 2], [3, 0, 5]]
        ech = fp_echelon(a, p)
        assert ech.rank == 2
        assert ech.pivot_columns == (0, 1)
        # unit pivots, zeros below
        for i, col in enumerate(ech.pivot_columns):
            assert ech.rows[i, col] == 1
            assert not ech.rows[i + 1 :, col].any()

    def test_contains_members_and_rejects_others(self):
        p = 32003
        rng = np.random.default_rng(8)
        basis = rng.integers(0, p, (5, 12))
        ech = fp_echelon(basis, p)
        for _ in range(10):
            coeffs = rng.integers(0, p, 5)
            member = (coeffs @ basis) % p
            assert ech.contains(member)
        outside = rng.integers(0, p, 12)
        # a random vector is outside a 5-dim subspace of F_p^12 w.h.p.
        reduced = ech.reduce(outside)
        assert ech.contains(outside) == (not reduced.any())

    def test_reduce_is_idempotent(self):
        p = 101
        rng = np.random.default_rng(9)
        ech = fp_echelon(rng.integers(0, p, (4, 9)), p)
        v = rng.integers(0, p, 9)
        r1 = ech.reduce(v)
        assert np.array_equal(ech.reduce(r1), r1)

    def test_reduce_shape_check(self):
        ech = fp_echelon([[1, 0], [0, 1]], 5)
        with pytest.raises(PreconditionError):
            ech.reduce([1, 2, 3])

    def test_blocked_echelon_matches_simple(self):
        rng = np.random.default_rng(10)
        p = 32003
        a = (rng.integers(0, p, (160, 90)) @ rng.integers(0, p, (90, 170))) % p
        b1 = a.astype(np.int64).copy()
        b2 = a.astype(np.int64).copy()
        r1, piv1 = _eliminate_simple(b1, p)
        r2, piv2 = _eliminate_blocked(b2, p)
        assert (r1, piv1) == (r2, piv2)
        assert np.array_equal(b1[:r1] % p, b2[:r2] % p)


def _prime_from(n: int, step: int) -> int:
    while not _is_prime(n):
        n += step
    return n


# the smallest primes, the working prime, the largest prime the blocked
# kernel takes, the first one past it (per-step-reduced path) and the
# largest modulus PrimeField accepts
KERNEL_PRIMES = (
    2,
    3,
    32003,
    _prime_from(_BLOCK_P_LIMIT - 1, -1),
    _prime_from(_BLOCK_P_LIMIT + 1, 1),
    2**31 - 1,
)

# (v, degrees, m): Macaulay matrices from 15 x 12 up to 78 x 176, so that
# either orientation may take either path
MACAULAY_SHAPES = (
    (3, (2, 2), 4),
    (3, (2, 2, 2), 10),
    (3, (3, 3), 12),
    (3, (1, 2, 2), 11),
    (4, (2, 2, 2, 2), 5),
)


@st.composite
def kernel_matrices(draw, primes=KERNEL_PRIMES):
    """(matrix, p): a Macaulay matrix of a random system, or a matrix of
    rank at most k with zero rows, duplicated rows and zero columns mixed
    in.  Widths straddle the panel width, so panel edges and the
    rank == rows exit are reached."""
    p = draw(st.sampled_from(primes))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        v, degrees, m = draw(st.sampled_from(MACAULAY_SHAPES))
        a = macaulay_matrix(random_form_system(v, degrees, PrimeField(p), SplitMix64(seed)), m)
        return (a.T.copy() if draw(st.booleans()) else a), p
    rows = draw(st.sampled_from((40, 65, 70, 129)))
    cols = draw(st.sampled_from((63, 64, 65, 129)))
    k = draw(st.integers(0, min(rows, cols)))
    basis = rng.integers(0, p, (max(k, 1), cols), dtype=np.int64)
    picks = rng.integers(0, max(k, 1), (rows, 2))
    coeffs = rng.integers(0, p, (rows, 2), dtype=np.int64) * (k > 0)
    # each row: c1 * b_i + c2 * b_j mod p, each product below 2^62
    a = (coeffs[:, :1] * basis[picks[:, 0]] % p + coeffs[:, 1:] * basis[picks[:, 1]] % p) % p
    a[rng.random(rows) < 0.1] = 0
    dup = rng.random(rows) < 0.1
    a[dup] = a[rng.integers(0, rows, int(dup.sum()))]
    a[:, rng.random(cols) < 0.1] = 0
    # unreduced representatives: the kernels reduce on entry
    a += p * rng.integers(-2, 3, a.shape)
    return a, p


class TestKernelAgainstReference:
    """fp_rank, fp_echelon and the blocked kernel against echelon_reference:
    rank, pivot columns and rows must agree exactly."""

    def test_prime_list(self):
        assert KERNEL_PRIMES[3] < _BLOCK_P_LIMIT < KERNEL_PRIMES[4]
        assert KERNEL_PRIMES[3:5] == (1_999_993, 2_000_003)

    @given(kernel_matrices())
    # full rank on the blocked path: 70 x 129 reaches rank == rows in its
    # second panel; 129 x 129 at the largest prime that path takes carries
    # the most accumulation per entry
    @example((np.random.default_rng(1).integers(0, 32003, (70, 129)), 32003))
    @example((np.random.default_rng(2).integers(0, 1_999_993, (129, 129)), 1_999_993))
    def test_fp_rank_and_echelon(self, case):
        a, p = case
        rank, pivots, rows = echelon_reference(a.tolist(), p)
        assert fp_rank(a, p) == rank
        ech = fp_echelon(a, p)
        assert ech.rank == rank
        assert ech.pivot_columns == tuple(pivots)
        assert ech.rows.tolist() == rows

    @given(
        kernel_matrices(primes=tuple(p for p in KERNEL_PRIMES if p < _BLOCK_P_LIMIT)),
        st.sampled_from((8, 24, _BLOCK, 80)),
    )
    def test_blocked_kernel(self, case, block):
        # small and odd panel widths put panel and sub-panel edges at many
        # columns of a small matrix
        a, p = case
        rank, pivots, rows = echelon_reference(a.tolist(), p)
        b = a % p
        assert _eliminate_blocked(b, p, block) == (rank, pivots)
        assert b[:rank].tolist() == rows


class TestBlockedExactness:
    """_eliminate_blocked refuses a block size and prime whose float64 or
    int64 intermediates could be inexact, before it touches the matrix."""

    def test_float64_bound_refused(self):
        p = 2**31 - 1
        a = np.random.default_rng(12).integers(0, p, (70, 70))
        before = a.copy()
        with pytest.raises(PreconditionError, match=r"2\^53"):
            _eliminate_blocked(a, p)
        assert np.array_equal(a, before)

    def test_int64_bound_refused(self):
        # the largest prime with (p-1)^2 < 2^53 passes the float64 bound at
        # block 1; n pivots then overflow int64 for n >= 1025
        p = _prime_from(94906265, -1)
        assert (p - 1) ** 2 < 2**53 <= 94906266**2
        n = 2**63 // (p - 1) ** 2 + 1
        a = np.ones((n, n), dtype=np.int64)
        with pytest.raises(PreconditionError, match=r"2\^63"):
            _eliminate_blocked(a, p, block=1)
        assert (a == 1).all()

    def test_bounds_are_exact(self):
        # each bound admits the last value below it and refuses the next
        p = _prime_from(94906265, -1)
        n = 2**63 // (p - 1) ** 2 + 1
        _check_exact(p, 1, n - 1, 10 * n)
        with pytest.raises(PreconditionError):
            _check_exact(p, 1, n, n)
        block = 2**53 // 32002**2
        _check_exact(32003, block, 1, 1)
        with pytest.raises(PreconditionError):
            _check_exact(32003, block + 1, 1, 1)

    def test_blocked_range_is_covered(self):
        # every prime the blocked path takes passes both bounds at _BLOCK
        # for any matrix with fewer than 10^6 rows or columns
        _check_exact(KERNEL_PRIMES[3], _BLOCK, 10**6, 10**6)
