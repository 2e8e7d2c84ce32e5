"""Tests for exact arithmetic, series, and finite-field rank."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from tcbounds import arith
from tcbounds.arith import (
    Echelon,
    PreconditionError,
    PrimeField,
    SplitMix64,
    binom,
    fp_echelon,
    fp_rank,
)
from tcbounds.arith import (
    _BLOCK,
    _apply_pivots,
    _check_exact,
    _eliminate_blocked,
    _is_prime,
)
from tcbounds import fixtures, quotient
from tcbounds.macaulay import Form, _product_columns, random_form_system


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
            rank, pivots, _ = echelon_reference(a.tolist(), p)
            assert _eliminate_blocked(a.T.astype(np.int64), p) == (rank, pivots)
            assert rank <= k

    def test_blocked_small_blocks_against_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            p = (3, 7, 32003)[trial % 3]
            r = int(rng.integers(5, 40))
            c = int(rng.integers(5, 40))
            k = int(rng.integers(1, min(r, c) + 1))
            a = (rng.integers(0, p, (r, k)) @ rng.integers(0, p, (k, c))) % p
            got, _ = _eliminate_blocked(a.T.astype(np.int64), p, block=8)
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
            assert not ech.reduce(member).any()
        outside = rng.integers(0, p, 12)
        # a random vector is outside a 5-dim subspace of F_p^12 w.h.p.
        assert ech.reduce(outside).any()

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
        rank, pivots, rows = echelon_reference(a.tolist(), p)
        b = a.astype(np.int64).copy()
        assert _eliminate_blocked(b.T, p) == (rank, pivots)
        assert b[:rank].tolist() == rows


def _prime_from(n: int, step: int) -> int:
    while not _is_prime(n):
        n += step
    return n


# the largest p - 1 whose square, times _BLOCK, stays below 2^53
_SPLIT_FREE = math.isqrt((2**53 - 1) // _BLOCK)

# the smallest primes, the working prime, 2000003, the last prime without
# split at _BLOCK, the first one with it, and the largest modulus
# PrimeField accepts, the only one here that is also eager on the shapes
# below
KERNEL_PRIMES = (
    2,
    3,
    32003,
    2_000_003,
    _prime_from(_SPLIT_FREE + 1, -1),
    _prime_from(_SPLIT_FREE + 2, 1),
    2**31 - 1,
)

# (v, degrees, m): Macaulay matrices from 15 x 12 up to 78 x 176, narrower
# and wider than one panel
MACAULAY_SHAPES = (
    (3, (2, 2), 4),
    (3, (2, 2, 2), 10),
    (3, (3, 3), 12),
    (3, (1, 2, 2), 11),
    (4, (2, 2, 2, 2), 5),
)


@st.composite
def kernel_matrices(draw, primes=KERNEL_PRIMES):
    """(matrix, p): a Macaulay matrix of a random system, in canonical or
    level order, or a matrix of rank at most k with zero rows, duplicated
    rows and zero columns mixed in, optionally with its rows cut into a
    staircase (sorted by leading column) and its bottom rows zeroed.
    Widths straddle the panel width, so panel edges and the rank == rows
    exit are reached; the staircase and zero bottom rows leave each panel
    a zero tail for the kernel to skip."""
    p = draw(st.sampled_from(primes))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        v, degrees, m = draw(st.sampled_from(MACAULAY_SHAPES))
        system = random_form_system(v, degrees, PrimeField(p), SplitMix64(seed))
        a = _product_columns(system, m, levelled=draw(st.booleans()))[0]
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
    if draw(st.booleans()):
        leads = np.sort(rng.integers(0, cols + 1, rows))
        a[np.arange(cols) < leads[:, None]] = 0
    if draw(st.booleans()):
        a[draw(st.integers(0, rows - 1)) :] = 0
    # unreduced representatives: the kernels reduce on entry, and a zero
    # tail that is only zero mod p must not be skipped
    if draw(st.booleans()):
        a += p * rng.integers(-2, 3, a.shape)
    return a, p


class TestKernelAgainstReference:
    """fp_rank, fp_echelon and the blocked kernel against
    echelon_reference: rank, pivot columns and rows must agree exactly."""

    def test_prime_list(self):
        assert KERNEL_PRIMES[4:] == (11_863_279, 11_863_289, 2**31 - 1)
        # (split, eager) on every shape kernel_matrices draws: the smallest
        # side is between 9 and 129
        for n in (9, 129):
            assert [_check_exact(p, _BLOCK, n, n) for p in KERNEL_PRIMES] == [
                (False, False)
            ] * 5 + [(True, False), (True, True)]

    @given(kernel_matrices())
    # full rank: 70 x 129 reaches rank == rows in its second panel; 129 x
    # 129 at the last prime without split carries the most delayed
    # accumulation per entry, and at 2^31 - 1 it is split and eager
    @example((np.random.default_rng(1).integers(0, 32003, (70, 129)), 32003))
    @example((np.random.default_rng(2).integers(0, 11_863_279, (129, 129)), 11_863_279))
    @example((np.random.default_rng(3).integers(0, 2**31 - 1, (129, 129)), 2**31 - 1))
    def test_fp_rank_and_echelon(self, case):
        a, p = case
        rank, pivots, rows = echelon_reference(a.tolist(), p)
        assert fp_rank(a, p) == rank
        ech = fp_echelon(a, p)
        assert ech.rank == rank
        assert ech.pivot_columns == tuple(pivots)
        assert ech.rows.tolist() == rows

    def test_input_layouts_agree_and_are_left_unchanged(self):
        # fp_rank and fp_echelon eliminate a reduced copy
        # stored by columns, whatever the layout they are given; 150 x 140
        # spans three panels
        p = 97
        rng = np.random.default_rng(14)
        a = rng.integers(-2 * p, 2 * p, (150, 60)) @ rng.integers(0, 3, (60, 140))
        a[rng.random(150) < 0.1] = 0
        padded = np.zeros((300, 280), dtype=np.int64)
        padded[::2, 1::2] = a
        inputs = [a, np.asfortranarray(a), padded[::2, 1::2], a.tolist()]
        copies = [np.array(x, copy=True) for x in inputs]
        rank, pivots, rows = echelon_reference(a.tolist(), p)
        for x in inputs:
            assert fp_rank(x, p) == rank
            ech = fp_echelon(x, p)
            assert (ech.rank, ech.pivot_columns) == (rank, tuple(pivots))
            assert ech.rows.tolist() == rows
        for x, before in zip(inputs, copies):
            assert np.array_equal(x, before)

    @given(kernel_matrices(), st.sampled_from((8, 24, _BLOCK, 80)))
    def test_blocked_kernel(self, case, block):
        # small and odd panel widths put panel edges, and so carries, at
        # many columns of a small matrix
        a, p = case
        # a panel of 80 columns is refused at 2^31 - 1 (TestBlockedExactness)
        assume(block <= _BLOCK or p < 2**31 - 1)
        rank, pivots, rows = echelon_reference(a.tolist(), p)
        b = a % p
        assert _eliminate_blocked(b.T, p, block) == (rank, pivots)
        assert b[:rank].tolist() == rows


class TestZeroTail:
    """Rows below the last one that is nonzero in a panel's columns would
    take only zero updates, so no update of that panel reaches them."""

    @pytest.mark.parametrize("p", [3, 32003, 2**31 - 1])
    def test_updates_stop_at_the_last_nonzero_row(self, monkeypatch, p):
        # panel k (columns 64k..64k+63) is nonzero exactly on the rows
        # above 80(k+1); rows 240..259 are zero everywhere
        rows, cols, step = 260, 3 * _BLOCK, 80
        a = np.random.default_rng(15).integers(1, p, (rows, cols))
        for k in range(3):
            a[step * (k + 1) :, k * _BLOCK : (k + 1) * _BLOCK] = 0
        rank, pivots, echelon = echelon_reference(a.tolist(), p)
        # a pivot in every column: panel k starts at rank 64k
        assert pivots == list(range(cols))
        widths = []
        apply_pivots = arith._apply_pivots

        def recording(top, below, *args):
            widths.append(below.shape[1])
            return apply_pivots(top, below, *args)

        monkeypatch.setattr(arith, "_apply_pivots", recording)
        b = a.copy()
        assert _eliminate_blocked(b.T, p) == (rank, pivots)
        assert b[:rank].tolist() == echelon
        # one carry per panel but the last, into the panels right of it;
        # after the 64 pivots of panel k, below spans rows 64k + 64 up to
        # the panel's last nonzero row, 80(k+1) - 1
        assert widths == [step * (k + 1) - _BLOCK * k - _BLOCK for k in (0, 1)]


class TestDefaultWidth:
    """With no explicit block, a matrix of at most 2 * _BLOCK columns is
    one panel, with no carry, and a wider one has _BLOCK-column panels."""

    @pytest.mark.parametrize("p", [3, KERNEL_PRIMES[5], 2**31 - 1])
    @pytest.mark.parametrize("cols", [2 * _BLOCK, 2 * _BLOCK + 1])
    def test_carries_only_past_the_threshold(self, monkeypatch, p, cols):
        # 80 rows: at 2 * _BLOCK + 1 columns the second panel reaches
        # rank == rows, and carries into the third before the loop stops
        assert _check_exact(p, _BLOCK, 80, cols) == (p > 3, p == 2**31 - 1)
        a = np.random.default_rng(cols).integers(0, p, (80, cols))
        a[:, 5] = 0
        a[7] = a[3]
        rank, pivots, rows = echelon_reference(a.tolist(), p)
        calls = []
        apply_pivots = arith._apply_pivots

        def recording(*args):
            calls.append(args[0].shape)
            return apply_pivots(*args)

        monkeypatch.setattr(arith, "_apply_pivots", recording)
        ech = fp_echelon(a, p)
        assert (ech.rank, ech.pivot_columns) == (rank, tuple(pivots))
        assert ech.rows.tolist() == rows
        panels = -(-cols // _BLOCK)
        assert len(calls) == (0 if cols <= 2 * _BLOCK else panels - 1)

    def test_one_panel_is_not_refused(self):
        # a 100-column panel makes no matmul, so only an explicit block of
        # that width is refused at 2^31 - 1
        p = 2**31 - 1
        a = np.random.default_rng(16).integers(0, p, (40, 100))
        rank, pivots, rows = echelon_reference(a.tolist(), p)
        ech = fp_echelon(a, p)
        assert (ech.rank, ech.pivot_columns, ech.rows.tolist()) == (rank, tuple(pivots), rows)
        with pytest.raises(PreconditionError, match=r"2\^53"):
            _eliminate_blocked(a.T.copy(), p, 100)


def _scan_residuals(p: int, q: int) -> list[np.ndarray]:
    """The residuals that one tight_witness_scan of z^2 against (x, y) on
    the Fermat cubic builds, with the scan's default witnesses."""
    ring = fixtures.make_fixture("fermat-cubic", p=p).ring
    residuals = []
    residual = quotient.MembershipOracle._residual

    def recording(oracle):
        residuals.append(residual(oracle))
        return residuals[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quotient.MembershipOracle, "_residual", recording)
        quotient.tight_witness_scan(ring, fixtures.variables_ideal(ring, 2),
                                    Form.make(3, 2, {(0, 0, 2): 1}), q_list=(q,))
    return residuals


class TestScanResiduals:
    """Membership residuals are sparse and need a row swap for most
    pivots, which random matrices do not."""

    def test_against_reference(self):
        p = 13
        residuals = _scan_residuals(p, p)
        assert [a.shape for a in residuals] == [(78, 78), (84, 81), (90, 84)]
        rng = np.random.default_rng(17)
        for a in residuals:
            rank, pivots, rows = echelon_reference(a.tolist(), p)
            # stored multiples of p in place of zeros, below the pivots too:
            # each pivot's extent is read after its column is reduced
            padded = a + p * rng.integers(0, 3, a.shape) * (a == 0)
            for b in (a, padded):
                ech = fp_echelon(b, p)
                assert (ech.rank, ech.pivot_columns) == (rank, tuple(pivots))
                assert ech.rows.tolist() == rows

    def test_only_the_rest_is_eliminated(self):
        # the saving of the unit-row split: no unit row, and no column of
        # one, reaches fp_echelon
        ring = fixtures.make_fixture("fermat-cubic", p=13).ring
        oracles, handed = [], []
        residual = quotient.MembershipOracle._residual

        def recording_residual(oracle):
            oracles.append(oracle)
            return residual(oracle)

        def recording_echelon(matrix, field):
            handed.append(np.array(matrix, dtype=np.int64))
            return fp_echelon(matrix, field)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quotient.MembershipOracle, "_residual", recording_residual)
            patch.setattr(quotient, "fp_echelon", recording_echelon)
            quotient.tight_witness_scan(ring, fixtures.variables_ideal(ring, 2),
                                        Form.make(3, 2, {(0, 0, 2): 1}), q_list=(13,))
        assert [a.shape for a in handed] == [(4, 5), (0, 0), (0, 0)]
        for oracle, a in zip(oracles, handed):
            full = residual(oracle)
            _, kept, _ = oracle._eliminated
            assert a.shape[1] == kept.sum()
            assert not full[np.count_nonzero(full, axis=1) == 1][:, kept].any()
            assert not (np.count_nonzero(a, axis=1) == 1).any()


class TestBlockedExactness:
    """_check_exact derives split and eager from p, the block size and the
    shape.  Each flips exactly at its bound, and the kernel matches
    echelon_reference on both sides.  Only a block that even split
    matmuls cannot keep exact is refused, before the matrix is touched."""

    def test_float64_bound_refused(self):
        p = 2**31 - 1
        a = np.random.default_rng(12).integers(0, p, (70, 70))
        before = a.copy()
        with pytest.raises(PreconditionError, match=r"2\^53"):
            _eliminate_blocked(a.T, p, block=80)
        assert np.array_equal(a, before)

    def test_int64_bound_reduces_eagerly(self):
        # the largest prime with (p-1)^2 < 2^53 is not split at block 1; n
        # pivots may overflow int64 for n >= 1025, so it is eager there
        p = _prime_from(94906265, -1)
        assert (p - 1) ** 2 < 2**53 <= 94906266**2
        n = 2**63 // (p - 1) ** 2 + 1
        a = np.ones((n, n), dtype=np.int64)
        assert _check_exact(p, 1, n, n) == (False, True)
        assert _eliminate_blocked(a.T, p, block=1) == (1, [0])
        assert (a[0] == 1).all()

    def test_unsplit_update_is_reduced_when_eager(self):
        # eager without split needs over 1024 pivots at block 1 (above), too
        # many to eliminate here; one trailing update of (p-1)^2 shows it
        p = _prime_from(94906265, -1)
        ops = np.ones((1, 1), dtype=np.int64)
        mult = np.full((1, 2), p - 1)
        for eager in (False, True):
            top = np.full((3, 1), p - 1)
            below = np.ones((3, 2), dtype=np.int64)
            _apply_pivots(top, below, ops, mult, p, False, eager)
            delayed = 1 - (p - 1) ** 2
            assert (below == (delayed % p if eager else delayed)).all()

    def test_bounds_are_exact(self):
        # each derivation flips between the last value below its bound and
        # the next
        p = _prime_from(94906265, -1)
        n = 2**63 // (p - 1) ** 2 + 1
        assert _check_exact(p, 1, n - 1, 10 * n) == (False, False)
        assert _check_exact(p, 1, n, n) == (False, True)
        assert _check_exact(2**31 - 1, _BLOCK, 2, 2) == (True, False)
        assert _check_exact(2**31 - 1, _BLOCK, 3, 3) == (True, True)
        assert _check_exact(KERNEL_PRIMES[4], _BLOCK, 1, 1) == (False, False)
        assert _check_exact(KERNEL_PRIMES[5], _BLOCK, 1, 1) == (True, False)
        # split matmuls are exact over 64 terms for every p < 2^31, not 65;
        # at p = 32003 a block past the unsplit bound is past the split one
        with pytest.raises(PreconditionError):
            _check_exact(2**31 - 1, _BLOCK + 1, 1, 1)
        block = 2**53 // 32002**2
        assert _check_exact(32003, block, 1, 1) == (False, False)
        with pytest.raises(PreconditionError):
            _check_exact(32003, block + 1, 1, 1)

    def test_blocked_range_is_covered(self):
        # every prime PrimeField accepts is exact at _BLOCK for any shape
        assert _check_exact(2**31 - 1, _BLOCK, 10**9, 10**9) == (True, True)

    @pytest.mark.parametrize(
        "p, shape",
        [
            (KERNEL_PRIMES[4], (70, 129)),
            (KERNEL_PRIMES[5], (70, 129)),
            (2**31 - 1, (2, 5)),
            (2**31 - 1, (3, 5)),
        ],
    )
    def test_kernel_on_both_sides(self, p, shape):
        a = np.random.default_rng(13).integers(0, p, shape)
        rank, pivots, rows = echelon_reference(a.tolist(), p)
        assert _eliminate_blocked(a.T, p) == (rank, pivots)
        assert a[:rank].tolist() == rows
