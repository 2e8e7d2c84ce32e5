"""Tests for the Froberg function, its clips, and the closed forms for m0."""

from __future__ import annotations

import hashlib
import math

import pytest

from tcbounds import froeberg
from tcbounds.arith import PreconditionError, SplitMix64, binom
from tcbounds.bounds import bound_report
from tcbounds.froeberg import (
    DegreeType,
    closed_form_almost_parameter,
    closed_form_dim1,
    closed_form_dim2,
    closed_form_parameter,
    froeberg_series,
    froeberg_value,
    initial_segment,
    smallest_zero,
)


def value_oracle(d: int, degrees: tuple[int, ...], m: int) -> int:
    """Independent bitmask-subset evaluation of the alternating sum."""
    n = len(degrees)
    total = 0
    for mask in range(1 << n):
        size = bin(mask).count("1")
        weight = sum(degrees[i] for i in range(n) if mask >> i & 1)
        arg = d + m - weight
        total += (-1) ** size * (math.comb(arg, d) if arg >= d else 0)
    return total


def scan_zero(dt: DegreeType) -> int:
    """m0 by the linear scan of F that smallest_zero skips for the closed
    forms."""
    m = min(dt.degrees)
    while froeberg_value(dt, m) > 0:
        m += 1
    return m


def series_zero(dt: DegreeType) -> int:
    """m0 as the first non-positive coefficient of the series."""
    series = froeberg_series(dt, dt.total - dt.d)
    return next(m for m, c in enumerate(series) if c <= 0)


def golden_digest(count: int) -> str:
    """sha256 over m0, the series up to total + 2 and F at four degrees, for
    seeded degree types; one in four has a constant degree, so that the
    closed forms of smallest_zero are covered too."""
    rng = SplitMix64(24)
    digest = hashlib.sha256()
    for _ in range(count):
        d = 1 + rng.next_below(5)
        n = d + 1 + rng.next_below(6)
        if rng.next_below(4) == 0:
            dt = DegreeType.constant(d, n, 1 + rng.next_below(30))
        else:
            dt = DegreeType(d, tuple(1 + rng.next_below(30) for _ in range(n)))
        m0 = smallest_zero(dt)
        series = froeberg_series(dt, dt.total + 2)
        values = [froeberg_value(dt, m) for m in (m0 - 1, m0, dt.total - dt.d, dt.total + 1)]
        digest.update(f"{d} {dt.degrees} {m0} {series} {values}\n".encode())
    return digest.hexdigest()


class TestDegreeType:
    def test_sorted_descending(self):
        dt = DegreeType(2, (1, 3, 2))
        assert dt.degrees == (3, 2, 1)
        assert dt.n == 3 and dt.total == 6 and not dt.is_constant

    def test_constant_builder(self):
        dt = DegreeType.constant(3, 6, 10)
        assert dt.degrees == (10,) * 6 and dt.is_constant

    def test_rejects_bad_shapes(self):
        with pytest.raises(PreconditionError):
            DegreeType(0, (2, 2))
        with pytest.raises(PreconditionError):
            DegreeType(1, ())
        with pytest.raises(PreconditionError):
            DegreeType(1, (2, 0))


class TestFroebergValue:
    def test_m0_is_one(self):
        assert froeberg_value(DegreeType(1, (1, 1)), 0) == 1
        assert froeberg_value(DegreeType(3, (7, 5, 2)), 0) == 1

    def test_two_linear_forms_on_line(self):
        assert froeberg_value(DegreeType(1, (1, 1)), 2) == 0

    def test_frozen_derived_value(self):
        # four quartics-of-degree-10 at m=20, frozen from the bitmask oracle
        assert froeberg_value(DegreeType(2, (10, 10, 10, 10)), 20) == -27

    def test_matches_bitmask_oracle(self):
        rng = SplitMix64(42)
        for _ in range(60):
            d = 1 + rng.next_below(3)
            n = 1 + rng.next_below(5)
            degrees = tuple(1 + rng.next_below(6) for _ in range(n))
            dt = DegreeType(d, degrees)
            for m in range(0, sum(degrees) + 2):
                assert froeberg_value(dt, m) == value_oracle(d, dt.degrees, m)

    def test_rejects_negative_m(self):
        with pytest.raises(PreconditionError):
            froeberg_value(DegreeType(1, (2,)), -1)

    def test_skips_sub_multisets_heavier_than_m(self, monkeypatch):
        # twenty distinct degrees: the numerator is truncated at m = 2, so
        # of its terms only 1 - t - t^2 (from {}, {1} and {2}) are read, and
        # F(2) = C(3, 1) - C(2, 1) - C(1, 1)
        calls = []

        def counting(n, k):
            calls.append(n)
            return binom(n, k)

        monkeypatch.setattr(froeberg, "binom", counting)
        assert froeberg_value(DegreeType(1, tuple(range(1, 21))), 2) == 0
        assert sorted(calls) == [1, 2, 3]


class TestFroebergSeries:
    def test_koszul_example(self):
        assert froeberg_series(DegreeType(1, (2, 2)), 3) == (1, 2, 1, 0)

    def test_frozen_derived_series(self):
        assert froeberg_series(DegreeType(2, (2, 2, 2, 2)), 3) == (1, 3, 2, -2)

    def test_coefficient_zero_is_one(self):
        assert froeberg_series(DegreeType(3, (4, 9)), 0) == (1,)

    def test_two_computation_paths_agree(self):
        rng = SplitMix64(5)
        for _ in range(30):
            d = 1 + rng.next_below(3)
            n = 1 + rng.next_below(5)
            dt = DegreeType(d, tuple(1 + rng.next_below(7) for _ in range(n)))
            cutoff = dt.total + 3
            series = froeberg_series(dt, cutoff)
            for m in range(cutoff + 1):
                assert series[m] == froeberg_value(dt, m)
        # a long series, where the old Cauchy products took seconds
        dt = DegreeType(2, (1000,) * 6)
        series = froeberg_series(dt, 5998)
        for m in [*range(0, 5999, 97), 999, 1000, 1001, 2999, 3000, 5997, 5998]:
            assert series[m] == froeberg_value(dt, m)

    def test_matches_bitmask_oracle(self):
        rng = SplitMix64(9)
        for _ in range(40):
            d = 1 + rng.next_below(4)
            n = 1 + rng.next_below(6)
            dt = DegreeType(d, tuple(1 + rng.next_below(8) for _ in range(n)))
            series = froeberg_series(dt, dt.total + 2)
            assert series == tuple(
                value_oracle(d, dt.degrees, m) for m in range(dt.total + 3)
            )

    def test_many_running_sums(self):
        # one form of degree 1 leaves 1 / (1 - t)^d, with coefficients
        # C(d - 1 + m, m); a million running sums must not nest a million
        # iterators (verify hilbert reads this series for an ideal file
        # with v = 10^6 variables)
        d = 10**6
        assert froeberg_series(DegreeType(d, (1,)), 2) == (1, d, d * (d + 1) // 2)

    def test_vanishes_from_total_minus_d_on(self):
        rng = SplitMix64(6)
        for _ in range(30):
            d = 1 + rng.next_below(3)
            n = d + 1 + rng.next_below(3)
            dt = DegreeType(d, tuple(1 + rng.next_below(6) for _ in range(n)))
            cutoff = dt.total + 2
            series = froeberg_series(dt, cutoff)
            assert all(series[m] == 0 for m in range(dt.total - dt.d, cutoff + 1))


class TestClips:
    def test_initial_segment(self):
        assert initial_segment((1, 3, -2, 4)) == (1, 3, 0, 0)
        assert initial_segment((1, 0, 5)) == (1, 0, 0)
        assert initial_segment((2, 1)) == (2, 1)

    def test_clips_agree_up_to_first_zero(self):
        dt = DegreeType.constant(3, 6, 10)
        series = froeberg_series(dt, dt.total - dt.d)
        m0 = smallest_zero(dt)
        a = tuple(max(0, c) for c in series)
        b = initial_segment(series)
        assert a[: m0 + 1] == b[: m0 + 1]
        # and they genuinely differ beyond it for this degree type
        assert a != b


class TestSmallestZero:
    def test_reference_values(self):
        assert smallest_zero(DegreeType.constant(2, 4, 10)) == 19
        assert smallest_zero(DegreeType.constant(3, 6, 10)) == 21
        assert smallest_zero(DegreeType(1, (1, 1))) == 1

    def test_rejects_too_few_generators(self):
        with pytest.raises(PreconditionError):
            smallest_zero(DegreeType(2, (5, 5)))

    def test_within_guaranteed_bound(self):
        rng = SplitMix64(7)
        for _ in range(40):
            d = 1 + rng.next_below(3)
            n = d + 1 + rng.next_below(4)
            dt = DegreeType(d, tuple(1 + rng.next_below(9) for _ in range(n)))
            m0 = smallest_zero(dt)
            assert 0 < m0 <= dt.total - dt.d
            assert froeberg_value(dt, m0) <= 0
            assert all(froeberg_value(dt, m) > 0 for m in range(m0))

    def test_scan_limit_holds(self):
        # m0 <= (sum of the d+1 smallest degrees) - d, the limit of the
        # scan in smallest_zero, on types with up to 12 distinct degrees
        rng = SplitMix64(10)
        for _ in range(25):
            d = 1 + rng.next_below(3)
            n = d + 2 + rng.next_below(11 - d)
            pool = list(range(1, 16))
            degrees = tuple(pool.pop(rng.next_below(len(pool))) for _ in range(n))
            dt = DegreeType(d, degrees)
            limit = sum(dt.degrees[-d - 1:]) - d
            first = next(
                m for m in range(limit + 1) if value_oracle(d, dt.degrees, m) <= 0
            )
            assert smallest_zero(dt) == first

    def test_limit_can_be_reached(self):
        # the d+1 smallest degrees 1, 1 give the limit 1, and F(1) = 0 is
        # the first non-positive value: a limit one lower would miss it
        dt = DegreeType(1, (5, 1, 1))
        assert smallest_zero(dt) == 1
        assert froeberg_value(dt, 0) > 0 and froeberg_value(dt, 1) <= 0

    def test_limit_is_not_a_zero(self):
        # the limit bounds m0, but F itself can be positive there:
        # (3; 10 x6) has limit 37, m0 = 21 and F(37) = 220
        dt = DegreeType.constant(3, 6, 10)
        assert smallest_zero(dt) == 21
        assert froeberg_value(dt, 37) == 220

    def test_scan_past_the_limit_fails(self, monkeypatch):
        # a numerator with no term past t^0 gives F(m) = C(d + m, d) > 0
        monkeypatch.setattr(froeberg, "_numerator", lambda dt, top: {0: 1})
        with pytest.raises(AssertionError, match="no non-positive value by 9"):
            smallest_zero(DegreeType(1, (7, 5, 5)))

    def test_formerly_slow_types(self):
        # values of the multiplicity-vector scan, which took seconds here
        assert smallest_zero(DegreeType(12, tuple(range(2, 16)))) == 53
        assert smallest_zero(DegreeType(14, tuple(range(2, 18)))) == 69
        assert smallest_zero(DegreeType(2, (100001, 100000, 99999, 99998, 5))) == 133334

    def test_monotone_in_n_constant_degree(self):
        for d in (1, 2, 3):
            for a in (1, 2, 5, 10, 17):
                zeros = [
                    smallest_zero(DegreeType.constant(d, n, a))
                    for n in range(d + 1, d + 12)
                ]
                assert all(x >= y for x, y in zip(zeros, zeros[1:]))


class TestClosedForms:
    def test_parameter(self):
        assert closed_form_parameter(DegreeType.constant(3, 4, 10)) == 37
        assert closed_form_parameter(DegreeType(1, (1, 1))) == 1
        # frozen derived value: the series (1+t)(1+t+t^2) = 1+2t+2t^2+t^3
        # stays positive through m=3, so m0 = total - d = 4
        assert closed_form_parameter(DegreeType(2, (3, 2, 1))) == 4
        assert smallest_zero(DegreeType(2, (3, 2, 1))) == 4

    def test_parameter_shape_check(self):
        with pytest.raises(PreconditionError):
            closed_form_parameter(DegreeType(2, (3, 3)))

    def test_parameter_matches_scan(self):
        # smallest_zero takes the closed form for n = d+1, so both are
        # checked against the first non-positive coefficient of the series
        rng = SplitMix64(8)
        for _ in range(60):
            d = 1 + rng.next_below(4)
            dt = DegreeType(d, tuple(1 + rng.next_below(20) for _ in range(d + 1)))
            assert closed_form_parameter(dt) == smallest_zero(dt) == series_zero(dt)

    def test_parameter_without_evaluating_f(self, monkeypatch):
        # a scan would read F at millions of degrees: the parameter,
        # almost-parameter, d = 1 and d = 2 cases each take a closed form,
        # and build no numerator, which every reading of F goes through
        def refuse(dt, top):
            raise AssertionError("numerator built")

        monkeypatch.setattr(froeberg, "_numerator", refuse)
        a = 3_000_000
        cases = (
            ((2, 3), 8_999_998),
            ((2, 4), 5_999_999),
            ((1, 5), 3_749_999),
            ((2, 6), 5_069_693),
        )
        for (d, n), m0 in cases:
            dt = DegreeType.constant(d, n, a)
            assert smallest_zero(dt) == m0
            assert bound_report(dt).m0 == m0

    def test_almost_parameter(self):
        assert closed_form_almost_parameter(DegreeType.constant(2, 4, 10)) == 19
        assert closed_form_almost_parameter(DegreeType.constant(3, 5, 10)) == 23
        assert closed_form_almost_parameter(DegreeType.constant(1, 3, 1)) == 1

    def test_almost_parameter_shape_check(self):
        with pytest.raises(PreconditionError):
            closed_form_almost_parameter(DegreeType.constant(2, 5, 10))
        with pytest.raises(PreconditionError):
            closed_form_almost_parameter(DegreeType(2, (5, 5, 5, 4)))

    def test_almost_parameter_matches_scan(self):
        for d in range(1, 7):
            for a in range(1, 51):
                dt = DegreeType.constant(d, d + 2, a)
                assert closed_form_almost_parameter(dt) == smallest_zero(dt) == scan_zero(dt)
                if a <= 12:
                    assert smallest_zero(dt) == series_zero(dt)

    def test_dim1_values(self):
        assert closed_form_dim1(3, 5) == 7
        assert closed_form_dim1(2, 10) == 19
        assert closed_form_dim1(11, 10) == 10

    def test_dim1_matches_scan(self):
        for n in range(2, 31):
            for a in range(1, 51):
                dt = DegreeType.constant(1, n, a)
                assert closed_form_dim1(n, a) == smallest_zero(dt) == scan_zero(dt)
                if a <= 12:
                    assert smallest_zero(dt) == series_zero(dt)

    def test_dim2_values(self):
        assert closed_form_dim2(3, 10) == 28
        assert closed_form_dim2(4, 10) == 19
        assert closed_form_dim2(5, 10) == 17

    def test_dim2_matches_scan(self):
        for n in range(3, 31):
            for a in range(1, 51):
                dt = DegreeType.constant(2, n, a)
                assert closed_form_dim2(n, a) == smallest_zero(dt) == scan_zero(dt)
                if a <= 12:
                    assert smallest_zero(dt) == series_zero(dt)

    def test_dim_shape_checks(self):
        with pytest.raises(PreconditionError):
            closed_form_dim1(1, 5)
        with pytest.raises(PreconditionError):
            closed_form_dim2(2, 5)


class TestGoldenDigest:
    def test_values_are_bit_identical(self):
        # computed by the multiplicity-vector F and its scan from the
        # smallest degree to total - d, which every later m0 and F must
        # reproduce exactly
        assert golden_digest(3000) == (
            "ad6e5b84fe7f758572342647c1dc6dff1a4eec7f35082801bb8cb1fd2f045419"
        )
