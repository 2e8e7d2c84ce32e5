"""Tests for the Froberg function, its clips, and the closed forms for m0."""

from __future__ import annotations

import math

import pytest

from tcbounds.arith import PreconditionError, SplitMix64, TruncatedSeries
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


class TestFroebergSeries:
    def test_koszul_example(self):
        s = froeberg_series(DegreeType(1, (2, 2)), 3)
        assert s.coeffs == (1, 2, 1, 0)

    def test_frozen_derived_series(self):
        s = froeberg_series(DegreeType(2, (2, 2, 2, 2)), 3)
        assert s.coeffs == (1, 3, 2, -2)

    def test_coefficient_zero_is_one(self):
        assert froeberg_series(DegreeType(3, (4, 9)), 0).coeffs == (1,)

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
        assert initial_segment(TruncatedSeries((1, 3, -2, 4))).coeffs == (1, 3, 0, 0)
        assert initial_segment(TruncatedSeries((1, 0, 5))).coeffs == (1, 0, 0)
        assert initial_segment(TruncatedSeries((2, 1))).coeffs == (2, 1)

    def test_clips_agree_up_to_first_zero(self):
        dt = DegreeType.constant(3, 6, 10)
        series = froeberg_series(dt, dt.total - dt.d)
        m0 = smallest_zero(dt)
        a = tuple(max(0, c) for c in series.coeffs)
        b = initial_segment(series).coeffs
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
        rng = SplitMix64(8)
        for _ in range(60):
            d = 1 + rng.next_below(4)
            dt = DegreeType(d, tuple(1 + rng.next_below(20) for _ in range(d + 1)))
            assert closed_form_parameter(dt) == smallest_zero(dt)

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
                assert closed_form_almost_parameter(dt) == smallest_zero(dt)

    def test_dim1_values(self):
        assert closed_form_dim1(3, 5) == 7
        assert closed_form_dim1(2, 10) == 19
        assert closed_form_dim1(11, 10) == 10

    def test_dim1_matches_scan(self):
        for n in range(2, 31):
            for a in range(1, 51):
                assert closed_form_dim1(n, a) == smallest_zero(
                    DegreeType.constant(1, n, a)
                )

    def test_dim2_values(self):
        assert closed_form_dim2(3, 10) == 28
        assert closed_form_dim2(4, 10) == 19
        assert closed_form_dim2(5, 10) == 17

    def test_dim2_matches_scan(self):
        for n in range(3, 31):
            for a in range(1, 51):
                assert closed_form_dim2(n, a) == smallest_zero(
                    DegreeType.constant(2, n, a)
                )

    def test_dim_shape_checks(self):
        with pytest.raises(PreconditionError):
            closed_form_dim1(1, 5)
        with pytest.raises(PreconditionError):
            closed_form_dim2(2, 5)
