"""Tests for the degree-bound derivations and the comparison tables."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from tcbounds import bounds
from tcbounds.arith import PreconditionError, SplitMix64
from tcbounds.bounds import bound_report, build_table
from tcbounds.fixtures import make_fixture
from tcbounds.froeberg import DegreeType, smallest_zero


class TestGenericBounds:
    def test_tight_values(self):
        assert bound_report(DegreeType.constant(2, 5, 10)).tight == 19
        assert bound_report(DegreeType.constant(1, 7, 10)).tight == 12
        assert bound_report(DegreeType.constant(2, 3, 10)).tight == 30

    def test_tight_equals_total_in_parameter_case(self):
        rng = SplitMix64(3)
        for _ in range(50):
            d = 1 + rng.next_below(5)
            dt = DegreeType(d, tuple(1 + rng.next_below(20) for _ in range(d + 1)))
            assert bound_report(dt).tight == dt.total

    def test_frobenius_values(self):
        for a in (1, 3, 5, 11):
            dt = DegreeType.constant(1, 3, a)
            assert bound_report(dt).frobenius == (3 * a + 3) // 2
        assert bound_report(DegreeType.constant(2, 4, 10)).frobenius == 22
        assert bound_report(DegreeType(1, (1, 1))).frobenius == 3

    def test_ideal_values(self):
        assert bound_report(DegreeType.constant(1, 3, 2), 0).ideal == 4
        # polynomial-ring a-invariant collapses the bound to m0
        dt = DegreeType.constant(3, 4, 10)
        assert bound_report(dt, -4).ideal == smallest_zero(dt) == 37
        # frozen derived value: m0 = ceil(40/3) - 1 = 13, then + 3
        assert bound_report(DegreeType.constant(1, 4, 10), 1).ideal == 16

    def test_propagates_precondition(self):
        with pytest.raises(PreconditionError):
            bound_report(DegreeType(2, (5, 5)))


class TestCompetingBounds:
    """The Koszul, semistable and improved Frobenius bounds, read from
    bound_report."""

    def test_koszul(self):
        assert bound_report(DegreeType.constant(2, 5, 10)).koszul == 30
        assert bound_report(DegreeType(1, (3, 2, 2, 1))).koszul == 5
        assert bound_report(DegreeType.constant(3, 7, 10)).koszul == 40
        # fewer than d+1 forms: no m0, so no report
        with pytest.raises(PreconditionError):
            bound_report(DegreeType(2, (4, 4)))

    def test_semistable(self):
        assert bound_report(DegreeType.constant(2, 5, 10)).semistable == 25
        assert bound_report(DegreeType.constant(3, 9, 10)).semistable == 34
        assert bound_report(DegreeType.constant(1, 2, 10)).semistable == 20
        # n = 1 would divide by n - 1 = 0; n >= d+1 >= 2 refuses it first
        with pytest.raises(PreconditionError):
            bound_report(DegreeType(1, (5,)))

    def test_semistable_frobenius_improvement(self):
        assert bound_report(DegreeType.constant(1, 3, 5)).semistable_frobenius == 8
        assert bound_report(DegreeType.constant(1, 3, 1)).semistable_frobenius == 2
        assert bound_report(DegreeType.constant(1, 3, 11)).semistable_frobenius == 17
        for other in (
            DegreeType.constant(1, 3, 4),
            DegreeType.constant(2, 3, 5),
            DegreeType.constant(1, 4, 5),
            DegreeType(1, (5, 5, 3)),
        ):
            report = bound_report(other)
            assert report.semistable_frobenius is None
            assert "semistable_frobenius" not in dict(report.notes)

    def test_against_references(self):
        # each field of a seeded sweep against a reference computed another
        # way: sorted degrees, an exact ceiling, a Fraction
        rng = SplitMix64(22)
        improved = 0
        for _ in range(2000):
            d = 1 + rng.next_below(5)
            n = d + 1 + rng.next_below(6)
            if rng.next_below(4):
                degrees = tuple(1 + rng.next_below(12) for _ in range(n))
            else:
                degrees = (1 + rng.next_below(12),) * n
            report = bound_report(DegreeType(d, degrees))
            assert report.koszul == sum(sorted(degrees)[-(d + 1) :])
            assert report.semistable == math.ceil(Fraction(d * sum(degrees), n - 1))
            a = degrees[0]
            odd_triple = d == 1 and degrees == (a, a, a) and a % 2 == 1
            expected = Fraction(3 * a + 1, 2) if odd_triple else None
            assert report.semistable_frobenius == expected
            improved += expected is not None
        assert improved > 0

    def test_ordering_sweep(self):
        # generic <= semistable <= koszul for constant degrees, n >= d+2
        violations = []
        for d in (1, 2, 3):
            for a in range(1, 51):
                for n in range(d + 2, 31):
                    report = bound_report(DegreeType.constant(d, n, a))
                    g, s, k = report.tight, report.semistable, report.koszul
                    if not g <= s <= k:
                        violations.append((d, n, a, g, s, k))
        assert violations == []


class TestAInvariant:
    """A hypersurface of degree k in v variables has a-invariant k - v,
    and the polynomial ring in v variables has -v."""

    def test_hypersurfaces(self):
        assert make_fixture("fermat-cubic").a_invariant == 0
        assert make_fixture("fermat-cubic-p2").a_invariant == 0
        assert make_fixture("fermat-quartic").a_invariant == 1
        assert make_fixture("poly-ring", d=3).a_invariant == -4

    def test_validation(self):
        # the polynomial ring needs d >= 1, so at least two variables
        with pytest.raises(PreconditionError):
            make_fixture("poly-ring", d=0)
        with pytest.raises(PreconditionError):
            make_fixture("poly-ring")


class TestBoundReport:
    def test_invariants(self):
        dt = DegreeType.constant(1, 3, 5)
        rep = bound_report(dt, a_invariant=0)
        assert rep.m0 == smallest_zero(dt)
        assert rep.tight == rep.m0 + dt.d
        assert rep.frobenius == rep.tight + 1
        assert rep.ideal == rep.frobenius + 0
        assert rep.semistable_frobenius == 8
        names = [name for name, _ in rep.notes]
        assert names == [
            "tight",
            "frobenius",
            "koszul",
            "semistable",
            "ideal",
            "semistable_frobenius",
        ]
        assert all(text for _, text in rep.notes)

    def test_optional_fields_absent(self):
        rep = bound_report(DegreeType.constant(2, 5, 10))
        assert rep.ideal is None and rep.a_invariant is None
        assert rep.semistable_frobenius is None
        assert rep.koszul >= rep.tight

    @pytest.mark.parametrize("a_invariant", [None, 0])
    def test_one_zero_search_per_report(self, monkeypatch, a_invariant):
        calls = []

        def counting(dt):
            calls.append(dt)
            return smallest_zero(dt)

        monkeypatch.setattr(bounds, "smallest_zero", counting)
        dt = DegreeType.constant(1, 3, 5)
        rep = bound_report(dt, a_invariant=a_invariant)
        assert len(calls) == 1
        assert (rep.m0, rep.tight, rep.frobenius) == (7, 8, 9)
        assert rep.ideal == (None if a_invariant is None else 9)


class TestBuildTable:
    def test_reference_rows_d1(self):
        table = build_table(1, 10, [2, 3, 4, 5, 6, 7, 10, 11])
        assert dict(table.rows)["generic"] == (20, 15, 14, 13, 12, 12, 12, 11)
        assert dict(table.rows)["koszul"] == (20,) * 8
        assert dict(table.rows)["semistable"] == (20, 15, 14, 13, 12, 12, 12, 11)
        assert dict(table.limits) == {"koszul": 20, "semistable": 11, "generic": 11}

    def test_reference_rows_d2(self):
        table = build_table(2, 10, [3, 4, 5, 6, 7, 8, 10, 11])
        assert dict(table.rows)["generic"] == (30, 21, 19, 18, 17, 16, 16, 15)
        assert dict(table.rows)["koszul"] == (30,) * 8
        assert dict(table.rows)["semistable"] == (30, 27, 25, 24, 24, 23, 23, 22)
        assert dict(table.limits) == {"koszul": 30, "semistable": 21, "generic": 12}

    def test_reference_rows_d3(self):
        table = build_table(3, 10, list(range(4, 12)))
        assert dict(table.rows)["generic"] == (40, 26, 24, 22, 22, 21, 20, 20)
        assert dict(table.rows)["koszul"] == (40,) * 8
        assert dict(table.rows)["semistable"] == (40, 38, 36, 35, 35, 34, 34, 33)
        assert dict(table.limits) == {"koszul": 40, "semistable": 31, "generic": 13}

    def test_rejects_small_n(self):
        with pytest.raises(PreconditionError):
            build_table(2, 10, [2, 3])


def m0_ratio(d, n, a):
    return Fraction(smallest_zero(DegreeType.constant(d, n, a)), a)


class TestAsymptotics:
    """m0 / a at fixed (d, n) and growing a, against the limit each case is
    expected to approach, written in as a reference value."""

    def test_dim1_exact(self):
        # two binary forms of degree a are parameters: m0 = 2a - 1
        for a in (5, 10, 100):
            assert m0_ratio(1, 2, a) == 2 - Fraction(1, a)

    def test_dim2_limit(self):
        target = (10 + math.sqrt(10)) / 9  # (n + sqrt n) / (n - 1)
        assert abs(float(m0_ratio(2, 10, 10**3)) - target) / target < 0.02

    def test_dim3_cube_limit(self):
        # n = 2^3: the limit is r / (r - 1) = 2 for r = 2
        assert abs(float(m0_ratio(3, 8, 100)) - 2.0) / 2.0 < 0.01

    def test_dim4_fourth_power(self):
        # n = 2^4: the limit is again 2
        assert abs(float(m0_ratio(4, 16, 10**3)) - 2.0) / 2.0 < 0.01

    def test_rejects_small_n(self):
        # with n < d + 1 forms there is no m0, so no ratio
        with pytest.raises(PreconditionError):
            m0_ratio(2, 2, 10)
