import numpy as np
import pytest

from tcbounds.arith import PreconditionError, PrimeField, SplitMix64
from tcbounds.froeberg import DegreeType, froeberg_series, initial_segment
from tcbounds.macaulay import (
    Form,
    FormSystem,
    Monomial,
    first_inclusion_degree,
    form_vector,
    froeberg_check,
    hilbert_table,
    hilbert_value,
    macaulay_matrix,
    monomial_count,
    monomials_of_degree,
    product_row_matrix,
    random_form,
    random_form_system,
    read_form_system,
    write_form_system,
)

F = PrimeField(32003)


def powers_system(a, p=32003):
    # (x^a, y^a, z^a) in three variables
    forms = tuple(
        Form.make(3, a, {tuple(a if i == j else 0 for i in range(3)): 1})
        for j in range(3)
    )
    return FormSystem(field=PrimeField(p), v=3, forms=forms)


class TestMonomials:
    def test_two_vars_degree_two(self):
        got = [m.exponents for m in monomials_of_degree(2, 2)]
        assert got == [(2, 0), (1, 1), (0, 2)]

    def test_three_vars_degree_two(self):
        got = [m.exponents for m in monomials_of_degree(3, 2)]
        assert got == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]

    def test_degree_zero(self):
        assert [m.exponents for m in monomials_of_degree(3, 0)] == [(0, 0, 0)]

    def test_count(self):
        assert len(monomials_of_degree(3, 10)) == 66
        for v in (1, 2, 4):
            for m in (0, 1, 5):
                assert len(monomials_of_degree(v, m)) == monomial_count(v, m)

    def test_order_is_ascending_lex_on_reversed_tuple(self):
        monos = [m.exponents for m in monomials_of_degree(4, 3)]
        rev = [tuple(reversed(e)) for e in monos]
        assert rev == sorted(rev)

    def test_mul_pow_degree(self):
        x2y = Monomial((2, 1, 0))
        assert (x2y**3).exponents == (6, 3, 0)
        assert x2y.degree == 3
        assert x2y.v == 3

    def test_negative_exponent(self):
        with pytest.raises(PreconditionError):
            Monomial((1, -1))

    def test_bad_args(self):
        with pytest.raises(PreconditionError):
            monomials_of_degree(0, 2)
        with pytest.raises(PreconditionError):
            monomials_of_degree(2, -1)


class TestForm:
    def test_make_sorts_and_drops_zeros(self):
        f = Form.make(2, 2, {(0, 2): 5, (2, 0): 1, (1, 1): 0})
        assert f.terms == (((2, 0), 1), ((0, 2), 5))
        assert not f.is_zero

    def test_zero_form(self):
        f = Form.make(2, 3, {})
        assert f.is_zero
        assert f.degree == 3

    def test_rejects_wrong_degree_term(self):
        with pytest.raises(PreconditionError):
            Form(v=2, degree=2, terms=(((1, 0), 1),))

    def test_rejects_stored_zero(self):
        with pytest.raises(PreconditionError):
            Form(v=2, degree=1, terms=(((1, 0), 0),))

    def test_rejects_repeat(self):
        with pytest.raises(PreconditionError):
            Form(v=2, degree=1, terms=(((1, 0), 1), ((1, 0), 2)))

    def test_make_rejects_foreign_exponents(self):
        with pytest.raises(PreconditionError):
            Form.make(2, 2, {(3, 0): 1})

    def test_form_vector(self):
        f = Form.make(2, 2, {(2, 0): 1, (1, 1): 2})
        assert form_vector(f, 7).tolist() == [1, 2, 0]

    def test_system_rejects_mixed_vars(self):
        f = Form.make(2, 1, {(1, 0): 1})
        with pytest.raises(PreconditionError):
            FormSystem(field=F, v=3, forms=(f,))

    def test_system_rejects_out_of_range_coeff(self):
        f = Form.make(2, 1, {(1, 0): 5})
        with pytest.raises(PreconditionError):
            FormSystem(field=PrimeField(5), v=2, forms=(f,))


class TestRandomForm:
    def test_deterministic(self):
        a = random_form(3, 4, F, SplitMix64(42))
        b = random_form(3, 4, F, SplitMix64(42))
        assert a == b

    def test_seed_changes_form(self):
        a = random_form(3, 4, F, SplitMix64(42))
        b = random_form(3, 4, F, SplitMix64(43))
        assert a != b

    def test_degree_one_variable_char_two(self):
        # degree-3 form in one variable over F_2 is 0 or x^3
        seen = set()
        for seed in range(32):
            f = random_form(1, 3, PrimeField(2), SplitMix64(seed))
            assert f.terms in ((), (((3,), 1),))
            seen.add(f.is_zero)
        assert seen == {True, False}

    def test_dense_at_large_prime(self):
        f = random_form(3, 10, F, SplitMix64(7))
        # 66 monomials, each vanishing with probability 1/32003
        assert len(f.terms) >= 60

    def test_coefficient_histogram_uniform(self):
        # chi-square sanity over ~10^4 coefficient draws
        p = 11
        fld = PrimeField(p)
        counts = [0] * p
        rng = SplitMix64(2024)
        draws = 0
        while draws < 10_000:
            f = random_form(2, 13, fld, rng)
            for _, c in f.terms:
                counts[c] += 1
            counts[0] += 14 - len(f.terms)
            draws += 14
        expected = draws / p
        stat = sum((obs - expected) ** 2 / expected for obs in counts)
        # chi-square with 10 degrees of freedom: 35 is far in the tail
        assert stat < 35

    def test_rejects_degree_zero(self):
        with pytest.raises(PreconditionError):
            random_form(2, 0, F, SplitMix64(1))


class TestMacaulayMatrix:
    def test_shape_and_content_two_squares(self):
        # (x^2, y^2) at m = 3: rows x^3, x^2 y, x y^2, y^3
        system = FormSystem(
            field=F,
            v=2,
            forms=(Form.make(2, 2, {(2, 0): 1}), Form.make(2, 2, {(0, 2): 1})),
        )
        mat = macaulay_matrix(system, 3)
        assert mat.shape == (4, 4)
        # columns: x*x^2, y*x^2, x*y^2, y*y^2
        assert mat.tolist() == [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]

    def test_below_all_degrees_has_no_columns(self):
        system = powers_system(3)
        assert macaulay_matrix(system, 2).shape == (6, 0)

    def test_empty_system(self):
        system = FormSystem(field=F, v=3, forms=())
        assert macaulay_matrix(system, 4).shape == (15, 0)
        assert hilbert_value(system, 4) == 15

    def test_zero_form_contributes_zero_columns(self):
        system = FormSystem(field=F, v=2, forms=(Form.make(2, 2, {}),))
        mat = macaulay_matrix(system, 3)
        assert mat.shape == (4, 2)
        assert not mat.any()
        assert hilbert_value(system, 3) == 4

    def test_product_rows_is_transpose(self):
        rng = SplitMix64(5)
        system = random_form_system(3, (2, 2), F, rng)
        assert np.array_equal(product_row_matrix(system, 4), macaulay_matrix(system, 4).T)

    def test_dict_fallback_matches_fast_path(self, monkeypatch):
        # packed codes at 63, 21, 15 and 9 bits per exponent
        import tcbounds.macaulay as mac

        cases = ((1, (4,), 9), (3, (3, 2, 2), 5), (4, (1, 3), 6), (7, (2, 2), 3))
        rng = SplitMix64(9)
        systems = [(random_form_system(v, degrees, F, rng), m) for v, degrees, m in cases]
        fast = [macaulay_matrix(system, m) for system, m in systems]
        monkeypatch.setattr(mac, "_pack_bits", lambda v, m: None)
        for (system, m), mat in zip(systems, fast):
            assert np.array_equal(mat, macaulay_matrix(system, m))


class TestHilbert:
    def test_two_squares(self):
        system = FormSystem(
            field=F,
            v=2,
            forms=(Form.make(2, 2, {(2, 0): 1}), Form.make(2, 2, {(0, 2): 1})),
        )
        table = hilbert_table(system)
        assert table.values == (1, 2, 1, 0)
        assert table.first_zero == 3
        assert first_inclusion_degree(system) == 3

    def test_power_systems_vanish_at_parameter_bound(self):
        for a in (2, 3, 4):
            assert first_inclusion_degree(powers_system(a)) == 3 * a - 2

    def test_power_system_values_match_series(self):
        # complete intersection: H is the full series, never clipped early
        system = powers_system(2)
        dt = DegreeType(2, (2, 2, 2))
        series = froeberg_series(dt, 4)
        assert hilbert_table(system).values == series.coeffs

    def test_four_random_quadrics(self):
        rng = SplitMix64(11)
        system = random_form_system(3, (2, 2, 2, 2), F, rng)
        table = hilbert_table(system)
        assert table.values[:4] == (1, 3, 2, 0)
        dt = DegreeType(2, (2, 2, 2, 2))
        clipped = initial_segment(froeberg_series(dt, 3))
        assert table.values == clipped.coeffs[: len(table.values)]

    def test_five_forms_degree_ten_hit_dim2_closed_form(self):
        from tcbounds.froeberg import closed_form_dim2

        rng = SplitMix64(3)
        system = random_form_system(3, (10,) * 5, F, rng)
        assert first_inclusion_degree(system) == closed_form_dim2(5, 10) == 17

    def test_regular_sequence_matches_series(self):
        # n <= d+1 random forms form a regular sequence: H equals the series
        rng = SplitMix64(21)
        system = random_form_system(3, (3, 3), F, rng)
        dt = DegreeType(2, (3, 3))
        series = froeberg_series(dt, 5)
        for m in range(6):
            assert hilbert_value(system, m) == series[m]

    def test_not_primary_raises(self):
        system = FormSystem(field=F, v=2, forms=(Form.make(2, 2, {(2, 0): 1}),))
        with pytest.raises(PreconditionError, match="not primary"):
            first_inclusion_degree(system)

    def test_explicit_window(self):
        system = powers_system(2)
        table = hilbert_table(system, window=2)
        assert table.values == (1, 3, 3)
        assert table.first_zero is None


class TestFroebergCheck:
    def test_three_binary_quadrics(self):
        report = froeberg_check(1, (2, 2, 2), F, trials=4, seed=7)
        assert report.m0 == 2
        assert report.window == 5
        assert report.predicted == (1, 2, 0, -2, -1, 0)
        assert report.predicted_clipped == (1, 2, 0, 0, 0, 0)
        assert report.inequality_violations == ()
        assert report.equality_rate == 1.0
        for res in report.results:
            assert res.first_zero == 2
            assert res.values == report.predicted_clipped

    def test_trial_streams_are_independent_of_worker_count(self):
        serial = froeberg_check(2, (2, 2, 2, 2), F, trials=4, seed=3, workers=1)
        parallel = froeberg_check(2, (2, 2, 2, 2), F, trials=4, seed=3, workers=3)
        assert serial.results == parallel.results
        assert serial.equality_rate == parallel.equality_rate

    def test_deterministic_in_seed(self):
        a = froeberg_check(1, (3, 2), F, trials=2, seed=5)
        b = froeberg_check(1, (3, 2), F, trials=2, seed=5)
        assert a.results == b.results

    def test_underdetermined_type_has_no_zero(self):
        # one binary quadric: H never vanishes, m0 undefined
        report = froeberg_check(1, (2,), F, trials=2, seed=1)
        assert report.m0 is None
        assert report.inequality_violations == ()
        for res in report.results:
            assert res.first_zero is None
            assert res.equality

    def test_rejects_no_trials(self):
        with pytest.raises(PreconditionError):
            froeberg_check(1, (2, 2), F, trials=0, seed=1)


class TestTextFormat:
    def test_round_trip(self):
        rng = SplitMix64(13)
        system = random_form_system(3, (3, 2), F, rng)
        text = write_form_system(system)
        assert read_form_system(text) == system
        assert write_form_system(read_form_system(text)) == text

    def test_header_and_term_layout(self):
        system = FormSystem(
            field=PrimeField(7), v=2, forms=(Form.make(2, 2, {(2, 0): 3, (1, 1): 1}),)
        )
        assert write_form_system(system) == "p=7 v=2\n2; 2 0:3, 1 1:1\n"

    def test_zero_form_round_trip(self):
        system = FormSystem(field=PrimeField(7), v=2, forms=(Form.make(2, 5, {}),))
        text = write_form_system(system)
        assert "5;" in text
        assert read_form_system(text) == system

    def test_reads_example_text(self):
        text = "p=32003 v=3\n10; 10 0 0:312, 9 1 0:5\n"
        system = read_form_system(text)
        assert system.field.p == 32003
        assert system.degrees == (10,)
        assert dict(system.forms[0].terms)[(10, 0, 0)] == 312

    def test_reduces_coefficients_mod_p(self):
        system = read_form_system("p=7 v=2\n1; 1 0:-1\n")
        assert dict(system.forms[0].terms) == {(1, 0): 6}

    def test_malformed_inputs(self):
        for text in ("", "q=7 v=2\n", "p=7 v=2\nx; 1 0:1\n", "p=7 v=2\n1; 1:0:1\n"):
            with pytest.raises(PreconditionError):
                read_form_system(text)
