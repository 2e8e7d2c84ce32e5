import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tcbounds import arith, macaulay, quotient
from tcbounds.arith import PreconditionError, PrimeField, SplitMix64
from tcbounds.froeberg import DegreeType, froeberg_series, initial_segment, smallest_zero
from tcbounds.macaulay import (
    Form,
    FormSystem,
    froeberg_check,
    hilbert_table,
    hilbert_value,
    macaulay_matrix,
    monomial_count,
    monomials_of_degree,
    product_row_matrix,
    product_support,
    random_form,
    random_form_system,
    read_form_system,
    write_form_system,
)
from tcbounds.macaulay import _product_columns, _search_window

from conftest import monomial_form

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
        got = monomials_of_degree(2, 2)
        assert got == [(2, 0), (1, 1), (0, 2)]

    def test_three_vars_degree_two(self):
        got = monomials_of_degree(3, 2)
        assert got == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]

    def test_degree_zero(self):
        assert monomials_of_degree(3, 0) == [(0, 0, 0)]

    def test_count(self):
        assert len(monomials_of_degree(3, 10)) == 66
        for v in (1, 2, 4):
            for m in (0, 1, 5):
                assert len(monomials_of_degree(v, m)) == monomial_count(v, m)

    def test_order_is_ascending_lex_on_reversed_tuple(self):
        rev = [tuple(reversed(e)) for e in monomials_of_degree(4, 3)]
        assert rev == sorted(rev)

    def test_matches_the_recursive_listing(self):
        # e_(v-1) ascending in the outer loop, the rest listed recursively
        # in the same order, and e_0 takes what is left
        def recursive(v, m):
            if v == 1:
                return [(m,)]
            return [rest + (e,) for e in range(m + 1) for rest in recursive(v - 1, m - e)]

        for v in range(1, 6):
            for m in range(7):
                assert macaulay._exponent_tuples(v, m) == tuple(recursive(v, m)), (v, m)

    def test_wide_listings(self):
        # each tuple is built once, in time linear in v, so 20000 variables
        # at degree 0 and 300 at degree 2 are listed in milliseconds
        assert macaulay._exponent_tuples(20000, 0) == ((0,) * 20000,)
        wide = macaulay._exponent_tuples(300, 2)
        assert len(wide) == monomial_count(300, 2) == 45150
        assert wide[0] == (2,) + (0,) * 299 and wide[-1] == (0,) * 299 + (2,)
        assert all(sum(e) == 2 for e in wide)

    def test_mul_pow_degree(self):
        # a monomial's q-th power is its Frobenius power as a one-term form
        x2y = monomial_form(3, (2, 1, 0))
        assert quotient._frobenius_power_form(x2y, 3).terms == (((6, 3, 0), 1),)
        assert x2y.degree == 3
        assert x2y.v == 3

    def test_negative_exponent(self):
        with pytest.raises(PreconditionError):
            Form(v=2, degree=0, terms=(((1, -1), 1),))

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
        with pytest.raises(PreconditionError):
            Form.make(2, 2, {(2, 0, 0): 1})

    def test_rejects_negative_exponent(self):
        # (2, -1) has degree 1 but is no monomial
        with pytest.raises(PreconditionError, match="exponents >= 0"):
            Form(v=2, degree=1, terms=(((2, -1), 1),))
        with pytest.raises(PreconditionError):
            Form.make(2, 1, {(2, -1): 1})

    def test_product_support(self):
        # x^2 + 2xy: its products by x, y in degree 3 over x^3, x^2y, xy^2, y^3
        f = Form.make(2, 2, {(2, 0): 1, (1, 1): 2})
        assert product_support(f, 2).tolist() == [[0, 1]]
        assert product_support(f, 3).tolist() == [[0, 1], [1, 2]]
        assert product_support(f, 1).shape == (0, 2)

    @pytest.mark.parametrize("v,m", [(3, 5), (64, 2), (1, 9), (7, 4), (16, 3), (2, 45)])
    def test_product_support_by_exponents(self, v, m):
        rng = SplitMix64(3)
        f = random_form(v, 1, 7, rng)
        index = {mono: i for i, mono in enumerate(monomials_of_degree(v, m))}
        shifts = monomials_of_degree(v, m - 1)
        expected = [
            [index[tuple(a + b for a, b in zip(mu, exps))] for exps, _ in f.terms]
            for mu in shifts
        ]
        assert product_support(f, m).tolist() == expected

    @pytest.mark.parametrize("v", range(1, 9))
    def test_index_of_every_monomial(self, v):
        one = Form(v=v, degree=0, terms=(((0,) * v, 1),))
        for m in range(12):
            assert product_support(one, m).ravel().tolist() == list(range(monomial_count(v, m)))

    def test_index_beyond_int64_refused(self):
        # C(103, 63) > 2^63 monomials of degree 40 in 64 variables
        f = Form.make(64, 1, {(1,) + (0,) * 63: 1})
        with pytest.raises(PreconditionError, match="too many"):
            product_support(f, 40)

    @pytest.mark.parametrize("v,degree", [(1, 3), (2, 7), (3, 4), (5, 3), (9, 2)])
    def test_make_orders_terms_like_index_dict(self, v, degree):
        index = {mono: i for i, mono in enumerate(monomials_of_degree(v, degree))}
        rng = SplitMix64(v * 100 + degree)
        monos = list(index)
        for _ in range(20):
            picked = {monos[rng.next_below(len(monos))]: 1 + rng.next_below(6) for _ in range(6)}
            f = Form.make(v, degree, picked)
            assert [e for e, _ in f.terms] == sorted(picked, key=index.__getitem__)

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

    def test_matrix_matches_index_dict(self):
        # every entry placed by a dict over monomials_of_degree
        cases = ((1, (4,), 9), (3, (3, 2, 2), 5), (4, (1, 3), 6), (7, (2, 2), 3),
                 (16, (1, 2), 3), (64, (1,), 2), (2, (40, 3), 43))
        rng = SplitMix64(9)
        for v, degrees, m in cases:
            system = random_form_system(v, degrees, F, rng)
            index = {mono: i for i, mono in enumerate(monomials_of_degree(v, m))}
            expected = np.zeros((len(index), 0), dtype=np.int64)
            for f in system.forms:
                for mu in monomials_of_degree(v, m - f.degree) if f.degree <= m else ():
                    col = np.zeros((len(index), 1), dtype=np.int64)
                    for exps, c in f.terms:
                        col[index[tuple(a + b for a, b in zip(mu, exps))]] = c
                    expected = np.hstack([expected, col])
            assert np.array_equal(macaulay_matrix(system, m), expected), (v, degrees, m)


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

    def test_power_systems_vanish_at_parameter_bound(self):
        for a in (2, 3, 4):
            assert hilbert_table(powers_system(a)).first_zero == 3 * a - 2

    def test_power_system_values_match_series(self):
        # complete intersection: H is the full series, never clipped early
        system = powers_system(2)
        dt = DegreeType(2, (2, 2, 2))
        assert hilbert_table(system).values == froeberg_series(dt, 4)

    def test_four_random_quadrics(self):
        rng = SplitMix64(11)
        system = random_form_system(3, (2, 2, 2, 2), F, rng)
        table = hilbert_table(system)
        assert table.values[:4] == (1, 3, 2, 0)
        dt = DegreeType(2, (2, 2, 2, 2))
        clipped = initial_segment(froeberg_series(dt, 3))
        assert table.values == clipped[: len(table.values)]

    def test_five_forms_degree_ten_hit_dim2_closed_form(self):
        from tcbounds.froeberg import closed_form_dim2

        rng = SplitMix64(3)
        system = random_form_system(3, (10,) * 5, F, rng)
        assert hilbert_table(system).first_zero == closed_form_dim2(5, 10) == 17

    def test_regular_sequence_matches_series(self):
        # n <= d+1 random forms form a regular sequence: H equals the series
        rng = SplitMix64(21)
        system = random_form_system(3, (3, 3), F, rng)
        dt = DegreeType(2, (3, 3))
        series = froeberg_series(dt, 5)
        for m in range(6):
            assert hilbert_value(system, m) == series[m]

    def test_not_primary_has_no_zero(self):
        system = FormSystem(field=F, v=2, forms=(Form.make(2, 2, {(2, 0): 1}),))
        table = hilbert_table(system)
        assert table.values == (1, 2, 2)
        assert table.first_zero is None

    def test_explicit_window(self):
        system = powers_system(2)
        table = hilbert_table(system, window=2)
        assert table.values == (1, 3, 3)
        assert table.first_zero is None


def record_eliminations(monkeypatch) -> list[tuple[int, int]]:
    """The shape of the column store of every elimination from now on."""
    shapes: list[tuple[int, int]] = []
    kernel = arith._eliminate_blocked

    def recording(g, p, *args):
        shapes.append(g.shape)
        return kernel(g, p, *args)

    monkeypatch.setattr(arith, "_eliminate_blocked", recording)
    return shapes


def per_degree_table(system, window):
    """H(0..window) up to its first zero, one hilbert_value per degree."""
    values = []
    for m in range(window + 1):
        values.append(hilbert_value(system, m))
        if values[-1] == 0:
            return tuple(values), m
    return tuple(values), None


@st.composite
def systems_and_windows(draw):
    """(system, window): 1..v+3 forms of degrees 0..4 in v = 1..4
    variables, each dense random, sparse with at most three terms (the
    zero form included) or a repeat of an earlier one; window None or
    0..9."""
    p = draw(st.sampled_from((2, 3, 5, 7, 32003)))
    v = draw(st.integers(1, 4))
    forms = []
    for _ in range(draw(st.integers(1, v + 3))):
        a = draw(st.integers(0, 4))
        kind = draw(st.sampled_from(("dense", "sparse", "repeat")))
        if kind == "repeat" and forms:
            forms.append(draw(st.sampled_from(forms)))
        elif kind == "dense" and a >= 1:
            seed = draw(st.integers(0, 2**32 - 1))
            forms.append(random_form(v, a, PrimeField(p), SplitMix64(seed)))
        else:
            monos = monomials_of_degree(v, a)
            terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(1, p - 1), max_size=3))
            forms.append(Form.make(v, a, terms))
    system = FormSystem(field=PrimeField(p), v=v, forms=tuple(forms))
    return system, draw(st.none() | st.integers(0, 9))


class TestHilbertTableFromOneElimination:
    """hilbert_table reads H(0..T) from the rank profile of M_T; the
    per-degree ranks of hilbert_value are the reference."""

    @given(systems_and_windows())
    def test_matches_per_degree_ranks(self, case):
        system, window = case
        top = _search_window(system) if window is None else window
        # the reference may rank M_top: keep it small
        cols = sum(monomial_count(system.v, top - f.degree) for f in system.forms if f.degree <= top)
        assume(monomial_count(system.v, top) * cols <= 250_000)
        table = hilbert_table(system, window)
        assert (table.values, table.first_zero) == per_degree_table(system, top)

    @given(systems_and_windows())
    def test_levelled_build_is_a_staircase(self, case):
        system, window = case
        top = _search_window(system) if window is None else window
        cols = sum(monomial_count(system.v, top - f.degree) for f in system.forms if f.degree <= top)
        assume(monomial_count(system.v, top) * cols <= 250_000)
        matrix, levels = _product_columns(system, top, levelled=True)
        # rows and columns of M_top, each stably sorted by level top - e_0
        row_e0 = np.array([mono[0] for mono in monomials_of_degree(system.v, top)])
        col_e0 = np.array([
            mu[0]
            for f in system.forms if f.degree <= top
            for mu in monomials_of_degree(system.v, top - f.degree)
        ], dtype=np.int64)
        row_order = np.argsort(top - row_e0, kind="stable")
        col_order = np.argsort(top - col_e0, kind="stable")
        assert np.array_equal(matrix, macaulay_matrix(system, top)[row_order][:, col_order])
        assert levels.tolist() == (top - col_e0[col_order]).tolist()
        # a column of level l is divisible by x_0^(top - l): zero on every
        # row whose e_0 is smaller
        below = row_e0[row_order][:, None] < top - levels[None, :]
        assert not matrix[below].any()

    def test_continues_one_degree_past_m0(self, monkeypatch):
        # (x^2, x^2, y^2, z^2): the degree type (2, 2, 2, 2) has m0 = 3, but
        # the repeated square makes this a complete intersection of three
        # quadrics, which vanishes only at 4
        def square(i):
            return Form.make(3, 2, {tuple(2 * (j == i) for j in range(3)): 1})

        system = FormSystem(field=F, v=3, forms=(square(0), square(0), square(1), square(2)))
        assert smallest_zero(DegreeType(2, (2, 2, 2, 2))) == 3
        shapes = record_eliminations(monkeypatch)
        table = hilbert_table(system)
        assert (table.values, table.first_zero) == ((1, 3, 3, 1, 0), 4)
        # M_3: 4 * 3 products over 10 monomials; then M_4: 4 * 6 over 15
        assert shapes == [(12, 10), (24, 15)]

    def test_generic_3_6_10_is_one_elimination_at_m0(self, monkeypatch):
        dt = DegreeType.constant(3, 6, 10)
        system = random_form_system(4, dt.degrees, F, SplitMix64(1))
        shapes = record_eliminations(monkeypatch)
        table = hilbert_table(system, dt.total - dt.d)
        assert table.first_zero == smallest_zero(dt) == 21
        assert table.values == initial_segment(froeberg_series(dt, 21))
        # only M_21: 6 * C(14, 3) products over C(24, 3) monomials
        assert shapes == [(6 * 364, 2024)]

    def test_build_is_eliminated_in_place(self, monkeypatch):
        # the kernel's column store is the levelled build itself, not a copy
        system = random_form_system(3, (2, 2, 3), F, SplitMix64(5))
        expected = per_degree_table(system, _search_window(system))[0]
        built, stores = [], []
        build, kernel = macaulay._product_columns, arith._eliminate_blocked

        def recording_build(*args, **kwargs):
            matrix, levels = build(*args, **kwargs)
            built.append(matrix)
            return matrix, levels

        def recording_kernel(g, p, *args):
            stores.append(g)
            return kernel(g, p, *args)

        monkeypatch.setattr(macaulay, "_product_columns", recording_build)
        monkeypatch.setattr(arith, "_eliminate_blocked", recording_kernel)
        assert hilbert_table(system).values == expected
        assert len(stores) == len(built) == 1
        assert np.shares_memory(stores[0], built[0])


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

    def test_trial_t_draws_from_seed_plus_t(self):
        report = froeberg_check(2, (2, 2, 2, 2), F, trials=4, seed=3)
        for t, res in enumerate(report.results):
            (alone,) = froeberg_check(2, (2, 2, 2, 2), F, trials=1, seed=3 + t).results
            assert res.trial == t
            assert (res.values, res.first_zero) == (alone.values, alone.first_zero)

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

    @pytest.mark.parametrize(
        "d,degrees,top",
        [
            # a parameter type: m0 = window = 302 - 150, M_152 in 151 variables
            (150, (2,) * 151, 152),
            # fewer than d+1 forms: no m0, so the first build is at the window 32
            (4, (12, 12, 12), 32),
        ],
    )
    def test_refused_before_any_draw(self, monkeypatch, d, degrees, top):
        def no_draw(*args):
            raise AssertionError("a form was drawn")

        monkeypatch.setattr(macaulay, "random_form_system", no_draw)
        rows = math.comb(top + d, d)
        cols = sum(math.comb(top - a + d, d) for a in degrees)
        message = (
            f"Macaulay matrix in degree {top} needs a {rows} x {cols} matrix "
            f"({rows * cols} cells), over the cap of {2**26}"
        )
        with pytest.raises(PreconditionError) as refused:
            froeberg_check(d, degrees, F, trials=1, seed=7)
        assert str(refused.value) == message


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
        # the last one means 3xy + 4xy = 0 over F_7, not its last term 4xy
        for text in ("", "q=7 v=2\n", "p=7 v=2\nx; 1 0:1\n", "p=7 v=2\n1; 1:0:1\n",
                     "p=7 v=2\n2; 1 1:3, 1 1:4\n"):
            with pytest.raises(PreconditionError):
                read_form_system(text)

    def test_header_keys_set_once(self):
        # a repeated key must not keep its last value (F_5 in the first
        # text), nor an unknown key be ignored
        for text in ("p=7 v=2 p=5\n1; 1 0:6\n", "p=7 v=2 q=5\n1; 1 0:6\n",
                     "p=7 v=2 v=2\n", "p=7\n", "p=7 v=2 x\n"):
            with pytest.raises(PreconditionError, match="must set p and v once each"):
                read_form_system(text)
        assert read_form_system("v=2 p=7\n1; 1 0:6\n").field.p == 7
