import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from tcbounds import quotient
from tcbounds.arith import PreconditionError, PrimeField, SplitMix64, fp_echelon, fp_rank
from tcbounds.froeberg import DegreeType
from tcbounds.fixtures import (
    DEFAULT_PRIME,
    fixture_names,
    make_fixture,
    variables_ideal,
)
from tcbounds.macaulay import (
    Form,
    FormSystem,
    form_product,
    hilbert_table,
    monomials_of_degree,
    product_row_matrix,
    random_form,
    random_form_system,
    write_form_system,
)
from tcbounds.quotient import (
    GradedQuotient,
    MembershipOracle,
    frobenius_power_ideal,
    ring_basis,
    ring_dimension_at,
    tight_witness_scan,
    verify_theorem_b,
    verify_theorem_c,
)

from conftest import monomial_form


@pytest.fixture(scope="module")
def cubic7():
    return make_fixture("fermat-cubic", p=7)


@pytest.fixture(scope="module")
def cubic2():
    return make_fixture("fermat-cubic-p2")


@pytest.fixture(scope="module")
def cubic5():
    return make_fixture("fermat-cubic", p=5)


class TestFixtures:
    def test_names(self):
        assert set(fixture_names()) == {
            "fermat-cubic",
            "fermat-cubic-p2",
            "fermat-quartic",
            "poly-ring",
        }

    def test_a_invariants(self):
        assert make_fixture("fermat-cubic").a_invariant == 0
        assert make_fixture("fermat-cubic-p2").a_invariant == 0
        assert make_fixture("fermat-quartic").a_invariant == 1
        assert make_fixture("poly-ring", d=2).a_invariant == -3

    def test_default_prime(self):
        assert make_fixture("fermat-cubic").ring.field.p == DEFAULT_PRIME

    def test_descriptions(self):
        assert make_fixture("fermat-cubic", p=7).description == "F_7[x,y,z] / (x^3+y^3+z^3)"
        assert make_fixture("fermat-cubic-p2").description == "F_2[x,y,z] / (x^3+y^3+z^3)"
        assert make_fixture("fermat-quartic").description == "F_32003[x,y,z] / (x^4+y^4+z^4)"

    def test_modulus_out_of_range_rejected(self):
        # checked before the smoothness test, which would divide by p
        for p in (0, 1):
            with pytest.raises(PreconditionError, match="out of range"):
                make_fixture("fermat-cubic", p=p)

    def test_singular_characteristic_rejected(self):
        with pytest.raises(PreconditionError, match="not smooth"):
            make_fixture("fermat-cubic", p=3)
        with pytest.raises(PreconditionError, match="not smooth"):
            make_fixture("fermat-quartic", p=2)

    def test_p2_fixture_pins_its_prime(self):
        assert make_fixture("fermat-cubic-p2", p=2).ring.field.p == 2
        with pytest.raises(PreconditionError, match="fermat-cubic-p2 is defined over F_2, got p=7"):
            make_fixture("fermat-cubic-p2", p=7)

    def test_poly_ring_needs_d(self):
        with pytest.raises(PreconditionError):
            make_fixture("poly-ring")
        ring = make_fixture("poly-ring", d=3).ring
        assert ring.v == 4
        assert ring.krull_dimension == 4

    def test_unknown_name(self):
        with pytest.raises(PreconditionError, match="unknown fixture"):
            make_fixture("fermat-quintic")

    def test_variables_ideal(self, cubic7):
        ideal = variables_ideal(cubic7.ring, 2)
        assert ideal.degrees == (1, 1)
        assert ideal.forms[0].terms == (((1, 0, 0), 1),)
        assert ideal.forms[1].terms == (((0, 1, 0), 1),)
        with pytest.raises(PreconditionError):
            variables_ideal(cubic7.ring, 4)


class TestGradedQuotient:
    def test_dimensions_on_cubic(self, cubic7):
        # all of P_2 survives; in degree 3 exactly the relation dies
        assert ring_dimension_at(cubic7.ring, 2) == 6
        assert ring_dimension_at(cubic7.ring, 3) == 9

    def test_dimensions_no_modulus(self):
        ring = make_fixture("poly-ring", d=2).ring
        for m in (0, 1, 4):
            assert ring_dimension_at(ring, m) == len(ring_basis(ring, m))
        assert ring_dimension_at(ring, 4) == 15

    def test_basis_count_matches_dimension(self, cubic7):
        for m in range(6):
            assert len(ring_basis(cubic7.ring, m)) == ring_dimension_at(cubic7.ring, m)

    def test_basis_below_relation_degree_is_everything(self, cubic7):
        assert len(ring_basis(cubic7.ring, 2)) == 6

    def test_krull_dimension(self, cubic7):
        assert cubic7.ring.krull_dimension == 2

    def test_relation_echelon_is_cached(self, cubic7):
        assert cubic7.ring.relation_echelon(5) is cubic7.ring.relation_echelon(5)

    def test_constructor_validation(self):
        with pytest.raises(PreconditionError, match="need at least one variable"):
            GradedQuotient(FormSystem(field=PrimeField(7), v=0, forms=()))

    def test_negative_degree(self, cubic7):
        with pytest.raises(PreconditionError):
            ring_dimension_at(cubic7.ring, -1)


class TestIdealMembership:
    def test_explicit_combination_is_contained(self, cubic7):
        I = variables_ideal(cubic7.ring, 2)
        # x*(x + 2y) is visibly in (x, y)
        f = Form.make(3, 2, {(2, 0, 0): 1, (1, 1, 0): 2})
        verdict = MembershipOracle(cubic7.ring, I, 2).verdicts([f])[0]
        assert verdict.contained
        assert verdict.rank_with == verdict.rank_without
        assert verdict.degree == 2

    def test_z_squared_not_in_two_variables(self, cubic7):
        I = variables_ideal(cubic7.ring, 2)
        verdict = MembershipOracle(cubic7.ring, I, 2).verdicts([monomial_form(3, (0, 0, 2))])[0]
        assert not verdict.contained
        assert verdict.rank_with == verdict.rank_without + 1

    def test_all_variables_contain_everything(self, cubic7):
        I = variables_ideal(cubic7.ring, 3)
        f = random_form(3, 2, cubic7.ring.field, SplitMix64(4))
        assert MembershipOracle(cubic7.ring, I, 2).verdicts([f])[0].contained

    def test_zero_form_is_contained(self, cubic7):
        I = variables_ideal(cubic7.ring, 2)
        assert MembershipOracle(cubic7.ring, I, 2).verdicts([Form.make(3, 2, {})])[0].contained

    def test_monotone_under_ideal_growth(self, cubic7):
        # f not in (x, y); appending f as a generator makes it a member
        I = variables_ideal(cubic7.ring, 2)
        f = monomial_form(3, (0, 0, 2))
        bigger = FormSystem(field=I.field, v=I.v, forms=I.forms + (f,))
        # a member stays a member under growth
        g = monomial_form(3, (1, 0, 1))
        small, big = MembershipOracle(cubic7.ring, I, 2), MembershipOracle(cubic7.ring, bigger, 2)
        assert [v.contained for v in small.verdicts([f, g])] == [False, True]
        assert [v.contained for v in big.verdicts([f, g])] == [True, True]

    def test_mismatches_rejected(self, cubic7):
        I = variables_ideal(cubic7.ring, 2)
        with pytest.raises(PreconditionError):
            MembershipOracle(cubic7.ring, I, 1).verdicts([Form.make(2, 1, {(1, 0): 1})])
        foreign = FormSystem(field=PrimeField(5), v=3, forms=())
        with pytest.raises(PreconditionError):
            MembershipOracle(cubic7.ring, foreign, 2)
        # an element is tested only in its own degree, not through a multiple
        for m in (1, 4):
            with pytest.raises(PreconditionError, match="element of degree 2"):
                MembershipOracle(cubic7.ring, I, m).verdicts([monomial_form(3, (0, 0, 2))])


class TestFrobeniusPowers:
    def test_char_two_square(self):
        field = PrimeField(2)
        I = FormSystem(
            field=field, v=2, forms=(Form.make(2, 1, {(1, 0): 1, (0, 1): 1}),)
        )
        sq = frobenius_power_ideal(I, 2)
        assert sq.forms[0].terms == (((2, 0), 1), ((0, 2), 1))
        assert sq.forms[0].degree == 2

    def test_q_one_is_identity(self, cubic7):
        I = variables_ideal(cubic7.ring, 2)
        assert frobenius_power_ideal(I, 1) == I

    def test_char_three_example(self):
        field = PrimeField(3)
        I = FormSystem(
            field=field,
            v=2,
            forms=(Form.make(2, 2, {(2, 0): 1}), Form.make(2, 2, {(1, 1): 1})),
        )
        cubed = frobenius_power_ideal(I, 3)
        assert cubed.forms[0].terms == (((6, 0), 1),)
        assert cubed.forms[1].terms == (((3, 3), 1),)

    def test_composition(self, cubic5):
        rng = SplitMix64(8)
        I = random_form_system(3, (2, 2), cubic5.ring.field, rng)
        assert frobenius_power_ideal(frobenius_power_ideal(I, 5), 5) == frobenius_power_ideal(I, 25)

    def test_rejects_non_powers(self, cubic7):
        I = variables_ideal(cubic7.ring, 2)
        for q in (0, 6, 14, -7):
            with pytest.raises(PreconditionError):
                frobenius_power_ideal(I, q)

    def test_membership_chain(self, cubic5):
        # I is inside its Frobenius closure: members stay members at every q
        ring = cubic5.ring
        I = variables_ideal(ring, 2)
        rng = SplitMix64(12)
        g = random_form(3, 1, ring.field, rng)
        f = form_product(I.forms[0], g, ring.field.p)
        for q in (1, 5, 25):
            f_q = quotient._frobenius_power_form(f, q)
            assert MembershipOracle(ring, I, 2 * q, q).verdicts([f_q])[0].contained

    def test_z_squared_hand_check_char_two(self, cubic2):
        # z^4 = z*(x^3+y^3) = x^2(xz) + y^2(yz) in (x^2, y^2) mod the cubic
        ring = cubic2.ring
        I = variables_ideal(ring, 2)
        z2 = monomial_form(3, (0, 0, 2))
        assert not MembershipOracle(ring, I, 2, 1).verdicts([z2])[0].contained
        z4 = quotient._frobenius_power_form(z2, 2)
        assert MembershipOracle(ring, I, 4, 2).verdicts([z4])[0].contained

    def test_q7_verdict_recorded(self, cubic7):
        # recorded oracle outcome (p = 7 is 1 mod 3): z^14 does not land in
        # (x^7, y^7) + J, and the verdict is internally consistent
        I = variables_ideal(cubic7.ring, 2)
        z14 = quotient._frobenius_power_form(monomial_form(3, (0, 0, 2)), 7)
        verdict = MembershipOracle(cubic7.ring, I, 14, 7).verdicts([z14])[0]
        assert verdict.contained is False
        assert verdict.degree == 14
        assert verdict.contained == (verdict.rank_without == verdict.rank_with)


class TestWitnessScan:
    def test_validation(self, cubic5):
        # the q list must be nonempty and hold only powers of p
        ring = cubic5.ring
        I = variables_ideal(ring, 2)
        f = monomial_form(3, (0, 0, 2))
        u = monomial_form(3, (1, 0, 0))
        with pytest.raises(PreconditionError, match="nonempty"):
            tight_witness_scan(ring, I, f, witnesses=(u,), q_list=())
        with pytest.raises(PreconditionError, match="not a power"):
            tight_witness_scan(ring, I, f, witnesses=(u,), q_list=(10,))

    def test_variable_witnesses_pass(self, cubic5):
        # z^2 has the parameter degree a_1 + a_2, so it lies in the tight
        # closure of (x, y) and the scan must find a passing witness
        ring = cubic5.ring
        I = variables_ideal(ring, 2)
        witnesses = tuple(
            monomial_form(3, tuple(1 if i == j else 0 for i in range(3)))
            for j in range(3)
        )
        report = tight_witness_scan(
            ring, I, monomial_form(3, (0, 0, 2)), witnesses=witnesses, q_list=(5, 25)
        )
        assert report.passing == (0, 1, 2)
        assert len(report.verdicts) == 3
        assert all(len(row) == 2 for row in report.verdicts)
        assert report.q_list == (5, 25)

    def test_member_passes_with_every_witness(self, cubic5):
        ring = cubic5.ring
        I = variables_ideal(ring, 2)
        report = tight_witness_scan(
            ring, I, monomial_form(3, (2, 0, 0)), q_list=(5, 25)
        )
        assert report.passing == tuple(range(len(report.verdicts)))

    def test_default_pool_is_monomials_up_to_degree_two(self, cubic5):
        ring = cubic5.ring
        I = variables_ideal(ring, 2)
        report = tight_witness_scan(ring, I, monomial_form(3, (0, 0, 2)), q_list=(5,))
        # one row per witness; the first is 1, tested in degree 0 + 5 * 2
        assert len(report.verdicts) == 1 + 3 + 6
        assert report.verdicts[0][0].degree == 5 * 2

    def test_generator_as_witness_at_q_one(self, cubic7):
        ring = cubic7.ring
        I = variables_ideal(ring, 2)
        report = tight_witness_scan(
            ring, I, monomial_form(3, (0, 0, 2)), witnesses=(I.forms[0],), q_list=(1,)
        )
        # x * z^2 is in (x, y) regardless of anything else
        assert report.passing == (0,)

    def test_rejects_zero_witness(self, cubic5):
        I = variables_ideal(cubic5.ring, 2)
        with pytest.raises(PreconditionError):
            tight_witness_scan(
                cubic5.ring,
                I,
                monomial_form(3, (0, 0, 2)),
                witnesses=(Form.make(3, 2, {}),),
                q_list=(5,),
            )


def theorem_c_digest() -> str:
    """sha256 over seeded theorem-C reports: each record is the bound, draw
    count, basis size, inclusion degree, deficit, verdict and the last
    draw, or the refusal.  Hypersurfaces take d = 1, n = 2..6 and degree a
    in {1, 2, 3, 5, 8, 13}; poly-ring takes d = 1..3, n in {d+1, d+2, d+4}
    and a in {1, 2, 3, 5}; every case runs at seeds 1 and 7."""
    cases = [
        (name, p, 1, n, a)
        for name, p in (
            ("fermat-cubic", 32003),
            ("fermat-cubic", 5),
            ("fermat-cubic", 7),
            ("fermat-cubic-p2", 2),
            ("fermat-quartic", 32003),
            ("fermat-quartic", 3),
        )
        for n in range(2, 7)
        for a in (1, 2, 3, 5, 8, 13)
    ]
    cases += [
        ("poly-ring", 32003, d, n, a)
        for d in (1, 2, 3)
        for n in (d + 1, d + 2, d + 4)
        for a in (1, 2, 3, 5)
    ]
    digest = hashlib.sha256()
    for seed in (1, 7):
        for name, p, d, n, a in cases:
            fx = make_fixture(name, p=p, d=d)
            try:
                r = verify_theorem_c(fx.ring, DegreeType.constant(d, n, a), fx.a_invariant, seed)
                record = [r.bound, r.draws, r.basis_size, r.inclusion_degree, r.deficit, r.passed]
                record.append(write_form_system(r.system))
            except PreconditionError as exc:
                record = [type(exc).__name__, str(exc)]
            digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


class TestTheoremC:
    def test_polynomial_ring_reduces_to_first_inclusion(self):
        fx = make_fixture("poly-ring", d=2)
        dt = DegreeType(2, (2, 2, 2, 2))
        report = verify_theorem_c(fx.ring, dt, fx.a_invariant, seed=7)
        assert report.passed
        assert report.draws == 1
        assert report.bound == 3
        # on the polynomial ring the inclusion degree is exactly m0
        assert hilbert_table(report.system).first_zero == report.bound

    def test_fermat_cubic_three_quadrics(self):
        fx = make_fixture("fermat-cubic")
        report = verify_theorem_c(fx.ring, DegreeType(1, (2, 2, 2)), fx.a_invariant, seed=7)
        assert report.passed
        assert report.bound == 4
        assert (report.basis_size, report.inclusion_degree, report.deficit) == (12, 3, 0)

    def test_fermat_quartic_four_cubics(self):
        fx = make_fixture("fermat-quartic")
        report = verify_theorem_c(
            fx.ring, DegreeType(1, (3, 3, 3, 3)), fx.a_invariant, seed=7
        )
        assert report.passed
        assert report.bound == 6

    def test_parameter_case_strict_below_bound(self):
        # two generic quadrics on the cubic: inclusion holds at the bound 5
        # and fails at 4, hence also at m0 + d - 1 = 3
        fx = make_fixture("fermat-cubic")
        dt = DegreeType(1, (2, 2))
        report = verify_theorem_c(fx.ring, dt, fx.a_invariant, seed=7)
        assert report.passed
        assert report.bound == 5
        assert report.inclusion_degree == report.bound

    def test_retry_budget_on_impossible_bound(self):
        # a deliberately wrong a-invariant puts the bound below the true
        # inclusion degree; every draw fails and the budget is exhausted
        fx = make_fixture("fermat-cubic")
        report = verify_theorem_c(fx.ring, DegreeType(1, (2, 2)), -1, seed=7, max_redraws=2)
        assert not report.passed
        assert report.bound == 4
        assert report.draws == 2
        assert report.inclusion_degree is None
        assert report.deficit > 0

    @given(
        ring=st.sampled_from(
            [
                ("fermat-cubic", 5, 1),
                ("fermat-cubic", 32003, 1),
                ("fermat-cubic-p2", 2, 1),
                ("fermat-quartic", 3, 1),
                ("fermat-quartic", 32003, 1),
                ("poly-ring", 2, 1),
                ("poly-ring", 3, 2),
            ]
        ),
        degrees=st.lists(st.integers(1, 3), min_size=2, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @example(ring=("fermat-cubic-p2", 2, 1), degrees=[2, 2, 2], seed=1)
    def test_rank_scan_against_hilbert_function(self, ring, degrees, seed):
        # the independent route, on the same draw: dim (R/IR)_m as the count
        # of standard monomials less the rank of I's residual in R_m,
        # against the report read from one Hilbert table of J's and I's
        # forms.  The explicit example misses 3 of 12 basis monomials of
        # R_4 but only one dimension: its deficit is 1.
        name, p, d = ring
        assume(len(degrees) > d)
        fx = make_fixture(name, p=p, d=d)
        dt = DegreeType(d, tuple(sorted(degrees, reverse=True)))
        report = verify_theorem_c(fx.ring, dt, fx.a_invariant, seed, max_redraws=1)

        def deficit(m):
            width = len(ring_basis(fx.ring, m))
            return width - MembershipOracle(fx.ring, report.system, m)._eliminated[0]

        assert report.basis_size == len(ring_basis(fx.ring, report.bound))
        if report.passed:
            assert report.deficit == deficit(report.inclusion_degree) == 0
            if report.inclusion_degree > 0:
                assert deficit(report.inclusion_degree - 1) > 0
        else:
            assert report.inclusion_degree is None
            assert report.deficit == deficit(report.bound) > 0

    def test_no_normal_form_is_built(self, monkeypatch):
        # dim R_C is binomials and dim (R/IR)_m a Hilbert table in P, so no
        # normal form is needed, on a passing draw or a failing one
        def refuse(*args, **kwargs):
            raise AssertionError("a normal form was computed")

        monkeypatch.setattr(GradedQuotient, "_normal_form", refuse)
        cubic, quartic = make_fixture("fermat-cubic"), make_fixture("fermat-quartic")
        report = verify_theorem_c(cubic.ring, DegreeType(1, (2, 2, 2)), cubic.a_invariant, seed=7)
        assert (report.basis_size, report.inclusion_degree, report.deficit) == (12, 3, 0)
        report = verify_theorem_c(
            quartic.ring, DegreeType(1, (3, 3, 3, 3)), quartic.a_invariant, seed=7
        )
        assert report.passed and report.bound == 6
        report = verify_theorem_c(cubic.ring, DegreeType(1, (2, 2)), -1, seed=7, max_redraws=2)
        assert not report.passed and report.deficit > 0

    def test_reports_are_bit_identical(self):
        # computed by the rank-per-degree route this check replaced: J's
        # normal form, one residual rank at C, and a step down from C
        assert theorem_c_digest() == (
            "f6c57aad13ffd688c1e343b1d2e53cb075614e37cd6e840ee04a587c80d9f33b"
        )

    def test_dimension_mismatch(self):
        fx = make_fixture("poly-ring", d=2)
        with pytest.raises(PreconditionError, match="dimension"):
            verify_theorem_c(fx.ring, DegreeType(1, (2, 2)), fx.a_invariant, seed=7)

    def test_bad_budget(self):
        fx = make_fixture("fermat-cubic")
        with pytest.raises(PreconditionError):
            verify_theorem_c(fx.ring, DegreeType(1, (2, 2)), 0, seed=7, max_redraws=0)


class TestTheoremB:
    def test_char_two_parameter_ideal(self, cubic2):
        ring = cubic2.ring
        I = variables_ideal(ring, 2)
        report = verify_theorem_b(ring, DegreeType(1, (1, 1)), q_max=16, seed=7, ideal=I)
        assert report.bound == 3
        assert report.all_resolved
        assert all(q is not None and q <= 4 for _, q in report.elements)
        assert len(report.elements) == 9
        # x^2 y is already in (x, y): resolved with no Frobenius power
        assert dict(report.elements)[(2, 1, 0)] == 1
        assert "not" in report.note and "counterexample" in report.note

    def test_char_five_parameter_ideal(self, cubic5):
        ring = cubic5.ring
        I = variables_ideal(ring, 2)
        report = verify_theorem_b(ring, DegreeType(1, (1, 1)), seed=7, ideal=I)
        assert report.all_resolved
        assert report.q_list[0] == 1
        # q = 125 would stack 133003 x 70876 cells, over the size cap
        assert report.q_list == (1, 5, 25)

    def test_random_draw_deterministic(self, cubic7):
        dt = DegreeType(1, (2, 2))
        a = verify_theorem_b(cubic7.ring, dt, q_max=49, seed=11)
        b = verify_theorem_b(cubic7.ring, dt, q_max=49, seed=11)
        assert a == b
        assert a.ideal.degrees == (2, 2)
        # q = 49 would stack 51698 x 30381 cells, over the size cap
        assert a.q_list == (1, 7)

    def test_explicit_ideal_must_match_degree_type(self, cubic2):
        I = variables_ideal(cubic2.ring, 2)
        with pytest.raises(PreconditionError, match="degree type"):
            verify_theorem_b(cubic2.ring, DegreeType(1, (2, 2)), ideal=I)

    def test_q_max_validation(self, cubic2):
        with pytest.raises(PreconditionError):
            verify_theorem_b(cubic2.ring, DegreeType(1, (1, 1)), q_max=0)


def _direct_ranks(ring, ideal, vector, m):
    # ranks from J's product rows (not the cached echelon) stacked with I's
    # product rows, without and with the tested vector appended
    p = ring.field.p
    base = np.vstack([product_row_matrix(ring.modulus, m), product_row_matrix(ideal, m)])
    return fp_rank(base, p), fp_rank(np.vstack([base, vector[None, :]]), p)


def _vector(form, p):
    # coefficient vector over the canonical degree basis
    index = {mono: i for i, mono in enumerate(monomials_of_degree(form.v, form.degree))}
    vec = np.zeros(len(index), dtype=np.int64)
    for exps, coeff in form.terms:
        vec[index[exps]] = coeff % p
    return vec


def _frobenius_power(f, q):
    return Form.make(f.v, f.degree * q, {tuple(e * q for e in exps): c for exps, c in f.terms})


def _assert_true_ranks(ring, ideal, form, verdict):
    m = form.degree
    without, with_ = _direct_ranks(ring, ideal, _vector(form, ring.field.p), m)
    assert verdict.degree == m
    assert (verdict.rank_without, verdict.rank_with) == (without, with_)
    assert verdict.contained == (without == with_)


_DIFFERENTIAL_RINGS = (
    ("fermat-cubic", 5, None),
    ("fermat-cubic", 7, None),
    ("fermat-cubic-p2", None, None),
    ("poly-ring", 3, 2),
    ("fermat-cubic", 2**31 - 1, None),
)


class TestAgainstDirectRanks:
    """Every reported rank is a true rank of (I + J)_m, computed afresh."""

    @pytest.mark.parametrize("name,p,d", _DIFFERENTIAL_RINGS)
    def test_ideal_membership(self, name, p, d):
        ring = make_fixture(name, p=p, d=d).ring
        rng = SplitMix64(21)
        ideals = (
            variables_ideal(ring, 1),
            variables_ideal(ring, 2),
            random_form_system(ring.v, (2,), ring.field, rng),
            random_form_system(ring.v, (2, 2), ring.field, rng),
        )
        forms = [monomial_form(ring.v, (0,) * (ring.v - 1) + (2,))]
        forms += [random_form(ring.v, m, ring.field, rng) for m in (2, 3, 4)]
        for ideal in ideals:
            # a member of degree 12, where one entry of a normal form sums
            # several large multiples of J's reduced rows
            g = ideal.forms[0]
            h = random_form(ring.v, 12 - g.degree, ring.field, rng)
            for f in forms + [form_product(g, h, ring.field.p)]:
                verdict = MembershipOracle(ring, ideal, f.degree).verdicts([f])[0]
                _assert_true_ranks(ring, ideal, f, verdict)

    @pytest.mark.parametrize("name,p,d", _DIFFERENTIAL_RINGS)
    def test_witness_scan(self, name, p, d):
        ring = make_fixture(name, p=p, d=d).ring
        prime = ring.field.p
        ideal = variables_ideal(ring, 2)
        f = monomial_form(ring.v, (0,) * (ring.v - 1) + (2,))
        witnesses = (
            monomial_form(ring.v, (0,) * ring.v),
            monomial_form(ring.v, (0,) * (ring.v - 1) + (1,)),
            monomial_form(ring.v, (1,) + (0,) * (ring.v - 2) + (1,)),
        )
        # at 2^31 - 1 the test for q = p would be far over the size cap
        q_list = (1, 2, 4) if prime == 2 else (1, prime) if prime < 2**16 else (1,)
        report = tight_witness_scan(ring, ideal, f, witnesses=witnesses, q_list=q_list)
        for u, row in zip(witnesses, report.verdicts):
            for q, verdict in zip(q_list, row):
                product = form_product(u, _frobenius_power(f, q), prime)
                _assert_true_ranks(ring, frobenius_power_ideal(ideal, q), product, verdict)

    # on the quartic (a-invariant 1) z^3 needs q = 5, so the q > 1 path runs
    @pytest.mark.parametrize("name,p,d", _DIFFERENTIAL_RINGS + (("fermat-quartic", 5, None),))
    def test_theorem_b(self, name, p, d):
        ring = make_fixture(name, p=p, d=d).ring
        k = ring.krull_dimension
        report = verify_theorem_b(
            ring, DegreeType(k - 1, (1,) * k), q_max=ring.field.p, ideal=variables_ideal(ring, k)
        )
        for exps, resolved in report.elements:
            assert resolved is not None
            # resolved is the first q whose rank test passes
            for q in report.q_list[: report.q_list.index(resolved) + 1]:
                scaled = tuple(e * q for e in exps)
                power = Form.make(ring.v, sum(scaled), {scaled: 1})
                ideal_q = frobenius_power_ideal(report.ideal, q)
                vector = _vector(power, ring.field.p)
                without, with_ = _direct_ranks(ring, ideal_q, vector, power.degree)
                assert (without == with_) == (q == resolved)
        if name == "fermat-quartic":
            assert dict(report.elements)[(0, 0, 3)] == 5


def _dense_relation_ring(p):
    # one dense cubic, every degree-3 monomial with a nonzero coefficient,
    # led by c * x^3 with c != 1, so that division scales by c^-1
    rng = SplitMix64(5)
    coeffs = {e: 1 + rng.next_below(p - 1) for e in monomials_of_degree(3, 3)}
    coeffs[(3, 0, 0)] = 2 + rng.next_below(p - 2)
    relation = Form.make(3, 3, coeffs)
    return GradedQuotient(FormSystem(field=PrimeField(p), v=3, forms=(relation,)))


def _divides(lead, exps):
    return all(e >= a for e, a in zip(exps, lead))


def _product_mod(a, b, p):
    # a @ b mod p, exact in int64 for entries in [0, p) with p < 2^31 and
    # inner size below 2^15: b is split in 16-bit halves, so that every
    # product is below 2^47
    return ((a @ (b >> 16) % p) * 2**16 + a @ (b & 0xFFFF)) % p


def _residual_mismatches(ring):
    # rows of MembershipOracle's residual in R_m that differ from NF(b * g),
    # read off the reduction of b * g's coefficients modulo J_m's echelon,
    # whose pivots are the non-standard monomials
    p, m = ring.field.p, 7
    ideal = random_form_system(3, (2, 3), ring.field, SplitMix64(3))
    ref = fp_echelon(product_row_matrix(ring.modulus, m), p)
    standard = [mono[0] < 3 for mono in monomials_of_degree(3, m)]
    expected = []
    for g in ideal.forms:
        for b in monomials_of_degree(3, m - g.degree):
            if b[0] < 3:
                reduced = ref.reduce(_vector(form_product(monomial_form(3, b), g, p), p))
                expected.append(reduced[standard])
    residual = MembershipOracle(ring, ideal, m)._residual()
    return int((residual != np.array(expected)).any(axis=1).sum())


class TestRingContract:
    """J is zero or one relation led by c x_0^k, so R_m has the standard
    monomials, of x_0-degree < k, as a basis, and normal forms are Horner
    in x_0."""

    def test_second_relation_refused(self):
        # coprime leading monomials x^2 and y^3 do not make a second
        # relation admissible
        field = PrimeField(7)
        forms = (monomial_form(3, (2, 0, 0)), monomial_form(3, (0, 3, 0)))
        with pytest.raises(PreconditionError, match="at most one relation, got 2"):
            GradedQuotient(FormSystem(field=field, v=3, forms=forms))

    def test_zero_relation_refused(self):
        field = PrimeField(7)
        zero = FormSystem(field=field, v=3, forms=(Form.make(3, 2, {}),))
        with pytest.raises(PreconditionError, match="must be nonzero"):
            GradedQuotient(zero)

    @pytest.mark.parametrize("name", ["fermat-cubic", "fermat-quartic"])
    @pytest.mark.parametrize("p", [5, 7, 32003])
    def test_basis_is_the_undivided_monomials(self, name, p):
        ring = make_fixture(name, p=p).ring
        leads = [f.terms[0][0] for f in ring.modulus.forms]
        for m in (0, 2, 3, 4, 10, 30):
            expected = [
                mono
                for mono in monomials_of_degree(3, m)
                if not any(_divides(lead, mono) for lead in leads)
            ]
            assert ring_basis(ring, m) == expected

    @pytest.mark.parametrize(
        "ring",
        [
            make_fixture("fermat-cubic", p=5).ring,
            make_fixture("fermat-quartic", p=7).ring,
            make_fixture("fermat-cubic", p=2**31 - 1).ring,
            _dense_relation_ring(7),
            _dense_relation_ring(2**31 - 1),
        ],
    )
    def test_normal_form_against_the_echelon(self, ring):
        # NF of every degree-m monomial, stacked, against J_m's echelon from
        # elimination: NF is the identity on the standard monomials and
        # kills the echelon's rows, whose rank is dim P_m - dim R_m with
        # pivots on the non-standard monomials; so NF's kernel is J_m.
        # m = 31 rewrites x_0^k in 10 passes on the cubic, 7 on the quartic
        p, v = ring.field.p, ring.v
        k = ring.modulus.forms[0].degree
        for m in (*range(13), 20, 31):
            monomials = monomials_of_degree(v, m)
            standard = np.array([mono[0] < k for mono in monomials])
            nf = np.array([ring._normal_form(monomial_form(v, mono)) for mono in monomials])
            assert ((0 <= nf) & (nf < p)).all() and not nf[:, ~standard].any()
            assert (nf[standard] == np.eye(len(monomials), dtype=np.int64)[standard]).all()
            ref = fp_echelon(product_row_matrix(ring.modulus, m), p)
            assert ref.rank == len(monomials) - ring_dimension_at(ring, m)
            assert ref.pivot_columns == tuple(np.flatnonzero(~standard).tolist())
            assert not _product_mod(ref.rows, nf, p).any()

    @pytest.mark.parametrize(
        "name,p,k",
        [("fermat-cubic", 7, 3), ("fermat-cubic-p2", 2, 3), ("fermat-quartic", 32003, 4)],
    )
    def test_diagonal_closed_form(self, name, p, k):
        # x^k = -(y^k + z^k), so NF(x^(kq+r) y^b z^c) = (-1)^q sum_j C(q, j)
        # x^r y^(b+kj) z^(c+k(q-j)), whose monomials are distinct and standard
        ring = make_fixture(name, p=p).ring
        for m in (k + 2, 20, 25):
            index = {mono: i for i, mono in enumerate(monomials_of_degree(3, m))}
            for a, b, c in index:
                q, r = divmod(a, k)
                expected = np.zeros(len(index), dtype=np.int64)
                for j in range(q + 1):
                    term = (r, b + k * j, c + k * (q - j))
                    expected[index[term]] = (-1) ** q * math.comb(q, j) % p
                assert (ring._normal_form(monomial_form(3, (a, b, c))) == expected).all()

    @pytest.mark.parametrize("p", [7, 2**31 - 1])
    def test_residual_rows_against_the_echelon(self, p):
        ring = _dense_relation_ring(p)
        assert _residual_mismatches(ring) == 0

    def test_mutations_are_caught(self, monkeypatch):
        # the dense cubic's leading coefficient is not 1, and its normal
        # forms at m = 7 step by x_0 across x_0-degree k - 1
        ring = _dense_relation_ring(7)
        tail = np.array([c for _, c in ring.modulus.forms[0].terms[1:]], dtype=np.int64)
        with monkeypatch.context() as patch:
            patch.setattr(ring, "_scaled", tail)  # the -c^-1 scale dropped
            assert _residual_mismatches(ring) > 0
        times_x0 = GradedQuotient._times_x0

        def shift_only(self, h, n):
            # x_0 * s without the rewrite at x_0-degree k - 1
            with pytest.MonkeyPatch.context() as inner:
                inner.setattr(GradedQuotient, "_reduce", lambda self, h, n: h)
                return times_x0(self, h, n)

        with monkeypatch.context() as patch:
            patch.setattr(GradedQuotient, "_times_x0", shift_only)
            assert _residual_mismatches(ring) > 0
        assert _residual_mismatches(ring) == 0

    @pytest.mark.parametrize(
        "relation", [{(0, 3, 0): 1, (0, 0, 3): 1}, {(2, 1, 0): 1, (0, 0, 3): 1}]
    )
    def test_relation_without_x0_power_refused(self, relation):
        # y^3 + z^3 has no x_0 at all; x^2 y + z^3 is led by x^2 y
        modulus = FormSystem(field=PrimeField(7), v=3, forms=(Form.make(3, 3, relation),))
        with pytest.raises(PreconditionError, match=r"led by a term c \* x_0\^3"):
            GradedQuotient(modulus)

    @pytest.mark.parametrize("p", [7, 2**31 - 1])
    def test_dense_relation_against_direct_ranks(self, p):
        ring = _dense_relation_ring(p)
        assert ring.modulus.forms[0].terms[0][1] != 1
        assert ring.krull_dimension == 2
        rng = SplitMix64(31)
        ideals = (
            variables_ideal(ring, 1),
            random_form_system(3, (2,), ring.field, rng),
            random_form_system(3, (1, 3), ring.field, rng),
        )
        forms = [monomial_form(3, (0, 0, m)) for m in (2, 5)]
        forms += [random_form(3, m, ring.field, rng) for m in (2, 3, 4, 6)]
        for ideal in ideals:
            for f in forms:
                verdict = MembershipOracle(ring, ideal, f.degree).verdicts([f])[0]
                _assert_true_ranks(ring, ideal, f, verdict)


_RESIDUAL_RINGS = {
    "fermat-cubic-5": make_fixture("fermat-cubic", p=5).ring,
    "fermat-cubic-7": make_fixture("fermat-cubic", p=7).ring,
    "fermat-cubic-p2": make_fixture("fermat-cubic-p2").ring,
    "fermat-quartic-3": make_fixture("fermat-quartic", p=3).ring,
    # no relations: every shift is standard
    "poly-ring-2": make_fixture("poly-ring", p=3, d=2).ring,
    "dense-cubic-7": _dense_relation_ring(7),
}


class TestResidual:
    """The residual holds NF(b * g) for the standard monomials b of degree
    m - deg g only, and still spans NF of (I^[q])_m."""

    @given(
        name=st.sampled_from(sorted(_RESIDUAL_RINGS)),
        degrees=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        frobenius=st.booleans(),
        below=st.integers(-3, 2),
        seed=st.integers(0, 2**16),
    )
    # the fifth power of the cubic generator, of degree 15, lies above m = 13
    @example(name="fermat-cubic-5", degrees=[1, 1, 3], frobenius=True, below=2, seed=0)
    def test_standard_rows_span_the_ideal(self, name, degrees, frobenius, below, seed):
        ring = _RESIDUAL_RINGS[name]
        p = ring.field.p
        q = p if frobenius else 1
        ideal = random_form_system(ring.v, tuple(degrees), ring.field, SplitMix64(seed))
        m = max(0, q * max(degrees) - below)
        seen = []
        residual_of = MembershipOracle._residual

        def record(oracle):
            seen.append(residual_of(oracle))
            return seen[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MembershipOracle, "_residual", record)
            rank, _, _ = MembershipOracle(ring, ideal, m, q)._eliminated
        (residual,) = seen
        rows = sum(ring_dimension_at(ring, m - q * a) for a in degrees if q * a <= m)
        assert residual.shape == (rows, ring_dimension_at(ring, m))
        ideal_q = frobenius_power_ideal(ideal, q)
        zero = np.zeros(len(monomials_of_degree(ring.v, m)), dtype=np.int64)
        stacked, _ = _direct_ranks(ring, ideal_q, zero, m)
        # rank J_m = dim P_m - dim R_m
        j_rank = len(monomials_of_degree(ring.v, m)) - len(ring_basis(ring, m))
        assert j_rank + rank == stacked


def membership_digest() -> str:
    """sha256 over seeded membership tests.  Each ring takes random ideals
    of degrees 1-3 drawn at seeds 1 and 7, and q in {1, p}; each test in
    degree m records the residual that MembershipOracle eliminates and the
    verdicts on sampled monomials, random forms and a member of the ideal,
    or the refusal.  verify_theorem_b adds its elements for two degree
    types per ring and seed."""
    rings = [
        make_fixture("fermat-cubic", p=5).ring,
        make_fixture("fermat-cubic", p=7).ring,
        make_fixture("fermat-cubic", p=32003).ring,
        make_fixture("fermat-cubic-p2").ring,
        make_fixture("fermat-quartic", p=3).ring,
        _dense_relation_ring(7),
        _dense_relation_ring(2**31 - 1),
        make_fixture("poly-ring", p=5, d=1).ring,
        make_fixture("poly-ring", p=3, d=2).ring,
    ]
    digest = hashlib.sha256()
    for ring in rings:
        p, v = ring.field.p, ring.v
        for seed in (1, 7):
            rng = SplitMix64(seed)
            for degrees in ((1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)):
                ideal = random_form_system(v, degrees, ring.field, rng)
                tops = (degrees[0], degrees[-1])
                for q, m in [(q, q * a + s) for q in (1, p) for a in tops for s in (0, 2)]:
                    record = [p, seed, degrees, q, m]
                    try:
                        oracle = MembershipOracle(ring, ideal, m, q)
                    except PreconditionError as exc:
                        digest.update(json.dumps(record + [str(exc)]).encode() + b"\n")
                        continue
                    residual = oracle._residual()
                    record += [residual.shape, hashlib.sha256(residual.tobytes()).hexdigest()]
                    monomials = monomials_of_degree(v, m)
                    step = max(1, len(monomials) // 24)
                    forms = [monomial_form(v, e) for e in monomials[::step]]
                    forms += [random_form(v, m, ring.field, rng) for _ in range(2)]
                    g = oracle.ideal.forms[-1]
                    if g.degree <= m:
                        h = random_form(v, m - g.degree, ring.field, rng) if g.degree < m else None
                        forms.append(form_product(g, h, p) if h else g)
                    for verdict in oracle.verdicts(forms):
                        record.append([verdict.contained, verdict.rank_without, verdict.rank_with])
                    digest.update(json.dumps(record).encode() + b"\n")
            k = ring.krull_dimension
            for dt in (DegreeType(k - 1, (1,) * k), DegreeType(k - 1, (2,) * (k - 1) + (1,))):
                try:
                    r = verify_theorem_b(ring, dt, q_max=p, seed=seed)
                    record = [r.bound, r.q_list, r.elements, r.all_resolved]
                except PreconditionError as exc:
                    record = [str(exc)]
                digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


def test_membership_is_bit_identical():
    # computed by J's normal-form table, before normal forms were Horner in x_0
    assert membership_digest() == (
        "4bc0cfce2f3275d853b505c595244de295d0ad2268cc07e67cf4ec2d58738c13"
    )


def _unit_row_ideals(ring):
    # one ideal for each kind of residual, with a check that its residual
    # is of that kind
    x, y, z = (monomial_form(3, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    x_plus_y = Form.make(3, 1, {(1, 0, 0): 1, (0, 1, 0): 1})

    def ideal(*forms):
        return FormSystem(field=ring.field, v=3, forms=forms)

    def no_unit_rows(residual):
        return len(residual) and (np.count_nonzero(residual, axis=1) > 1).all()

    def only_unit_rows(residual):
        return len(residual) and (np.count_nonzero(residual, axis=1) == 1).all()

    def a_column_twice(residual):
        # two unit rows on one column, with different scalars
        unit = residual[np.count_nonzero(residual, axis=1) == 1]
        rows, cols = unit.nonzero()
        scalars = {}
        for c, s in zip(cols, unit[rows, cols]):
            scalars.setdefault(int(c), set()).add(int(s))
        return any(len(found) > 1 for found in scalars.values())

    def a_vanishing_row(residual):
        # a non-unit row that is zero off the unit rows' columns
        count = np.count_nonzero(residual, axis=1)
        covered = residual[count == 1].any(axis=0)
        return ((count > 1) & ~residual[:, ~covered].any(axis=1)).any()

    return (
        (random_form_system(3, (2, 2), ring.field, SplitMix64(41)), no_unit_rows),
        (ideal(y, z), only_unit_rows),
        (ideal(y, monomial_form(3, (0, 1, 0), 2)), a_column_twice),
        (ideal(x, y, x_plus_y), a_vanishing_row),
    )


class TestUnitRows:
    """The oracle peels the unit rows, those with one nonzero entry, off
    the residual and eliminates only the rest on the columns that they do
    not cover.  Its ranks and verdicts are still those of the stacked
    matrix, on each kind of residual."""

    @pytest.mark.parametrize("kind", range(4))
    @pytest.mark.parametrize("p", [7, 2**31 - 1])
    def test_against_direct_ranks(self, kind, p):
        ring = make_fixture("fermat-cubic", p=p).ring
        ideal, is_kind = _unit_row_ideals(ring)[kind]
        rng = SplitMix64(43)
        for m in (3, 5, 7):
            assert is_kind(MembershipOracle(ring, ideal, m)._residual())
            g = ideal.forms[-1]
            member = form_product(g, random_form(3, m - g.degree, ring.field, rng), p)
            forms = [monomial_form(3, e) for e in monomials_of_degree(3, m)]
            forms += [random_form(3, m, ring.field, rng), member]
            verdicts = MembershipOracle(ring, ideal, m).verdicts(forms)
            for f, verdict in zip(forms, verdicts):
                _assert_true_ranks(ring, ideal, f, verdict)
            assert verdicts[-1].contained


class TestSizeCap:
    """Every membership test is sized from binomials and refused over the
    cap before any matrix is built."""

    @pytest.fixture
    def no_matrices(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(quotient, "product_support", refuse)
        monkeypatch.setattr(quotient, "fp_echelon", refuse)

    def test_q_list_for_theorem_b(self, cubic5, no_matrices):
        # (x, y) at bound 2 with q_max = 5^4: at q = 125 the degree-250 test
        # would stack 30876 + 2 * 8001 rows over 31626 columns
        ideal = variables_ideal(cubic5.ring, 2)
        assert quotient._q_powers(cubic5.ring, ideal.degrees, 5**4, 2) == (5, 25)

    def test_scan_refused_before_allocating(self, cubic5, no_matrices):
        # the first test at q = 125 is in degree 250: 30876 + 2 * 8001 rows
        # over C(252, 2) = 31626 columns
        ring = cubic5.ring
        with pytest.raises(PreconditionError, match=r"degree 250 needs a 46878 x 31626 matrix"):
            tight_witness_scan(
                ring, variables_ideal(ring, 2), monomial_form(3, (0, 0, 2)), q_list=(125,)
            )

    def test_membership_refused_before_allocating(self, cubic5, no_matrices):
        # f^25 for a quintic f lies in degree 125
        with pytest.raises(PreconditionError, match=r"17928 x 8001 matrix"):
            MembershipOracle(cubic5.ring, variables_ideal(cubic5.ring, 2), 125, 25)

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a form was drawn")

        monkeypatch.setattr(quotient, "random_form_system", refuse)

    @staticmethod
    def _refusal(v, degrees, m, what="membership test"):
        # the stacked shape over P = F_p[x_0..x_{v-1}] with no relations;
        # theorem C builds its transpose, the Macaulay matrix
        rows = sum(math.comb(m - a + v - 1, v - 1) for a in degrees)
        cols = math.comb(m + v - 1, v - 1)
        if what == "Macaulay matrix":
            rows, cols = cols, rows
        return (
            f"{what} in degree {m} needs a {rows} x {cols} matrix "
            f"({rows * cols} cells), over the cap of {2**26}"
        )

    def test_theorem_c_refused_before_drawing(self, no_draws):
        # 151 quadrics in 151 variables: C = m0 + d + 1 + a = 152 + 151 - 151
        dt = DegreeType.constant(150, 151, 2)
        ring = make_fixture("poly-ring", d=150).ring
        with pytest.raises(PreconditionError) as refused:
            verify_theorem_c(ring, dt, a_invariant=-151, seed=7)
        assert str(refused.value) == self._refusal(151, dt.degrees, 152, "Macaulay matrix")

    def test_theorem_b_refused_before_drawing(self, no_draws):
        # 101 quadrics in 101 variables: B = m0 + d + 1 = 102 + 101
        dt = DegreeType.constant(100, 101, 2)
        ring = make_fixture("poly-ring", d=100).ring
        with pytest.raises(PreconditionError) as refused:
            verify_theorem_b(ring, dt, q_max=1)
        assert str(refused.value) == self._refusal(101, dt.degrees, 203)

    def test_ring_eliminations_refused_before_allocating(self, cubic5, no_matrices):
        # J's product rows at m = 3000: C(2999, 2) rows over C(3002, 2) columns
        shape = r"relation echelon in degree 3000 needs a 4495501 x 4504501 matrix"
        for call in (ring_basis, quotient.GradedQuotient.relation_echelon):
            with pytest.raises(PreconditionError, match=shape):
                call(cubic5.ring, 3000)
        # the dimension builds nothing: C(3002, 2) - C(2999, 2)
        assert ring_dimension_at(cubic5.ring, 3000) == 9000
