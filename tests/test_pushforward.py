import ast
import inspect
import random
import re
from fractions import Fraction
from math import factorial, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from plucker.chow import (
    BundleModel,
    FlagRing,
    GradedElement,
    formal_segre,
    point,
    projective_space,
)
from plucker import pushforward
from plucker.exact import LaurentPoly, det, exact_str, exponent_vectors, inv_factorial, vandermonde
from plucker.pushforward import (
    DISPLAYED,
    PROOF,
    ch_pushforward,
    ch_pushforward_closed,
    ch_pushforward_constterm,
    ch_pushforward_oracle,
    ch_pushforward_schur,
    closed_term_coefficient,
    factorial_det_check,
    monomial_pushforward_ct,
    monomial_pushforward_det,
    phi,
    phi_eval_monomial,
)
from plucker.symfunc import segre_product


@pytest.fixture
def fm3():
    return formal_segre(3)


class TestPhi:
    def test_single_variable_power(self):
        for k in range(6):
            assert phi(LaurentPoly.monomial(1, (k,)), 1) == Fraction(
                1, factorial(k)
            )

    def test_two_variable_example(self):
        assert phi(LaurentPoly.monomial(2, (1, 0)), 2) == Fraction(-1, 2)

    def test_equal_exponents_vanish(self):
        for k in range(4):
            assert phi(LaurentPoly.monomial(2, (k, k)), 2) == 0

    def test_matches_closed_form_small_grid(self):
        for d in (1, 2, 3):
            for k in exponent_vectors(d, max_entry=5):
                assert phi(LaurentPoly.monomial(d, k), d) == phi_eval_monomial(k), k

    def test_closed_form_values(self):
        assert phi_eval_monomial((3,)) == Fraction(1, 6)
        assert phi_eval_monomial((1, 0)) == Fraction(-1, 2)
        assert phi_eval_monomial((2, 2, 0)) == 0

    def test_negative_exponent_rejected_by_closed_form(self):
        with pytest.raises(ValueError):
            phi_eval_monomial((-1, 0))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry(self, data):
        d = data.draw(st.integers(min_value=2, max_value=3))
        terms = {}
        for _ in range(data.draw(st.integers(1, 4))):
            e = tuple(data.draw(st.integers(-3, 4)) for _ in range(d))
            terms[e] = Fraction(data.draw(st.integers(-5, 5)))
        f = LaurentPoly(d, terms)
        perm = data.draw(st.permutations(list(range(d))))
        from plucker.exact import perm_sign

        assert phi(f.permute_variables(list(perm)), d) == perm_sign(perm) * phi(f, d)


def _phi_per_term(f, nvars):
    """phi as its definition reads: each monomial of Delta * f weighted by
    prod 1/m_i! on its own, with 1/m! = 0 for negative m."""
    total = 0
    for exps, coeff in (vandermonde(nvars) * f).terms.items():
        weight = Fraction(1)
        for e in exps:
            weight *= inv_factorial(e)
        total = total + coeff * weight
    return total


class TestPhiAgainstPerTermReference:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_per_monomial_determinants_match(self, data):
        # exponents down to -3 give all-zero rows (e_i + d - 1 < 0) for d <= 3
        d = data.draw(st.integers(1, 5))
        kind = data.draw(st.sampled_from(["int", "fraction", "graded"]))
        base = formal_segre(2)
        terms = {}
        for _ in range(data.draw(st.integers(0, 5))):
            exps = tuple(data.draw(st.integers(-3, 6)) for _ in range(d))
            coeff = data.draw(st.integers(-6, 6))
            if kind == "fraction":
                coeff = Fraction(coeff, data.draw(st.integers(1, 7)))
            elif kind == "graded":
                coeff = base.scalar(coeff) + base.segre_generator(
                    data.draw(st.integers(1, 2))
                ) * Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
            terms[exps] = coeff
        f = LaurentPoly(d, terms)
        got = phi(f, d)
        assert got == _phi_per_term(f, d)
        if isinstance(got, GradedElement):
            assert all(type(c) in (int, Fraction) for c in got.terms.values())
        else:
            assert type(got) in (int, Fraction)

    def test_int_input_gives_one_fraction(self):
        f = LaurentPoly(2, {(3, 0): 4, (1, 2): -5, (-1, 4): 7, (0, 0): 2})
        got = phi(f, 2)
        assert type(got) is Fraction
        assert got == _phi_per_term(f, 2)


class TestPhiRowTable:
    """phi reads its falling-factorial rows from a cache and sums int and
    Fraction coefficients over one common denominator."""

    def test_repeated_call_leaves_the_cached_rows_alone(self):
        f = LaurentPoly.monomial(3, (4, 1, 0))
        first = phi(f, 3)
        rows = [pushforward._falling_row(e + 2, 3) for e in (4, 1, 0)]
        saved = [tuple(row) for row in rows]
        assert rows[0] == (1, 6, 30)
        assert phi(f, 3) == first == phi_eval_monomial((4, 1, 0))
        again = [pushforward._falling_row(e + 2, 3) for e in (4, 1, 0)]
        assert all(new is old for new, old in zip(again, rows))
        assert again == saved and all(type(row) is tuple for row in again)

    def test_sum_of_one_term_values(self):
        base = formal_segre(2)
        f = LaurentPoly(2, {
            (3, 0): 4,
            (1, 2): Fraction(-5, 6),
            (2, 0): base.scalar(2) + base.segre_generator(1) * Fraction(1, 3),
            (0, 1): Fraction(7, 4),
            (5, 1): -3,
            (-1, 4): 9,
        })
        total = 0
        for exps, coeff in f.terms.items():
            total = phi(LaurentPoly(2, {exps: coeff}), 2) + total
        assert phi(f, 2) == total
        assert isinstance(phi(f, 2), GradedElement)


def _int_det_before(rows):
    """The Bareiss loop phi used before its pivot row was bound once."""
    n, sign, prev = len(rows), 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot, pivot_row = rows[k][k], rows[k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * rows[-1][-1]


def _phi_before(f, nvars):
    """phi as it read before every coefficient shared one lcm: int and
    Fraction terms summed over one denominator, and each base-ring
    coefficient added as coeff * Fraction(det, prod a_i!) on its own."""
    total = Fraction(0)
    num_sum, den_sum = 0, 1
    for exps, coeff in f.terms.items():
        tops = [e + nvars - 1 for e in exps]
        if min(tops) >= 0:
            num = _int_det_before([list(pushforward._falling_row(a, nvars)) for a in tops])
            if not num:
                continue
            den = prod(map(factorial, tops))
            if isinstance(coeff, (int, Fraction)):
                num, den = num * coeff.numerator, den * coeff.denominator
                common = lcm(den_sum, den)
                num_sum = num_sum * (common // den_sum) + num * (common // den)
                den_sum = common
            else:
                total = total + coeff * Fraction(num, den)
    return total + Fraction(num_sum, den_sum) if num_sum else total


def _rational_segre_bundle():
    base = projective_space(3)
    h = base.hyperplane()
    return BundleModel.from_segre(
        base, 3, [base.one(), h * Fraction(1, 2), h ** 2 * Fraction(-2, 3), h ** 3 * Fraction(5, 7)])


# bundles whose Segre classes give the base-ring coefficients
COEFFICIENT_BUNDLES = {
    "formal": lambda: BundleModel.formal(formal_segre(3), 3),
    "split": lambda: BundleModel.from_chern_roots(projective_space(3), [2, -1, 1]),
    "rational-segre": _rational_segre_bundle,
}


class TestPhiAgainstBefore:
    """phi against the version that summed base-ring coefficients one
    term at a time: the same value and the same result type."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_value_and_type(self, data):
        d = data.draw(st.integers(1, 4))
        bundle = COEFFICIENT_BUNDLES[data.draw(st.sampled_from(sorted(COEFFICIENT_BUNDLES)))]()
        kinds = data.draw(st.sampled_from([["int"], ["fraction"], ["graded"],
                                           ["int", "fraction", "graded"]]))
        terms = {}
        for _ in range(data.draw(st.integers(0, 6))):
            exps = tuple(data.draw(st.integers(-3, 6)) for _ in range(d))
            kind = data.draw(st.sampled_from(kinds))
            coeff = data.draw(st.integers(-6, 6))
            if kind == "fraction":
                coeff = Fraction(coeff, data.draw(st.integers(1, 9)))
            elif kind == "graded":
                coeff = bundle.base.scalar(Fraction(coeff, data.draw(st.integers(1, 5))))
                for _ in range(data.draw(st.integers(1, 3))):
                    m = data.draw(st.integers(1, bundle.base.n))
                    coeff = coeff + bundle.segre_class(m) * Fraction(
                        data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 6)))
            terms[exps] = coeff
        f = LaurentPoly(d, terms)
        got, want = phi(f, d), _phi_before(f, d)
        assert got == want
        assert isinstance(got, GradedElement) == isinstance(want, GradedElement)
        if not isinstance(got, GradedElement):
            assert type(got) is Fraction

    def test_constterm_segre_table(self):
        for bundle in (factory() for factory in COEFFICIENT_BUNDLES.values()):
            for d in (1, 2, 3):
                f = segre_product(bundle, [bundle.rank - d - (d - 1 - i) for i in range(d)])
                got = phi(f, d)
                assert type(got) is GradedElement and got == _phi_before(f, d)

    def test_zero_vandermonde_gives_fraction_zero(self):
        for k in [(0, 0), (3, 3), (2, 2, 0), (5, 1, 5), (4, 4, 4, 4), (1, 0, 2, 1)]:
            value = phi_eval_monomial(k)
            assert type(value) is Fraction and value == 0, k
            assert phi(LaurentPoly.monomial(len(k), k), len(k)) == value

    def test_phi_reads_no_closed_form(self, monkeypatch):
        ks = [(0,), (4, 1), (2, 2), (5, 3, 0), (1, 6, 2, 0)]
        want = [phi_eval_monomial(k) for k in ks]

        def refuse(*args):
            raise AssertionError("phi read the closed form")

        monkeypatch.setattr(pushforward, "vandermonde_at", refuse)
        monkeypatch.setattr(pushforward, "phi_eval_monomial", refuse)
        assert [phi(LaurentPoly.monomial(len(k), k), len(k)) for k in ks] == want

    def test_coefficient_outside_the_base_ring_refused(self):
        f = LaurentPoly(1, {(2,): LaurentPoly.constant(1, 3)})
        with pytest.raises(TypeError, match="not a scalar or a base-ring element"):
            phi(f, 1)

    @pytest.mark.parametrize("f", [LaurentPoly.constant(0, 5), LaurentPoly.zero(0)],
                             ids=["constant", "zero"])
    def test_no_variables_refused(self, f):
        with pytest.raises(ValueError, match="need at least one variable"):
            phi(f, 0)


class TestIntDet:
    """The fraction-free elimination behind phi, against the division-free
    generic determinant of ``exact``."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_generic_det(self, data):
        n = data.draw(st.integers(1, 6))
        entry = st.integers(-5, 5) | st.just(0)
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        if n > 1 and data.draw(st.booleans()):  # a zero first pivot
            rows[0][0] = 0
        if n > 1 and data.draw(st.booleans()):  # rank deficient: row i is a multiple of row j
            i, j = data.draw(st.permutations(range(n)))[:2]
            rows[i] = [data.draw(st.integers(-2, 2)) * v for v in rows[j]]
        if data.draw(st.booleans()):  # an all-zero row
            rows[data.draw(st.integers(0, n - 1))] = [0] * n
        expected = det(rows)
        assert pushforward._int_det([list(row) for row in rows]) == expected

    @pytest.mark.parametrize("rows, value", [
        ([[7]], 7),
        ([[0, 1], [1, 0]], -1),
        ([[0, 2, 1], [0, 1, 5], [3, 4, 1]], 27),
        ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),
        ([[1, 2], [2, 4]], 0),
    ])
    def test_pivoting_examples(self, rows, value):
        assert pushforward._int_det(rows) == value


class TestFactorialDet:
    def test_examples(self):
        assert factorial_det_check((0,))
        assert factorial_det_check((1, 0))

    def test_random(self):
        rng = random.Random(4)
        for _ in range(30):
            d = rng.randint(1, 4)
            assert factorial_det_check(tuple(rng.randint(0, 10) for _ in range(d)))


class TestMonomialPushforward:
    def test_top_staircase_is_one(self, fm3):
        E = BundleModel.formal(fm3, 5)
        d = 2
        p = tuple(5 - 1 - i for i in range(d))
        assert monomial_pushforward_ct(p, E, d) == 1
        assert monomial_pushforward_det(p, E, d) == 1

    def test_single_step_values(self, fm3):
        E = BundleModel.formal(fm3, 3)
        assert monomial_pushforward_ct((3,), E, 1) == E.segre_class(1)
        assert monomial_pushforward_det((3,), E, 1) == E.segre_class(1)
        assert monomial_pushforward_ct((1,), E, 1) == 0
        assert monomial_pushforward_det((0,), E, 1) == 0

    def test_determinantal_example_r3(self, fm3):
        E = BundleModel.formal(fm3, 3)
        # p = (3, 1): det [[s1, s2], [0, 1]] = s1
        assert monomial_pushforward_det((3, 1), E, 2) == E.segre_class(1)
        assert monomial_pushforward_ct((3, 1), E, 2) == E.segre_class(1)

    def test_triple_agreement_random(self, fm3):
        rng = random.Random(21)
        for (r, d) in [(2, 1), (3, 2), (4, 2), (4, 3), (5, 2)]:
            E = BundleModel.formal(fm3, r)
            ring = FlagRing(E, d)
            for _ in range(8):
                p = tuple(rng.randint(0, r + 2) for _ in range(d))
                ct = monomial_pushforward_ct(p, E, d)
                dt = monomial_pushforward_det(p, E, d)
                orc = ring.from_terms({p: E.base.one()}).pushforward()
                assert ct == dt == orc, (r, d, p)

    def test_bad_exponents_rejected(self, fm3):
        E = BundleModel.formal(fm3, 3)
        with pytest.raises(ValueError):
            monomial_pushforward_ct((-1,), E, 1)
        with pytest.raises(ValueError):
            monomial_pushforward_det((1, 2, 3), E, 2)

    @pytest.mark.parametrize("fn", [monomial_pushforward_ct, monomial_pushforward_det])
    def test_corank_outside_one_to_rank_refused(self, fm3, fn):
        # d = 3 above rank 2 once pushed forward to 0
        E = BundleModel.formal(fm3, 2)
        with pytest.raises(ValueError, match=r"d=3 .*rank=2"):
            fn((0, 0, 0), E, 3)
        with pytest.raises(ValueError, match=r"d=0 .*rank=2"):
            fn((), E, 0)


class TestGeneralPolynomial:
    """Polynomials in x_0..x_{d-1}, as multi-term maps for
    FlagRing.from_terms, pushed forward against the sum of
    coeff * monomial_pushforward_ct over their monomials."""

    def test_top_monomial(self, fm3):
        E = BundleModel.formal(fm3, 4)
        assert FlagRing(E, 2).from_terms({(3, 2): 1}).pushforward() == 1
        assert monomial_pushforward_ct((3, 2), E, 2) == 1

    def test_degree_zero_class_dies(self, fm3):
        E = BundleModel.formal(fm3, 4)
        assert FlagRing(E, 2).from_terms({(0, 0): Fraction(1)}).pushforward() == 0
        assert monomial_pushforward_ct((0, 0), E, 2) == 0

    def test_random_against_oracle(self, fm3):
        rng = random.Random(17)
        for (r, d) in [(3, 2), (4, 2), (4, 3)]:
            E = BundleModel.formal(fm3, r)
            ring = FlagRing(E, d)
            for _ in range(6):
                terms = {}
                for _ in range(5):
                    e = tuple(rng.randint(0, 5) for _ in range(d))
                    terms[e] = terms.get(e, Fraction(0)) + Fraction(rng.randint(-4, 4))
                F = LaurentPoly(d, terms)
                by_ct = sum(
                    (monomial_pushforward_ct(p, E, d) * c for p, c in F.terms.items()),
                    fm3.zero(),
                )
                assert by_ct == ring.from_terms(F.terms).pushforward()

    def test_graded_coefficients_allowed(self, fm3):
        E = BundleModel.formal(fm3, 3)
        s1 = E.segre_class(1)
        # s1 * x0^2 x1 pushes to s1
        assert FlagRing(E, 2).from_terms({(2, 1): s1}).pushforward() == s1
        assert monomial_pushforward_ct((2, 1), E, 2) * s1 == s1

    def test_laurent_input_rejected(self, fm3):
        E = BundleModel.formal(fm3, 3)
        with pytest.raises(ValueError):
            FlagRing(E, 1).from_terms({(-1,): 1})
        with pytest.raises(ValueError):
            monomial_pushforward_ct((-1,), E, 1)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, data):
        E = BundleModel.formal(formal_segre(3), 3)
        d = data.draw(st.integers(min_value=1, max_value=2))
        ring = FlagRing(E, d)

        def draw_poly():
            terms = {}
            for _ in range(3):
                e = tuple(data.draw(st.integers(0, 4)) for _ in range(d))
                terms[e] = terms.get(e, Fraction(0)) + Fraction(data.draw(st.integers(-3, 3)))
            return LaurentPoly(d, terms)

        F, G = draw_poly(), draw_poly()
        a = Fraction(data.draw(st.integers(-3, 3)))
        combined = ring.from_terms((F * a + G).terms)
        split = ring.from_terms(F.terms) * a + ring.from_terms(G.terms)
        assert combined == split


class TestChernCharacterRoutes:
    def test_point_grassmannian_single_component(self):
        E = BundleModel.trivial(point(), 4)
        series = ch_pushforward_constterm(E, 2)
        assert series.component(0) == Fraction(1, 12)
        assert ch_pushforward_closed(E, 2).component(0) == Fraction(1, 12)
        assert ch_pushforward_schur(E, 2).component(0) == Fraction(1, 12)

    def test_closed_point_term_value(self):
        # k = (0,0), r = 4: numerator 1, denominator 3! 2!
        assert closed_term_coefficient((0, 0), 4) == Fraction(1, 12)
        assert closed_term_coefficient((0, 0), 4, DISPLAYED) == Fraction(1, 144)

    def test_repeated_content_kills_term(self):
        # k_i - i = k_j - j makes the numerator vanish
        assert closed_term_coefficient((0, 1), 5) == 0
        assert closed_term_coefficient((1, 2, 0), 5) == 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            closed_term_coefficient((0,), 3, "folklore")

    @pytest.mark.parametrize("k, r", [((0, 0, 0), 2), ((-3,), 2), ((0,), 0), ((1, -1), 4)])
    def test_bad_exponent_vector_names_its_shape(self, k, r):
        with pytest.raises(ValueError, match=re.escape(f"r={r} nonnegative exponents, got k={k}")):
            closed_term_coefficient(k, r)

    def test_d1_reduction(self, fm3):
        for r in (2, 3, 4, 5):
            E = BundleModel.formal(fm3, r)
            series = ch_pushforward_constterm(E, 1)
            for m in range(fm3.n + 1):
                expected = E.segre_class(m) * Fraction(1, factorial(r - 1 + m))
                assert series.component(m) == expected, (r, m)

    def test_schur_d1_single_row_tableau(self, fm3):
        E = BundleModel.formal(fm3, 3)
        series = ch_pushforward_schur(E, 1)
        for m in range(fm3.n + 1):
            assert series.component(m) == E.segre_class(m) * Fraction(
                1, factorial(3 - 1 + m)
            )

    def test_full_flag_gives_exp_of_c1(self):
        fm2 = formal_segre(2)
        for r in (1, 2, 3):
            E = BundleModel.formal(fm2, r)
            c1 = E.chern_class(1)
            series = ch_pushforward_constterm(E, r)
            for m in range(fm2.n + 1):
                assert series.component(m) == c1 ** m * Fraction(1, factorial(m)), (r, m)

    def test_fourway_small_grid(self):
        fm2 = formal_segre(2)
        models = [BundleModel.formal(fm2, r) for r in (2, 3, 4)]
        models.append(BundleModel.from_chern_roots(projective_space(2), [1, 1, 0]))
        models.append(BundleModel.from_chern_roots(projective_space(1), [2, 0, 1]))
        for E in models:
            for d in range(1, E.rank + 1):
                closed = ch_pushforward_closed(E, d)
                for other in (
                    ch_pushforward_schur(E, d),
                    ch_pushforward_constterm(E, d),
                    ch_pushforward_oracle(E, d),
                ):
                    assert closed == other, (E.label, d)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_fourway_random_split_bundles(self, data):
        n = data.draw(st.integers(min_value=0, max_value=2))
        rank = data.draw(st.integers(min_value=1, max_value=4))
        roots = [data.draw(st.integers(min_value=-2, max_value=3)) for _ in range(rank)]
        d = data.draw(st.integers(min_value=1, max_value=rank))
        base = projective_space(n) if n else point()
        E = BundleModel.from_chern_roots(base, roots)
        closed = ch_pushforward_closed(E, d)
        for other in (
            ch_pushforward_schur(E, d),
            ch_pushforward_constterm(E, d),
            ch_pushforward_oracle(E, d),
        ):
            assert closed == other, (roots, n, d)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_check_fourway_on_drawn_bundles(self, data):
        from plucker import verify

        n = data.draw(st.integers(min_value=1, max_value=3), label="n")
        if data.draw(st.booleans(), label="rational Segre classes over Pn"):
            # rank >= n: every derived c_i with i > rank is above n, so any
            # Segre classes are consistent
            base = projective_space(n)
            h = base.hyperplane()
            rank = data.draw(st.integers(min_value=n, max_value=5), label="rank")
            qs = [Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4)))
                  for _ in range(n)]
            segre = [base.one()] + [h ** i * q for i, q in enumerate(qs, 1)]
            E = BundleModel.from_segre(base, rank, segre)
        else:
            rank = data.draw(st.integers(min_value=1, max_value=5), label="rank")
            E = BundleModel.formal(formal_segre(n, 2), rank, family=1)
        d = data.draw(st.integers(min_value=1, max_value=E.rank), label="d")
        res = verify.check_fourway(E, d)
        assert res.ok, res.detail

    @pytest.mark.parametrize("case", ["formal r=6 d=3 n=3", "split over P3"])
    def test_constterm_calls_no_other_route(self, fm3, monkeypatch, case):
        if case.startswith("formal"):
            E, d = BundleModel.formal(fm3, 6), 3
        else:
            E, d = BundleModel.from_chern_roots(projective_space(3), [2, 1, 0, -1]), 2
        closed = ch_pushforward_closed(E, d)

        def refuse(*args, **kwargs):
            raise AssertionError("constterm reached another route's helper")

        for name in ("phi_eval_monomial", "closed_term_coefficient", "factorial_det_check"):
            monkeypatch.setattr(pushforward, name, refuse)
        assert ch_pushforward_constterm(E, d) == closed

    def test_displayed_variant_disagrees_with_oracle(self):
        E = BundleModel.trivial(point(), 4)
        displayed = ch_pushforward_closed(E, 2, DISPLAYED)
        oracle = ch_pushforward_oracle(E, 2)
        assert displayed != oracle

    def test_oracle_takes_no_ring(self, fm3):
        """The oracle pushes down the projective-bundle tower and has no
        flag ring to share: it takes the bundle and the corank only."""
        assert list(inspect.signature(ch_pushforward_oracle).parameters) == ["bundle", "d"]
        E = BundleModel.formal(fm3, 4)
        with pytest.raises(TypeError):
            ch_pushforward_oracle(E, 2, FlagRing(E, 2))
        with pytest.raises(ValueError):
            ch_pushforward_oracle(E, 5)

    @pytest.mark.parametrize("case", ["formal r=6 d=3 n=3", "split over P3"])
    def test_oracle_calls_no_other_route(self, fm3, monkeypatch, case):
        """The oracle route and the monomial oracle reach no factorial
        weight, phi, Segre determinant or product, tableau count, or flag
        ring, and still give the right answers."""
        from plucker import chow, degree, symfunc, verify

        if case.startswith("formal"):
            E, d = BundleModel.formal(fm3, 6), 3
        else:
            E, d = BundleModel.from_chern_roots(projective_space(3), [2, 1, 0, -1]), 2
        closed = ch_pushforward_closed(E, d)
        p = (E.rank + 1, 2) + (0,) * (d - 2)
        monomial = monomial_pushforward_det(p, E, d)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle reached another route's helper")

        names = ("closed_term_coefficient", "phi", "phi_eval_monomial", "segre_det",
                 "segre_product", "schur_delta", "syt_count")
        for module in (pushforward, symfunc, degree, verify):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(chow.FlagRing, "__init__", refuse)
        assert ch_pushforward_oracle(E, d) == closed
        assert chow.tower_pushforward(E, p) == monomial

    @pytest.mark.parametrize("case", ["formal r=6 d=3 n=3", "split over P3"])
    def test_closed_schur_oracle_read_no_segre_table(self, fm3, monkeypatch, case):
        """The cached Segre power table belongs to the constant-term
        formulas: the closed, schur and oracle routes, the determinantal
        monomial and the flag ring neither build nor read it."""
        from plucker import chow

        if case.startswith("formal"):
            E, d = BundleModel.formal(fm3, 6), 3
        else:
            E, d = BundleModel.from_chern_roots(projective_space(3), [2, 1, 0, -1]), 2
        p = (E.rank + 1, 2) + (0,) * (d - 2)
        expected = ch_pushforward_constterm(E, d)
        monomial = monomial_pushforward_ct(p, E, d)

        def refuse(*args, **kwargs):
            raise AssertionError("another route reached the Segre power table")

        monkeypatch.setattr(chow.BundleModel, "segre_table", refuse)
        with pytest.raises(AssertionError, match="Segre power table"):
            ch_pushforward_constterm(E, d)
        assert ch_pushforward_closed(E, d) == expected
        assert ch_pushforward_schur(E, d) == expected
        assert ch_pushforward_oracle(E, d) == expected
        assert monomial_pushforward_det(p, E, d) == monomial
        assert chow.tower_pushforward(E, p) == monomial
        assert FlagRing(E, d).from_terms({p: 1}).pushforward() == monomial

    def test_fourway_case_builds_one_ring(self, fm3, monkeypatch):
        from plucker import verify

        built = []

        class CountingRing(FlagRing):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(verify, "FlagRing", CountingRing)
        assert verify.check_fourway(BundleModel.formal(fm3, 4), 2).ok
        assert len(built) == 1

    def test_fourway_failure_names_lowest_monomial(self, fm3, monkeypatch):
        from plucker import pushforward, verify

        E = BundleModel.formal(fm3, 4)
        real = pushforward.ch_pushforward_oracle
        s1, s3 = fm3.segre_generator(1), fm3.segre_generator(3)

        def skewed(bundle, d):
            return real(bundle, d) + s1 ** 2 * 5 + s3

        monkeypatch.setattr(pushforward, "ch_pushforward_oracle", skewed)
        res = verify.check_fourway(E, 2)
        want = ch_pushforward_closed(E, 2).terms.get((2, 0, 0), 0)
        assert not res.ok
        assert res.detail == (
            f"closed and oracle differ at s1^2: {exact_str(want)} vs {exact_str(want + 5)}"
        )

    # the flag ring's theta^N made wrong one step below the relative
    # dimension rel, or one step above it, where it is compared with the
    # degree-1 component of the closed route
    @pytest.mark.parametrize("shift, message", [
        (-1, "theta^{} pushed forward is nonzero"),
        (1, "theta^{} disagrees with N! * component"),
    ], ids=["below-rel", "above-rel"])
    def test_theta_power_failure_is_named(self, fm3, monkeypatch, capsys, shift, message):
        from plucker import verify
        from plucker.cli import main

        real = FlagRing.pushforward_theta_power

        def skewed(ring, N):
            value = real(ring, N)
            if N == ring.d * (ring.bundle.rank - ring.d) + shift:
                value = value + ring.bundle.base.one()
            return value

        monkeypatch.setattr(FlagRing, "pushforward_theta_power", skewed)
        res = verify.check_fourway(BundleModel.formal(fm3, 4), 2)
        assert (res.ok, res.detail) == (False, message.format(4 + shift))
        assert main(["verify", "--max-rank", "2"]) == 1
        out = capsys.readouterr().out
        assert re.search(re.escape(message).replace(r"\{\}", r"\d+"), out)

    def test_monomial_grid_failure_names_monomial(self, monkeypatch):
        from plucker import verify

        fm = formal_segre(3)
        real = verify.monomial_pushforward_det
        monkeypatch.setattr(
            verify, "monomial_pushforward_det",
            lambda p, bundle, d: real(p, bundle, d) + fm.segre_generator(2) * 5,
        )
        results = verify.run_monomial_grid(max_rank=2, truncation=3, trials=2)
        assert len(results) == 3
        for res in results:
            assert not res.ok
            r, d = map(int, re.fullmatch(r"monomials r=(\d) d=(\d)", res.key).groups())
            match = re.fullmatch(r"p=(\(.*\)): ct and det differ at s2: (\S+) vs (\S+)",
                                 res.detail)
            assert match, res.detail
            p = ast.literal_eval(match.group(1))
            ct = monomial_pushforward_ct(p, BundleModel.formal(fm, r), d)
            want = ct.terms.get((0, 1, 0), 0)
            assert match.group(2, 3) == (exact_str(want), exact_str(want + 5))

    def test_dispatch(self, fm3):
        E = BundleModel.formal(fm3, 2)
        displayed = ch_pushforward(E, 1, "closed", DISPLAYED)
        assert displayed == ch_pushforward_closed(E, 1, DISPLAYED) != ch_pushforward_closed(E, 1)
        assert ch_pushforward(E, 1, "oracle") == ch_pushforward_oracle(E, 1)
        for method in ("closed", "schur", "constterm", "oracle"):
            assert isinstance(ch_pushforward(E, 1, method), GradedElement)
        with pytest.raises(ValueError):
            ch_pushforward(E, 1, "telepathy")

    def test_invalid_corank_rejected(self, fm3):
        E = BundleModel.formal(fm3, 2)
        for fn in (ch_pushforward_closed, ch_pushforward_schur, ch_pushforward_constterm):
            with pytest.raises(ValueError):
                fn(E, 3)
