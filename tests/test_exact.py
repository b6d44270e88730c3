from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from plucker.exact import (
    LaurentPoly,
    alternant,
    const_of_product,
    det,
    exact_str,
    exponent_vectors,
    inv_factorial,
    perm_sign,
    vandermonde,
)

ONE = Fraction(1)


def lp(nvars, terms):
    return LaurentPoly(nvars, {e: Fraction(c) for e, c in terms.items()})


@st.composite
def laurent_polys(draw, nvars=None):
    n = nvars if nvars is not None else draw(st.integers(min_value=1, max_value=3))
    nterms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(nterms):
        exps = tuple(
            draw(st.integers(min_value=-3, max_value=4)) for _ in range(n)
        )
        terms[exps] = Fraction(draw(st.integers(min_value=-6, max_value=6)))
    return LaurentPoly(n, terms)


class TestConstTerm:
    def test_constant(self):
        assert lp(1, {(0,): 1}).coeff((0,)) == 1

    def test_no_constant_monomial(self):
        assert lp(2, {(1, 0): 1, (0, 1): -1}).coeff((0, 0)) == 0

    def test_laurent_cancellation(self):
        # (t0 - t1) * t0^-1 = 1 - t1/t0
        f = lp(2, {(1, 0): 1, (0, 1): -1}) * lp(2, {(-1, 0): 1})
        assert f.coeff((0, 0)) == 1

    @given(laurent_polys(nvars=2), laurent_polys(nvars=2))
    def test_pairing_matches_product(self, f, g):
        assert const_of_product(f, g) == (f * g).coeff((0,) * f.nvars)


class TestVandermonde:
    def test_single_variable_is_one(self):
        assert vandermonde(1) == lp(1, {(0,): 1})

    def test_two_variables(self):
        assert vandermonde(2) == lp(2, {(1, 0): 1, (0, 1): -1})

    def test_three_variables_expansion(self):
        expected = lp(
            3,
            {
                (2, 1, 0): 1,
                (2, 0, 1): -1,
                (1, 2, 0): -1,
                (0, 2, 1): 1,
                (1, 0, 2): 1,
                (0, 1, 2): -1,
            },
        )
        assert vandermonde(3) == expected
        assert len(vandermonde(3).terms) == 6

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_product_of_differences(self, d):
        product = LaurentPoly.constant(d, 1)
        for i in range(d):
            for j in range(i + 1, d):
                product = product * (LaurentPoly.variable(d, i) - LaurentPoly.variable(d, j))
        assert vandermonde(d) == product

    def test_forms_no_polynomial_product(self, monkeypatch):
        # built from permutation signs alone, so a cache miss costs d!
        # terms and no polynomial multiplication
        calls = []
        original = LaurentPoly.__mul__

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        assert len(vandermonde.__wrapped__(5).terms) == 120
        assert not calls

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bialternant_consistency(self, d):
        # alternant(powers) is det[t_i^(powers[j])] for every power tuple,
        # negative and repeated powers (which give 0) included
        def monomial_matrix(powers):
            return [
                [
                    LaurentPoly.monomial(d, tuple(p if k == i else 0 for k in range(d)))
                    for p in powers
                ]
                for i in range(d)
            ]

        staircase = tuple(range(d - 1, -1, -1))
        assert det(monomial_matrix(staircase)) == vandermonde(d) == alternant(staircase)
        for vec in exponent_vectors(d, max_entry=3):
            powers = tuple(e - 1 for e in vec)
            got = alternant(powers)
            assert got == det(monomial_matrix(powers))
            assert bool(got) == (len(set(powers)) == d)


class TestDet:
    def test_one_by_one(self):
        assert det([[Fraction(1)]]) == 1

    def test_symbolic_two_by_two(self):
        a, b, c, d_ = (LaurentPoly.variable(4, i) for i in range(4))
        assert det([[a, b], [c, d_]]) == a * d_ - b * c

    def test_factorial_matrix(self):
        m = [
            [inv_factorial(1), inv_factorial(2)],
            [inv_factorial(0), inv_factorial(1)],
        ]
        assert det(m) == Fraction(1, 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det([[Fraction(1), Fraction(2)]])
        with pytest.raises(ValueError):
            det([])

    @given(st.integers(min_value=2, max_value=4), st.data())
    @settings(max_examples=30)
    def test_equal_rows_vanish(self, n, data):
        rows = []
        for _ in range(n - 1):
            rows.append(
                [
                    lp(2, {(data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))):
                           data.draw(st.integers(-3, 3))})
                    for _ in range(n)
                ]
            )
        dup = data.draw(st.integers(0, n - 2))
        rows.insert(dup, list(rows[dup]))
        assert not det(rows)

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_leibniz_sum(self, n, data):
        # non-integral Fractions, or Laurent polynomials (zero ones included)
        if data.draw(st.booleans()):
            entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
        else:
            entry = laurent_polys(nvars=2)
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        assert det(rows) == _leibniz(rows)


def _leibniz(rows):
    """sum over permutations p of sgn(p) * prod_i rows[i][p(i)]."""
    terms = []
    for perm in permutations(range(len(rows))):
        term = perm_sign(perm)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        terms.append(term)
    return sum(terms[1:], terms[0])


class TestInvFactorial:
    def test_values(self):
        assert inv_factorial(0) == 1
        assert inv_factorial(4) == Fraction(1, 24)
        assert inv_factorial(-3) == 0
        assert inv_factorial(-1) == 0

    def test_always_lowest_terms(self):
        # Fraction guarantees lowest terms and a positive denominator
        q = Fraction(6, -8)
        assert (q.numerator, q.denominator) == (-3, 4)


class TestRingAxioms:
    @given(laurent_polys(nvars=2), laurent_polys(nvars=2), laurent_polys(nvars=2))
    @settings(max_examples=60)
    def test_mul_associative_commutative_distributive(self, f, g, h):
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h

    @given(laurent_polys(nvars=2))
    def test_additive_structure(self, f):
        zero = LaurentPoly.zero(2)
        assert f + zero == f
        assert f - f == zero
        assert f * LaurentPoly.constant(2, ONE) == f

    def test_no_stored_zero_coefficients(self):
        f = lp(1, {(2,): 1}) - lp(1, {(2,): 1})
        assert f.terms == {}
        g = lp(1, {(0,): 1, (1,): 0})
        assert (1,) not in g.terms

    def test_mixed_variable_counts_rejected(self):
        with pytest.raises(ValueError):
            lp(1, {(0,): 1}) + lp(2, {(0, 0): 1})

    def test_scalar_equality(self):
        assert LaurentPoly.zero(2) == 0
        assert LaurentPoly.constant(2, Fraction(3, 2)) == Fraction(3, 2)
        assert vandermonde(1) == 1
        assert lp(1, {(1,): 1}) != 1


class TestExactStr:
    def test_short_values(self):
        assert exact_str(-12) == "-12"
        assert exact_str(0) == "0"
        assert exact_str(Fraction(6, 2)) == "3"
        assert exact_str(Fraction(-3, 4)) == "-3/4"

    def test_every_digit_past_the_int_str_limit(self):
        big = 10 ** 5000 - 1
        text = exact_str(-big)
        assert text == "-" + "9" * 5000
        assert exact_str(Fraction(big, 7)) == "9" * 5000 + "/7"
        assert exact_str(Fraction(1, 10 ** 6000)) == "1/1" + "0" * 6000


class TestLaurentRepr:
    def test_spot_checks(self):
        assert repr(LaurentPoly.zero(2)) == "0"
        f = LaurentPoly(2, {(1, 0): Fraction(3, 2), (0, 1): -1, (0, 0): 7})
        assert repr(f) == "3/2*t0 - t1 + 7"

    def test_values_past_the_int_str_limit(self):
        big = 10 ** 5000
        assert repr(LaurentPoly.constant(1, big)) == "1" + "0" * 5000
        assert repr(LaurentPoly.monomial(1, (2,), -big)) == "-1" + "0" * 5000 + "*t0^2"
        assert repr(LaurentPoly.constant(1, Fraction(1, big))) == "1/1" + "0" * 5000

    def test_ring_element_coefficients(self):
        from plucker.chow import projective_space

        h = projective_space(2).hyperplane()
        f = LaurentPoly(1, {(1,): h * 2, (0,): h + 1})
        assert repr(f) == "2*h*t0 + 1 + h"

    def test_coefficient_of_several_terms_is_parenthesized(self):
        # printed without parentheses, this once read as a different polynomial
        from plucker.chow import BundleModel, formal_segre

        table = BundleModel.formal(formal_segre(3), 2).segre_table(1)
        assert repr(table) == "(-s1^3 + 2*s1*s2)*t0^3 + s2*t0^2 + s1*t0 + 1"


class TestVariableMaps:
    def test_permute_variables(self):
        f = lp(3, {(2, 1, 0): 5})
        # send t0 -> t2, t1 -> t0, t2 -> t1
        assert f.permute_variables([2, 0, 1]) == lp(3, {(1, 0, 2): 5})

    def test_pow_matches_repeated_mul(self):
        f = lp(2, {(1, 0): 1, (0, 1): 2})
        assert f ** 0 == LaurentPoly.constant(2, ONE)
        assert f ** 3 == f * f * f


def test_perm_sign_matches_inversion_count():
    perms = list(permutations(range(4)))
    for perm in perms:
        inversions = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if perm[i] > perm[j]
        )
        assert perm_sign(perm) == (-1) ** inversions
        # a homomorphism that sends a transposition to -1
        for other in perms:
            composed = [perm[k] for k in other]
            assert perm_sign(composed) == perm_sign(perm) * perm_sign(other)
    assert perm_sign((1, 0, 2, 3)) == perm_sign((3, 1, 2, 0)) == -1
    assert perm_sign((10, -2, 7)) == perm_sign((2, 0, 1))


class TestExponentVectors:
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
    def test_lexicographic_like_product(self, length):
        from itertools import product

        for entry in range(4):
            grid = list(product(range(entry + 1), repeat=length))
            assert list(exponent_vectors(length, max_entry=entry)) == grid
            for total in range(6):
                assert list(
                    exponent_vectors(length, max_entry=entry, max_total=total)
                ) == [v for v in grid if sum(v) <= total]
            assert list(exponent_vectors(length, max_total=entry)) == [
                v for v in grid if sum(v) <= entry
            ]

    @pytest.mark.parametrize("length, bounds, name", [
        (2, {"max_entry": -1}, "max_entry"),
        (2, {"max_total": -1}, "max_total"),
        (2, {"max_entry": 3, "max_total": -1}, "max_total"),
        (2, {"max_entry": -1, "max_total": 3}, "max_entry"),
        (-1, {"max_entry": 2}, "length"),
        (2, {}, "max_entry or max_total"),
    ])
    def test_bad_bounds_refused_at_call(self, length, bounds, name):
        # refused by the call itself, before any vector is asked for
        with pytest.raises(ValueError, match=name):
            exponent_vectors(length, **bounds)

    def test_length_beyond_recursion_limit(self):
        assert list(exponent_vectors(5000, max_total=0)) == [(0,) * 5000]
        assert len(list(exponent_vectors(5000, max_total=1))) == 5001
