import random
from fractions import Fraction
from math import comb, prod

import pytest

from plucker.chow import BundleModel, formal_segre, point, projective_space
from plucker.degree import DegreeResult, fiber_degree_hook, plucker_degree
from plucker.exact import exponent_vectors
from plucker.pushforward import DISPLAYED, PROOF


class TestClassicalDegrees:
    @pytest.mark.parametrize(
        "r, d, expected",
        [(4, 2, 2), (5, 2, 5), (6, 2, 14), (6, 3, 42)],
    )
    def test_point_base(self, r, d, expected):
        E = BundleModel.trivial(point(), r)
        result = plucker_degree(E, d)
        assert result.degree == expected
        assert result.is_integer

    def test_projective_line_in_its_plucker_space(self):
        # G(1, 2) = P^1 embedded linearly
        E = BundleModel.trivial(point(), 2)
        assert plucker_degree(E, 1).degree == 1

    def test_quadric_surface(self):
        # P(O(1) + O(1)) over P1 is P1 x P1 under O(1,1): degree 2
        E = BundleModel.from_chern_roots(projective_space(1), [1, 1])
        result = plucker_degree(E, 1)
        assert result.degree == 2


def _complete_symmetric(n, values):
    """h_n(values): the sum of every monomial of degree n in the values."""
    return sum(prod(v ** e for v, e in zip(values, exps))
               for exps in exponent_vectors(len(values), max_total=n) if sum(exps) == n)


class TestClassicalClosedForms:
    """Degrees against closed forms that use no push-forward route."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_twisted_trivial_bundle(self, n, r):
        # O(a)^r over P^n: the Grassmann bundle is P^n x G(d, r) under
        # O(da) x O_G(1), of degree C(n + d(r-d), n) (da)^n deg G(d, r)
        base = projective_space(n)
        for a in (1, 2, 3):
            E = BundleModel.from_chern_roots(base, [a] * r)
            for d in range(1, r + 1):
                want = comb(n + d * (r - d), n) * (d * a) ** n * fiber_degree_hook(r, d)
                assert plucker_degree(E, d).degree == want, (a, d)

    def test_projective_bundle_is_complete_symmetric(self):
        # at d = 1 the degree of P(O(a_1) + ... + O(a_r)) is h_n(a)
        rng = random.Random(2806)
        for _ in range(200):
            n, r = rng.randint(1, 4), rng.randint(1, 5)
            roots = [rng.randint(-2, 4) for _ in range(r)]
            E = BundleModel.from_chern_roots(projective_space(n), roots)
            assert plucker_degree(E, 1).degree == _complete_symmetric(n, roots), (n, roots)


class TestHookOracle:
    @pytest.mark.parametrize(
        "r, d, expected", [(2, 1, 1), (4, 2, 2), (5, 2, 5), (6, 3, 42)]
    )
    def test_rectangles(self, r, d, expected):
        assert fiber_degree_hook(r, d) == expected

    def test_degenerate_full_corank(self):
        # d = r: empty rectangle, a single point
        assert fiber_degree_hook(3, 3) == 1

    def test_all_small_grassmannians_match_formula(self):
        for r in range(1, 8):
            for d in range(1, r + 1):
                E = BundleModel.trivial(point(), r)
                assert plucker_degree(E, d).degree == fiber_degree_hook(r, d), (r, d)

    def test_oracle_theta_power_equals_rectangle_count(self):
        # the flag-ring oracle over a point lands on the tableau count at
        # the first nonvanishing theta power
        from plucker.chow import FlagRing

        for r in range(1, 6):
            for d in range(1, r + 1):
                ring = FlagRing(BundleModel.trivial(point(), r), d)
                value = ring.pushforward_theta_power(d * (r - d))
                assert value == fiber_degree_hook(r, d), (r, d)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            fiber_degree_hook(2, 3)


class TestDenominatorVariants:
    def test_displayed_variant_gives_non_integer(self):
        E = BundleModel.trivial(point(), 4)
        wrong = plucker_degree(E, 2, DISPLAYED)
        assert wrong.degree == Fraction(1, 6)
        assert not wrong.is_integer

    def test_proof_variant_is_default(self):
        E = BundleModel.trivial(point(), 4)
        assert plucker_degree(E, 2) == plucker_degree(E, 2, PROOF)
        assert plucker_degree(E, 2).degree == 2


class TestResultShape:
    def test_breakdown_sums_to_degree(self):
        E = BundleModel.from_chern_roots(projective_space(2), [2, 1, 0])
        result = plucker_degree(E, 2)
        assert sum(value for _, value in result.breakdown) == result.degree
        assert all(sum(k) == 2 for k, _ in result.breakdown)

    def test_degree_equals_integrated_top_theta_power(self):
        from plucker.chow import FlagRing, integrate

        cases = [
            (BundleModel.from_chern_roots(projective_space(1), [1, 1]), 1),
            (BundleModel.from_chern_roots(projective_space(2), [2, 1, 0]), 2),
            (BundleModel.trivial(point(), 5), 2),
        ]
        for E, d in cases:
            top = d * (E.rank - d) + E.base.n
            oracle_value = FlagRing(E, d).pushforward_theta_power(top)
            assert plucker_degree(E, d).degree == integrate(oracle_value)

    def test_result_holds_only_what_was_computed(self):
        assert DegreeResult._fields == ("degree", "breakdown")

    def test_result_is_an_immutable_value(self):
        E = BundleModel.from_chern_roots(projective_space(1), [1, 1])
        result = plucker_degree(E, 1)
        again = plucker_degree(E, 1)
        assert result == again and hash(result) == hash(again)
        assert result.is_integer and repr(result) == "DegreeResult(degree=2)"
        with pytest.raises(AttributeError):
            result.degree = Fraction(3)
        with pytest.raises(AttributeError):
            result.note = "extra"

    def test_repr_prints_every_digit(self):
        twist = 10 ** 1500 - 1
        E = BundleModel.from_chern_roots(projective_space(3), [twist, 1, 1])
        result = plucker_degree(E, 1)
        assert result.degree > 10 ** 4400
        assert f"degree={result.degree.numerator // 10 ** 4400}" in repr(result)

    def test_same_segre_data_same_degree(self):
        base = projective_space(2)
        from_roots = BundleModel.from_chern_roots(base, [1, 1, 0])
        rebuilt = BundleModel.from_segre(base, 3, list(from_roots.segre))
        assert (
            plucker_degree(from_roots, 2).degree
            == plucker_degree(rebuilt, 2).degree
        )

    def test_formal_base_rejected(self):
        E = BundleModel.formal(formal_segre(2), 3)
        with pytest.raises(ValueError, match="degree needs a concrete base"):
            plucker_degree(E, 1)

    def test_invalid_corank_rejected(self):
        E = BundleModel.trivial(point(), 3)
        with pytest.raises(ValueError):
            plucker_degree(E, 4)
