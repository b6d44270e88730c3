import ast
import copy
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plucker.chow import (
    BundleModel,
    FlagRing,
    FlagRingElement,
    GradedElement,
    chern_from_segre,
    formal_segre,
    integrate,
    point,
    projective_space,
    segre_from_chern,
    tower_pushforward,
)
from plucker.exact import LaurentPoly, exponent_vectors
from plucker.pushforward import ALL_METHODS, ch_pushforward, monomial_pushforward_det
from plucker.verify import check_fourway


@pytest.fixture
def p1():
    return projective_space(1)


@pytest.fixture
def p2():
    return projective_space(2)


@pytest.fixture
def fm3():
    return formal_segre(3)


class TestGradedElement:
    def test_truncation(self, p2):
        h = p2.hyperplane()
        assert h * h * h == 0
        assert (h * h) * Fraction(3) == p2.scalar(3) * h ** 2

    def test_scalar_coercion(self, p2):
        assert p2.scalar(Fraction(1, 2)) * 2 == 1
        assert p2.one() + 1 == p2.scalar(2)
        assert 1 - p2.one() == 0

    @pytest.mark.parametrize("value", [0.25, 2.0, True, False, "1/2"])
    def test_scalar_refuses_non_exact_types(self, value):
        with pytest.raises(TypeError):
            point().scalar(value)
        with pytest.raises(TypeError):
            FlagRing(BundleModel.trivial(point(), 2), 1).scalar(value)

    def test_scalar_keeps_int_and_fraction(self, p2):
        assert p2.scalar(3).terms == {(0,): 3}
        assert type(p2.scalar(Fraction(6, 2)).terms[(0,)]) is int
        assert p2.scalar(Fraction(1, 2)).terms == {(0,): Fraction(1, 2)}
        assert not p2.scalar(0)

    def test_fraction_scalar_product_keeps_ints(self, p2):
        """A product by a ``Fraction`` scalar stores an integral coefficient
        as an int, as ``scalar`` does."""
        h = p2.hyperplane()
        doubled = h * Fraction(2)
        assert doubled.terms == {(1,): 2} and type(doubled.terms[(1,)]) is int
        halved = Fraction(1, 2) * h
        assert halved.terms == {(1,): Fraction(1, 2)}
        assert type((halved * Fraction(4)).terms[(1,)]) is int
        assert type((halved * 2).terms[(1,)]) is int

    def test_component_and_degrees(self, p2):
        h = p2.hyperplane()
        mixed = h * 2 + p2.one() * 7
        assert mixed.component(1) == h * 2
        assert mixed.component(0) == 7
        assert mixed.component(2) == 0
        assert mixed.degrees() == [0, 1]
        with pytest.raises(ValueError):
            mixed.homogeneous_degree()
        assert (h * 5).homogeneous_degree() == 1
        assert p2.zero().homogeneous_degree() is None

    def test_model_mismatch_rejected(self, p1, p2):
        with pytest.raises(ValueError):
            p1.one() + p2.one()

    def test_formal_generators_commute_and_grade(self, fm3):
        s1 = fm3.segre_generator(1)
        s2 = fm3.segre_generator(2)
        assert s1 * s2 == s2 * s1
        assert (s1 * s2).homogeneous_degree() == 3
        assert s2 * s2 == 0  # degree 4 > truncation 3

    def test_two_families_are_independent(self):
        base = formal_segre(2, families=2)
        a = base.segre_generator(1, family=0)
        b = base.segre_generator(1, family=1)
        assert a != b
        assert (a * b).homogeneous_degree() == 2

    @pytest.mark.parametrize("exps", [(1, 5), (), (-1,)])
    def test_refuses_wrong_length_or_negative_exponents(self, p2, exps):
        # (1, 5) once printed as h, and () compared unequal to its scalar
        with pytest.raises(ValueError):
            GradedElement(p2, {exps: 3})

    def test_point_takes_the_empty_exponent_vector(self):
        assert GradedElement(point(), {(): 3}) == 3
        with pytest.raises(ValueError):
            GradedElement(point(), {(0,): 3})

    def test_repr_spot_checks(self, p2, fm3):
        assert repr(p2.zero()) == "0"
        assert repr(p2.hyperplane() * 2 + p2.one()) == "1 + 2*h"
        s1 = fm3.segre_generator(1)
        s2 = fm3.segre_generator(2)
        assert repr(s1 * s1 - s2) == "s1^2 - s2"


def brute_segre_from_roots(base, roots):
    """Independent expansion of prod_j 1/(1 - a_j h t) as a power series,
    using the Laurent machinery with one variable t."""
    n = base.n
    h = base.one() if base.kind == "point" else base.hyperplane()
    series = LaurentPoly.constant(1, base.one())
    for a in roots:
        # geometric series: 1/(1 - a h t) = sum (a h t)^m, truncated
        geo = LaurentPoly(
            1, {(m,): (h * a) ** m for m in range(n + 1) if (h * a) ** m}
        )
        series = series * geo
        series = LaurentPoly(1, {e: c for e, c in series.terms.items() if e[0] <= n})
    return [series.coeff((m,)) if series.coeff((m,)) else base.zero() for m in range(n + 1)]


class TestBundles:
    def test_trivial_bundle_segre(self, p2):
        E = BundleModel.trivial(p2, 3)
        assert E.segre_class(0) == 1
        assert E.segre_class(1) == 0
        assert E.segre_class(2) == 0

    def test_two_line_bundles_over_p1(self, p1):
        E = BundleModel.from_chern_roots(p1, [1, 1])
        assert E.segre_class(1) == p1.hyperplane() * 2

    def test_line_bundle_over_p2_geometric_series(self, p2):
        a = 3
        E = BundleModel.from_chern(p2, 1, [p2.one(), p2.hyperplane() * a])
        assert E.segre_class(1) == p2.hyperplane() * a
        assert E.segre_class(2) == p2.hyperplane() ** 2 * (a * a)

    @pytest.mark.parametrize("roots", [[1, 1], [2, 1, 0], [1, -1, 2, 0]])
    def test_roots_match_brute_force_expansion(self, roots):
        base = projective_space(3)
        E = BundleModel.from_chern_roots(base, roots)
        assert list(E.segre) == brute_segre_from_roots(base, roots)

    def test_segre_chern_roundtrip(self, fm3):
        E = BundleModel.formal(fm3, 3)
        chern = chern_from_segre(list(E.segre), fm3.n)
        segre = segre_from_chern(chern, 3, fm3.n)
        assert segre == list(E.segre)
        # the defining identity sum s_i c~_j = delta restated degree by degree
        for m in range(1, fm3.n + 1):
            acc = fm3.zero()
            for i in range(m + 1):
                acc = acc + E.segre[i] * chern[m - i] * Fraction((-1) ** (m - i))
            assert acc == 0

    def test_rank_consistency_enforced(self, fm3):
        free = [fm3.one()] + [fm3.segre_generator(i) for i in range(1, 4)]
        with pytest.raises(ValueError):
            # s_2 free contradicts rank 1 (it must equal s_1^2)
            BundleModel.from_segre(fm3, 1, free)

    def test_formal_low_rank_derives_higher_segre(self, fm3):
        E = BundleModel.formal(fm3, 1)
        s1 = fm3.segre_generator(1)
        assert E.segre_class(2) == s1 * s1
        assert E.segre_class(3) == s1 * s1 * s1

    def test_segre_from_chern_rejects_bad_leading_term(self, p1):
        with pytest.raises(ValueError):
            segre_from_chern([p1.hyperplane()], 1, 1)

    def test_inhomogeneous_segre_rejected(self, p1):
        with pytest.raises(ValueError):
            BundleModel.from_segre(p1, 2, [p1.one(), p1.one()])

    @pytest.mark.parametrize("root", [1.7, 2.0, Fraction(17, 10), "1"])
    def test_non_integer_root_rejected(self, p1, root):
        with pytest.raises(ValueError, match="not an integer"):
            BundleModel.from_chern_roots(p1, [1, root])

    def test_integral_fraction_root_accepted(self, p1):
        E = BundleModel.from_chern_roots(p1, [Fraction(3), 1])
        assert E.segre == BundleModel.from_chern_roots(p1, [3, 1]).segre

    def test_integral_fraction_coefficient_is_an_int(self, p2):
        c1 = GradedElement(p2, {(1,): Fraction(2)})
        assert c1.terms == {(1,): 2} and type(c1.terms[(1,)]) is int
        s2 = BundleModel.from_chern(p2, 2, [1, c1]).segre[2]
        assert s2.terms == {(2,): 4} and type(s2.terms[(2,)]) is int

    def test_inhomogeneous_chern_rejected(self, p1):
        with pytest.raises(ValueError):
            BundleModel.from_chern(p1, 2, [p1.one(), p1.one() + p1.hyperplane()])

    # a bundle class is a scalar or an element of the base: the int classes
    # below once raised AttributeError, or built a bundle whose int zeros
    # the flag ring could not read
    def test_int_chern_class_is_the_trivial_bundle(self, p2):
        E = BundleModel.from_chern(p2, 2, [1])
        assert E.segre == E.chern == BundleModel.trivial(p2, 2).chern

    def test_int_segre_classes_are_the_trivial_bundle(self, p2):
        E = BundleModel.from_segre(p2, 2, [1, 0, Fraction(0)])
        assert E.segre == E.chern == BundleModel.trivial(p2, 2).chern

    def test_int_zero_chern_classes_agree_on_every_route(self, p2):
        E = BundleModel.from_chern(p2, 2, [p2.one(), 0, 0])
        assert all(isinstance(c, GradedElement) for c in E.segre + E.chern)
        for d in (1, 2):
            assert check_fourway(E, d).ok
            trivial = FlagRing(BundleModel.trivial(p2, 2), d)
            ring = FlagRing(E, d)
            for N in range(d * (2 - d) + 3):
                assert ring.pushforward_theta_power(N) == trivial.pushforward_theta_power(N)

    @pytest.mark.parametrize("bad", [True, "ab", 1.5, None])
    def test_bundle_class_that_is_no_scalar_refused(self, p2, bad):
        for build in (BundleModel.from_chern, BundleModel.from_segre):
            with pytest.raises(TypeError, match="is not an int or a Fraction"):
                build(p2, 2, [p2.one(), bad, 0])

    def test_bundle_class_of_another_base_refused(self, p1, p2):
        for build in (BundleModel.from_chern, BundleModel.from_segre):
            with pytest.raises(ValueError, match="different base models"):
                build(p2, 2, [p1.one(), 0, 0])


class TestFlagRing:
    def test_trivial_relation_kills_square(self, p1):
        E = BundleModel.trivial(p1, 2)
        ring = FlagRing(E, 1)
        xi = ring.xi(0)
        assert xi * xi == 0

    def test_twisted_relation_over_p1(self, p1):
        # c2 = h^2 truncates away on P1, so x^2 reduces to 2h x
        E = BundleModel.from_chern_roots(p1, [1, 1])
        ring = FlagRing(E, 1)
        xi = ring.xi(0)
        expected = ring.from_terms({(1,): p1.hyperplane() * 2})
        assert xi * xi == expected

    @pytest.mark.parametrize("exps", [(3, 2, 5), (3,), (1, -1)])
    def test_from_terms_refuses_wrong_length_or_negative(self, fm3, exps):
        # (3, 2, 5) once pushed forward to 1: the third exponent was dropped
        ring = FlagRing(BundleModel.formal(fm3, 4), 2)
        with pytest.raises(ValueError):
            ring.from_terms({exps: 1})

    def test_coefficient_from_another_base_refused(self, fm3):
        # the P2 hyperplane class once pushed forward to s1^2 over fm3
        E = BundleModel.formal(fm3, 3)
        ring = FlagRing(E, 1)
        stranger = projective_space(2).hyperplane()
        with pytest.raises(ValueError, match="different base model"):
            ring.from_terms({(3,): stranger}).pushforward()
        with pytest.raises(ValueError, match="different base model"):
            ring.scalar(stranger)
        assert ring.from_terms({(3,): formal_segre(3).one()}).pushforward() == E.segre_class(1)

    def test_kernel_chern_reduction_formal(self, fm3):
        E = BundleModel.formal(fm3, 3)
        ring = FlagRing(E, 2)
        xi0, xi1 = ring.xi(0), ring.xi(1)
        c1, c2 = E.chern_class(1), E.chern_class(2)
        # x1^2 = c1(kernel) x1 - c2(kernel) with c(kernel) = c(E)/(1 + x0 t)
        expected = (ring.scalar(c1) - xi0) * xi1 - (
            ring.scalar(c2) - ring.scalar(c1) * xi0 + xi0 * xi0
        )
        assert xi1 * xi1 == expected

    def test_repr_signs_and_parentheses(self, fm3):
        # coefficients -1 once printed as "+ -1*x0*x1", and 1 as "1*x0"
        ring = FlagRing(BundleModel.formal(fm3, 3), 2)
        x0, x1 = ring.xi(0), ring.xi(1)
        assert repr(x1 * x1) == "-s1^2 + s2 + s1*x1 + s1*x0 - x0*x1 - x0^2"
        s1, s2 = fm3.segre_generator(1), fm3.segre_generator(2)
        assert repr(x0 * (s1 - s2) + x0 * x1) == "(s1 - s2)*x0 + x0*x1"
        assert repr(ring.zero()) == "0"

    def test_pushforward_picks_top_monomial(self, fm3):
        E = BundleModel.formal(fm3, 4)
        ring = FlagRing(E, 2)
        top = ring.from_terms({(3, 2): fm3.one()})
        assert top.pushforward() == 1
        assert ring.one().pushforward() == 0

    def test_reduction_is_idempotent(self, fm3):
        E = BundleModel.formal(fm3, 3)
        ring = FlagRing(E, 2)
        elem = (ring.xi(0) + ring.xi(1)) ** 3 * ring.xi(1)
        again = ring.from_terms(elem.terms)
        assert again == elem
        assert all(
            e[l] <= ring.bounds[l] for e in elem.terms for l in range(2)
        )

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_single_step_matches_segre_series(self, rank, fm3):
        # push-forward of x^p along one projective-bundle step equals the
        # constant term of t^(-p+rank-1) s(E, t)
        E = BundleModel.formal(fm3, rank)
        ring = FlagRing(E, 1)
        for p in range(rank + 4):
            lhs = ring.from_terms({(p,): fm3.one()}).pushforward()
            series = LaurentPoly(
                1,
                {(-p + rank - 1 + m,): E.segre_class(m) for m in range(fm3.n + 1)},
            )
            rhs = series.coeff((0,))
            if not isinstance(rhs, GradedElement):
                rhs = fm3.scalar(rhs)
            assert lhs == rhs, p
        assert ring.from_terms({(rank - 1,): fm3.one()}).pushforward() == 1
        assert ring.from_terms({(rank,): fm3.one()}).pushforward() == E.segre_class(1)
        if rank >= 2:
            assert ring.from_terms({(rank - 2,): fm3.one()}).pushforward() == 0

    def test_theta_power_vanishes_below_relative_dimension(self, fm3):
        E = BundleModel.formal(fm3, 4)
        ring = FlagRing(E, 2)
        for N in range(4):
            assert ring.pushforward_theta_power(N) == 0

    def test_theta_power_point_grassmannian(self):
        E = BundleModel.trivial(point(), 4)
        ring = FlagRing(E, 2)
        assert ring.pushforward_theta_power(4) == 2

    def test_theta_power_quadric(self, p1):
        E = BundleModel.from_chern_roots(p1, [1, 1])
        ring = FlagRing(E, 1)
        assert ring.pushforward_theta_power(2) == p1.hyperplane() * 2

    def test_theta_power_grading(self, fm3):
        E = BundleModel.formal(fm3, 3)
        ring = FlagRing(E, 2)
        rel = 2 * (3 - 2)
        for m in range(fm3.n + 1):
            value = ring.pushforward_theta_power(rel + m)
            if value:
                assert value.homogeneous_degree() == m

    def test_corank_bounds_checked(self, fm3):
        E = BundleModel.formal(fm3, 3)
        with pytest.raises(ValueError):
            FlagRing(E, 0)
        with pytest.raises(ValueError):
            FlagRing(E, 4)

    def test_full_flag_d_equals_r(self, fm3):
        # when d = rank the Grassmann bundle is the base and theta acts as c1
        E = BundleModel.formal(fm3, 3)
        ring = FlagRing(E, 3)
        c1 = E.chern_class(1)
        for N in range(4):
            assert ring.pushforward_theta_power(N) == c1 ** N


class TestIntegrate:
    def test_point(self):
        assert integrate(point().scalar(5)) == 5

    def test_projective_top_class(self, p2):
        assert integrate(p2.hyperplane() ** 2 * 3) == 3

    def test_only_top_degree_integrates(self, p1):
        mixed = p1.hyperplane() * 2 + p1.one() * 7
        assert integrate(mixed) == 2

    def test_formal_rejected(self, fm3):
        with pytest.raises(ValueError, match="integration undefined on formal model"):
            integrate(fm3.one())


def test_shared_ring_any_call_order():
    """Theta powers and a monomial reduction asked of one ring in shuffled
    orders match a fresh ring's: the lazily filled rule table and theta
    chain do not depend on the order of calls."""
    fm = formal_segre(3)
    E = BundleModel.formal(fm, 5)
    fresh = FlagRing(E, 2)
    expected_powers = [fresh.pushforward_theta_power(N) for N in range(10)]
    mono = (4, 3)
    expected_mono = FlagRing(E, 2).from_terms({mono: fm.one()}).pushforward()

    shared = FlagRing(E, 2)
    for seed in range(4):
        order = list(range(10)) + ["mono"]
        random.Random(seed).shuffle(order)
        for tag in order:
            if tag == "mono":
                assert shared.from_terms({mono: fm.one()}).pushforward() == expected_mono
            else:
                assert shared.pushforward_theta_power(tag) == expected_powers[tag]


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_flag_product_reduction_random(data):
    """Random flag-ring products stay in normal form and re-reduce to
    themselves."""
    fm = formal_segre(2)
    rank = data.draw(st.integers(min_value=2, max_value=4))
    d = data.draw(st.integers(min_value=1, max_value=rank))
    E = BundleModel.formal(fm, rank)
    ring = FlagRing(E, d)
    elem = ring.one()
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        l = data.draw(st.integers(min_value=0, max_value=d - 1))
        elem = elem * (ring.xi(l) + ring.scalar(data.draw(st.integers(-2, 2))))
    for exps in elem.terms:
        assert all(exps[l] <= ring.bounds[l] for l in range(d))
    assert ring.from_terms(elem.terms) == elem


BUNDLE_KINDS = ("formal", "formal-two-families", "split", "rational-segre")


def _bundle(kind, rank, draw_int):
    """A rank-``rank`` bundle of one of four kinds over a base of dimension 2."""
    if kind == "formal":
        return BundleModel.formal(formal_segre(2), rank)
    if kind == "formal-two-families":
        return BundleModel.formal(formal_segre(2, families=2), rank, family=1)
    base = projective_space(2)
    if kind == "split":
        return BundleModel.from_chern_roots(base, [draw_int(-2, 2) for _ in range(rank)])
    # rational Segre classes s_1 = q_1 h, s_2 = q_2 h^2; rank >= 2 keeps them consistent
    h = base.hyperplane()
    q1, q2 = (Fraction(draw_int(-5, 5), draw_int(1, 4)) for _ in range(2))
    return BundleModel.from_segre(base, max(rank, 2), [base.one(), h * q1, h * h * q2])


@st.composite
def flag_rings(draw):
    kind = draw(st.sampled_from(BUNDLE_KINDS))
    rank = draw(st.integers(min_value=1, max_value=6))
    bundle = _bundle(kind, rank, lambda lo, hi: draw(st.integers(lo, hi)))
    d = draw(st.integers(min_value=1, max_value=bundle.rank))
    return FlagRing(bundle, d)


@given(flag_rings())
@settings(max_examples=60, deadline=None)
def test_relations_hold_the_kernel_chern_classes(ring):
    """Read the level-l relation x_l^(rank-l) = sum_{j>=1} (-1)^(j+1)
    c_j(K_l) x_l^(rank-l-j) back as c(K_l), a polynomial in x_0..x_{l-1}
    and u: c(K_l) * prod_{i<l} (1 + x_i u) is c(E) in every u-degree up
    to rank - l, as the Whitney formula c(E) = c(K_l) prod_{i<l} (1 + x_i)
    requires."""
    bundle, rank = ring.bundle, ring.bundle.rank
    model = bundle.base
    for l in range(ring.d):
        kernel = {(0,) * l + (0,): model.one()}
        for exps, coeff in ring._xi_basis[(l, (0,) * l)].items():
            assert not any(exps[l + 1 :])
            j = rank - l - exps[l]
            value = GradedElement(model, coeff)
            kernel[exps[:l] + (j,)] = value if j % 2 else -value
        product = LaurentPoly(l + 1, kernel)
        for i in range(l):
            factor = {(0,) * (l + 1): model.one()}
            factor[(0,) * i + (1,) + (0,) * (l - i - 1) + (1,)] = model.one()
            product = product * LaurentPoly(l + 1, factor)
        low = {e: c for e, c in product.terms.items() if e[l] <= rank - l}
        chern = {(0,) * l + (k,): bundle.chern_class(k) for k in range(rank - l + 1)}
        assert LaurentPoly(l + 1, low) == LaurentPoly(l + 1, chern), l


def _monomials(draw, ring, count):
    high = ring.bundle.rank + 1
    return [
        tuple(draw(st.integers(min_value=0, max_value=high)) for _ in range(ring.d))
        for _ in range(count)
    ]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_normal_form_is_multiplicative(data):
    """from_terms(a) * from_terms(b) == from_terms(a + b)."""
    ring = data.draw(flag_rings())
    a, b = _monomials(data.draw, ring, 2)
    one = ring.bundle.base.one()
    product = ring.from_terms({a: one}) * ring.from_terms({b: one})
    assert product == ring.from_terms({tuple(x + y for x, y in zip(a, b)): one})


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_normal_form_step_is_multiplication_by_xi(data):
    """from_terms(e + delta_l) == from_terms(e) * xi(l), and the top
    coefficient of from_terms(e) is the determinantal push-forward."""
    ring = data.draw(flag_rings())
    (e,) = _monomials(data.draw, ring, 1)
    l = data.draw(st.integers(min_value=0, max_value=ring.d - 1))
    one = ring.bundle.base.one()
    bumped = tuple(x + (i == l) for i, x in enumerate(e))
    assert ring.from_terms({bumped: one}) == ring.from_terms({e: one}) * ring.xi(l)
    pushed = ring.from_terms({e: one}).pushforward()
    assert pushed == monomial_pushforward_det(e, ring.bundle, ring.d)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exponents_above_a_level_are_carried_onto_its_entry(data):
    """x^(a + b), where x_l of a sits at its bound, b raises it and b
    raises a higher x as well, so that the steps at level l carry
    exponents above l onto the table entry: from_terms of a + b is the
    product of the two normal forms, and its push-forward is the
    tower's."""
    kind = data.draw(st.sampled_from(BUNDLE_KINDS))
    rank = data.draw(st.integers(min_value=2, max_value=6))
    bundle = _bundle(kind, rank, lambda lo, hi: data.draw(st.integers(lo, hi)))
    d = data.draw(st.integers(min_value=2, max_value=bundle.rank))
    ring = FlagRing(bundle, d)
    l = data.draw(st.integers(min_value=0, max_value=d - 2))
    a = [data.draw(st.integers(0, bound)) for bound in ring.bounds]
    a[l] = ring.bounds[l]
    b = [data.draw(st.integers(0, 3)) for _ in range(d)]
    b[l] = max(b[l], 1)
    up = data.draw(st.integers(min_value=l + 1, max_value=d - 1))
    b[up] = max(b[up], 1)
    total = tuple(x + y for x, y in zip(a, b))
    got = ring.from_terms({total: 1})
    assert got == ring.from_terms({tuple(a): 1}) * ring.from_terms({tuple(b): 1})
    assert got.pushforward() == tower_pushforward(bundle, total)


def _fresh_copy(bundle):
    """The same bundle as a new object, whose flag-ring table is empty."""
    return BundleModel(bundle.base, bundle.rank, bundle.segre, bundle.chern)


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
def test_xi_table_is_keyed_by_level_and_lower_exponents(kind):
    """Every ``_xi_basis`` key is (l, exponents of x_0..x_{l-1}), and its
    entry is the normal form of those exponents times x_l^(bound_l + 1),
    keyed by the exponents of x_0..x_l alone."""
    bundle = _bundle(kind, 5, random.Random(3).randint)
    ring = FlagRing(bundle, 3)
    ring.pushforward_theta_power(sum(ring.bounds) + bundle.base.n)
    for e in [(6, 0, 0), (0, 5, 3), (4, 4, 4), (7, 1, 2)]:
        ring.from_terms({e: 1})
    fresh = FlagRing(_fresh_copy(bundle), 3)
    assert len(ring._xi_basis) > ring.d
    for (l, lower), entry in ring._xi_basis.items():
        assert type(lower) is tuple and len(lower) == l
        assert all(0 <= e <= bound for e, bound in zip(lower, ring.bounds))
        assert all(len(exps) == l + 1 for exps in entry)
        tail = (0,) * (ring.d - l - 1)
        exps = lower + (ring.bounds[l] + 1,) + tail
        stored = {e + tail: GradedElement(bundle.base, c) for e, c in entry.items()}
        assert fresh.from_terms(stored) == fresh.from_terms({exps: 1}), (l, lower)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_rings_of_every_corank_share_the_bundle_table(data):
    """Flag rings of several coranks over one bundle, built and used in a
    drawn order, read and fill the bundle's one table.  Each gives the
    normal forms and theta push-forwards of a ring over a fresh copy of
    the bundle, and no entry stored before a ring's work changes."""
    kind = data.draw(st.sampled_from(BUNDLE_KINDS))
    rank = data.draw(st.integers(min_value=2, max_value=5))
    bundle = _bundle(kind, rank, lambda lo, hi: data.draw(st.integers(lo, hi)))
    coranks = data.draw(
        st.lists(st.integers(1, bundle.rank), min_size=2, max_size=4, unique=True)
    )
    for d in coranks:
        before = copy.deepcopy(bundle._flag_table)
        ring = FlagRing(bundle, d)
        assert ring._xi_basis is bundle._flag_table
        fresh = FlagRing(_fresh_copy(bundle), d)
        for e in _monomials(data.draw, ring, 2):
            assert ring.from_terms({e: 1}).terms == fresh.from_terms({e: 1}).terms, e
        N = data.draw(st.integers(0, sum(ring.bounds) + bundle.base.n))
        assert ring.pushforward_theta_power(N) == fresh.pushforward_theta_power(N)
        for key, entry in before.items():
            assert bundle._flag_table[key] == entry, key


def _coefficients(term_map):
    for value in term_map.values():
        yield from value.values()


def _budget_bundle(kind, rank, draw_int):
    """``_bundle``'s kinds over a base of dimension 2, or the trivial
    bundle over a point."""
    if kind == "point":
        return BundleModel.trivial(point(), rank)
    return _bundle(kind, rank, draw_int)


def _inhomogeneous(model):
    """1 + g + g^2 for a degree-1 generator g of ``model`` (1 over a point)."""
    g = model.generator(0) if model.gen_names else model.zero()
    return model.one() + g + g * g


def _reference_normal_form(ring, terms):
    """The normal form of sum x^e c over ``terms`` with no degree budget:
    the in-bounds part of each x^e times its excess powers of x_l, one
    ``_times_x`` step at a time."""
    model = ring.bundle.base
    total = ring.zero()
    for exps, coeff in terms.items():
        acc = {tuple(map(min, exps, ring.bounds)): coeff.terms}
        for l, (e, bound) in enumerate(zip(exps, ring.bounds)):
            for _ in range(e - bound):
                acc = ring._times_x(acc, l)
        total = total + FlagRingElement(ring, {e: GradedElement(model, c) for e, c in acc.items()})
    return total


def _snapshot(terms):
    return {e: dict(c.terms) for e, c in terms.items()}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_normal_form_degree_budget(data):
    """A term x^e c keeps only the part of c of degree at most
    sum(bounds) + n - |e|: from_terms equals the unbudgeted reference for
    |e| below, at and above that budget, on one- and two-term maps with
    inhomogeneous coefficients, and leaves its input as it was."""
    kind = data.draw(st.sampled_from(BUNDLE_KINDS + ("point",)))
    rank = data.draw(st.integers(min_value=1, max_value=5))
    bundle = _budget_bundle(kind, rank, lambda lo, hi: data.draw(st.integers(lo, hi)))
    d = data.draw(st.integers(min_value=1, max_value=bundle.rank))
    ring = FlagRing(bundle, d)
    model = bundle.base
    top = sum(ring.bounds) + model.n

    def monomial():
        total = max(0, top + data.draw(st.integers(min_value=-3, max_value=2)))
        cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=d - 1, max_size=d - 1)))
        return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))

    coeff = _inhomogeneous(model)
    one_term = {monomial(): coeff}
    two_terms = {monomial(): coeff, monomial(): coeff * -2 + model.one()}
    for terms in (one_term, two_terms):
        before = _snapshot(terms)
        got = ring.from_terms(terms)
        assert got == _reference_normal_form(FlagRing(bundle, d), terms), terms
        assert _snapshot(terms) == before


@pytest.mark.parametrize("kind", BUNDLE_KINDS + ("point",))
def test_monomial_past_the_budget_is_skipped(kind):
    """x^e with |e| = sum(bounds) + n + 1 normalizes to 0 without a
    table entry, where the unbudgeted steps fill one (once the excess
    sits on x_1 above x_0 at its bound: the table is keyed by the
    exponents below the level), and its coefficient map is left as it
    was."""
    for rank in range(1, 6):
        bundle = _budget_bundle(kind, rank, random.Random(rank).randint)
        for d in range(1, bundle.rank + 1):
            ring = FlagRing(bundle, d)
            bounds = ring.bounds
            excess = (0, bundle.base.n + 1) if d > 1 else (bundle.base.n + 1,)
            exps = tuple(b + e for b, e in zip(bounds, excess + (0,) * d))
            terms = {exps: _inhomogeneous(bundle.base)}
            before = _snapshot(terms)
            entries = len(ring._xi_basis)
            assert ring.from_terms(terms) == 0
            assert len(ring._xi_basis) == entries
            assert _snapshot(terms) == before
            reference = FlagRing(_fresh_copy(bundle), d)
            assert _reference_normal_form(reference, terms) == 0
            if d > 1:
                assert len(reference._xi_basis) > entries


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
def test_coefficients_stay_exact(kind):
    """Table, chain and route coefficients are int or Fraction, never
    float; on integral bundles the flag ring's are plain ints."""
    bundle = _bundle(kind, 4, random.Random(5).randint)
    ring = FlagRing(bundle, 2)
    ring.pushforward_theta_power(sum(ring.bounds) + bundle.base.n)
    ring.from_terms({(5, 4): 1})
    ring_coeffs = [c for entry in ring._xi_basis.values() for c in _coefficients(entry)]
    ring_coeffs += [c for step in ring._theta_chain for c in _coefficients(step)]
    assert ring_coeffs
    allowed = (int,) if kind != "rational-segre" else (int, Fraction)
    assert all(type(c) in allowed for c in ring_coeffs)
    for method in ALL_METHODS:
        series = ch_pushforward(bundle, 2, method)
        for m in range(bundle.base.n + 1):
            assert all(type(c) in (int, Fraction) for c in series.component(m).terms.values())


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
def test_shared_coefficients_are_never_mutated(kind):
    """The flag ring stores a shifted coefficient as the very term map it
    shifted, so one term map sits in several tables, results and inputs.
    Building more table entries, chain steps and normal forms must leave
    every stored entry and every input as it was, and give what a fresh
    ring gives."""
    bundle = _bundle(kind, 5, random.Random(7).randint)
    ring = FlagRing(bundle, 3)
    # early steps still have room below the bounds, so shifts collide there
    ring.pushforward_theta_power(2)
    xi_before = copy.deepcopy(ring._xi_basis)
    chain_before = copy.deepcopy(ring._theta_chain)
    monomials = [e for e in exponent_vectors(3, max_entry=7) if sum(e) % 3 == 0]
    one = bundle.base.one()
    # in two-term maps the normal form of x^e x_2^2 lands on x^e, whose
    # coefficient is the input's own term map
    maps = [{e: one} for e in monomials]
    maps += [{e: one, e[:2] + (e[2] + 2,): -one} for e in monomials]
    inputs = copy.deepcopy(maps)
    results = [ring.from_terms(terms) for terms in maps]
    ring.pushforward_theta_power(sum(ring.bounds) + bundle.base.n)
    assert len(ring._theta_chain) > len(chain_before)
    assert len(ring._xi_basis) > len(xi_before)
    for key, entry in xi_before.items():
        assert ring._xi_basis[key] == entry, key
    for step, entry in enumerate(chain_before):
        assert ring._theta_chain[step] == entry, step
    assert maps == inputs
    fresh = FlagRing(_fresh_copy(bundle), 3)
    got = [fresh.from_terms(terms).terms for terms in reversed(maps)]
    assert got == [result.terms for result in reversed(results)]
    for N in range(len(ring._theta_chain)):
        assert fresh.pushforward_theta_power(N) == ring.pushforward_theta_power(N)


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
def test_ring_tables_hold_pruned_plain_maps(kind):
    """Every xi-table entry and theta-chain step maps exponent tuples to
    non-empty plain dicts with no zero coefficient: shared term maps are
    never pruned again, so each must be pruned when stored.  The keys of
    the level-l entries are exponents of x_0..x_l, those of a chain step
    of all d variables."""
    bundle = _bundle(kind, 5, random.Random(11).randint)
    ring = FlagRing(bundle, 3)
    ring.pushforward_theta_power(sum(ring.bounds) + bundle.base.n)
    one = bundle.base.one()
    for e in [(6, 0, 0), (0, 5, 3), (4, 4, 4), (7, 1, 2)]:
        ring.from_terms({e: one, (1, 1, 0): 2})
    tables = [(l + 1, entry) for (l, _), entry in ring._xi_basis.items()]
    tables += [(ring.d, step) for step in ring._theta_chain]
    assert len(ring._xi_basis) > 3 and len(ring._theta_chain) > 1
    for size, table in tables:
        for exps, coeff in table.items():
            assert type(exps) is tuple and len(exps) == size
            assert type(coeff) is dict and coeff, (exps, coeff)
            assert all(coeff.values()), (exps, coeff)


def test_flag_ring_imports_no_formula_route():
    """The oracle stays independent of the closed, schur and constterm
    routes: the chow module imports nothing from symfunc or pushforward."""
    import plucker.chow as chow

    tree = ast.parse(inspect.getsource(chow))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "fractions", "exact"}, imported
    assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))


def test_fourway_agreement_formal_rank_8():
    """Out of reach of the old stack rewriter (22 s); now well under a second."""
    bundle = BundleModel.formal(formal_segre(3), 8)
    result = check_fourway(bundle, 4)
    assert result.ok, result.detail
