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
    GradedElement,
    chern_from_segre,
    formal_segre,
    integrate,
    point,
    projective_space,
    segre_from_chern,
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

    def test_inhomogeneous_chern_rejected(self, p1):
        with pytest.raises(ValueError):
            BundleModel.from_chern(p1, 2, [p1.one(), p1.one() + p1.hyperplane()])


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


def _coefficients(term_map):
    for value in term_map.values():
        yield from value.values()


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
    fresh = FlagRing(bundle, 3)
    assert [fresh.from_terms(terms) for terms in reversed(maps)] == results[::-1]
    for N in range(len(ring._theta_chain)):
        assert fresh.pushforward_theta_power(N) == ring.pushforward_theta_power(N)


@pytest.mark.parametrize("kind", BUNDLE_KINDS)
def test_ring_tables_hold_pruned_plain_maps(kind):
    """Every xi-table entry and theta-chain step maps exponent tuples to
    non-empty plain dicts with no zero coefficient: shared term maps are
    never pruned again, so each must be pruned when stored."""
    bundle = _bundle(kind, 5, random.Random(11).randint)
    ring = FlagRing(bundle, 3)
    ring.pushforward_theta_power(sum(ring.bounds) + bundle.base.n)
    one = bundle.base.one()
    for e in [(6, 0, 0), (0, 5, 3), (4, 4, 4), (7, 1, 2)]:
        ring.from_terms({e: one, (1, 1, 0): 2})
    tables = list(ring._xi_basis.values()) + ring._theta_chain
    assert len(ring._xi_basis) > 3 and len(ring._theta_chain) > 1
    for table in tables:
        for exps, coeff in table.items():
            assert type(exps) is tuple and len(exps) == 3
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
