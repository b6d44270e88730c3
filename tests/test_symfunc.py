import random
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from plucker import symfunc
from plucker.chow import BundleModel, formal_segre, point, projective_space
from plucker.exact import (
    LaurentPoly,
    block_vandermonde,
    det,
    perm_sign,
    vandermonde,
    vandermonde_at,
)
from plucker.symfunc import (
    antisymmetrize,
    cauchy_expand_check,
    cauchy_mismatch_witness,
    gen_cauchy_check,
    gen_cauchy_witness,
    is_partition,
    partitions_up_to,
    schur_delta,
    schur_in_t,
    segre_product,
    _block_plan,
    _sample_point,
    _t_clash,
    _t_point_holds,
    _tau_clash,
    _tau_point_holds,
    standard_tableaux,
    syt_count,
    weight,
)


class TestPartitions:
    def test_single_row_slots(self):
        assert list(partitions_up_to(1, 2)) == [(0,), (1,), (2,)]

    def test_two_slots_exact_listing(self):
        assert list(partitions_up_to(2, 2)) == [(0, 0), (1, 0), (2, 0), (1, 1)]

    def test_count_three_slots_weight_three(self):
        assert sum(1 for _ in partitions_up_to(3, 3)) == 7

    def test_each_partition_once(self):
        seen = list(partitions_up_to(4, 6))
        assert len(seen) == len(set(seen))
        assert all(is_partition(mu) and len(mu) == 4 for mu in seen)
        assert all(weight(mu) <= 6 for mu in seen)

    def test_weight_zero(self):
        assert list(partitions_up_to(3, 0)) == [(0, 0, 0)]


class TestTableauCounts:
    @pytest.mark.parametrize(
        "mu, expected",
        [
            ((1,), 1),
            ((2, 2), 2),
            ((3, 3), 5),  # Catalan number C_3
            ((2, 1), 2),
            ((3, 1, 1), 6),
            ((4, 4), 14),
            ((3, 3, 3), 42),
            ((2, 2, 2, 2), 14),
        ],
    )
    def test_known_values(self, mu, expected):
        assert syt_count(mu) == expected

    def test_empty_and_padding(self):
        assert syt_count(()) == 1
        assert syt_count((0, 0)) == 1
        assert syt_count((2, 1)) == syt_count((2, 1, 0, 0))

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            syt_count((1, 2))

    def test_enumeration_matches_formula_up_to_weight_8(self):
        for mu in partitions_up_to(4, 8):
            assert syt_count(mu) == sum(1 for _ in standard_tableaux(mu)), mu

    def test_tableaux_are_standard(self):
        for tab in standard_tableaux((3, 2)):
            cells = [value for row in tab for value in row]
            assert sorted(cells) == list(range(1, 6))
            for row in tab:
                assert list(row) == sorted(row)
            for i in range(1, len(tab)):
                for j, value in enumerate(tab[i]):
                    assert value > tab[i - 1][j]


class TestSchurPolynomials:
    def test_zero_partition_is_one(self):
        assert schur_in_t((0, 0), 2) == LaurentPoly.constant(2, Fraction(1))
        for nvars in (1, 2, 3):
            assert schur_in_t((), nvars) == LaurentPoly.constant(nvars, 1)

    def test_single_box(self):
        assert schur_in_t((1, 0), 2) == LaurentPoly(
            2, {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        )

    def test_column(self):
        assert schur_in_t((1, 1), 2) == LaurentPoly.monomial(2, (1, 1))

    def test_too_long_partition_vanishes(self):
        for nvars in (1, 2, 3):
            for lam in [(1,) * (nvars + 1), (3,) * nvars + (1,), (2, 2, 1, 1)[:nvars] + (1,)]:
                s = schur_in_t(lam, nvars)
                assert not s and s.nvars == nvars, (lam, nvars)

    def test_no_variables_rejected(self):
        for lam in [(), (0,), (1,), (2, 1)]:
            with pytest.raises(ValueError):
                schur_in_t(lam, 0)

    def test_non_partition_rejected(self):
        # checked before anything is dropped, also past the variable count
        for lam, nvars in [((1, 2), 3), ((0, 1), 3), ((2, 0, 1), 3), ((1, 2), 1), ((1, -1), 1)]:
            with pytest.raises(ValueError):
                schur_in_t(lam, nvars)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bialternant_roundtrip(self, d):
        # the Jacobi-Trudi determinant times a_delta is the alternant
        # a_(lam + delta) = det[t_i^(lam_j + d - j)]
        for lam in partitions_up_to(d, 6):
            matrix = [
                [
                    LaurentPoly.monomial(
                        d, tuple(lam[i - 1] + d - i if k == j else 0 for k in range(d))
                    )
                    for j in range(d)
                ]
                for i in range(1, d + 1)
            ]
            assert schur_in_t(lam, d) * vandermonde(d) == det(matrix)

    def test_schur_polynomials_are_symmetric(self):
        s = schur_in_t((2, 1), 3)
        for perm in permutations(range(3)):
            assert s.permute_variables(perm) == s

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coefficients_are_ints(self, d):
        # h_k has coefficients 1 and det neither divides nor scales, so
        # every coefficient stays an int; no Fraction or float may appear
        for lam in partitions_up_to(d, 5):
            assert all(type(c) is int for c in schur_in_t(lam, d).terms.values()), lam


class TestSchurDelta:
    def test_zero_partition(self):
        E = BundleModel.formal(formal_segre(3), 3)
        assert schur_delta((0, 0), E) == 1

    def test_single_row_gives_segre_class(self):
        fm = formal_segre(3)
        E = BundleModel.formal(fm, 3)
        for k in range(4):
            assert schur_delta((k, 0, 0), E) == E.segre_class(k)

    def test_two_by_two(self):
        fm = formal_segre(3)
        E = BundleModel.formal(fm, 3)
        s1, s2 = E.segre_class(1), E.segre_class(2)
        assert schur_delta((1, 1), E) == s1 * s1 - s2


class TestCauchyExpansion:
    def test_single_variable_trivial(self):
        E = BundleModel.formal(formal_segre(3), 2)
        assert cauchy_expand_check(E, 1, 3)

    def test_formal_weight_three(self):
        E = BundleModel.formal(formal_segre(3), 3)
        assert cauchy_expand_check(E, 2, 3)

    def test_split_bundle_over_p2(self):
        E = BundleModel.from_chern_roots(projective_space(2), [1, 1, 0])
        assert cauchy_expand_check(E, 2, 2)

    def test_witness_is_none_on_success(self):
        E = BundleModel.formal(formal_segre(2), 2)
        assert cauchy_mismatch_witness(E, 2, 2) is None


class TestAntisymmetrize:
    def test_symmetric_input_dies(self):
        f = LaurentPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
        assert not antisymmetrize(f, [0, 1])

    def test_single_variable_monomial(self):
        f = LaurentPoly.monomial(2, (1, 0))
        assert antisymmetrize(f, [0, 1]) == LaurentPoly(
            2, {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
        )

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_staircase_gives_vandermonde(self, r):
        stair = LaurentPoly.monomial(r, tuple(r - 1 - i for i in range(r)))
        assert antisymmetrize(stair, range(r)) == vandermonde(r)

    def test_partial_block_leaves_other_variables(self):
        f = LaurentPoly.monomial(3, (1, 0, 2))
        image = antisymmetrize(f, [0, 1])
        assert image == LaurentPoly(
            3, {(1, 0, 2): Fraction(1), (0, 1, 2): Fraction(-1)}
        )

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_projector_up_to_factorial(self, data):
        nvars = data.draw(st.integers(min_value=2, max_value=3))
        terms = {}
        for _ in range(data.draw(st.integers(1, 4))):
            e = tuple(data.draw(st.integers(-2, 3)) for _ in range(nvars))
            terms[e] = Fraction(data.draw(st.integers(-4, 4)))
        f = LaurentPoly(nvars, terms)
        block = list(range(nvars))
        once = antisymmetrize(f, block)
        twice = antisymmetrize(once, block)
        assert twice == once * Fraction(factorial(nvars))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_block_factorization_carries_factorials(self, data):
        """A(A'(f) A''(g)) = d! (r-d)! A(f g) for f in the first block and
        g in the second; the bare identity without the factor is false."""
        r = data.draw(st.integers(min_value=3, max_value=4))
        d = data.draw(st.integers(min_value=1, max_value=r - 1))
        f_terms = {}
        for _ in range(2):
            e = [0] * r
            for i in range(d):
                e[i] = data.draw(st.integers(0, 3))
            f_terms[tuple(e)] = Fraction(data.draw(st.integers(-3, 3)))
        g_terms = {}
        for _ in range(2):
            e = [0] * r
            for i in range(d, r):
                e[i] = data.draw(st.integers(0, 3))
            g_terms[tuple(e)] = Fraction(data.draw(st.integers(-3, 3)))
        f = LaurentPoly(r, f_terms)
        g = LaurentPoly(r, g_terms)
        lhs = antisymmetrize(
            antisymmetrize(f, range(d)) * antisymmetrize(g, range(d, r)), range(r)
        )
        rhs = antisymmetrize(f * g, range(r)) * Fraction(
            factorial(d) * factorial(r - d)
        )
        assert lhs == rhs

    def test_invalid_block_rejected(self):
        f = LaurentPoly.monomial(2, (1, 0))
        with pytest.raises(ValueError):
            antisymmetrize(f, [0, 0])
        with pytest.raises(ValueError):
            antisymmetrize(f, [0, 5])


def _tau_form_sides(xs, taus, r, d):
    """Evaluate both sides of the generalized Cauchy determinant identity
    (unnormalized antisymmetrizer, no correction factor) at a point."""
    lhs = Fraction(0)
    for perm in permutations(range(r)):
        vals = [xs[perm[i]] for i in range(r)]
        num = Fraction(1)
        for i in range(d):
            for j in range(i + 1, d):
                num *= vals[i] - vals[j]
        for i in range(d, r):
            for j in range(i + 1, r):
                num *= vals[i] - vals[j]
        den = Fraction(1)
        for tau in taus:
            for x in vals[:d]:
                den *= tau - x
        lhs += perm_sign(perm) * num / den
    num = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            num *= xs[i] - xs[j]
    den = Fraction(1)
    for tau in taus:
        for x in xs:
            den *= tau - x
    return lhs, num / den


def _t_form_sides(xs, ts, r, d):
    """Both sides of the t = 1/tau form at a point, in Fractions, without
    the correction factor: the sum over permutations of
    sgn V(a)V(b) / prod_{t, x in a}(1 - x t), and V(x) prod t^(r-d) over
    prod_{t, x}(1 - x t)."""
    lhs = Fraction(0)
    for perm in permutations(range(r)):
        vals = [xs[perm[i]] for i in range(r)]
        num = Fraction(1)
        for block in (vals[:d], vals[d:]):
            for i in range(len(block)):
                for j in range(i + 1, len(block)):
                    num *= block[i] - block[j]
        den = Fraction(1)
        for t in ts:
            for x in vals[:d]:
                den *= 1 - x * t
        lhs += perm_sign(perm) * num / den
    num = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            num *= xs[i] - xs[j]
    den = Fraction(1)
    for t in ts:
        num *= t ** (r - d)
        for x in xs:
            den *= 1 - x * t
    return lhs, num / den


def _fraction_sample_point(rng, r, d, height, clash):
    """The sampler as it drew ``Fraction`` points, the reference for the
    pair sampler: the same randint calls and the same resampling rule."""
    while True:
        xs = [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(r)]
        ys = [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(d)]
        if len(set(xs)) == r and not any(clash(y, x) for y in ys for x in xs):
            return xs, ys


def _per_ordering_block_sum(xs, plan, weights):
    """The signed block sum as it read before the plan held sets: the
    weight product taken once per ordered second block."""
    firsts, seconds, _, _, triples = plan
    diffs = [[x - y for y in xs] for x in xs]
    va = [block_vandermonde(diffs, a) for a in firsts]
    vb = [block_vandermonde(diffs, b) * prod(weights[i] for i in b) for b in seconds]
    return sum(sign * va[a] * vb[b] for sign, a, b in triples)


CAUCHY_SHAPES = [(2, 1), (3, 1), (3, 3), (4, 2), (5, 2), (5, 3)]
CAUCHY_FORMS = [
    (_tau_clash, _tau_point_holds, _tau_form_sides),
    (_t_clash, _t_point_holds, _t_form_sides),
]
# each pair clash rule beside the Fraction rule it replaces
SAMPLER_FORMS = [
    (_tau_clash, lambda tau, x: tau == x),
    (_t_clash, lambda t, x: x * t == 1),
]


class TestGeneralizedCauchy:
    @pytest.mark.parametrize("r,d", CAUCHY_SHAPES)
    @pytest.mark.parametrize("form", CAUCHY_FORMS, ids=["tau", "t"])
    def test_integer_points_agree_with_fraction_reference(self, form, r, d):
        # the cross-multiplied int check reaches the verdict of the
        # Fraction sides at each sampled point, for the right scale and
        # for wrong ones
        clash, holds, sides = form
        rng = random.Random(100 * r + d)
        plan = _block_plan(r, d)
        right = factorial(d) * factorial(r - d)
        for _ in range(4):
            xs, ys = _sample_point(rng, r, d, 20, clash)
            lhs, rhs = sides([Fraction(*x) for x in xs], [Fraction(*y) for y in ys], r, d)
            assert rhs != 0
            for scale in (right, right + 1, right - 1, 2 * right):
                assert holds(xs, ys, plan, scale) == (lhs == scale * rhs), scale

    @pytest.mark.parametrize("r,d", CAUCHY_SHAPES)
    @pytest.mark.parametrize("form", CAUCHY_FORMS, ids=["tau", "t"])
    def test_off_by_one_scale_fails(self, form, r, d):
        # cross-multiplying removed every division; the check must still
        # be able to fail
        clash, holds, _ = form
        rng = random.Random(7 * r + d)
        plan = _block_plan(r, d)
        right = factorial(d) * factorial(r - d)
        for _ in range(3):
            xs, ys = _sample_point(rng, r, d, 20, clash)
            assert holds(xs, ys, plan, right)
            assert not holds(xs, ys, plan, right + 1)
            assert not holds(xs, ys, plan, right - 1)

    @pytest.mark.parametrize("r,d", CAUCHY_SHAPES + [(6, 3), (1, 1)])
    def test_block_plan_has_every_signed_permutation(self, r, d):
        firsts, seconds, set_of, sets, triples = _block_plan(r, d)
        assert len(triples) == factorial(r)
        assert len(firsts) == factorial(r) // factorial(r - d)
        assert len(seconds) == factorial(r) // factorial(d)
        perms = [firsts[a] + seconds[b] for _, a, b in triples]
        assert sorted(perms) == sorted(permutations(range(r)))
        assert all(sign == perm_sign(p) for (sign, _, _), p in zip(triples, perms))
        assert all(sets[i] == tuple(sorted(block)) for block, i in zip(seconds, set_of))

    @pytest.mark.parametrize("r,d", CAUCHY_SHAPES)
    @pytest.mark.parametrize("form", SAMPLER_FORMS, ids=["tau", "t"])
    @pytest.mark.parametrize("height", [2, 20])
    def test_pair_sampler_draws_the_fraction_points(self, form, r, d, height):
        # height 2 leaves few distinct values, so both resampling rules fire
        clash, fraction_clash = form
        for seed in range(4):
            pairs, fractions = random.Random(seed), random.Random(seed)
            for _ in range(10):
                xs, ys = _sample_point(pairs, r, d, height, clash)
                want = _fraction_sample_point(fractions, r, d, height, fraction_clash)
                assert (xs, ys) == tuple([(v.numerator, v.denominator) for v in side]
                                         for side in want)
            assert pairs.random() == fractions.random()

    @pytest.mark.parametrize("r,d", CAUCHY_SHAPES + [(6, 3), (1, 1)])
    def test_block_vandermonde_matches_vandermonde_at(self, r, d):
        xs = random.Random(10 * r + d).sample(range(-50, 50), r)
        diffs = [[x - y for y in xs] for x in xs]
        firsts, seconds, _, _, _ = _block_plan(r, d)
        for block in firsts + seconds:
            assert block_vandermonde(diffs, block) == vandermonde_at([xs[i] for i in block])

    @pytest.mark.parametrize("r,d", CAUCHY_SHAPES + [(6, 3), (1, 1)])
    @pytest.mark.parametrize("form", CAUCHY_FORMS, ids=["tau", "t"])
    def test_weight_per_set_matches_weight_per_ordering(self, monkeypatch, form, r, d):
        # every call a form makes at a drawn point gives the sum of the
        # per-ordering reference
        clash, holds, _ = form
        seen = []

        def compare(xs, plan, weights):
            got = block_sum(xs, plan, weights)
            assert got == _per_ordering_block_sum(xs, plan, weights)
            seen.append(got)
            return got

        block_sum = symfunc._signed_block_sum
        monkeypatch.setattr(symfunc, "_signed_block_sum", compare)
        rng = random.Random(1000 * r + d)
        plan = _block_plan(r, d)
        right = factorial(d) * factorial(r - d)
        for _ in range(5):
            xs, ys = _sample_point(rng, r, d, 20, clash)
            assert holds(xs, ys, plan, right)
        assert len(seen) == 5

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_weight_per_set_on_drawn_ints(self, data):
        r, d = data.draw(st.sampled_from(CAUCHY_SHAPES + [(6, 3), (1, 1)]))
        xs = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=r, max_size=r, unique=True))
        weights = data.draw(st.lists(st.integers(-10**9, 10**9), min_size=r, max_size=r))
        plan = _block_plan(r, d)
        assert symfunc._signed_block_sum(xs, plan, weights) == _per_ordering_block_sum(
            xs, plan, weights)

    def test_check_forms_no_fraction(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"Fraction{args} formed")

        monkeypatch.setattr(symfunc, "Fraction", refuse)
        for r, d in CAUCHY_SHAPES:
            assert gen_cauchy_check(r, d, trials=5, seed=3)

    @pytest.mark.parametrize("form", ["tau", "t"])
    def test_witness_names_first_failing_point(self, monkeypatch, form):
        monkeypatch.setattr(symfunc, f"_{form}_point_holds", lambda *args: False)
        rng = random.Random(5)
        xs, ys = _sample_point(rng, 3, 1, 20, _tau_clash)
        if form == "t":
            xs, ys = _sample_point(rng, 3, 1, 20, _t_clash)
        point = f"x = ({', '.join(str(Fraction(*x)) for x in xs)}), {form} = ({Fraction(*ys[0])})"
        assert gen_cauchy_witness(3, 1, 2, 5) == (form, point)
        assert not gen_cauchy_check(3, 1, 2, 5)

    def test_hand_point_r2_d1(self):
        # A(1/(tau - x0)) at x = (0, 1), tau = 2: 1/2 - 1 = -1/2 = (0-1)/(2*1)
        lhs, rhs = _tau_form_sides([Fraction(0), Fraction(1)], [Fraction(2)], 2, 1)
        assert lhs == Fraction(-1, 2) == rhs

    def test_verifier_on_acceptance_pairs(self):
        for (r, d) in [(3, 1), (4, 2)]:
            assert gen_cauchy_check(r, d, trials=5, seed=13)

    def test_full_corank_block(self):
        # d = r leaves the second block empty; the factor degrades to r!
        assert gen_cauchy_check(3, 3, trials=5, seed=13)
        assert gen_cauchy_check(2, 2, trials=5, seed=13)

    def test_unnormalized_form_misses_factor(self):
        # the raw identity fails by exactly d!(r-d)! once both blocks are
        # nontrivial; this locks the corrected normalization in place
        rng = random.Random(99)
        r, d = 4, 2
        while True:
            xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r)]
            taus = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
            if len(set(xs)) == r and all(t != x for t in taus for x in xs):
                break
        lhs, rhs = _tau_form_sides(xs, taus, r, d)
        assert rhs != 0
        assert lhs == rhs * factorial(d) * factorial(r - d)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            gen_cauchy_check(2, 3)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_refused(self, trials):
        # with no point sampled the check would hold vacuously
        with pytest.raises(ValueError, match="trials"):
            gen_cauchy_check(3, 1, trials=trials)

    def test_large_r_capped(self):
        with pytest.raises(ValueError, match="capped"):
            gen_cauchy_check(7, 2, trials=1)


def test_segre_product_matches_series_by_series():
    """segre_product is the product of the shifted Segre series, one
    variable each."""
    E = BundleModel.from_chern_roots(projective_space(2), [1, -1, 2])
    shifts = (2, -1, 0)
    expected = LaurentPoly.constant(3, E.base.one())
    for i, shift in enumerate(shifts):
        t = LaurentPoly.variable(3, i)
        series = sum((t ** m * E.segre_class(m) for m in range(3)), LaurentPoly.zero(3))
        expected = expected * series * LaurentPoly.monomial(3, tuple(
            shift if j == i else 0 for j in range(3)))
    assert segre_product(E, shifts) == expected
    assert segre_product(E, ()) == LaurentPoly.constant(0, E.base.one())


def _iterated_segre_product(bundle, shifts):
    """prod_i t_i^shifts[i] s(E, t_i) as iterated LaurentPoly products of
    the truncated series, multiplied in from i = 0 up."""
    nvars = len(shifts)
    classes = [(m, s) for m in range(bundle.base.n + 1) if (s := bundle.segre_class(m))]
    product = LaurentPoly.constant(nvars, bundle.base.one())
    for i, shift in enumerate(shifts):
        series = {(0,) * i + (shift + m,) + (0,) * (nvars - i - 1): s for m, s in classes}
        product = product * LaurentPoly(nvars, series)
    return product


@st.composite
def segre_bundles(draw):
    """A bundle over a point, P1-P3 or a formal base: trivial, split,
    formal, or with rational Segre classes."""
    n = draw(st.integers(min_value=0, max_value=3), label="n")
    kind = draw(st.sampled_from(("trivial", "split", "formal", "rational")), label="kind")
    if kind == "formal" and n:
        return BundleModel.formal(formal_segre(n), draw(st.integers(1, 5), label="rank"))
    base = projective_space(n) if n else point()
    if kind == "split":
        roots = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4), label="roots")
        return BundleModel.from_chern_roots(base, roots)
    if kind == "rational" and n:
        # rank >= n: no derived Chern class above the rank lies in degree <= n
        h = base.hyperplane()
        qs = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))) for _ in range(n)]
        segre = [base.one()] + [h ** i * q for i, q in enumerate(qs, 1)]
        return BundleModel.from_segre(base, draw(st.integers(n, n + 2), label="rank"), segre)
    return BundleModel.trivial(base, draw(st.integers(1, 4), label="rank"))


@given(segre_bundles(), st.lists(st.integers(-4, 4), min_size=1, max_size=4))
@settings(max_examples=120, deadline=None)
def test_segre_product_matches_iterated_laurent_product(bundle, shifts):
    """The enumeration over degree vectors |m| <= n equals the iterated
    product of the shifted series, on every kind of bundle and base."""
    assert segre_product(bundle, shifts) == _iterated_segre_product(bundle, shifts)


@given(segre_bundles(), st.data())
@settings(max_examples=80, deadline=None)
def test_segre_product_shifts_one_cached_table(bundle, data):
    """Several shift lists in turn on one bundle, all zeros among them:
    each product equals the iterated one, whatever was asked before, and
    the all-zero shift is the bundle's cached table itself."""
    shift_lists = data.draw(
        st.lists(st.lists(st.integers(-4, 4), max_size=4), min_size=1, max_size=5),
        label="shift_lists",
    )
    zeros = data.draw(st.sampled_from(shift_lists), label="zeros_like")
    shift_lists.insert(data.draw(st.integers(0, len(shift_lists))), [0] * len(zeros))
    for shifts in shift_lists:
        assert segre_product(bundle, shifts) == _iterated_segre_product(bundle, shifts)
    assert segre_product(bundle, [0] * len(zeros)) is bundle.segre_table(len(zeros))


def test_arithmetic_on_a_product_leaves_later_products_alone():
    E = BundleModel.from_chern_roots(projective_space(2), [1, -1, 2])
    for shifts in ((0, 0), (1, -2)):
        got = segre_product(E, shifts)
        for value in (got + got, got - got, -got, got * got, got * 3, got ** 2,
                      got * LaurentPoly.variable(2, 0)):
            assert value is not got
        assert segre_product(E, shifts) == _iterated_segre_product(E, shifts)
    assert segre_product(E, (0, 0)) == _iterated_segre_product(E, (0, 0))
