"""The shared sparse-term contract of LaurentPoly, GradedElement and
FlagRingElement: additive laws, zero pruning, scalar coercion, parent
checks, unhashability, the refusal of floats, the refusal of any
exponent, dimension or corank that is not an int, and the one corank
and flag-monomial rule of every entry point that takes them."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plucker.chow import (
    BundleModel,
    FlagRing,
    FlagRingElement,
    GradedElement,
    formal_segre,
    point,
    projective_space,
)
from plucker.chow import tower_pushforward
from plucker.degree import fiber_degree_hook, plucker_degree
from plucker.exact import LaurentPoly, exponent_vectors
from plucker.pushforward import (
    ch_pushforward_closed,
    ch_pushforward_constterm,
    ch_pushforward_oracle,
    ch_pushforward_schur,
    monomial_pushforward_ct,
    monomial_pushforward_det,
)
from plucker.symfunc import gen_cauchy_check

COEFFS = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(1, 4)),
)
MODELS = (point(), projective_space(2), formal_segre(3), formal_segre(2, families=2))


def _graded(draw, model):
    vectors = list(exponent_vectors(len(model.gen_names), max_total=model.n))
    terms = draw(st.dictionaries(st.sampled_from(vectors), COEFFS, max_size=5))
    return GradedElement(model, terms)


def _laurent(draw, nvars):
    vectors = st.tuples(*[st.integers(min_value=-2, max_value=3)] * nvars)
    return LaurentPoly(nvars, draw(st.dictionaries(vectors, COEFFS, max_size=4)))


def _flag_ring(draw):
    rank = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(("formal", "split")))
    if kind == "formal":
        bundle = BundleModel.formal(formal_segre(2), rank)
    else:
        roots = [draw(st.integers(min_value=-2, max_value=2)) for _ in range(rank)]
        bundle = BundleModel.from_chern_roots(projective_space(2), roots)
    return FlagRing(bundle, draw(st.integers(min_value=1, max_value=rank)))


def _flag(draw, ring):
    monomials = st.tuples(*[st.integers(min_value=0, max_value=ring.bundle.rank)] * ring.d)
    keys = draw(st.lists(monomials, max_size=3, unique=True))
    return ring.from_terms({key: _graded(draw, ring.bundle.base) for key in keys})


@st.composite
def pairs(draw):
    """Two elements with one parent, of one of the three types."""
    kind = draw(st.sampled_from(("laurent", "graded", "flag")))
    if kind == "laurent":
        nvars = draw(st.integers(min_value=1, max_value=3))
        return _laurent(draw, nvars), _laurent(draw, nvars)
    if kind == "graded":
        model = draw(st.sampled_from(MODELS))
        return _graded(draw, model), _graded(draw, model)
    ring = _flag_ring(draw)
    return _flag(draw, ring), _flag(draw, ring)


def _no_stored_zero(elem):
    return all(bool(c) for c in elem.terms.values())


@given(pairs())
@settings(max_examples=80, deadline=None)
def test_add_then_subtract_is_identity(pair):
    a, b = pair
    assert a + b - b == a
    assert b + a == a + b
    assert -(-a) == a


@given(pairs())
@settings(max_examples=80, deadline=None)
def test_self_difference_is_empty(pair):
    a, _ = pair
    diff = a - a
    assert not diff
    assert diff.terms == {}
    assert not (a + (-a))


@given(pairs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_no_stored_zero_coefficient(pair, k):
    a, b = pair
    for result in (a + b, a - b, a * b, a ** k, -a):
        assert _no_stored_zero(result)
        assert type(result) is type(a)


@given(pairs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_power_is_repeated_product(pair, k):
    a, _ = pair
    expected = a ** 0
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


@given(st.data(), COEFFS)
@settings(max_examples=60, deadline=None)
def test_scalar_coercion_on_both_sides(data, q):
    kind = data.draw(st.sampled_from(("graded", "flag")))
    if kind == "graded":
        model = data.draw(st.sampled_from(MODELS))
        a = _graded(data.draw, model)
        as_element = model.scalar(q)
    else:
        ring = _flag_ring(data.draw)
        a = _flag(data.draw, ring)
        as_element = ring.scalar(q)
    assert a + q == q + a == a + as_element
    assert a - q == a - as_element
    assert q - a == as_element - a
    assert a * q == q * a == a * as_element
    assert (as_element == q) and (q == as_element)
    assert _no_stored_zero(a * q) and _no_stored_zero(q - a)


@given(st.data(), COEFFS)
@settings(max_examples=40, deadline=None)
def test_laurent_scalars_multiply_and_compare_but_do_not_add(data, q):
    a = _laurent(data.draw, 2)
    assert a * q == q * a == a * LaurentPoly.constant(2, q)
    assert _no_stored_zero(a * q)
    assert LaurentPoly.constant(2, q) == q
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(TypeError):
        1 - a


def test_flag_ring_mixed_with_flag_ring_of_another_bundle_refused():
    one = FlagRing(BundleModel.formal(formal_segre(2), 3), 2).one()
    other = FlagRing(BundleModel.formal(formal_segre(2), 3), 2).one()
    for op in (
        lambda: one + other,
        lambda: one - other,
        lambda: one * other,
        lambda: one == other,
    ):
        with pytest.raises(ValueError, match="different flag rings"):
            op()


def test_flag_rings_of_one_bundle_and_corank_mix():
    bundle = BundleModel.formal(formal_segre(2), 3)
    a, b = FlagRing(bundle, 2), FlagRing(bundle, 2)
    assert a.xi(0) + b.xi(1) == b.theta()
    with pytest.raises(ValueError, match="different flag rings"):
        a.one() + FlagRing(bundle, 1).one()


def test_parent_mismatch_refused():
    with pytest.raises(ValueError, match="mixed variable counts"):
        LaurentPoly.zero(1) - LaurentPoly.zero(2)
    with pytest.raises(ValueError, match="different base models"):
        projective_space(1).one() - projective_space(2).one()
    with pytest.raises(ValueError, match="different base models"):
        projective_space(1).one() * projective_space(2).one()


@pytest.mark.parametrize("elem", [
    LaurentPoly.constant(2, 1),
    projective_space(2).hyperplane(),
    FlagRing(BundleModel.trivial(point(), 3), 1).xi(0),
], ids=["laurent", "graded", "flag"])
def test_unhashable(elem):
    with pytest.raises(TypeError):
        hash(elem)
    with pytest.raises(TypeError):
        {elem}


def _refused_by_every_constructor(x):
    base = formal_segre(2)
    ring = FlagRing(BundleModel.formal(base, 3), 2)
    poly = LaurentPoly.variable(1, 0)
    builders = [
        lambda: LaurentPoly(1, {(0,): x}),
        lambda: LaurentPoly.constant(2, x),
        lambda: LaurentPoly.monomial(1, (1,), x),
        lambda: poly * x,
        lambda: x * poly,
        lambda: GradedElement(base, {(1, 0): x}),
        lambda: base.scalar(x),
        lambda: FlagRingElement(ring, {(1, 0): x}),
        lambda: ring.scalar(x),
        lambda: ring.from_terms({(1, 0): x}),
    ]
    for build in builders:
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            build()


@given(st.floats())
@settings(max_examples=40, deadline=None)
def test_no_public_constructor_accepts_a_float(x):
    _refused_by_every_constructor(x)


# what BaseModel.scalar refuses, a product and a constructor refuse too:
# h * True once returned h, a Laurent polynomial times "ab" once repeated
# strings, and LaurentPoly.constant(1, True) once equalled 1
NOT_SCALARS = [True, "ab"]


@pytest.mark.parametrize("value", NOT_SCALARS)
def test_no_public_constructor_accepts_what_scalar_refuses(value):
    _refused_by_every_constructor(value)


def test_a_bool_equals_no_constant():
    for one in (LaurentPoly.constant(1, 1), projective_space(2).one()):
        with pytest.raises(TypeError, match="scalar True is not an int or a Fraction"):
            one == True


@pytest.mark.parametrize("value", NOT_SCALARS)
def test_graded_product_refuses_what_scalar_refuses(value):
    h = projective_space(2).hyperplane()
    for build in (lambda: h * value, lambda: value * h, lambda: h + value,
                  lambda: h.model.scalar(value)):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("value", NOT_SCALARS)
def test_laurent_product_refuses_what_scalar_refuses(value):
    poly = LaurentPoly.monomial(1, (1,), 2)
    for build in (lambda: poly * value, lambda: value * poly):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            build()
    s1 = formal_segre(2).segre_generator(1)
    assert (poly * s1).terms == {(1,): s1 * 2}


# a generator or variable index is an int in range, by one rule
INDEXED = {
    "generator": (lambda i: projective_space(2).generator(i), 1),
    "segre generator": (lambda i: formal_segre(2).generator(i), 2),
    "laurent variable": (lambda i: LaurentPoly.variable(2, i), 2),
    "xi": (lambda i: FlagRing(BundleModel.formal(formal_segre(2), 3), 2).xi(i), 2),
}


@pytest.mark.parametrize("build, size", INDEXED.values(), ids=INDEXED)
def test_every_index_is_an_int_in_range(build, size):
    for i in (True, 1.0, Fraction(0)):
        with pytest.raises(TypeError, match=re.escape(f"index: {i!r} is not an int")):
            build(i)
    for i in (-1, size):
        with pytest.raises(ValueError, match=f"index {i} out of range 0..{size - 1}"):
            build(i)
    for i in range(size):
        assert list(build(i).terms) == [tuple(int(j == i) for j in range(size))]


# an exponent or a dimension is a plain int: these once printed as
# t0^0.5, s1^0.5 or P2.0, or counted True as 1
NOT_INTS = [0.5, 2.0, True, Fraction(2)]


def _refused(build, value):
    with pytest.raises(TypeError, match=re.escape(f"{value!r} is not an int")):
        build()


@pytest.mark.parametrize("x", NOT_INTS)
def test_laurent_poly_refuses_a_non_int_exponent_or_count(x):
    _refused(lambda: LaurentPoly(1, {(x,): 1}), x)
    _refused(lambda: LaurentPoly(2, {(1, 0): 1, (0, x): 1}), x)
    _refused(lambda: LaurentPoly.monomial(1, (x,)), x)
    _refused(lambda: LaurentPoly(x), x)


@pytest.mark.parametrize("x", NOT_INTS)
def test_graded_element_refuses_a_non_int_exponent(x):
    _refused(lambda: GradedElement(formal_segre(2), {(x, 0): 1}), x)
    _refused(lambda: GradedElement(projective_space(2), {(x,): 1}), x)


@pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (1, -1)])
def test_graded_element_follows_the_monomial_rule(exps):
    with pytest.raises(ValueError, match=re.escape(f"base monomial {exps} needs 2 nonnegative")):
        GradedElement(formal_segre(2), {exps: 1})


@pytest.mark.parametrize("x", NOT_INTS)
def test_flag_ring_element_refuses_a_non_int_exponent(x):
    ring = FlagRing(BundleModel.formal(formal_segre(2), 3), 2)
    _refused(lambda: FlagRingElement(ring, {(x, 0): 1}), x)
    _refused(lambda: ring.from_terms({(0, x): 1}), x)


@pytest.mark.parametrize("x", NOT_INTS)
def test_base_models_refuse_a_non_int_dimension(x):
    _refused(lambda: projective_space(x), x)
    _refused(lambda: formal_segre(x), x)
    _refused(lambda: formal_segre(2, x), x)


@pytest.mark.parametrize("x", NOT_INTS)
def test_bundles_and_flag_rings_refuse_a_non_int_rank_or_corank(x):
    base = projective_space(2)
    _refused(lambda: BundleModel.trivial(base, x), x)
    _refused(lambda: BundleModel.from_segre(base, x, [base.one(), base.zero(), base.zero()]), x)
    _refused(lambda: FlagRing(BundleModel.trivial(base, 3), x), x)


# every entry point that takes a corank d, called on a rank-3 bundle over P2
CORANK_ENTRIES = {
    "closed": ch_pushforward_closed,
    "schur": ch_pushforward_schur,
    "constterm": ch_pushforward_constterm,
    "oracle": ch_pushforward_oracle,
    "flag_ring": FlagRing,
    "monomial_ct": lambda E, d: monomial_pushforward_ct((1,), E, d),
    "monomial_det": lambda E, d: monomial_pushforward_det((1,), E, d),
    "plucker_degree": plucker_degree,
    "fiber_degree_hook": lambda E, d: fiber_degree_hook(E.rank, d),
    "gen_cauchy_check": lambda E, d: gen_cauchy_check(E.rank, d, trials=1),
}


def _rank_three():
    return BundleModel.from_chern_roots(projective_space(2), [1, 0, -1])


@pytest.mark.parametrize("x", NOT_INTS)
@pytest.mark.parametrize("entry", CORANK_ENTRIES.values(), ids=CORANK_ENTRIES)
def test_every_corank_entry_refuses_a_non_int_corank(entry, x):
    # True once gave the d=1 answer and 2.0 the d=2 one
    _refused(lambda: entry(_rank_three(), x), x)


@pytest.mark.parametrize("d", [0, 4])
@pytest.mark.parametrize("entry", CORANK_ENTRIES.values(), ids=CORANK_ENTRIES)
def test_every_corank_entry_refuses_a_corank_outside_one_to_rank(entry, d):
    with pytest.raises(ValueError, match=r"d=.* rank="):
        entry(_rank_three(), d)


# the entry points that take the rank r itself rather than a bundle
RANK_ENTRIES = {
    "fiber_degree_hook": lambda r: fiber_degree_hook(r, 1),
    "gen_cauchy_check": lambda r: gen_cauchy_check(r, 1, trials=2),
}


@pytest.mark.parametrize("r", [True, 3.0, Fraction(3)])
@pytest.mark.parametrize("entry", RANK_ENTRIES.values(), ids=RANK_ENTRIES)
def test_every_rank_entry_refuses_a_non_int_rank(entry, r):
    # True once gave the r=1 answer, and 3.0 failed inside range()
    with pytest.raises(TypeError, match=re.escape(f"rank: {r!r} is not an int")):
        entry(r)


# every power taken on a formal_segre(3), rank-4, d=2 flag ring
POWER_ENTRIES = {
    "graded": lambda ring, k: ring.bundle.base.generator(0) ** k,
    "laurent": lambda ring, k: LaurentPoly.variable(2, 0) ** k,
    "flag": lambda ring, k: ring.xi(0) ** k,
    "theta": lambda ring, k: ring.pushforward_theta_power(k),
}


@pytest.mark.parametrize("k", [True, 2.0, Fraction(2)])
@pytest.mark.parametrize("entry", POWER_ENTRIES.values(), ids=POWER_ENTRIES)
def test_every_power_refuses_a_non_int_power(entry, k):
    # True once gave the first power, 2.0 raised ValueError and, as the
    # theta power, failed as a list index
    ring = FlagRing(BundleModel.formal(formal_segre(3), 4), 2)
    with pytest.raises(TypeError, match=re.escape(f"power: {k!r} is not an int")):
        entry(ring, k)
    with pytest.raises(ValueError, match="power must be nonnegative"):
        entry(ring, -1)


@pytest.mark.parametrize("d", [0, 4])
def test_tower_refuses_a_monomial_of_corank_outside_one_to_rank(d):
    with pytest.raises(ValueError, match=r"d=.* rank="):
        tower_pushforward(_rank_three(), (0,) * d)


# every entry point that takes flag-ring exponents p_0..p_{d-1}, at d = 2
MONOMIAL_ENTRIES = {
    "tower": lambda ring, p: tower_pushforward(ring.bundle, p),
    "monomial_ct": lambda ring, p: monomial_pushforward_ct(p, ring.bundle, 2),
    "monomial_det": lambda ring, p: monomial_pushforward_det(p, ring.bundle, 2),
    "from_terms": lambda ring, p: ring.from_terms({p: 1}),
    "element": lambda ring, p: FlagRingElement(ring, {(0, 0): 1, p: 1}),
}


def _corank_two_ring():
    return FlagRing(BundleModel.formal(formal_segre(2), 3), 2)


@pytest.mark.parametrize("x", NOT_INTS)
@pytest.mark.parametrize("entry", MONOMIAL_ENTRIES.values(), ids=list(MONOMIAL_ENTRIES))
def test_every_monomial_entry_refuses_a_non_int_exponent(entry, x):
    ring = _corank_two_ring()
    _refused(lambda: entry(ring, (x, 3)), x)
    _refused(lambda: entry(ring, (4, x)), x)


@pytest.mark.parametrize("entry", MONOMIAL_ENTRIES.values(), ids=list(MONOMIAL_ENTRIES))
def test_every_monomial_entry_refuses_a_negative_exponent(entry):
    ring = _corank_two_ring()
    with pytest.raises(ValueError, match="nonnegative exponents"):
        entry(ring, (2, -1))


# the tower reads d from len(p), so its length rule is the corank rule above
@pytest.mark.parametrize("p", [(1,), (1, 0, 2)])
@pytest.mark.parametrize("name", [name for name in MONOMIAL_ENTRIES if name != "tower"])
def test_every_monomial_entry_refuses_the_wrong_length(name, p):
    with pytest.raises(ValueError, match="needs 2 nonnegative exponents"):
        MONOMIAL_ENTRIES[name](_corank_two_ring(), p)


def test_flag_ring_element_is_the_normal_form():
    """A key past the bounds is reduced, as by ``from_terms``, and a key
    of the wrong length is refused; such keys were once stored as they
    were, printed, and pushed forward by their top-monomial coefficient."""
    ring = _corank_two_ring()
    with pytest.raises(ValueError, match=r"\(9, 9, 9\) needs 2 nonnegative"):
        FlagRingElement(ring, {(9, 9, 9): 1, (2, 1): 1, (5, 0): 1})
    elem = FlagRingElement(ring, {(2, 1): 1, (5, 0): 1})
    assert elem == ring.from_terms({(2, 1): 1, (5, 0): 1})
    assert all(e <= b for exps in elem.terms for e, b in zip(exps, ring.bounds))
    assert elem.pushforward() == ring.from_terms({(2, 1): 1}).pushforward()


def test_flag_ring_element_coerces_scalar_coefficients():
    ring = FlagRing(BundleModel.trivial(point(), 3), 1)
    elem = FlagRingElement(ring, {(1,): 2, (0,): Fraction(1, 2), (2,): 0})
    assert repr(elem) == "1/2 + 2*x0"
    assert all(isinstance(c, GradedElement) for c in elem.terms.values())
    assert elem == ring.from_terms({(1,): 2, (0,): Fraction(1, 2)})
    assert elem == ring.scalar(Fraction(1, 2)) + ring.xi(0) * 2


PRODUCT_MODELS = (
    [point()]
    + [projective_space(n) for n in (1, 2, 3)]
    + [formal_segre(n, families) for n in range(5) for families in (1, 2)]
)


def _truncated_double_loop(a, b):
    """The product of two graded elements as the plain double loop over
    their terms, dropping every pair whose degrees sum past n."""
    model = a.model
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            if model._degree(e1) + model._degree(e2) <= model.n:
                exps = tuple(x + y for x, y in zip(e1, e2))
                out[exps] = out.get(exps, 0) + c1 * c2
    return {exps: c for exps, c in out.items() if c}


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_graded_product_is_the_truncated_double_loop(data):
    """GradedElement products, through the model's product cache, equal
    the naive truncated double loop; asking again reads the cache."""
    model = data.draw(st.sampled_from(PRODUCT_MODELS))
    a, b = _graded(data.draw, model), _graded(data.draw, model)
    expected = _truncated_double_loop(a, b)
    assert (a * b).terms == expected
    assert (a * b).terms == expected
    assert (b * a).terms == expected
    assert _no_stored_zero(a * b)


@pytest.mark.parametrize("build", [
    lambda: projective_space(2),
    lambda: formal_segre(3),
    lambda: formal_segre(2, families=2),
], ids=["P2", "formal3", "formal2x2"])
def test_equal_models_multiply_and_different_models_refuse(build):
    model, twin = build(), build()
    assert model is not twin and model == twin
    a = model.one() + model.generator(0) * 2
    b = twin.one() - twin.generator(0) * Fraction(1, 3)
    assert a * b == b * a
    assert (a * b).terms == _truncated_double_loop(a, b)
    other = formal_segre(model.n + 1) if model.kind == "formal" else projective_space(model.n + 1)
    with pytest.raises(ValueError, match="different base models"):
        a * other.one()
    with pytest.raises(ValueError, match="different base models"):
        formal_segre(2, families=1).one() * formal_segre(2, families=2).one()
