"""The projective-bundle tower (``chow.tower_pushforward``) against the
flag ring's normal form and the closed formula: on the agreement grid,
on the monomial grid's draws, on drawn bundles, and at the edges; past
the grid, against the closed and constant-term formulas alone."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from plucker.chow import (
    BundleModel, FlagRing, formal_segre, point, projective_space, tower_pushforward,
)
from plucker.degree import fiber_degree_hook
from plucker.exact import inv_factorial
from plucker.pushforward import (
    ch_pushforward_closed, ch_pushforward_oracle, monomial_pushforward_ct,
)
from plucker.verify import grid_bundles


def flag_ring_value(bundle, d):
    """The push-forward of exp(theta) read off FlagRing's theta chain."""
    ring = FlagRing(bundle, d)
    rel = d * (bundle.rank - d)
    value = bundle.base.zero()
    for N in range(rel, rel + bundle.base.n + 1):
        value = value + ring.pushforward_theta_power(N) * inv_factorial(N)
    return value


def assert_three_agree(bundle, d):
    tower = ch_pushforward_oracle(bundle, d)
    assert tower == flag_ring_value(bundle, d), (bundle.label, d)
    assert tower == ch_pushforward_closed(bundle, d), (bundle.label, d)


GRID = [(r, d) for r in range(1, 8) for d in range(1, r + 1)] + [(8, d) for d in range(1, 6)]


@pytest.mark.parametrize("rank, d", GRID, ids=[f"r={r} d={d}" for r, d in GRID])
def test_agreement_grid(rank, d):
    """The verify grid's bundles; d = r makes the last level a rank-1
    kernel, a projective bundle of fibre dimension 0."""
    for bundle in grid_bundles(rank):
        assert_three_agree(bundle, d)


@pytest.mark.parametrize("rank", range(1, 7))
def test_monomial_grid_draws(rank):
    """The draws of ``verify.run_monomial_grid(6, 3, 20)`` at its default
    seed: the tower equals the flag ring's top coefficient and the
    constant-term formula."""
    bundle = BundleModel.formal(formal_segre(3), rank)
    for d in range(1, rank + 1):
        ring = FlagRing(bundle, d)
        rng = random.Random(2024 * 10007 + rank * 101 + d)
        for _ in range(20):
            p = tuple(rng.randint(0, rank + 2) for _ in range(d))
            got = tower_pushforward(bundle, p)
            assert got == ring.from_terms({p: 1}).pushforward(), p
            assert got == monomial_pushforward_ct(p, bundle, d), p


def _rational_segre_bundle(data):
    n = data.draw(st.integers(min_value=1, max_value=3), label="n")
    base = projective_space(n)
    h = base.hyperplane()
    # rank >= n keeps any Segre classes consistent with the rank
    rank = data.draw(st.integers(min_value=n, max_value=5), label="rank")
    qs = [Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4)))
          for _ in range(n)]
    segre = [base.one()] + [h ** i * q for i, q in enumerate(qs, 1)]
    return BundleModel.from_segre(base, rank, segre)


def _split_bundle(data):
    n = data.draw(st.integers(min_value=0, max_value=3), label="n")
    rank = data.draw(st.integers(min_value=1, max_value=5), label="rank")
    roots = [data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(rank)]
    return BundleModel.from_chern_roots(projective_space(n), roots)


def _two_family_bundle(data):
    n = data.draw(st.integers(min_value=0, max_value=3), label="n")
    rank = data.draw(st.integers(min_value=1, max_value=5), label="rank")
    family = data.draw(st.integers(min_value=0, max_value=1), label="family")
    return BundleModel.formal(formal_segre(n, 2), rank, family=family)


DRAWN = {"rational Segre": _rational_segre_bundle, "split": _split_bundle,
         "two-family formal": _two_family_bundle}


@pytest.mark.parametrize("kind", DRAWN)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_drawn_bundles(kind, data):
    bundle = DRAWN[kind](data)
    d = data.draw(st.integers(min_value=1, max_value=bundle.rank), label="d")
    assert_three_agree(bundle, d)
    p = tuple(data.draw(st.integers(0, bundle.rank + 2)) for _ in range(d))
    ring = FlagRing(bundle, d)
    assert tower_pushforward(bundle, p) == ring.from_terms({p: 1}).pushforward(), p


def test_rational_coefficients_stay_exact():
    """Fraction Segre classes pass through the int weights: the tower's
    coefficients are ints where integral and reduced Fractions otherwise."""
    base = projective_space(2)
    h = base.hyperplane()
    segre = [base.one(), h * Fraction(1, 3), h ** 2 * Fraction(-5, 2)]
    bundle = BundleModel.from_segre(base, 3, segre)
    value = ch_pushforward_oracle(bundle, 2)
    assert value == ch_pushforward_closed(bundle, 2)
    assert all(type(c) is int or c.denominator != 1 for c in value.terms.values())
    assert any(isinstance(c, Fraction) for c in value.terms.values())


def test_exponential_times_any_monomial():
    """With ``exponential`` the tower pushes x^p exp(theta) for any p,
    not only the staircase."""
    bundle = BundleModel.formal(formal_segre(2), 4)
    ring = FlagRing(bundle, 2)
    theta = ring.theta()
    for p in [(0, 0), (3, 0), (1, 2), (5, 4)]:
        want = bundle.base.zero()
        power = ring.from_terms({p: 1})
        for N in range(12):
            want = want + power.pushforward() * inv_factorial(N)
            power = power * theta
        assert tower_pushforward(bundle, p, exponential=True) == want, p


@pytest.mark.parametrize("rank", range(1, 7))
def test_point_base(rank):
    """Over a point the oracle is deg G(d, r) / (d(r-d))!, the top
    monomial pushes forward to 1, and the unit to 0 unless it is the top
    monomial (r = d = 1)."""
    bundle = BundleModel.trivial(point(), rank)
    for d in range(1, rank + 1):
        assert_three_agree(bundle, d)
        degree = Fraction(fiber_degree_hook(rank, d), factorial(d * (rank - d)))
        assert ch_pushforward_oracle(bundle, d) == degree
        top = tuple(rank - 1 - l for l in range(d))
        assert tower_pushforward(bundle, top) == 1
        assert tower_pushforward(bundle, (0,) * d) == int(top == (0,) * d)


@pytest.mark.parametrize("base", [formal_segre(0), projective_space(0)], ids=["formal n=0", "P0"])
def test_truncation_zero(base):
    bundle = BundleModel.formal(base, 4) if base.kind == "formal" else BundleModel.trivial(base, 4)
    for d in range(1, 5):
        assert_three_agree(bundle, d)


def test_refuses_bad_shapes():
    bundle = BundleModel.formal(formal_segre(2), 3)
    for p in [(), (0, 0, 0, 0), (1, -1)]:
        with pytest.raises(ValueError):
            tower_pushforward(bundle, p)
    for d in (0, 4):
        with pytest.raises(ValueError):
            ch_pushforward_oracle(bundle, d)


BEYOND_GRID = [(10, 5, 3), (10, 6, 3), (10, 7, 3), (12, 6, 4)]


@pytest.mark.parametrize(
    "rank, d, n", BEYOND_GRID, ids=[f"r={r} d={d} n={n}" for r, d, n in BEYOND_GRID]
)
def test_beyond_the_flag_ring_grid(rank, d, n):
    """Past r = 8, with no FlagRing: the staircase times exp(theta)
    equals the closed formula, and drawn monomials x^p equal the
    constant-term formula.  Each p is the top monomial's exponents raised
    by a partition of k <= n (so the push-forward is a Schur determinant
    of degree k, not zero by symmetry) and shuffled, so entries pass
    their bounds in any position."""
    bundle = BundleModel.formal(formal_segre(n), rank)
    staircase = tuple(range(d - 1, -1, -1))
    closed = ch_pushforward_closed(bundle, d)
    assert tower_pushforward(bundle, staircase, exponential=True) == closed
    rng = random.Random(rank * 101 + d)
    nonzero = 0
    for k in range(n + 1):
        for _ in range(3):
            raise_by = [0] * d
            for _ in range(k):
                raise_by[rng.randrange(d)] += 1
            p = [rank - 1 - l + a for l, a in enumerate(sorted(raise_by, reverse=True))]
            rng.shuffle(p)
            got = tower_pushforward(bundle, tuple(p))
            assert got == monomial_pushforward_ct(p, bundle, d), p
            nonzero += bool(got)
    assert nonzero == 3 * (n + 1)
