"""Partitions, standard Young tableaux, Schur polynomials and the
antisymmetrizer identities.

Partitions are plain tuples of weakly decreasing nonnegative integers;
trailing zeros are allowed and never change a count.  Tableau counts come
from the factorial/Vandermonde closed form, with honest enumeration kept
around as a test oracle.  Schur polynomials, in the variables t and in
the Segre classes of a bundle alike, are Jacobi-Trudi determinants
through ``exact.det``; no polynomial is ever divided.  The
antisymmetrizers here are the unnormalized ones, A(f) = sum over
permutations of sgn * permuted f, so repeated application scales by the
factorial of the block size.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm, prod

from .exact import LaurentPoly, _corank, _tadd, det, exponent_vectors, perm_sign, vandermonde_at

# random rational points of gen_cauchy_check have numerators in
# [-SAMPLE_HEIGHT, SAMPLE_HEIGHT] and denominators in [1, SAMPLE_HEIGHT]
SAMPLE_HEIGHT = 20


def is_partition(mu) -> bool:
    return all(a >= b for a, b in zip(mu, mu[1:])) and all(a >= 0 for a in mu)


def weight(mu) -> int:
    return sum(mu)


def _descend(m, parts, cap):
    """Partitions of m into exactly ``parts`` parts (zeros allowed), each
    at most ``cap``, in descending lexicographic order."""
    if parts == 1:
        if m <= cap:
            yield (m,)
        return
    for first in range(min(m, cap), -1, -1):
        if first * parts < m:
            break
        for rest in _descend(m - first, parts - 1, first):
            yield (first,) + rest


def partitions_up_to(parts: int, max_weight: int):
    """Every partition with at most ``parts`` parts and weight at most
    ``max_weight``, as tuples of length exactly ``parts``, each once."""
    if parts < 1:
        raise ValueError("need at least one part slot")
    if max_weight < 0:
        return
    for m in range(max_weight + 1):
        yield from _descend(m, parts, m)


def syt_count(mu) -> int:
    """Number of standard Young tableaux of shape mu.

    Uses the bialternant form: with l_i = mu_i + d - i (1-indexed), the
    count is |mu|! * prod_{i<j} (l_i - l_j) / prod_i l_i!.  The empty
    shape counts 1.
    """
    mu = tuple(mu)
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition")
    d = len(mu)
    ls = [mu[i] + d - 1 - i for i in range(d)]
    count = Fraction(factorial(weight(mu)) * vandermonde_at(ls), prod(map(factorial, ls)))
    if count.denominator != 1:
        raise AssertionError(f"tableau count for {mu} is not an integer: {count}")
    return int(count)


def standard_tableaux(mu):
    """Yield every standard Young tableau of shape mu, as a tuple of row
    tuples filled with 1..|mu|.  Enumeration oracle for syt_count."""
    mu = tuple(p for p in mu if p)
    if not is_partition(mu):
        raise ValueError(f"{mu} is not a partition")
    w = weight(mu)
    rows = [[] for _ in mu]
    lengths = [0] * len(mu)

    def place(value):
        if value > w:
            yield tuple(tuple(row) for row in rows)
            return
        for i in range(len(mu)):
            if lengths[i] >= mu[i]:
                continue
            if i > 0 and lengths[i] >= lengths[i - 1]:
                continue
            rows[i].append(value)
            lengths[i] += 1
            yield from place(value + 1)
            rows[i].pop()
            lengths[i] -= 1

    if w == 0:
        yield ()
        return
    yield from place(1)


def schur_in_t(lam, nvars: int) -> LaurentPoly:
    """Schur polynomial s_lam(t_0..t_{nvars-1}) by the Jacobi-Trudi
    identity s_lam = det[h_(lam_i - i + j)] over the nonzero parts of lam
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3), the same
    determinant :func:`schur_delta` takes in Segre classes.  An empty or
    all-zero lam gives 1, and more nonzero parts than variables give 0;
    the coefficients are ints."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    if nvars < 1:
        raise ValueError("need at least one variable")
    parts = [part for part in lam if part]
    if len(parts) > nvars:
        return LaurentPoly.zero(nvars)
    if not parts:
        return LaurentPoly.constant(nvars, 1)
    size = len(parts)
    return det([[_complete(parts[i] - i + j, nvars) for j in range(size)] for i in range(size)])


def _complete(k: int, nvars: int) -> LaurentPoly:
    """The complete homogeneous polynomial h_k(t_0..t_{nvars-1}): every
    monomial of total degree k with coefficient 1, and zero for k < 0."""
    if k < 0:
        return LaurentPoly.zero(nvars)
    return LaurentPoly(nvars, {
        e: 1 for e in exponent_vectors(nvars, max_total=k) if sum(e) == k
    })


def schur_delta(lam, bundle):
    """Schur polynomial in the Segre classes of a bundle: the
    determinant det[s_{lam_i + j - i}] over the length of lam."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    if not lam:
        return bundle.base.one()
    return segre_det(bundle, [part - i for i, part in enumerate(lam)])


def segre_det(bundle, offsets):
    """det[s_{offsets[i] + j}(E)] over i, j < len(offsets)."""
    d = len(offsets)
    return det([[bundle.segre_class(offsets[i] + j) for j in range(d)] for i in range(d)])


def segre_product(bundle, shifts) -> LaurentPoly:
    """prod_i t_i^shifts[i] s(E, t_i) in len(shifts) variables, each Segre
    series truncated at the base dimension n.

    No Laurent product is formed.  The unshifted product depends only on
    E and the number of variables, so it is the bundle's cached
    ``segre_table``, and the shifts only move its exponents: the
    monomial t^m becomes t^(m + shifts) with the same coefficient.  All
    zero shifts give the cached table itself."""
    table = bundle.segre_table(len(shifts))
    if not any(shifts):
        return table
    shifts = tuple(shifts)
    return table._new({_tadd(m, shifts): c for m, c in table.terms.items()})


def cauchy_expand_check(bundle, nvars: int, max_t_degree: int) -> bool:
    """Check prod_i s(E, t_i) = sum over partitions of
    schur_delta(lam, E) * s_lam(t), truncated by t-degree."""
    return cauchy_mismatch_witness(bundle, nvars, max_t_degree) is None


def cauchy_mismatch_witness(bundle, nvars: int, max_t_degree: int):
    """None when the Cauchy expansion of prod_i s(E, t_i), truncated to
    total t-degree <= max_t_degree, holds, else one offending monomial."""
    diff = segre_product(bundle, (0,) * nvars).truncate_total_degree(max_t_degree)
    for lam in partitions_up_to(nvars, max_t_degree):  # s_lam has t-degree |lam|
        coeff = schur_delta(lam, bundle)
        if coeff:
            diff = diff - schur_in_t(lam, nvars) * coeff
    return min(diff.terms) if diff else None


def antisymmetrize(f: LaurentPoly, block) -> LaurentPoly:
    """Signed symmetrization of f over permutations of the given variable
    indices (other variables stay put)."""
    block = list(block)
    if len(set(block)) != len(block) or any(
        not 0 <= i < f.nvars for i in block
    ):
        raise ValueError(f"invalid variable block {block}")
    result = LaurentPoly.zero(f.nvars)
    for perm in permutations(range(len(block))):
        mapping = list(range(f.nvars))
        for pos, p in enumerate(perm):
            mapping[block[pos]] = block[p]
        image = f.permute_variables(mapping)
        if perm_sign(perm) < 0:
            image = -image
        result = result + image
    return result


def _random_fraction(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def _to_integers(values):
    """The values times the lcm L of their denominators, as ints, and L."""
    common = lcm(*(v.denominator for v in values))
    return [v.numerator * (common // v.denominator) for v in values], common


def _block_plan(r, d):
    """The r! permutations of r points, split into a first block of d and
    a second of r - d: the distinct ordered first blocks, the distinct
    ordered second blocks, and one (sign, first index, second index)
    triple per permutation."""
    firsts, seconds, triples = {}, {}, []
    for perm in permutations(range(r)):
        a = firsts.setdefault(perm[:d], len(firsts))
        b = seconds.setdefault(perm[d:], len(seconds))
        triples.append((perm_sign(perm), a, b))
    return tuple(firsts), tuple(seconds), tuple(triples)


def _signed_block_sum(xs, plan, weights):
    """Sum over permutations of sgn * V(a) V(b) * prod_{x in b} w(x),
    where a and b are the first d and the last r-d permuted points and
    ``weights[i]`` is w(xs[i]).  Each ordered block of the
    :func:`_block_plan` is evaluated once, and the sum still adds all r!
    signed products."""
    firsts, seconds, triples = plan
    va = [vandermonde_at([xs[i] for i in a]) for a in firsts]
    vb = [vandermonde_at([xs[i] for i in b]) * prod(weights[i] for i in b) for b in seconds]
    return sum(sign * va[a] * vb[b] for sign, a, b in triples)


def _tau_point_holds(xs, taus, plan, scale):
    """The tau form at one point, with every denominator cleared:
    sum sgn V(a)V(b) prod_{tau, x in b}(tau - x) == scale * V(X), the
    identity times prod_{tau, x}(tau - x), at the point scaled to
    integers (both sides are homogeneous of degree r(r-1)/2)."""
    ints, _ = _to_integers(list(xs) + list(taus))
    xs, taus = ints[:len(xs)], ints[len(xs):]
    weights = [prod(tau - x for tau in taus) for x in xs]
    return _signed_block_sum(xs, plan, weights) == scale * vandermonde_at(xs)


def _t_point_holds(xs, ts, plan, scale):
    """The t form at one point, with every denominator cleared: for
    x = X/L and t = T/M, 1 - x t = (LM - XT)/(LM), and the identity times
    prod_{t, x}(1 - x t) becomes
    sum sgn V(a)V(b) prod_{t, x in b}(LM - XT) == scale * V(X) prod T^(r-d)."""
    xs, big_l = _to_integers(xs)
    ts, big_m = _to_integers(ts)
    lm = big_l * big_m
    weights = [prod(lm - x * t for t in ts) for x in xs]
    rhs = scale * vandermonde_at(xs) * prod(t ** (len(xs) - len(ts)) for t in ts)
    return _signed_block_sum(xs, plan, weights) == rhs


def gen_cauchy_check(r: int, d: int, trials: int = 100, seed: int = 0) -> bool:
    """Verify the generalized Cauchy determinant identity at random
    rational points, in both the tau form and the t = 1/tau form.

    With the unnormalized antisymmetrizer the correct right-hand side
    carries the combinatorial factor d! (r-d)!; see the identity notes in
    the README.  Degenerate samples (coinciding points, vanishing
    denominators) are resampled, never evaluated.  Each point is checked
    with its denominators cleared, on ints: equality is exact.
    """
    _corank(d, r)
    if trials < 1:
        raise ValueError(f"trials: need at least 1, got {trials}")
    if r > 6:
        raise ValueError("r is capped at 6: the antisymmetrizer sums r! terms")
    rng = random.Random(seed)
    scale = factorial(d) * factorial(r - d)
    plan = _block_plan(r, d)
    for _ in range(trials):
        xs, taus = _sample_point(rng, r, d, SAMPLE_HEIGHT, _tau_clash)
        if not _tau_point_holds(xs, taus, plan, scale):
            return False
        xs, ts = _sample_point(rng, r, d, SAMPLE_HEIGHT, _t_clash)
        if not _t_point_holds(xs, ts, plan, scale):
            return False
    return True


def _tau_clash(tau, x):
    return tau == x


def _t_clash(t, x):
    return x * t == 1


def _sample_point(rng, r, d, height, clash):
    """Draw r points xs and d points ys until the xs are distinct and no
    pair has ``clash(y, x)``."""
    while True:
        xs = [_random_fraction(rng, height) for _ in range(r)]
        ys = [_random_fraction(rng, height) for _ in range(d)]
        if len(set(xs)) == r and not any(clash(y, x) for y in ys for x in xs):
            return xs, ys
