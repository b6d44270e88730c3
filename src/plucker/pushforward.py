"""Push-forward of the Chern character of the Pluecker line bundle, by
four independent routes.

For a rank-r bundle E and the Grassmann bundle of corank-d subbundles,
the push-forward of exp(theta) to the base is computed here

* as a sum over exponent vectors k with a Vandermonde-type numerator and
  factorial denominator ("closed"),
* as a sum over partitions weighted by standard-tableau counts
  ("schur"),
* as the constant term of a Laurent series, evaluated through the linear
  functional :func:`phi` ("constterm"),
* and by pushing staircase * exp(theta) down the tower of projective
  bundles that the flag bundle is, one level at a time ("oracle").

Each route returns the push-forward as one element of the base ring
(a :class:`GradedElement`).  Its degree-m part ``value.component(m)``
times N! is the push-forward of theta^N for N = d(r-d) + m.

All four agree exactly, and the test suite insists on it.  The published
closed form exists in two variants differing by one in each factorial of
the denominator; only the variant implemented as ``"proof"`` matches the
oracle and the classical degrees, but both are available for comparison
(see :func:`ch_pushforward_closed`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm, perm, prod

from .chow import GradedElement, _monomial, tower_pushforward
from .exact import (LaurentPoly, _corank, _refuse_non_int, const_of_product, det,
                    exponent_vectors, inv_factorial, vandermonde, vandermonde_at)
from .symfunc import partitions_up_to, schur_delta, segre_det, segre_product, syt_count, weight

_ZERO = Fraction(0)

PROOF = "proof"
DISPLAYED = "displayed"


def phi(f: LaurentPoly, nvars: int):
    """Linear functional taking f to the constant term of
    Delta(t) exp(1/t_0 + ... + 1/t_{d-1}) f, one monomial at a time.

    With a_i = e_i + d - 1, the monomial t^e goes to det[1/(a_i - j)!],
    where 1/m! = 0 for m < 0.  Row i times a_i! is the integer falling
    factorials a_i!/(a_i - j)!, read from :func:`_falling_row`, so t^e
    adds its coefficient times the determinant :func:`_int_det` of those
    over prod a_i!.  One pass over e builds the rows and that product,
    and stops at the first a_i < 0, whose row makes the determinant
    zero.  Every coefficient, an int, a ``Fraction`` or a
    base-ring :class:`GradedElement`, is summed as int numerators over
    one lcm of all the denominators (one numerator per base monomial),
    and one ``Fraction``, or one ``GradedElement`` when some kept term
    has one as its coefficient, is built at the end."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if f.nvars != nvars:
        raise ValueError("variable count mismatch")
    kept, model = [], None  # (base monomial or None, numerator, denominator)
    shift = nvars - 1
    for exps, coeff in f.terms.items():
        rows, den = [], 1
        for e in exps:
            a = e + shift
            if a < 0:  # this row of the determinant is zero
                break
            rows.append(list(_falling_row(a, nvars)))
            den *= factorial(a)
        if len(rows) < nvars:
            continue
        num = _int_det(rows)
        if not num:
            continue
        if isinstance(coeff, (int, Fraction)):
            kept.append((None, num * coeff.numerator, den * coeff.denominator))
        elif isinstance(coeff, GradedElement):
            model = coeff.model if model is None else model.element(coeff).model
            kept.extend((e, num * c.numerator, den * c.denominator)
                        for e, c in coeff.terms.items())
        else:
            raise TypeError(f"phi: coefficient {coeff!r} is not a scalar or a base-ring element")
    common = lcm(*[den for _, _, den in kept])
    sums = {}
    for key, num, den in kept:
        sums[key] = sums.get(key, 0) + num * (common // den)
    if model is None:
        total = sums.get(None)
        return Fraction(total, common) if total else _ZERO
    if None in sums:
        one = (0,) * len(model.gen_names)
        sums[one] = sums.get(one, 0) + sums.pop(None)
    return GradedElement(model, {e: Fraction(s, common) for e, s in sums.items()})


@cache
def _falling_row(a: int, nvars: int) -> tuple:
    """The falling factorials a!/(a - j)! for j < nvars, zero past a."""
    return tuple(perm(a, j) for j in range(nvars))


def _int_det(rows) -> int:
    """Determinant of a square int matrix, overwriting ``rows``, by Bareiss's
    fraction-free elimination (Math. Comp. 22, 1968): each ``//`` is exact
    by Sylvester's identity, and a zero pivot swaps in a lower row.  The
    pivot row is bound once per step, and a row whose lead is 0 is only
    rescaled, entry * pivot // prev."""
    n, sign, prev = len(rows), 1, 1
    for k in range(n - 1):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if not pivot:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            pivot_row = rows[swap]
            rows[k], rows[swap] = pivot_row, rows[k]
            pivot = pivot_row[k]
            sign = -sign
        rest = range(k + 1, n)
        for i in rest:
            row = rows[i]
            lead = row[k]
            if lead:
                for j in rest:
                    row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
            else:
                for j in rest:
                    row[j] = row[j] * pivot // prev
        prev = pivot
    return sign * rows[-1][-1]


def phi_eval_monomial(k) -> Fraction:
    """Closed form of phi on the monomial prod t_i^{k_i}:
    (-1)^(d(d-1)/2) * prod_{i<j}(k_i - k_j) / prod (k_i + d - 1)!,
    0 on repeated exponents before any factorial is formed.  An exponent
    that is not an int raises ``TypeError``, a negative one
    ``ValueError``."""
    k = tuple(k)
    _refuse_non_int("exponent", k)
    if min(k, default=0) < 0:
        raise ValueError("exponents must be nonnegative")
    numerator = vandermonde_at(k)
    if not numerator:
        return _ZERO
    d = len(k)
    if (d * (d - 1) // 2) % 2:
        numerator = -numerator
    return Fraction(numerator, prod([factorial(x + d - 1) for x in k]))


def factorial_det_check(x) -> bool:
    """Check det[1/(x_i + j)!] = prod_{i<j}(x_i - x_j) / prod (x_i + d-1)!
    exactly, for nonnegative integers x_i; an entry that is not an int
    raises ``TypeError``."""
    x = tuple(x)
    _refuse_non_int("entry", x)
    d = len(x)
    if any(v < 0 for v in x):
        raise ValueError("entries must be nonnegative")
    lhs = det([[inv_factorial(v + j) for j in range(d)] for v in x])
    return lhs == Fraction(vandermonde_at(x), prod(factorial(v + d - 1) for v in x))


def _as_element(base, value) -> GradedElement:
    if isinstance(value, GradedElement):
        return value
    return base.scalar(value)


def monomial_pushforward_ct(p, bundle, d: int) -> GradedElement:
    """Push-forward of the flag-ring monomial prod x_i^{p_i} by the
    Laurent constant-term formula:
    const( Delta(t) prod t_i^{-p_i + r - d} s(E, t_i) )."""
    r = bundle.rank
    _corank(d, r)
    p = _monomial("flag-ring", p, d)
    f = segre_product(bundle, [-p[i] + r - d for i in range(d)])
    return _as_element(bundle.base, const_of_product(vandermonde(d), f))


def monomial_pushforward_det(p, bundle, d: int) -> GradedElement:
    """Same push-forward by the determinantal formula
    det[ s_{p_i + j - r + 1}(E) ]."""
    _corank(d, bundle.rank)
    p = _monomial("flag-ring", p, d)
    return segre_det(bundle, [e - bundle.rank + 1 for e in p])


def closed_term_coefficient(k, r: int, denominator: str = PROOF) -> Fraction:
    """The rational weight of prod s_{k_i}(E) in the closed formula.

    ``"proof"`` uses factorials (r + k_i - i - 1)!; ``"displayed"`` uses
    (r + k_i - i)!.  The two differ by one inside each factorial and only
    the former reproduces the oracle and the classical degrees: the test
    suite demonstrates the failure of the latter on concrete degrees.
    An exponent that is not an int raises ``TypeError``.
    """
    if denominator not in (PROOF, DISPLAYED):
        raise ValueError(f"unknown denominator variant {denominator!r}")
    k = tuple(k)
    _refuse_non_int("exponent", k)
    if len(k) > r or any(ki < 0 for ki in k):
        raise ValueError(f"need at most r={r} nonnegative exponents, got k={k}")
    shift = 1 if denominator == PROOF else 0
    return Fraction(
        vandermonde_at([ki - i for i, ki in enumerate(k)]),
        prod(factorial(r + ki - i - shift) for i, ki in enumerate(k)),
    )


def _closed_terms(bundle, d: int, denominator: str, total=None):
    """The nonzero terms (k, weight, prod s_{k_i}(E)) of the closed sum,
    over exponent vectors k with |k| <= n, or only |k| == total."""
    for k in exponent_vectors(d, max_total=bundle.base.n):
        if total is not None and sum(k) != total:
            continue
        coeff = closed_term_coefficient(k, bundle.rank, denominator)
        if not coeff:
            continue
        term = bundle.base.one()
        for ki in k:
            term = term * bundle.segre_class(ki)
            if not term:
                break
        if term:
            yield k, coeff, term


def ch_pushforward_closed(bundle, d: int, denominator: str = PROOF) -> GradedElement:
    """Closed-sum route: sum over k in Z_{>=0}^d of the factorial weight
    times prod s_{k_i}(E).  Exponents with |k| > n only feed degrees that
    are zero by truncation, so the sum stops at |k| = n."""
    _corank(d, bundle.rank)
    value = bundle.base.zero()
    for _, coeff, term in _closed_terms(bundle, d, denominator):
        value = value + term * coeff
    return value


def ch_pushforward_schur(bundle, d: int) -> GradedElement:
    """Tableau route: sum over partitions lam with at most d parts of
    f^{lam + (r-d)^d} / |lam + (r-d)^d|! times the Schur determinant in
    the Segre classes."""
    r = bundle.rank
    _corank(d, r)
    value = bundle.base.zero()
    for lam in partitions_up_to(d, bundle.base.n):
        mu = tuple(part + (r - d) for part in lam)
        coeff = Fraction(syt_count(mu), factorial(weight(mu)))
        term = schur_delta(lam, bundle)
        if term:
            value = value + term * coeff
    return value


def ch_pushforward_constterm(bundle, d: int) -> GradedElement:
    """Laurent route: the push-forward equals
    const( Delta(t) prod t_i^{r-d-(d-1-i)} exp(sum 1/t_i) prod s(E, t_i) ),
    evaluated by feeding the series part through :func:`phi`."""
    r = bundle.rank
    _corank(d, r)
    f = segre_product(bundle, [r - d - (d - 1 - i) for i in range(d)])
    return _as_element(bundle.base, phi(f, d))


def ch_pushforward_oracle(bundle, d: int) -> GradedElement:
    """Oracle route: push the staircase monomial prod x_i^{d-1-i} times
    exp(theta), theta = x_0 + ... + x_{d-1}, from the flag bundle down its
    tower of projective bundles (:func:`chow.tower_pushforward`).  The
    staircase pushes the flag bundle onto the Grassmann bundle, so this is
    the sum of the push-forwards of theta^N / N!.  Independent of all
    three formula routes."""
    _corank(d, bundle.rank)
    return tower_pushforward(bundle, range(d - 1, -1, -1), exponential=True)


ALL_METHODS = ("closed", "schur", "constterm", "oracle")


def ch_pushforward(bundle, d: int, method: str, denominator: str = PROOF) -> GradedElement:
    """Dispatch a single route by name."""
    if method == "closed":
        return ch_pushforward_closed(bundle, d, denominator)
    if method == "schur":
        return ch_pushforward_schur(bundle, d)
    if method == "constterm":
        return ch_pushforward_constterm(bundle, d)
    if method == "oracle":
        return ch_pushforward_oracle(bundle, d)
    raise ValueError(f"unknown method {method!r}")
