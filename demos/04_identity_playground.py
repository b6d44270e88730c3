"""
The identity toolbox
====================

Underneath the push-forward formulas sit a few self-contained algebraic
identities.  Each one has an honest verifier in the package; this script
walks through them with small, visible inputs.
"""

import random
from fractions import Fraction
from math import factorial

from plucker import (
    BundleModel,
    antisymmetrize,
    cauchy_expand_check,
    factorial_det_check,
    formal_segre,
    gen_cauchy_check,
    phi,
    phi_eval_monomial,
    schur_delta,
    schur_in_t,
    syt_count,
    vandermonde,
)
from plucker.exact import LaurentPoly

# ---------------------------------------------------------------------------
# The linear functional behind the constant-term route.
# ---------------------------------------------------------------------------
# phi(f) is the constant term of Delta(t) exp(sum 1/t_i) f(t).  On a
# monomial it evaluates in closed form, with alternating signs from the
# Vandermonde factor.
print("phi on monomials, direct expansion vs closed form:")
for k in [(3,), (1, 0), (2, 0), (4, 2, 1)]:
    direct = phi(LaurentPoly.monomial(len(k), k), len(k))
    closed = phi_eval_monomial(k)
    assert direct == closed
    print(f"  phi(t^{k}) = {closed}")
print()

# ---------------------------------------------------------------------------
# The factorial determinant that powers the closed form.
# ---------------------------------------------------------------------------
# det [ 1/(x_i + j)! ]  =  prod_{i<j} (x_i - x_j) / prod_i (x_i + d - 1)!
rng = random.Random(0)
checked = [tuple(rng.randint(0, 10) for _ in range(rng.randint(1, 4))) for _ in range(200)]
assert all(factorial_det_check(x) for x in checked)
print(f"factorial determinant identity verified on {len(checked)} random tuples")
print()

# ---------------------------------------------------------------------------
# Schur polynomials, two ways.
# ---------------------------------------------------------------------------
# Both are the Jacobi-Trudi determinant det[h_(lam_i - i + j)].  In
# variables, h_k(t) is the sum of all monomials of degree k, and the result
# times the Vandermonde is the alternant a_(lam + delta), asserted below.
# In Segre classes, h_k becomes s_k(E).
lam = (2, 1)
s = schur_in_t(lam, 2)
print(f"s_{lam}(t0, t1) = {s!r}")
assert s * vandermonde(2) == LaurentPoly(
    2, {(3, 1): Fraction(1), (1, 3): Fraction(-1)}
)
E = BundleModel.formal(formal_segre(3), 3)
print(f"s_{lam} in Segre classes = {schur_delta(lam, E)!r}")
print(f"standard tableaux of shape {lam}: {syt_count(lam)}")
print()

# ---------------------------------------------------------------------------
# The Cauchy expansion connecting the two.
# ---------------------------------------------------------------------------
# prod_i s(E, t_i) expands as sum over partitions of
# schur_delta(lam, E) * s_lam(t), and the package checks the equality of
# both sides as exact polynomials.
assert cauchy_expand_check(E, 2, 3)
print("Cauchy expansion of prod s(E, t_i) verified to weight 3 (rank 3, d = 2)")
print()

# ---------------------------------------------------------------------------
# Antisymmetrizers and the generalized Cauchy determinant.
# ---------------------------------------------------------------------------
# A(f) = sum over permutations of sgn * permuted f.  Applied to the
# staircase monomial it rebuilds the Vandermonde polynomial.
stair = LaurentPoly.monomial(3, (2, 1, 0))
assert antisymmetrize(stair, range(3)) == vandermonde(3)
print("A(x0^2 x1 x2^0) = Vandermonde(x0, x1, x2)")

# Repeating an antisymmetrization scales by the block factorial, and the
# block-factorization rule A(A'(f) A''(g)) = d!(r-d)! A(f g) carries the
# same bookkeeping.  The generalized Cauchy determinant identity below is
# stated with that normalization; the verifier samples random rational
# points and demands exact equality.
for (r, d) in [(3, 1), (4, 2), (5, 3)]:
    assert gen_cauchy_check(r, d, trials=25, seed=1)
    print(f"generalized Cauchy determinant: exact at 25 random points, r={r}, d={d}")
print()
print(f"(the correction factor for r=4, d=2 is d!(r-d)! = {factorial(2)*factorial(2)})")
