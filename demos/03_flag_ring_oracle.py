"""
Inside the flag-ring oracle
===========================

The reference behind the oracle route (which pushes down the tower of
projective bundles without any basis) is the Chow ring of the flag
bundle of corank 1..d subbundles, presented as a free module over the
base ring with basis

    x_0^{i_0} x_1^{i_1} ... x_{d-1}^{i_{d-1}},    0 <= i_l <= r - l - 1.

Each generator x_l is the hyperplane class of one projective-bundle
step; its power x_l^{r-l} rewrites into lower powers through the Chern
classes of the l-th kernel bundle, c(K_l) = c(E) / prod_{i<l} (1 + x_i),
written out in closed form: c_j(K_l) = sum_a (-1)^|a| x^a c_{j-|a|}(E).
Push-forward to the base just reads off the coefficient of the top basis
monomial.  No Groebner machinery: the
relations are triangular in the variables, so reduction terminates on
its own.
"""

from plucker import BundleModel, FlagRing, formal_segre, projective_space
from plucker.exact import LaurentPoly

# ---------------------------------------------------------------------------
# A first look: one projective bundle over P^1.
# ---------------------------------------------------------------------------
base = projective_space(1)
E = BundleModel.from_chern_roots(base, [1, 1])
ring = FlagRing(E, 1)
x = ring.xi(0)
print("P(O(1)+O(1)) over P^1, rank 2, one generator x with x^2 reducible:")
print(f"  x^2  = {x * x!r}")
print(f"  x^3  = {x * x * x!r}")
print()
# c2 = h^2 dies on P^1, so the relation collapses to x^2 = 2h x.

# ---------------------------------------------------------------------------
# Normal form in a genuine flag ring (rank 3, d = 2).
# ---------------------------------------------------------------------------
fm = formal_segre(3)
E = BundleModel.formal(fm, 3)
ring = FlagRing(E, 2)
x0, x1 = ring.xi(0), ring.xi(1)
print(f"formal rank 3, d = 2; basis bounds are {ring.bounds}:")
print(f"  x1^2 = {x1 * x1!r}")
print()
print("The x1 relation involves x0: the second kernel bundle remembers")
print("the first projectivization through series division of Chern data.")
print()

# ---------------------------------------------------------------------------
# Push-forward = top-coefficient extraction, checked against the
# one-variable Segre series.
# ---------------------------------------------------------------------------
rank = 4
E = BundleModel.formal(fm, rank)
step = FlagRing(E, 1)
print(f"single projective-bundle step for rank {rank}:")
for p in range(rank + 3):
    pushed = step.from_terms({(p,): fm.one()}).pushforward()
    series = LaurentPoly(
        1, {(-p + rank - 1 + m,): E.segre_class(m) for m in range(fm.n + 1)}
    )
    assert pushed == (series.terms.get((0,), fm.zero()) or fm.zero())
    print(f"  x^{p:<2} pushes to {pushed!r}")
print()
print("Below p = r-1 everything dies, at p = r-1 the fiber integrates to")
print("1, and beyond that the Segre classes appear one degree at a time.")

# ---------------------------------------------------------------------------
# Theta powers through the full flag.
# ---------------------------------------------------------------------------
ring = FlagRing(E, 2)
rel = 2 * (rank - 2)
print()
print(f"theta = x0 + x1 on the d=2 flag of a rank-{rank} bundle:")
for N in range(rel + 2):
    print(f"  theta^{N:<2} pushes to {ring.pushforward_theta_power(N)!r}")
print()
print(f"The first nonzero push-forward sits exactly at N = d(r-d) = {rel},")
print("and equals the Pluecker degree of the fiber, here G(2,4): 2.")
