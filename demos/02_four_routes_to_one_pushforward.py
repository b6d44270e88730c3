"""
Four routes to one push-forward
===============================

The package computes the push-forward of ch(det Q) from a Grassmann
bundle to its base by four genuinely different algorithms:

* ``closed``     a sum over exponent vectors k with the factorial weight
                 prod(k_i - k_j - i + j) / prod (r + k_i - i - 1)!,
* ``schur``      a sum over partitions weighted by standard-tableau
                 counts against Schur determinants in the Segre classes,
* ``constterm``  the constant term of a Laurent series, taken through a
                 linear functional with factorial weights,
* ``oracle``     brute-force reduction in the flag-bundle quotient ring,
                 one theta power at a time.

They share no code beyond Segre classes, and they agree exactly.  The
formal model makes that agreement universal: its Segre classes are free
ring generators, so an identity verified there holds for every bundle
of that rank over any base of dimension up to the truncation.
"""

from fractions import Fraction
from math import factorial

from plucker import BundleModel, FlagRing, formal_segre, projective_space
from plucker.pushforward import ALL_METHODS, ch_pushforward

# ---------------------------------------------------------------------------
# A formal rank-4 bundle, truncation degree 3, corank d = 2.
# ---------------------------------------------------------------------------
base = formal_segre(3)
E = BundleModel.formal(base, 4)
d = 2

print(f"push-forward of ch(det Q) for {E.label}, d={d}")
print()
series = {method: ch_pushforward(E, d, method) for method in ALL_METHODS}
for m in range(base.n + 1):
    print(f"  degree {m}:")
    for method in ALL_METHODS:
        print(f"    {method:<9} {series[method].component(m)!r}")
    values = [series[method].component(m) for method in ALL_METHODS]
    assert all(v == values[0] for v in values[1:])
print()
print("All four columns agree in every degree, as elements of the free")
print("truncated ring Q[s1, s2, s3].  Because s1, s2, s3 are free, this")
print("is a polynomial identity, not a numerical coincidence.")
print()

# ---------------------------------------------------------------------------
# The same class carries the push-forwards of the individual theta powers.
# ---------------------------------------------------------------------------
# Each route returns one element of the base ring.  Its component m equals
# (push-forward of theta^N) / N! for N = d(r-d) + m; below the relative
# dimension the component index is negative and the component is zero.
ring = FlagRing(E, d)
rel = d * (E.rank - d)
print(f"theta-power push-forwards (relative dimension {rel}):")
for N in range(rel + base.n + 1):
    from_ring = ring.pushforward_theta_power(N)
    from_series = series["closed"].component(N - rel) * factorial(N)
    assert from_ring == from_series
    print(f"  theta^{N:<2} -> {from_ring!r}")
print()
print("Powers below the relative dimension push to zero; the first")
print(f"nonzero one (N = {rel}) is the degree of the fiber Grassmannian.")

# ---------------------------------------------------------------------------
# Split bundles over projective space give honest rational numbers.
# ---------------------------------------------------------------------------
E = BundleModel.from_chern_roots(projective_space(2), [1, 1, 0])
print()
print(f"same computation for {E.label}, d=2:")
closed = ch_pushforward(E, 2, "closed")
oracle = ch_pushforward(E, 2, "oracle")
for m in range(3):
    assert closed.component(m) == oracle.component(m)
    print(f"  degree {m}: {closed.component(m)!r}")
# the fiber is G(2,3) = P^2 of degree 1, sitting at N = d(r-d) = 2
assert closed.component(0) == Fraction(1, factorial(2))
