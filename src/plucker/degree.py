"""Degree of a Grassmann bundle under its Pluecker embedding.

The degree is (d(r-d)+n)! times the integral over the base of the top
graded component of the pushed-forward Chern character.  Very-ampleness
of the relevant exterior power is a hypothesis of the geometric
statement and is *not* checked here: the formula is evaluated formally,
and a non-integer or negative answer is reported as-is (it signals a
configuration outside the embedding hypothesis, or a deliberately wrong
denominator variant).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .chow import FORMAL, integrate
from .exact import _corank, exact_str
from .pushforward import PROOF, _closed_terms
from .symfunc import syt_count


class DegreeResult(namedtuple("DegreeResult", "degree breakdown")):
    """Computed degree (a ``Fraction``) plus the per-exponent-vector
    contributions (a tuple of ``(k, value)`` pairs)."""

    __slots__ = ()

    @property
    def is_integer(self) -> bool:
        return self.degree.denominator == 1

    def __repr__(self):
        return f"DegreeResult(degree={exact_str(self.degree)})"


def plucker_degree(bundle, d: int, denominator: str = PROOF) -> DegreeResult:
    """Degree of the corank-d Grassmann bundle of ``bundle`` with respect
    to the Pluecker class, over a point or projective-space base."""
    base = bundle.base
    if base.kind == FORMAL:
        raise ValueError("degree needs a concrete base")
    r, n = bundle.rank, base.n
    _corank(d, r)
    scale = Fraction(factorial(d * (r - d) + n))
    breakdown = []
    total = Fraction(0)
    for k, coeff, cls in _closed_terms(bundle, d, denominator, total=n):
        value = scale * coeff * integrate(cls)
        if value:
            breakdown.append((k, value))
            total += value
    return DegreeResult(total, tuple(breakdown))


def fiber_degree_hook(r: int, d: int) -> int:
    """Degree of the fiber Grassmannian: the number of standard Young
    tableaux on the d x (r-d) rectangle.  Independent combinatorial
    oracle for :func:`plucker_degree` over a point."""
    _corank(d, r)
    return syt_count((r - d,) * d)
