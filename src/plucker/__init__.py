"""Exact calculator for push-forwards and degrees on Grassmann bundles.

The package computes the push-forward of the Chern character of the
Pluecker line bundle by four independent routes (closed factorial sum,
standard-tableau sum, Laurent constant term, flag-ring reduction) and
proves them equal on concrete and formal Chow-ring models, entirely in
exact rational arithmetic.
"""

from .chow import (
    BaseModel,
    BundleModel,
    FlagRing,
    FlagRingElement,
    GradedElement,
    chern_from_segre,
    formal_segre,
    integrate,
    point,
    projective_space,
    segre_from_chern,
)
from .degree import DegreeResult, fiber_degree_hook, plucker_degree
from .exact import LaurentPoly, det, inv_factorial, vandermonde
from .pushforward import (
    ALL_METHODS,
    DISPLAYED,
    PROOF,
    ch_pushforward,
    ch_pushforward_closed,
    ch_pushforward_constterm,
    ch_pushforward_oracle,
    ch_pushforward_schur,
    factorial_det_check,
    monomial_pushforward_ct,
    monomial_pushforward_det,
    phi,
    phi_eval_monomial,
)
from .symfunc import (
    antisymmetrize,
    cauchy_expand_check,
    gen_cauchy_check,
    partitions_up_to,
    schur_delta,
    schur_in_t,
    standard_tableaux,
    syt_count,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "BaseModel",
    "BundleModel",
    "DISPLAYED",
    "DegreeResult",
    "FlagRing",
    "FlagRingElement",
    "GradedElement",
    "LaurentPoly",
    "PROOF",
    "antisymmetrize",
    "cauchy_expand_check",
    "ch_pushforward",
    "ch_pushforward_closed",
    "ch_pushforward_constterm",
    "ch_pushforward_oracle",
    "ch_pushforward_schur",
    "chern_from_segre",
    "det",
    "factorial_det_check",
    "fiber_degree_hook",
    "formal_segre",
    "gen_cauchy_check",
    "integrate",
    "inv_factorial",
    "monomial_pushforward_ct",
    "monomial_pushforward_det",
    "partitions_up_to",
    "phi",
    "phi_eval_monomial",
    "plucker_degree",
    "point",
    "projective_space",
    "schur_delta",
    "schur_in_t",
    "segre_from_chern",
    "standard_tableaux",
    "syt_count",
    "vandermonde",
]
