"""Acceptance suite.

Every criterion is exact (tolerance zero) and prints one pass/fail line;
run with ``pytest tests/test_acceptance.py -s`` to see the report.
"""

import random
import time
from fractions import Fraction
from math import factorial

from plucker.chow import BundleModel, FlagRing, formal_segre, point, projective_space
from plucker.degree import fiber_degree_hook, plucker_degree
from plucker.exact import LaurentPoly, exponent_vectors
from plucker.pushforward import (
    DISPLAYED,
    PROOF,
    ch_pushforward_closed,
    ch_pushforward_constterm,
    monomial_pushforward_ct,
    monomial_pushforward_det,
    phi,
    phi_eval_monomial,
)
from plucker import verify

MAX_RANK = 6
TRUNCATION = 3


def report(number, description, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"[{mark}] criterion {number}: {description}{tail}")
    assert ok, f"criterion {number}: {description} {detail}"


def test_criterion_1_fourway_agreement():
    started = time.time()
    results = verify.run_agreement_grid(MAX_RANK, TRUNCATION)
    elapsed = time.time() - started
    failures = [res for res in results if not res.ok]
    report(
        1,
        f"four-way agreement on {len(results)} cases (r <= {MAX_RANK}, "
        f"formal n={TRUNCATION} and three split bundles)",
        not failures,
        failures[0].line() if failures else f"{elapsed:.0f}s",
    )


def test_criterion_2_classical_plucker_degrees():
    expected = {(4, 2): 2, (5, 2): 5, (6, 2): 14, (6, 3): 42}
    ok = True
    detail = ""
    for (r, d), value in expected.items():
        formula = plucker_degree(BundleModel.trivial(point(), r), d).degree
        hook = fiber_degree_hook(r, d)
        if not (formula == hook == value):
            ok = False
            detail = f"G({d},{r}): formula={formula} hook={hook} expected={value}"
            break
    report(2, "classical Pluecker degrees match the tableau-rectangle oracle", ok, detail)


def test_criterion_3_denominator_variant_falsification():
    E = BundleModel.trivial(point(), 4)
    right = plucker_degree(E, 2, PROOF).degree
    wrong = plucker_degree(E, 2, DISPLAYED).degree
    ok = right == 2 and wrong == Fraction(1, 6) and wrong.denominator != 1
    report(
        3,
        "proof-consistent denominator gives 2 on G(2,4); the displayed "
        "variant gives the non-integer 1/6",
        ok,
        f"proof={right} displayed={wrong}",
    )


def test_criterion_4_d1_reduction():
    ok = True
    detail = ""
    fm = formal_segre(TRUNCATION)
    for r in range(1, 6):
        E = BundleModel.formal(fm, r)
        series = ch_pushforward_constterm(E, 1)
        for m in range(TRUNCATION + 1):
            expected = E.segre_class(m) * Fraction(1, factorial(r - 1 + m))
            if series.component(m) != expected:
                ok = False
                detail = f"r={r} m={m}"
                break
    quadric = plucker_degree(
        BundleModel.from_chern_roots(projective_space(1), [1, 1]), 1
    ).degree
    ok = ok and quadric == 2
    report(
        4,
        "d=1 components reduce to s_m/(r-1+m)! and the quadric surface has degree 2",
        ok,
        detail or f"quadric degree={quadric}",
    )


def test_criterion_5_phi_suite():
    ok = True
    detail = ""
    for d in range(1, 5):
        if not ok:
            break
        for k in exponent_vectors(d, max_entry=8):
            if phi(LaurentPoly.monomial(d, k), d) != phi_eval_monomial(k):
                ok = False
                detail = f"monomial grid k={k}"
                break
    if ok:
        suite = verify.run_phi_suite(seed=7)
        bad = [res for res in suite if not res.ok]
        if bad:
            ok = False
            detail = bad[0].line()
    report(
        5,
        "phi equals its closed form on all k_i <= 8, d <= 4; antisymmetry on "
        "200 cases; Schur shift on 50 symmetric cases",
        ok,
        detail,
    )


def test_criterion_6_identity_suite():
    results = verify.run_identity_suite(
        seed=11, det_trials=100, cauchy_truncation=3, gen_cauchy_trials=100
    )
    failures = [res for res in results if not res.ok]
    report(
        6,
        "factorial determinant (100 cases), Cauchy expansion (weight 3, d <= 3), "
        "generalized Cauchy determinant (100 points on 4 shapes)",
        not failures,
        failures[0].line() if failures else "",
    )


def test_criterion_7_monomial_triple_agreement():
    results = verify.run_monomial_grid(MAX_RANK, TRUNCATION, trials=100, seed=2024)
    failures = [res for res in results if not res.ok]
    report(
        7,
        f"constant-term = determinantal = oracle on 100 random exponent "
        f"tuples per (r,d), r <= {MAX_RANK}",
        not failures,
        failures[0].line() if failures else "",
    )


def test_criterion_8_grading_and_vanishing():
    ok = True
    detail = ""
    rng = random.Random(5)
    for rank in range(1, MAX_RANK + 1):
        if not ok:
            break
        for bundle in verify.grid_bundles(rank, TRUNCATION):
            if not ok:
                break
            d = rng.randint(1, rank)
            ring = FlagRing(bundle, d)
            rel = d * (rank - d)
            for N in range(rel):
                if ring.pushforward_theta_power(N):
                    ok = False
                    detail = f"{bundle.label} d={d}: theta^{N} nonzero"
                    break
            for m in range(bundle.base.n + 1):
                value = ring.pushforward_theta_power(rel + m)
                if value and value.homogeneous_degree() != m:
                    ok = False
                    detail = f"{bundle.label} d={d}: theta^{rel+m} not degree {m}"
                    break
    report(
        8,
        "pushed theta powers vanish below the relative dimension and are "
        "homogeneous of the expected degree above it",
        ok,
        detail,
    )
