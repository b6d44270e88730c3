"""Verification grids: the four-way agreement suite and the identity
suites, shared by the test suite and the ``verify`` / ``identity-check``
commands.

Every check is exact (tolerance zero).  Cases run one after another in
this process, and results are ordered by case key for reproducible
output.  Like ``chern-pushforward``, an agreement case runs the routes
of ``ALL_METHODS`` by name through ``pushforward.ch_pushforward``, and
names the lowest differing base monomial in the order a graded element
prints in (``BaseModel._repr_key``).  The oracle route pushes down the
projective-bundle tower; each agreement case also builds one flag ring,
the reference for the theta powers' structural checks, and each
monomial-grid case builds one whose normal form is the monomial oracle.
The monomial grid builds one formal bundle per rank, so that the flag
rings of its coranks share the bundle's relation table.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import permutations
from math import factorial

from .chow import BundleModel, FlagRing, formal_segre, point, projective_space
from .degree import fiber_degree_hook, plucker_degree
from .exact import LaurentPoly, exact_str, exponent_vectors, monomial_text, perm_sign
from .pushforward import (
    ALL_METHODS,
    DISPLAYED,
    PROOF,
    ch_pushforward,
    factorial_det_check,
    monomial_pushforward_ct,
    monomial_pushforward_det,
    phi,
    phi_eval_monomial,
)
from .symfunc import (cauchy_mismatch_witness, gen_cauchy_check, gen_cauchy_witness,
                      partitions_up_to, schur_in_t)

DEFAULT_MAX_RANK = 6
DEFAULT_TRUNCATION = 3
# sizes of the phi suite: random antisymmetry and Schur-shift cases, and
# the closed-form grid of monomials with d <= PHI_MAX_D, k_i <= PHI_MAX_POWER
PHI_ANTISYM_TRIALS = 200
PHI_SHIFT_TRIALS = 50
PHI_MAX_POWER = 8
PHI_MAX_D = 4
# the (r, d) shapes of the generalized Cauchy determinant check
GEN_CAUCHY_PAIRS = ((3, 1), (4, 2), (5, 2), (5, 3))


class CaseResult(namedtuple("CaseResult", "key ok detail", defaults=("",))):
    """One verified case: its key, whether it held, and on failure what
    differed."""

    __slots__ = ()

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        tail = f"  ({self.detail})" if self.detail and not self.ok else ""
        return f"[{mark}] {self.key}{tail}"


def split_bundles(rank: int):
    """Three fixed split bundles of a given rank over projective spaces,
    chosen to exercise mixed dimensions and root signs."""
    first = BundleModel.from_chern_roots(
        projective_space(1), [1] * rank, label=f"O(1)^{rank} over P1"
    )
    roots2 = ([2, 1] + [0] * (rank - 2))[:rank]
    second = BundleModel.from_chern_roots(
        projective_space(2), roots2, label=f"O{tuple(roots2)} over P2"
    )
    pos = (rank + 1) // 2
    roots3 = [1] * pos + [-1] * (rank - pos)
    third = BundleModel.from_chern_roots(
        projective_space(3), roots3, label=f"O{tuple(roots3)} over P3"
    )
    return [first, second, third]


def grid_bundles(rank: int, truncation: int = DEFAULT_TRUNCATION):
    """The agreement-grid models for one rank: the formal bundle plus the
    three fixed split bundles."""
    formal = BundleModel.formal(
        formal_segre(truncation), rank, label=f"formal rank {rank} (n={truncation})"
    )
    return [formal] + split_bundles(rank)


def _first_difference(name_a, a, name_b, b) -> str:
    """Empty when the base-ring elements ``a`` and ``b`` are equal, else
    the lowest base monomial of a - b (in repr order) with both of its
    coefficients."""
    if a == b:
        return ""
    diff = a - b
    model = diff.model
    exps = min(diff.terms, key=model._repr_key)
    mono = monomial_text(model.gen_names, exps) or "1"
    coeff_a, coeff_b = (exact_str(x.terms.get(exps, 0)) for x in (a, b))
    return f"{name_a} and {name_b} differ at {mono}: {coeff_a} vs {coeff_b}"


def route_disagreement(series) -> str:
    """The first difference from ``closed`` of the routes in a map from
    each name of ``ALL_METHODS`` to its push-forward, taken in that
    order, or ``""`` when all routes agree."""
    closed = series["closed"]
    details = (_first_difference("closed", closed, m, series[m]) for m in ALL_METHODS[1:])
    return next(filter(None, details), "")


def _first_failure(key, failures) -> CaseResult:
    """The case ``key``: failed with the first detail that the generator
    ``failures`` yields, else passed.  The generator is not resumed after
    a failure, so its random draws stop there."""
    detail = next(failures, None)
    return CaseResult(key, detail is None, detail or "")


def check_fourway(bundle, d: int) -> CaseResult:
    """One agreement-grid case: the three formula routes and the oracle
    must agree exactly, and in the flag ring theta powers must push
    forward to zero below the relative dimension and to N! times the
    closed route's homogeneous components from there on."""
    key = f"agreement r={bundle.rank} d={d} {bundle.label}"
    series = {m: ch_pushforward(bundle, d, m) for m in ALL_METHODS}
    closed = series["closed"]
    detail = route_disagreement(series)
    if detail:
        return CaseResult(key, False, detail)
    ring = FlagRing(bundle, d)
    rel = d * (bundle.rank - d)
    for N in range(rel):
        if ring.pushforward_theta_power(N):
            return CaseResult(key, False, f"theta^{N} pushed forward is nonzero")
    for m in range(bundle.base.n + 1):
        value = ring.pushforward_theta_power(rel + m)
        if value != closed.component(m) * factorial(rel + m):
            return CaseResult(key, False, f"theta^{rel + m} disagrees with N! * component")
    return CaseResult(key, True)


def run_agreement_grid(
    max_rank: int = DEFAULT_MAX_RANK,
    truncation: int = DEFAULT_TRUNCATION,
):
    """Four-way agreement for every 1 <= d <= r <= max_rank on the formal
    model and the three split bundles."""
    results = [
        check_fourway(bundle, d)
        for rank in range(1, max_rank + 1)
        for bundle in grid_bundles(rank, truncation)
        for d in range(1, rank + 1)
    ]
    return sorted(results, key=lambda res: res.key)


def run_monomial_grid(
    max_rank: int = DEFAULT_MAX_RANK,
    truncation: int = DEFAULT_TRUNCATION,
    trials: int = 100,
    seed: int = 2024,
):
    """Triple agreement (constant term, determinant, oracle) for random
    monomial push-forwards, per (r, d) on the formal model: one bundle
    per rank, alive only while that rank's cases run."""

    def one_case(bundle, d):
        rank = bundle.rank
        key = f"monomials r={rank} d={d}"
        rng = random.Random(seed * 10007 + rank * 101 + d)
        ring = FlagRing(bundle, d)
        for _ in range(trials):
            p = tuple(rng.randint(0, rank + 2) for _ in range(d))
            ct = monomial_pushforward_ct(p, bundle, d)
            dt = monomial_pushforward_det(p, bundle, d)
            orc = ring.from_terms({p: bundle.base.one()}).pushforward()
            detail = _first_difference("ct", ct, "det", dt) or _first_difference(
                "ct", ct, "oracle", orc
            )
            if detail:
                return CaseResult(key, False, f"p={p}: {detail}")
        return CaseResult(key, True)

    base = formal_segre(truncation)
    results = []
    for rank in range(1, max_rank + 1):
        bundle = BundleModel.formal(base, rank)
        results.extend(one_case(bundle, d) for d in range(1, rank + 1))
    return sorted(results, key=lambda res: res.key)


def _random_laurent(rng, nvars, nterms=4, low=-3, high=5, coeff_bound=9):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(low, high) for _ in range(nvars))
        value = rng.randint(-coeff_bound, coeff_bound)
        terms[exps] = terms.get(exps, 0) + value
    return LaurentPoly(nvars, terms)


def _symmetrize(poly: LaurentPoly) -> LaurentPoly:
    acc = LaurentPoly.zero(poly.nvars)
    for perm in permutations(range(poly.nvars)):
        acc = acc + poly.permute_variables(perm)
    return acc


def run_phi_suite(seed: int = 7):
    """The linear-functional suite: closed form on every small monomial,
    antisymmetry under variable permutations, and the Schur-shift rule.
    The grid's monomials t^k, whose exponents come from
    ``exponent_vectors`` as int tuples of length d, are built through
    the trusted ``_new`` of one polynomial per d, not re-validated, and
    each goes through the public :func:`phi`."""
    def grid_failures():
        for d in range(1, PHI_MAX_D + 1):
            new = LaurentPoly.zero(d)._new
            for k in exponent_vectors(d, max_entry=PHI_MAX_POWER):
                if phi(new({k: 1}), d) != phi_eval_monomial(k):
                    yield f"k={k}"

    rng = random.Random(seed)

    def antisymmetry_failures():
        for _ in range(PHI_ANTISYM_TRIALS):
            d = rng.randint(2, PHI_MAX_D)
            f = _random_laurent(rng, d)
            perm = list(range(d))
            rng.shuffle(perm)
            if phi(f.permute_variables(perm), d) != perm_sign(perm) * phi(f, d):
                yield f"perm={perm} f={f!r}"

    def shift_failures():
        for _ in range(PHI_SHIFT_TRIALS):
            d = rng.randint(1, 3)
            f = _symmetrize(_random_laurent(rng, d, nterms=3, low=0, high=4))
            lam = rng.choice(list(partitions_up_to(d, 4)))
            stair = LaurentPoly.monomial(d, tuple(-i for i in range(d)))
            lhs = phi(stair * f * schur_in_t(lam, d), d)
            shifted = LaurentPoly.monomial(d, tuple(lam[i] - i for i in range(d)))
            if lhs != phi(shifted * f, d):
                yield f"d={d} lam={lam}"

    # in report order: the two random cases share one rng
    return [
        _first_failure("phi closed form on monomial grid", grid_failures()),
        _first_failure(f"phi antisymmetry ({PHI_ANTISYM_TRIALS} random cases)",
                       antisymmetry_failures()),
        _first_failure(f"phi Schur shift ({PHI_SHIFT_TRIALS} random symmetric cases)",
                       shift_failures()),
    ]


def run_identity_suite(
    seed: int = 11,
    trials: int = 100,
    cauchy_truncation: int = DEFAULT_TRUNCATION,
):
    """Factorial determinant, Cauchy expansion, and the generalized
    Cauchy determinant identity at random rational points: ``trials``
    random cases of the first and points per shape of the last."""
    rng = random.Random(seed)

    def det_failures():
        for _ in range(trials):
            d = rng.randint(1, 4)
            x = tuple(rng.randint(0, 10) for _ in range(d))
            if not factorial_det_check(x):
                yield f"x={x}"

    results = [
        _first_failure(f"factorial determinant ({trials} random cases)", det_failures())
    ]

    for rank in (2, 3, 4):
        bundle = BundleModel.formal(formal_segre(cauchy_truncation), rank)
        for d in (1, 2, 3):
            witness = cauchy_mismatch_witness(bundle, d, cauchy_truncation)
            results.append(
                CaseResult(
                    f"cauchy expansion r={rank} d={d} (weight {cauchy_truncation})",
                    witness is None,
                    "" if witness is None else f"monomial {witness}",
                )
            )

    for r, d in GEN_CAUCHY_PAIRS:
        args = (r, d, trials, seed + 100 * r + d)
        ok = gen_cauchy_check(*args)
        results.append(
            CaseResult(
                f"generalized Cauchy determinant r={r} d={d} ({trials} points)",
                ok,
                "" if ok else "{} form fails at {}".format(*gen_cauchy_witness(*args)),
            )
        )
    return results


def run_degree_suite():
    """Classical degrees over a point, the hook-length cross-check, and
    the denominator-variant falsification."""
    results = []
    classical = {(4, 2): 2, (5, 2): 5, (6, 2): 14, (6, 3): 42}
    for (r, d), expected in sorted(classical.items()):
        bundle = BundleModel.trivial(point(), r)
        got = plucker_degree(bundle, d).degree
        hook = fiber_degree_hook(r, d)
        ok = got == expected == hook
        results.append(
            CaseResult(
                f"degree G({d},{r}) over a point",
                ok,
                "" if ok else f"formula={got} hook={hook} expected={expected}",
            )
        )
    bundle = BundleModel.trivial(point(), 4)
    wrong = plucker_degree(bundle, 2, DISPLAYED).degree
    right = plucker_degree(bundle, 2, PROOF).degree
    results.append(
        CaseResult(
            "denominator variants split on G(2,4)",
            right == 2 and wrong.denominator != 1,
            f"proof={right} displayed={wrong}",
        )
    )
    quadric = BundleModel.from_chern_roots(projective_space(1), [1, 1])
    results.append(
        CaseResult(
            "degree of P(O(1)+O(1)) over P1",
            plucker_degree(quadric, 1).degree == 2,
        )
    )
    return results


def run_all(max_rank: int = DEFAULT_MAX_RANK, truncation: int = DEFAULT_TRUNCATION,
            seed: int = 11):
    """Everything the ``verify`` command runs, in report order."""
    results = []
    results.extend(run_agreement_grid(max_rank, truncation))
    results.extend(run_monomial_grid(max_rank, truncation, trials=20, seed=seed))
    results.extend(run_phi_suite(seed=seed))
    results.extend(run_identity_suite(seed=seed))
    results.extend(run_degree_suite())
    return results
