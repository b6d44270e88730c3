"""Truncated rational Chow-ring models, bundle class data, and the
flag-bundle quotient ring.

Three base models are supported:

* ``point()`` is the rational numbers in degree 0,
* ``projective_space(n)`` is Q[h]/(h^(n+1)) with h the hyperplane class,
* ``formal_segre(n, families)`` is a polynomial ring on free graded
  generators s_1, ..., s_n (one batch per family, deg s_i = i) truncated
  above total degree n.  An identity verified there holds for every base
  of dimension at most n, because the generators carry no relations.

Elements of a base model (:class:`GradedElement`) and of a flag ring
(:class:`FlagRingElement`) are ``exact.SparseTerms`` maps, which supply
their addition, subtraction, equality, powers and printing; each class
here adds its parent check, scalar coercion and product, and a graded
element its own order and names for printing.  The tower and
the flag ring compute on raw base term maps (exponent tuple -> nonzero
coefficient) and wrap a :class:`GradedElement` only around a result.

On top of a base model, :class:`BundleModel` records the rank and the
Segre classes of a vector bundle.  Its flag bundle is a tower of
projective bundles, and :func:`tower_pushforward` pushes a monomial in
their hyperplane classes x_0, ..., x_{d-1} (times exp(x_0 + ... + x_{d-1})
if asked) down that tower one level at a time; the ``oracle`` route that
the closed formulas are checked against is this push-down.
:class:`FlagRing` realizes the Chow ring of the flag bundle as a free
module over the base with the monomial basis
x_0^{i_0} ... x_{d-1}^{i_{d-1}}, 0 <= i_l <= rank-l-1, where push-forward
is coefficient extraction on the top basis monomial: a brute-force
reference for the tower at small shapes, and the oracle of the
verification's monomial grid.  Its relations are written in normal form
from the closed form of c(K_l) = c(E) / prod_{j<l} (1 + x_j), and the
normal forms it reads at the bounds of the x_l depend on the bundle
alone, so they are kept in one table on the bundle that the flag rings
of every corank share.  Both
push-downs share one degree argument: a term of x-degree k and base
degree b is zero once k + b passes n plus the fibre dimensions still to
be pushed down, so the tower drops it at each level and a normal form
never computes it.
:meth:`FlagRing.from_terms` is the one way an element is built from
outside the ring, through ``FlagRingElement(ring, terms)`` too, so every
element is in normal form.  A monomial x^p is refused unless p is d
nonnegative ints, a corank unless it is an int with 1 <= d <= rank, a
scalar unless it is an int or a ``Fraction``, a flag-ring coefficient or
a bundle class unless :meth:`BaseModel.element` takes it, and an index
unless it is an int in range, by one rule each.

Coefficients are exact: Python ints wherever they are integral (every
formal and split bundle), ``Fraction`` only where the input brings a
denominator (rational Segre classes).  The only division in this module
is the tower's one division by its exponential weights' common
denominator.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (
    LaurentPoly, SparseTerms, _corank, _exact_scalar, _refuse_non_int, _tadd, _unit_vector,
    exponent_vectors,
)

_ZERO = 0
_ONE = 1
_UNSEEN = object()

POINT = "point"
PROJECTIVE = "projective"
FORMAL = "formal"

_FAMILY_PREFIXES = ("s", "u", "v", "w")


class BaseModel:
    """A truncated graded ring standing in for the rational Chow ring of
    the base variety.  Immutable after construction apart from two
    idempotent caches: the degree memo and the product cache of
    :meth:`_mul_into`."""

    __slots__ = ("kind", "n", "families", "gen_names", "gen_degrees", "_deg_memo", "_products")

    def __init__(self, kind, n, families, gen_names, gen_degrees):
        self.kind = kind
        self.n = n
        self.families = families
        self.gen_names = tuple(gen_names)
        self.gen_degrees = tuple(gen_degrees)
        self._deg_memo = {}
        # e1 -> e2 -> exponents of their product, or None above degree n
        self._products = {}

    def __eq__(self, other):
        return (
            isinstance(other, BaseModel)
            and self.kind == other.kind
            and self.n == other.n
            and self.families == other.families
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.families))

    def __repr__(self):
        if self.kind == POINT:
            return "point"
        if self.kind == PROJECTIVE:
            return f"P{self.n}"
        return f"formal(n={self.n}, families={self.families})"

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def one(self) -> "GradedElement":
        return self.scalar(_ONE)

    def scalar(self, value) -> "GradedElement":
        """The constant ``value``, an ``int`` or a ``Fraction``; a float
        (or a bool) is refused with ``TypeError``."""
        value = _reduced(_exact_scalar(value))
        return _graded(self, {(0,) * len(self.gen_names): value} if value else {})

    def element(self, value) -> "GradedElement":
        """``value`` as an element of this model, a scalar by :meth:`scalar`;
        an element of another model raises ``ValueError``."""
        if not isinstance(value, GradedElement):
            return self.scalar(value)
        if value.model is not self and value.model != self:
            raise ValueError("elements live over different base models")
        return value

    def generator(self, index: int) -> "GradedElement":
        return GradedElement(self, {_unit_vector(index, len(self.gen_names)): _ONE})

    def hyperplane(self) -> "GradedElement":
        if self.kind != PROJECTIVE:
            raise ValueError("hyperplane class only exists on a projective-space model")
        return self.generator(0)

    def segre_generator(self, i: int, family: int = 0) -> "GradedElement":
        """The free degree-i generator of the given family (1 <= i <= n)."""
        if self.kind != FORMAL:
            raise ValueError("free Segre generators only exist on a formal model")
        if not 1 <= i <= self.n:
            raise ValueError(f"generator degree {i} out of range 1..{self.n}")
        if not 0 <= family < self.families:
            raise ValueError(f"family {family} out of range")
        return self.generator(family * self.n + (i - 1))

    def _repr_key(self, exps):
        """Print order of terms: by degree, then by exponents descending."""
        return self._degree(exps), tuple(-x for x in exps)

    def _degree(self, exps) -> int:
        memo = self._deg_memo
        deg = memo.get(exps)
        if deg is None:
            deg = sum(e * w for e, w in zip(exps, self.gen_degrees))
            memo[exps] = deg
        return deg

    def _mul_into(self, out, lhs, rhs):
        """Add the truncated product of the term maps ``lhs`` and ``rhs``
        into the raw map ``out`` and return it.  Zero sums stay in
        ``out``: the caller prunes once, when it wraps the result."""
        products = self._products
        for e1, c1 in lhs.items():
            row = products.get(e1)
            if row is None:
                row = products[e1] = {}
            for e2, c2 in rhs.items():
                exps = row.get(e2, _UNSEEN)
                if exps is _UNSEEN:
                    deg = self._degree
                    exps = row[e2] = _tadd(e1, e2) if deg(e1) + deg(e2) <= self.n else None
                if exps is not None:
                    have = out.get(exps)
                    out[exps] = c1 * c2 if have is None else have + c1 * c2
        return out


def point() -> BaseModel:
    return BaseModel(POINT, 0, 0, (), ())


def projective_space(n: int) -> BaseModel:
    _refuse_non_int("dimension", (n,))
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n == 0:
        return point()
    return BaseModel(PROJECTIVE, n, 0, ("h",), (1,))


def formal_segre(n: int = 3, families: int = 1) -> BaseModel:
    _refuse_non_int("truncation degree", (n,))
    _refuse_non_int("family count", (families,))
    if n < 0:
        raise ValueError("truncation degree must be nonnegative")
    if families < 1:
        raise ValueError("need at least one generator family")
    names = []
    degrees = []
    for f in range(families):
        prefix = (
            _FAMILY_PREFIXES[f] if f < len(_FAMILY_PREFIXES) else f"g{f}_"
        )
        for i in range(1, n + 1):
            names.append(f"{prefix}{i}")
            degrees.append(i)
    return BaseModel(FORMAL, n, families, names, degrees)


def _monomial(kind, p, length):
    """``p`` as a tuple of ``length`` nonnegative int exponents of a
    monomial of ``kind`` ("base" or "flag-ring")."""
    p = tuple(p)
    _refuse_non_int(f"{kind} exponent", p)
    if len(p) != length or any(e < 0 for e in p):
        raise ValueError(f"{kind} monomial {p} needs {length} nonnegative exponents")
    return p


class GradedElement(SparseTerms):
    """Element of a truncated graded base ring, sparse over monomials in
    the model generators.  Components above the truncation degree are
    dropped on construction and during multiplication.  An exponent that
    is not an int, or a coefficient that is not a scalar, is refused with
    ``TypeError``."""

    __slots__ = ("model",)

    def __init__(self, model: BaseModel, terms=None):
        self.model = model
        clean = {}
        if terms:
            n = model.n
            ngens = len(model.gen_names)
            for exps, coeff in terms.items():
                coeff = _reduced(_exact_scalar(coeff))
                exps = _monomial("base", exps, ngens)
                if coeff and model._degree(exps) <= n:
                    clean[exps] = coeff
        self.terms = clean

    def _coerce(self, other):
        if isinstance(other, (GradedElement, int, Fraction)):
            return self.model.element(other)
        return None

    def _scalar(self, value):
        return self.model.scalar(value)

    def _new(self, terms):
        return _graded(self.model, terms)

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not _exact_scalar(other):
                return self.model.zero()
            return self._new({e: _reduced(c * other) for e, c in self.terms.items()})
        model = self.model
        if other.model is not model and other.model != model:
            raise ValueError("elements live over different base models")
        return _graded(model, _pruned(model._mul_into({}, self.terms, other.terms)))

    __rmul__ = __mul__

    def component(self, m: int) -> "GradedElement":
        """The homogeneous degree-m part; a degree that is not an int
        raises ``TypeError``."""
        _refuse_non_int("degree", (m,))
        deg = self.model._degree
        return self._new({e: c for e, c in self.terms.items() if deg(e) == m})

    def degrees(self):
        deg = self.model._degree
        return sorted({deg(e) for e in self.terms})

    def homogeneous_degree(self):
        """The single degree of a homogeneous element, None for 0, raises otherwise."""
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise ValueError(f"element is inhomogeneous (degrees {ds})")
        return ds[0]

    def __repr__(self):
        model = self.model
        return self._text(sorted(self.terms, key=model._repr_key), model.gen_names)


def _graded(model, terms):
    """The element of ``model`` over terms that are already pruned and
    truncated."""
    res = object.__new__(GradedElement)
    res.model = model
    res.terms = terms
    return res


def _pruned(raw):
    return {e: c for e, c in raw.items() if c}


def _add_terms(target, terms):
    """Add the term map ``terms`` into ``target``, keeping zero sums."""
    for e, c in terms.items():
        have = target.get(e)
        target[e] = c if have is None else have + c


def _merge(maps, owned, key, terms):
    """Add the term map ``terms`` at ``key`` of ``maps``.  The first map
    stored at a key may be shared, so it is copied on the first merge,
    and the key is listed in ``owned``."""
    have = maps.get(key)
    if have is None:
        maps[key] = terms
        return
    if key not in owned:
        owned.add(key)
        have = maps[key] = dict(have)
    _add_terms(have, terms)


def _pruned_map(maps, keys):
    """``maps`` with its raw term maps at ``keys`` pruned, or dropped if zero."""
    for key in keys:
        terms = _pruned(maps[key])
        if terms:
            maps[key] = terms
        else:
            del maps[key]
    return maps


def integrate(a: GradedElement) -> Fraction:
    """Degree map: the rational coefficient of the top class.

    On a point this is the degree-0 coefficient, on P^n the coefficient
    of h^n.  The formal model has no degree map.
    """
    model = a.model
    if model.kind == FORMAL:
        raise ValueError("integration undefined on formal model")
    if model.kind == POINT:
        return a.terms.get((), _ZERO)
    return a.terms.get((model.n,), _ZERO)


def _invert_unit_series(coeffs, n):
    """Multiplicative inverse of a power series with constant term 1,
    as lists of GradedElement coefficients, modulo degree n+1."""
    model = coeffs[0].model
    inv = [model.one()]
    for m in range(1, n + 1):
        acc = model.zero()
        for i in range(1, min(m, len(coeffs) - 1) + 1):
            acc = acc + coeffs[i] * inv[m - i]
        inv.append(-acc)
    return inv


def segre_from_chern(chern, rank: int, n: int):
    """Segre classes s_0..s_n from Chern classes, via s(t) c(-t) = 1."""
    if not chern or chern[0] != 1:
        raise ValueError("c_0 must be 1")
    if len(chern) > rank + 1:
        raise ValueError(f"got {len(chern) - 1} Chern classes for rank {rank}")
    model = chern[0].model
    signed = [c if i % 2 == 0 else -c for i, c in enumerate(chern)]
    while len(signed) <= n:
        signed.append(model.zero())
    return _invert_unit_series(signed, n)


def chern_from_segre(segre, n: int):
    """Chern classes c_0..c_n from Segre classes (inverse of the above)."""
    if not segre or segre[0] != 1:
        raise ValueError("s_0 must be 1")
    signed = _invert_unit_series(list(segre), n)
    return [c if i % 2 == 0 else -c for i, c in enumerate(signed)]


def _integer_root(a) -> int:
    a = _reduced(a) if isinstance(a, Fraction) else a
    if not isinstance(a, int):
        raise ValueError(f"chern root {a!r} is not an integer")
    return a


def _bundle_classes(base, rank, classes, name):
    """``classes`` as elements of ``base``, after refusing a rank that is
    not a positive int and a class ``name``_i that is not homogeneous of
    degree i."""
    _refuse_non_int("rank", (rank,))
    if rank < 1:
        raise ValueError("rank must be positive")
    classes = [base.element(c) for c in classes]
    for i, c in enumerate(classes):
        if c and c.homogeneous_degree() not in (None, i):
            raise ValueError(f"{name}_{i} is not homogeneous of degree {i}")
    return classes


class BundleModel:
    """A vector bundle presented by rank and Segre classes.

    ``segre`` holds s_0..s_n; ``chern`` holds c_0..c_rank (entries beyond
    the truncation degree are zero).  The two determine each other through
    s(t) c(-t) = 1, and rank consistency (c_i = 0 for i > rank) is
    enforced, since every formula here silently assumes it.

    Immutable after construction apart from two idempotent caches, both
    filled on first use.  The first is the Segre power tables of
    :meth:`segre_table`, one per number of variables; a table depends
    only on the Segre classes and the number of variables, so every
    caller may share it.  The second is the flag-ring relation table,
    the normal forms at the bounds (see :meth:`FlagRing._xi_entry`); an
    entry depends only on the rank and the Chern classes, so the flag
    rings of every corank share it.
    """

    __slots__ = ("base", "rank", "segre", "chern", "label", "_segre_tables", "_flag_table")

    def __init__(self, base, rank, segre, chern, label=None):
        self.base = base
        self.rank = rank
        self.segre = tuple(segre)
        self.chern = tuple(chern)
        self.label = label or f"rank-{rank} bundle over {base!r}"
        # d -> segre_table(d)
        self._segre_tables = {}
        # (l, exponents of x_0..x_{l-1}) -> normal form of that monomial
        # times x_l^(rank - l), keyed by the exponents of x_0..x_l
        self._flag_table = {}

    @classmethod
    def from_segre(cls, base, rank, segre, label=None):
        segre = _bundle_classes(base, rank, segre, "s")
        if len(segre) != base.n + 1:
            raise ValueError(f"need s_0..s_{base.n}, got {len(segre)} classes")
        chern = chern_from_segre(segre, base.n)
        for i in range(rank + 1, base.n + 1):
            if chern[i]:
                raise ValueError(
                    f"Segre classes are inconsistent with rank {rank}: "
                    f"derived c_{i} = {chern[i]!r} is nonzero"
                )
        chern = chern[: rank + 1] + [base.zero()] * max(0, rank - base.n)
        return cls(base, rank, segre, chern, label=label)

    @classmethod
    def from_chern(cls, base, rank, chern, label=None):
        chern = _bundle_classes(base, rank, chern, "c")
        segre = segre_from_chern(chern, rank, base.n)
        chern += [base.zero()] * (rank + 1 - len(chern))
        chern = [c if i <= base.n else base.zero() for i, c in enumerate(chern)]
        return cls(base, rank, segre, chern, label=label)

    @classmethod
    def from_chern_roots(cls, base, roots, label=None):
        """Split bundle with roots a_j h over a projective-space model
        (or a point, where every root acts as 0)."""
        if base.kind == FORMAL:
            raise ValueError("chern roots require a concrete base model")
        roots = [_integer_root(a) for a in roots]
        rank = len(roots)
        if rank < 1:
            raise ValueError("need at least one root")
        # c_i = e_i(roots) h^i, the elementary symmetric functions of the roots
        elementary = [1] + [0] * rank
        for a in roots:
            for i in range(rank, 0, -1):
                elementary[i] += elementary[i - 1] * a
        h = base.zero() if base.kind == POINT else base.hyperplane()
        chern = [base.one()] + [h ** i * elementary[i] for i in range(1, rank + 1)]
        return cls.from_chern(base, rank, chern, label=label)

    @classmethod
    def trivial(cls, base, rank, label=None):
        chern = [base.one()]
        return cls.from_chern(base, rank, chern, label=label or f"trivial rank {rank}")

    @classmethod
    def formal(cls, base, rank, family: int = 0, label=None):
        """Bundle over a formal model whose Segre classes are the free
        generators up to degree min(rank, n); higher ones are forced by
        the rank (a rank-r bundle has c_i = 0 for i > r)."""
        if base.kind != FORMAL:
            raise ValueError("formal bundles need a formal base model")
        n = min(rank, base.n)
        free = [base.one()] + [base.segre_generator(i, family) for i in range(1, n + 1)]
        return cls.from_chern(
            base, rank, chern_from_segre(free, n),
            label=label or f"formal rank {rank} (family {family})",
        )

    def segre_class(self, m: int) -> GradedElement:
        if m < 0 or m > self.base.n:
            return self.base.zero()
        return self.segre[m]

    def chern_class(self, i: int) -> GradedElement:
        if i < 0 or i > self.rank:
            return self.base.zero()
        return self.chern[i]

    def segre_table(self, d: int) -> LaurentPoly:
        """prod_i s(E, t_i) over d variables t_0..t_{d-1}, each Segre
        series truncated at the base dimension n, cached per d.

        The monomial t^m has the coefficient prod_i s_(m_i)(E), which is
        homogeneous of degree |m| and so zero once |m| > n.  The table of
        d variables extends that of d - 1 by one more factor, so that the
        choices for t_0..t_{d-2} share their partial product.  The table
        is immutable by convention, like every value, and is handed out
        as it is."""
        table = self._segre_tables.get(d)
        if table is None:
            if d == 0:
                terms = {(): self.base.one()}
            else:
                n = self.base.n
                classes = [(m, s) for m, s in enumerate(self.segre) if s]
                terms = {
                    exps + (m,): coeff
                    for exps, prefix in self.segre_table(d - 1).terms.items()
                    for m, s in classes
                    if sum(exps) + m <= n and (coeff := prefix * s)
                }
            table = self._segre_tables[d] = LaurentPoly(d, terms)
        return table

    def __repr__(self):
        return f"BundleModel({self.label})"


def tower_pushforward(bundle: BundleModel, p, exponential: bool = False) -> GradedElement:
    """Push-forward to the base of the monomial x_0^{p_0} ... x_{d-1}^{p_{d-1}}
    on the flag bundle of corank d = len(p), times exp(x_0 + ... + x_{d-1})
    when ``exponential`` is set, down its tower of projective bundles.

    Level L is the projective bundle of the kernel K_L of rank r - L, with
    c(K_L) = c(E) / prod_{j<L} (1 + x_j) as in :class:`FlagRing`; its
    fibre dimension is e = r - L - 1, and pushing it down sends x_L^k to
    s_{k-e}(K_L) = sum_m (-1)^m e_m(x_0..x_{L-1}) s_{k-e-m}(E) (Fulton,
    Intersection Theory, 3.1).  Each level maps the exponents of
    x_0..x_L to raw base term maps.  A level first sums its products per
    (exponents of x_0..x_{L-1}, m), then multiplies each sum by
    e_m(x_0..x_{L-1}) as its definition reads, adding it at x^v for every
    0/1 vector v of weight m, and prunes the level once.  A term whose
    x-degree plus base degree exceeds n plus the fibre dimensions still
    to come can only land above degree n, so it is dropped.  Both modes
    weight x_L^(k0 + j) by J!/j! over one J! per level: the plain mode's
    weights are [1], so it takes j = 0 alone, and the exponential's
    J! are divided out once at the end.  No flag basis or normal form is
    built.
    """
    p = tuple(p)
    rank, d = bundle.rank, len(p)
    _corank(d, rank)
    _monomial("flag-ring", p, d)
    model = bundle.base
    n = model.n
    mul_into, degree = model._mul_into, model._degree
    segre = [s.terms for s in bundle.segre]
    layer = {p: model.one().terms}
    denominator = 1
    for L in range(d - 1, -1, -1):
        fibre = rank - L - 1
        budget = n + sum(rank - 1 - j for j in range(L))
        weights = [1]  # J!/j! for j = 0..J, the exponential's x_L^j / j! times J!
        if exponential:
            low = min((exps[L] for exps in layer), default=0)
            top = max(min(budget, n + L) + fibre - low, 0)
            weights = [1] * (top + 1)
            for j in range(top, 0, -1):
                weights[j - 1] = weights[j] * j
            denominator *= weights[0]
        factors = {}
        # (x_0..x_{L-1} exponents, m) -> raw base term map to multiply by e_m
        staged = {}
        for exps, coeff in layer.items():
            # x_L^k with k = k0 + j goes to s_i(K_L), i = k - e, and i may
            # not pass the degree left to the term's lower x's
            k0, rest = exps[L], exps[:L]
            lo = max(k0 - fibre, 0)
            hi = min(budget - sum(rest), n + L, k0 - fibre + len(weights) - 1)
            if lo > hi:
                continue
            got = factors.get((k0, hi))
            if got is None:
                # per m: sum over i of (-1)^m J!/j! s_{i-m}(E)
                got = factors[(k0, hi)] = []
                for m in range(min(L, hi) + 1):
                    acc = {}
                    for i in range(max(lo, m), min(hi, n + m) + 1):
                        w = weights[i + fibre - k0]
                        if m % 2:
                            w = -w
                        for e, c in segre[i - m].items():
                            have = acc.get(e)
                            acc[e] = w * c if have is None else have + w * c
                    got.append(acc)
            for m, factor in enumerate(got):
                if factor:
                    target = staged.get((rest, m))
                    if target is None:
                        target = staged[(rest, m)] = {}
                    mul_into(target, coeff, factor)
        # e_m(x_0..x_{L-1}) is the sum of x^v over the 0/1 vectors v of
        # weight m; a term landing above the degree left is dropped first,
        # and each staged sum is let go once it has landed
        vectors = [[] for _ in range(L + 1)]
        for v in exponent_vectors(L, max_entry=1):
            vectors[sum(v)].append(v)
        layer = {}
        for rest, m in list(staged):
            terms = staged.pop((rest, m))
            cap = budget - sum(rest) - m
            if cap < n:
                terms = {e: c for e, c in terms.items() if degree(e) <= cap}
            for v in vectors[m]:
                x = _tadd(rest, v)
                have = layer.get(x)
                if have is None:
                    layer[x] = dict(terms)
                else:
                    _add_terms(have, terms)
        layer = {x: terms for x, raw in layer.items() if (terms := _pruned(raw))}
    terms = layer.get((), {})
    if denominator != 1:
        terms = {e: _reduced(Fraction(c, denominator)) for e, c in terms.items()}
    return _graded(model, terms)


def _reduced(value: Fraction):
    """``value`` as an int when it is integral."""
    return value.numerator if value.denominator == 1 else value


class FlagRing:
    """Chow ring of the corank-1..d flag bundle of a bundle, as a free
    module over the base with basis x_0^{i_0} ... x_{d-1}^{i_{d-1}},
    0 <= i_l <= rank-l-1.

    The relation for x_l^{rank-l} comes from the vanishing of the Chern
    polynomial of the l-th kernel bundle K_l, whose Chern classes
    c(K_l) = c(E) / prod_{j<l} (1 + x_j) only involve x_0..x_{l-1}.  It
    is built from their closed form c_j(K_l) = sum_a (-1)^|a| x^a
    c_{j-|a|}(E), over exponents a of x_0..x_{l-1} with |a| <= rank - l:
    each a_i is then within the bound rank - i - 1 of x_i, so the
    relation is in normal form as written.  Every normal form is built
    from one step, multiplying a basis monomial by some x_l: below the
    bound of x_l that is an exponent shift, and at the bound it reads a
    table entry (see :meth:`_xi_entry`), filled on first use.  The
    level-l relation never involves x_{l+1} and above, so an entry is
    keyed by l and the exponents of x_0..x_{l-1}, its own keys are
    exponents of x_0..x_l, and the step appends the monomial's higher
    exponents to them.  Nothing in an entry depends on d, so the table
    is the bundle's, shared by the rings of every corank: a ring writes
    the level-l relations, the table's first entries, at construction
    unless a ring before it has.

    Coefficients are raw base term maps, and one term map may sit in
    several table entries and chain steps, so none is changed once
    stored.  Instances are immutable apart from the shared table and the
    ring's own theta chain.

    Every basis monomial has degree at most sum(bounds), so a normal form
    only keeps a term x^e c whose base degree is at most
    sum(bounds) + n - |e|; :meth:`_normalize` drops the rest before it
    takes a step, and fills no table entry for a monomial with nothing
    left.  The budget only decides which entries get filled, never what
    an entry holds, so a table filled by rings of other coranks stays
    exact.
    """

    __slots__ = ("bundle", "d", "bounds", "_xi_basis", "_theta_chain")

    def __init__(self, bundle: BundleModel, d: int):
        rank = bundle.rank
        _corank(d, rank)
        self.bundle = bundle
        self.d = d
        self.bounds = tuple(rank - l - 1 for l in range(d))
        # the bundle's table, shared by the rings of every corank
        self._xi_basis = table = bundle._flag_table
        chern = [c.terms for c in bundle.chern]
        negated = [{e: -c for e, c in terms.items()} for terms in chern]
        for l in range(d):
            if (l, (0,) * l) in table:
                continue
            # rule: x_l^(rank-l) = sum_{j>=1} (-1)^(j+1) c_j(K_l) x_l^(rank-l-j), with
            # c_j(K_l) = sum_a (-1)^|a| x^a c_{j-|a|}(E) over exponents a of x_0..x_{l-1}
            rule = {}
            for a in exponent_vectors(l, max_total=rank - l):
                size = sum(a)
                for j in range(max(size, 1), rank - l + 1):
                    if chern[j - size]:
                        signed = chern if (j + size) % 2 else negated
                        rule[a + (rank - l - j,)] = signed[j - size]
            table[(l, (0,) * l)] = rule
        self._theta_chain = None

    # -- normal forms ----------------------------------------------------

    def _xi_entry(self, l, lower):
        """Normal form of x_0^e_0 ... x_{l-1}^e_{l-1} x_l^(bound_l + 1) for
        ``lower`` = (e_0, ..., e_{l-1}) within the bounds, cached under
        ``(l, lower)`` in the bundle's table.  Its keys are the exponents
        of x_0..x_l alone, because the level-l relation and those below
        it involve no higher x, so the entry is the same for every
        corank.

        With ``lower`` all zero the entry is the level-l rule.  Otherwise
        it is the entry of ``lower`` with its lowest nonzero exponent e_j
        lowered by one, times x_j.
        """
        table = self._xi_basis
        got = table.get((l, lower))
        if got is None:
            j = next(i for i in range(l) if lower[i])
            less = lower[:j] + (lower[j] - 1,) + lower[j + 1 :]
            got = table[(l, lower)] = self._times_x(self._xi_entry(l, less), j)
        return got

    def _times_x(self, terms, *levels):
        """Normal form of (normal-form term map) * (sum of x_l over
        ``levels``).

        Below the bound of x_l the product is an exponent shift, and a
        shifted coefficient that nothing else lands on is kept as the
        same object.  At the bound the product reads the table entry of
        the monomial's exponents below x_l, and its exponents above x_l
        are appended to the entry's keys.  Every other coefficient is a
        term map of the result's own, listed in ``owned``: accumulated
        raw, through the base model's fused product, and pruned once at
        the end."""
        mul_into = self.bundle.base._mul_into
        out = {}
        owned = set()
        for l in levels:
            bound = self.bounds[l]
            for exps, coeff in terms.items():
                if exps[l] < bound:
                    key = exps[:l] + (exps[l] + 1,) + exps[l + 1 :]
                    have = out.get(key)
                    if have is None:
                        out[key] = coeff
                        continue
                    if key not in owned:
                        owned.add(key)
                        have = out[key] = dict(have)
                    _add_terms(have, coeff)
                    continue
                entry = self._xi_entry(l, exps[:l]).items()
                upper = exps[l + 1 :]
                if upper:
                    entry = [(rexps + upper, rcoeff) for rexps, rcoeff in entry]
                for rexps, rcoeff in entry:
                    have = out.get(rexps)
                    if rexps not in owned:
                        owned.add(rexps)
                        have = out[rexps] = {} if have is None else dict(have)
                    mul_into(have, coeff, rcoeff)
        return _pruned_map(out, owned)

    def _normalize(self, raw) -> "FlagRingElement":
        """The element of a map from exponent tuples to pruned base term
        maps, in the free-module basis: each monomial starts from its
        in-bounds part and is multiplied by its excess powers of x_l one
        at a time.  Results are summed as :meth:`_times_x` sums shifts.

        The normal form of x^e has coefficients of degree at least
        |e| - sum(bounds), and base terms above degree n vanish, so only
        the terms of degree at most sum(bounds) + n - |e| of a coefficient
        can survive.  The others are left out (in a new map: coefficients
        are shared), and a monomial with none left is skipped before any
        step or table entry is built."""
        bounds = self.bounds
        model = self.bundle.base
        n, degree = model.n, model._degree
        top = sum(bounds) + n
        out = {}
        owned = set()
        for exps, coeff in raw.items():
            room = top - sum(exps)
            if room < n:
                coeff = {e: c for e, c in coeff.items() if degree(e) <= room}
                if not coeff:
                    continue
            acc = {tuple(map(min, exps, bounds)): coeff}
            for l in range(self.d - 1, -1, -1):
                for _ in range(exps[l] - bounds[l]):
                    acc = self._times_x(acc, l)
            for nexps, ncoeff in acc.items():
                _merge(out, owned, nexps, ncoeff)
        out = _pruned_map(out, owned)
        return _flag_element(self, {e: _graded(model, c) for e, c in out.items()})

    # -- public API ------------------------------------------------------

    def zero(self) -> "FlagRingElement":
        return self.from_terms({})

    def one(self) -> "FlagRingElement":
        return self.scalar(_ONE)

    def scalar(self, value) -> "FlagRingElement":
        return self.from_terms({(0,) * self.d: value})

    def xi(self, l: int) -> "FlagRingElement":
        """The hyperplane generator x_l of the l-th projective-bundle step."""
        return self.from_terms({_unit_vector(l, self.d): _ONE})

    def theta(self) -> "FlagRingElement":
        """Pull-back of the Pluecker class: x_0 + ... + x_{d-1}."""
        return self.from_terms({_unit_vector(l, self.d): _ONE for l in range(self.d)})

    def from_terms(self, terms) -> "FlagRingElement":
        """Normal form of a map from exponent tuples, any of them at or
        above its bound, to coefficients, each an element of the base model
        by :meth:`BaseModel.element`.  The one way an element is built from
        outside the ring."""
        model = self.bundle.base
        raw = {}
        for exps, coeff in terms.items():
            exps = _monomial("flag-ring", exps, self.d)
            coeff = model.element(coeff)
            if coeff:
                raw[exps] = coeff.terms
        return self._normalize(raw)

    def pushforward_theta_power(self, N: int) -> GradedElement:
        """Push-forward of theta^N from the Grassmann bundle to the base.

        Computed entirely inside the flag ring: multiply the staircase
        monomial prod x_i^{d-1-i} by (sum x_i)^N and read off the top
        basis coefficient.  Partial products are cached per ring.
        """
        _refuse_non_int("power", (N,))
        if N < 0:
            raise ValueError("power must be nonnegative")
        model = self.bundle.base
        if self._theta_chain is None:
            staircase = tuple(self.d - 1 - i for i in range(self.d))
            self._theta_chain = [{staircase: model.one().terms}]
        chain = self._theta_chain
        while len(chain) <= N:
            chain.append(self._times_x(chain[-1], *range(self.d)))
        value = chain[N].get(self.bounds)
        return model.zero() if value is None else _graded(model, value)


class FlagRingElement(SparseTerms):
    """Normal-form element of a flag ring: a map from in-bounds exponent
    tuples to base-ring coefficients.  ``FlagRingElement(ring, terms)``
    is ``ring.from_terms(terms)``: an exponent at or above its bound is
    reduced to the basis, and a monomial that is not d nonnegative ints
    is refused."""

    __slots__ = ("ring",)

    def __init__(self, ring: FlagRing, terms):
        self.ring = ring
        self.terms = ring.from_terms(terms).terms

    def _coerce(self, other):
        if isinstance(other, FlagRingElement):
            if other.ring is not self.ring and (
                other.ring.bundle is not self.ring.bundle or other.ring.d != self.ring.d
            ):
                raise ValueError("elements live in different flag rings")
            return other
        if isinstance(other, (int, Fraction, GradedElement)):
            return self.ring.scalar(other)
        return None

    def _scalar(self, value):
        return self.ring.scalar(value)

    def _new(self, terms):
        return _flag_element(self.ring, terms)

    def __mul__(self, other):
        peer = self._coerce(other)
        if peer is None:
            return NotImplemented
        mul_into = self.ring.bundle.base._mul_into
        raw = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in peer.terms.items():
                mul_into(raw.setdefault(_tadd(e1, e2), {}), c1.terms, c2.terms)
        return self.ring._normalize(_pruned_map(raw, list(raw)))

    __rmul__ = __mul__

    def pushforward(self) -> GradedElement:
        """Push-forward to the base: the coefficient on the top monomial."""
        value = self.terms.get(self.ring.bounds)
        return value if value is not None else self.ring.bundle.base.zero()


def _flag_element(ring, terms):
    """The element of ``ring`` over a normal-form map whose coefficients
    are nonzero base-ring elements."""
    res = object.__new__(FlagRingElement)
    res.ring = ring
    res.terms = terms
    return res
