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
their addition, subtraction, equality and powers; each class here adds
its parent check, scalar coercion, product and printing.  The tower and
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
verification's monomial grid.

Coefficients are exact: Python ints wherever they are integral (every
formal and split bundle), ``Fraction`` only where the input brings a
denominator (rational Segre classes).  The only division in this module
is the tower's one division by its exponential weights' common
denominator.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import SparseTerms, _refuse_float, _tadd, exponent_vectors, monomial_text

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
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"scalar {value!r} is not an int or a Fraction")
        if isinstance(value, Fraction) and value.denominator == 1:
            value = value.numerator
        if not value:
            return GradedElement(self, {})
        return GradedElement(self, {(0,) * len(self.gen_names): value})

    def generator(self, index: int) -> "GradedElement":
        exps = [0] * len(self.gen_names)
        exps[index] = 1
        return GradedElement(self, {tuple(exps): _ONE})

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
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n == 0:
        return point()
    return BaseModel(PROJECTIVE, n, 0, ("h",), (1,))


def formal_segre(n: int = 3, families: int = 1) -> BaseModel:
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


class GradedElement(SparseTerms):
    """Element of a truncated graded base ring, sparse over monomials in
    the model generators.  Components above the truncation degree are
    dropped on construction and during multiplication."""

    __slots__ = ("model",)

    def __init__(self, model: BaseModel, terms=None):
        self.model = model
        clean = {}
        if terms:
            n = model.n
            ngens = len(model.gen_names)
            for exps, coeff in terms.items():
                _refuse_float(coeff)
                exps = tuple(exps)
                if len(exps) != ngens or any(e < 0 for e in exps):
                    raise ValueError(
                        f"exponent vector {exps} needs {ngens} nonnegative entries"
                    )
                if coeff and model._degree(exps) <= n:
                    clean[exps] = coeff
        self.terms = clean

    def _coerce(self, other):
        if isinstance(other, GradedElement):
            if other.model != self.model:
                raise ValueError("elements live over different base models")
            return other
        if isinstance(other, (int, Fraction)):
            return self.model.scalar(other)
        return None

    def _scalar(self, value):
        return self.model.scalar(value)

    def _new(self, terms):
        return _graded(self.model, terms)

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            if isinstance(other, (int, Fraction)):
                if not other:
                    return self.model.zero()
                return self._new({e: c * other for e, c in self.terms.items()})
            return NotImplemented
        model = self.model
        if other.model is not model and other.model != model:
            raise ValueError("elements live over different base models")
        return _graded(model, _pruned(model._mul_into({}, self.terms, other.terms)))

    __rmul__ = __mul__

    def component(self, m: int) -> "GradedElement":
        """The homogeneous degree-m part."""
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
        order = sorted(self.terms, key=lambda e: (model._degree(e), tuple(-x for x in e)))
        return self._text(order, model.gen_names)


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
        raise ValueError("chern[0] must be 1")
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
        raise ValueError("segre[0] must be 1")
    signed = _invert_unit_series(list(segre), n)
    return [c if i % 2 == 0 else -c for i, c in enumerate(signed)]


def _integer_root(a) -> int:
    if isinstance(a, Fraction) and a.denominator == 1:
        return a.numerator
    if not isinstance(a, int):
        raise ValueError(f"chern root {a!r} is not an integer")
    return a


class BundleModel:
    """A vector bundle presented by rank and Segre classes.

    ``segre`` holds s_0..s_n; ``chern`` holds c_0..c_rank (entries beyond
    the truncation degree are zero).  The two determine each other through
    s(t) c(-t) = 1, and rank consistency (c_i = 0 for i > rank) is
    enforced, since every formula here silently assumes it.
    """

    __slots__ = ("base", "rank", "segre", "chern", "label")

    def __init__(self, base, rank, segre, chern, label=None):
        self.base = base
        self.rank = rank
        self.segre = tuple(segre)
        self.chern = tuple(chern)
        self.label = label or f"rank-{rank} bundle over {base!r}"

    @classmethod
    def from_segre(cls, base, rank, segre, label=None):
        if rank < 1:
            raise ValueError("rank must be positive")
        segre = list(segre)
        if len(segre) != base.n + 1:
            raise ValueError(f"need s_0..s_{base.n}, got {len(segre)} classes")
        if segre[0] != 1:
            raise ValueError("s_0 must be 1")
        for i, s in enumerate(segre):
            if s and s.homogeneous_degree() not in (None, i):
                raise ValueError(f"s_{i} is not homogeneous of degree {i}")
        chern = chern_from_segre(segre, base.n)
        for i in range(rank + 1, base.n + 1):
            if chern[i]:
                raise ValueError(
                    f"Segre classes are inconsistent with rank {rank}: "
                    f"derived c_{i} = {chern[i]!r} is nonzero"
                )
        chern = chern[: rank + 1] + [base.zero()] * max(0, rank - base.n)
        return cls(base, rank, segre, chern[: rank + 1], label=label)

    @classmethod
    def from_chern(cls, base, rank, chern, label=None):
        if rank < 1:
            raise ValueError("rank must be positive")
        chern = list(chern)
        for i, c in enumerate(chern):
            if c and c.homogeneous_degree() not in (None, i):
                raise ValueError(f"c_{i} is not homogeneous of degree {i}")
        segre = segre_from_chern(chern, rank, base.n)
        while len(chern) <= rank:
            chern.append(base.zero())
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
    x_0..x_L to raw base term maps.  A term whose x-degree plus base
    degree exceeds n plus the fibre dimensions still to come can only land
    above degree n, so it is dropped.  The exponential's weights 1/j! are
    carried as the ints J!/j! over one J! per level and divided out once
    at the end.  No flag basis or normal form is built.
    """
    p = tuple(p)
    rank, d = bundle.rank, len(p)
    if not 1 <= d <= rank or any(e < 0 for e in p):
        raise ValueError(f"need 1 <= d = len(p) <= rank={rank} nonnegative exponents, got {p}")
    model = bundle.base
    n = model.n
    mul_into, degree = model._mul_into, model._degree
    segre = [s.terms for s in bundle.segre]
    layer = {p: model.one().terms}
    denominator = 1
    for L in range(d - 1, -1, -1):
        fibre = rank - L - 1
        budget = n + sum(rank - 1 - j for j in range(L))
        squarefree = [[] for _ in range(L + 1)]
        for v in exponent_vectors(L, max_entry=1):
            squarefree[sum(v)].append(v)
        weights = [1]  # J!/j! for j = 0..J, the exponential's x_L^j / j! times J!
        if exponential:
            low = min((exps[L] for exps in layer), default=0)
            top = max(min(budget, n + L) + fibre - low, 0)
            weights = [1] * (top + 1)
            for j in range(top, 0, -1):
                weights[j - 1] = weights[j] * j
            denominator *= weights[0]
        factors = {}
        pushed = {}
        for exps, coeff in layer.items():
            # x_L^k with k = k0 + j goes to s_i(K_L), i = k - e, and i may
            # not pass the degree left to the term's lower x's
            k0, rest = exps[L], exps[:L]
            room = budget - sum(rest)
            lo, hi = k0 - fibre, min(room, n + L)
            if exponential:
                lo = max(lo, 0)
            elif lo <= hi:
                hi = lo
            if not 0 <= lo <= hi:
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
                if not factor:
                    continue
                product = mul_into({}, coeff, factor)
                if room - m < n:
                    product = {e: c for e, c in product.items() if degree(e) <= room - m}
                for v in squarefree[m]:
                    key = _tadd(rest, v)
                    target = pushed.get(key)
                    if target is None:
                        pushed[key] = dict(product)
                    else:
                        _add_terms(target, product)
        layer = _pruned_map(pushed, list(pushed))
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
    c(K_l) = c(E) / prod_{j<l} (1 + x_j) only involve x_0..x_{l-1}.
    Every normal form is built from one step, multiplying a basis
    monomial by some x_l: below the bound of x_l that is an exponent
    shift, and at the bound it reads a table entry (see
    :meth:`_xi_entry`), filled on first use.  The level-l relations are
    the table's first entries, built at construction.

    Coefficients are raw base term maps, and one term map may sit in
    several table entries and chain steps, so none is changed once
    stored.  Instances are immutable apart from these caches.
    """

    __slots__ = ("bundle", "d", "bounds", "_xi_basis", "_theta_chain")

    def __init__(self, bundle: BundleModel, d: int):
        rank = bundle.rank
        if not 1 <= d <= rank:
            raise ValueError(f"corank d={d} must satisfy 1 <= d <= rank={rank}")
        self.bundle = bundle
        self.d = d
        self.bounds = tuple(rank - l - 1 for l in range(d))
        # (l, basis monomial with x_l at its bound) -> normal form of its product with x_l
        self._xi_basis = {}
        zero_key = (0,) * d
        # c_j(K_l), j = 0..rank, as maps from monomials in x_0..x_{l-1} to base term maps
        kernel = [{zero_key: c.terms} if c else {} for c in bundle.chern]
        for l in range(d):
            # rule: x_l^{rank-l} = sum_{j>=1} (-1)^(j+1) c_j(K_l) x_l^{rank-l-j}
            rule = {}
            for j in range(1, rank - l + 1):
                for exps, coeff in kernel[j].items():
                    key = exps[:l] + (rank - l - j,) + exps[l + 1 :]
                    rule[key] = coeff if j % 2 else {e: -c for e, c in coeff.items()}
            self._xi_basis[(l, zero_key[:l] + (rank - l - 1,) + zero_key[l + 1 :])] = rule
            if l + 1 < d:
                # c_j(K_{l+1}) = c_j(K_l) - x_l c_{j-1}(K_{l+1}): the shift
                # stays within the bound of x_l and lands on no term of
                # c_j(K_l), whose exponents of x_l are 0
                nxt = [kernel[0]]
                for j in range(1, rank - l):
                    step = dict(kernel[j])
                    for exps, coeff in nxt[j - 1].items():
                        key = exps[:l] + (exps[l] + 1,) + exps[l + 1 :]
                        step[key] = {e: -c for e, c in coeff.items()}
                    nxt.append(step)
                kernel = nxt + [{}] * (l + 2)
        self._theta_chain = None

    # -- normal forms ----------------------------------------------------

    def _xi_entry(self, l, exps):
        """Normal form of x^exps * x_l for a basis monomial whose x_l
        exponent is at its bound, cached.

        Without lower generators the entry is the level-l rule with the
        exponents above l carried over.  Otherwise it is the entry of the
        monomial with its lowest nonzero generator x_j taken off, times x_j.
        """
        table = self._xi_basis
        got = table.get((l, exps))
        if got is None:
            j = next((i for i in range(l) if exps[i]), None)
            if j is None:
                rule = table[(l, exps[: l + 1] + (0,) * (self.d - l - 1))]
                upper = (0,) * (l + 1) + exps[l + 1 :]
                got = {_tadd(e, upper): c for e, c in rule.items()}
            else:
                lower = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
                got = self._times_x(self._xi_entry(l, lower), j)
            table[(l, exps)] = got
        return got

    def _times_x(self, terms, *levels):
        """Normal form of (normal-form term map) * (sum of x_l over
        ``levels``).

        Below the bound of x_l the product is an exponent shift, and a
        shifted coefficient that nothing else lands on is kept as the
        same object.  Every other coefficient is a term map of the
        result's own, listed in ``owned``: accumulated raw, through the
        base model's fused product, and pruned once at the end."""
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
                for rexps, rcoeff in self._xi_entry(l, exps).items():
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
        at a time.  Results are summed as :meth:`_times_x` sums shifts."""
        bounds = self.bounds
        out = {}
        owned = set()
        for exps, coeff in raw.items():
            acc = {tuple(map(min, exps, bounds)): coeff}
            for l in range(self.d - 1, -1, -1):
                for _ in range(exps[l] - bounds[l]):
                    acc = self._times_x(acc, l)
            for nexps, ncoeff in acc.items():
                have = out.get(nexps)
                if have is None:
                    out[nexps] = ncoeff
                    continue
                if nexps not in owned:
                    owned.add(nexps)
                    have = out[nexps] = dict(have)
                _add_terms(have, ncoeff)
        model = self.bundle.base
        out = _pruned_map(out, owned)
        return FlagRingElement(self, {e: _graded(model, c) for e, c in out.items()})

    # -- public API ------------------------------------------------------

    def zero(self) -> "FlagRingElement":
        return FlagRingElement(self, {})

    def one(self) -> "FlagRingElement":
        return self.scalar(_ONE)

    def scalar(self, value) -> "FlagRingElement":
        if isinstance(value, GradedElement) and value.model != self.bundle.base:
            raise ValueError("scalar lives over a different base model")
        return FlagRingElement(self, {(0,) * self.d: value})

    def xi(self, l: int) -> "FlagRingElement":
        """The hyperplane generator x_l of the l-th projective-bundle step."""
        if not 0 <= l < self.d:
            raise ValueError(f"index {l} out of range 0..{self.d - 1}")
        exps = (0,) * l + (1,) + (0,) * (self.d - l - 1)
        return self._normalize({exps: self.bundle.base.one().terms})

    def theta(self) -> "FlagRingElement":
        """Pull-back of the Pluecker class: x_0 + ... + x_{d-1}."""
        acc = self.zero()
        for l in range(self.d):
            acc = acc + self.xi(l)
        return acc

    def from_terms(self, terms) -> "FlagRingElement":
        """Normal form of a map from exponent tuples, any of them at or
        above its bound, to coefficients coerced as by the element."""
        d = self.d
        for exps in terms:
            if len(exps) != d or any(e < 0 for e in exps):
                raise ValueError(
                    f"flag-ring monomial {tuple(exps)} needs {d} nonnegative exponents"
                )
        coeffs = FlagRingElement(self, terms).terms
        return self._normalize({exps: c.terms for exps, c in coeffs.items()})

    def pushforward_theta_power(self, N: int) -> GradedElement:
        """Push-forward of theta^N from the Grassmann bundle to the base.

        Computed entirely inside the flag ring: multiply the staircase
        monomial prod x_i^{d-1-i} by (sum x_i)^N and read off the top
        basis coefficient.  Partial products are cached per ring.
        """
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
    tuples to base-ring coefficients.  A coefficient that is not a
    base-ring element goes through the base model's ``scalar``, which
    refuses floats."""

    __slots__ = ("ring",)

    def __init__(self, ring: FlagRing, terms):
        self.ring = ring
        scalar = ring.bundle.base.scalar
        clean = {}
        for exps, coeff in terms.items():
            if not isinstance(coeff, GradedElement):
                coeff = scalar(coeff)
            if coeff:
                clean[exps] = coeff
        self.terms = clean

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
        res = object.__new__(FlagRingElement)
        res.ring = self.ring
        res.terms = terms
        return res

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

    def __repr__(self):
        if not self.terms:
            return "0"
        names = [f"x{l}" for l in range(self.ring.d)]
        bits = []
        for exps in sorted(self.terms):
            mono = monomial_text(names, exps)
            coeff = self.terms[exps]
            text = repr(coeff)
            if len(coeff.terms) > 1 and mono:
                text = f"({text})"
            bits.append(f"{text}*{mono}" if mono else text)
        return " + ".join(bits)
