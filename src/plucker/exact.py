"""Exact scalars, the sparse-term core, sparse multivariate Laurent
polynomials, and the one alternant core.

Scalars are Python ``int``s wherever they are integral and
``fractions.Fraction``s where a denominator enters (factorial weights,
rational input); the constants here are the ints ``0`` and ``1``.

:class:`SparseTerms` is the one sparse map "exponent tuple -> nonzero
coefficient" under :class:`LaurentPoly` here and ``GradedElement`` and
``FlagRingElement`` in ``chow``: it holds ``terms`` and implements truth,
equality, addition, negation, subtraction and powers once, and
``_accumulate`` is the one accumulate-and-prune rule.  Coefficients may
live in any commutative ring whose elements support ``+``, ``-``, ``*``
and truth testing.  Zero coefficients are pruned after every operation,
so equality is structural equality of term maps.  Nothing in this module
(or this package) ever rounds: floating point is banned end to end, a
float coefficient, or an exponent or dimension that is not an int, is
refused with ``TypeError``, and no polynomial is ever divided.

Every Vandermonde and alternant in the package is computed here, once:
:func:`vandermonde_at` is the product prod_{i<j} (v_i - v_j) at given
values, :func:`alternant` the polynomial det[t_i^(p_j)] built term by
term, :func:`vandermonde` its cached staircase case, and :func:`det` the
one division-free determinant over a commutative ring.  Only
``pushforward.phi`` keeps its own integer determinant, so that the
constant-term route never evaluates the product formula it is checked
against.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, prod
from operator import add as _add

_ZERO = 0
_ONE = 1


def exact_str(value) -> str:
    """Every digit of an int, or ``p/q`` for a ``Fraction`` (``p`` when
    q = 1), however long.  Ints are printed through ``Decimal``, which
    has no limit on the digits of an int it converts, unlike ``str``."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{exact_str(value.numerator)}/{exact_str(value.denominator)}"
    return str(Decimal(int(value)))


def monomial_text(names, exps) -> str:
    """The monomial with exponents ``exps`` in the variables ``names``,
    as ``name^e`` factors joined by ``*`` (``name`` alone when e = 1);
    empty for the unit monomial."""
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
    )


def inv_factorial(m: int) -> Fraction:
    """1/m! for m >= 0, extended by 0 for negative m."""
    if m < 0:
        return _ZERO
    return Fraction(1, factorial(m))


def perm_sign(perm) -> int:
    """Sign of a permutation given as a sequence of distinct integers:
    -1 to the number of its inversions."""
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def exponent_vectors(length: int, *, max_entry=None, max_total=None):
    """Nonnegative integer vectors of the given length, each entry at
    most ``max_entry`` and the entries summing to at most ``max_total``
    (give one bound or both, nonnegative), in lexicographic order.
    Iterative, so the length is not bounded by the recursion limit.
    A negative length or bound, or no bound, raises ``ValueError`` here,
    before the first vector."""
    if length < 0:
        raise ValueError(f"length: must be nonnegative, got {length}")
    if max_entry is None and max_total is None:
        raise ValueError("max_entry or max_total: give at least one bound")
    for name, bound in (("max_entry", max_entry), ("max_total", max_total)):
        if bound is not None and bound < 0:
            raise ValueError(f"{name}: must be nonnegative, got {bound}")
    if max_entry is None:
        max_entry = max_total
    if max_total is None:
        max_total = length * max_entry
    return _odometer(length, max_entry, max_total)


def _odometer(length, max_entry, max_total):
    vec = [0] * length
    total = 0
    while True:
        yield tuple(vec)
        # odometer: bump the last entry that may grow, zeroing those after it
        i = length - 1
        while i >= 0 and (vec[i] == max_entry or total == max_total):
            total -= vec[i]
            vec[i] = 0
            i -= 1
        if i < 0:
            return
        vec[i] += 1
        total += 1


def _tadd(a, b):
    return tuple(map(_add, a, b))


def _accumulate(out, key, value):
    """Add ``value`` into ``out[key]``, dropping the key when the sum is
    zero: the accumulate-and-prune rule of every sparse term map."""
    have = out.get(key)
    if have is not None:
        value = have + value
    if value:
        out[key] = value
    else:
        out.pop(key, None)


def _refuse_float(value):
    if isinstance(value, float):
        raise TypeError(f"coefficient {value!r} is a float; coefficients must be exact")


def _refuse_non_int(what, values):
    """``TypeError`` naming the first of ``values`` that is not a plain
    int: an exponent or a dimension is never a float, a Fraction or a
    bool."""
    for value in values:
        if type(value) is not int:
            raise TypeError(f"{what}: {value!r} is not an int")


def _exact_scalar(value):
    """``value`` if it is an int or a ``Fraction``, else ``TypeError``:
    the one rule for a scalar, which refuses a float and a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"scalar {value!r} is not an int or a Fraction")
    return value


def _unit_vector(i, size):
    """The exponents of the i-th of ``size`` variables; an index that is
    not an int raises ``TypeError``, one outside 0 <= i < size ``ValueError``."""
    _refuse_non_int("index", (i,))
    if not 0 <= i < size:
        raise ValueError(f"index {i} out of range 0..{size - 1}")
    return (0,) * i + (1,) + (0,) * (size - i - 1)


def _corank(d, rank):
    """Refuse a rank or a corank d that is not an int (``TypeError``),
    or a corank outside 1 <= d <= rank (``ValueError``)."""
    _refuse_non_int("rank", (rank,))
    _refuse_non_int("corank", (d,))
    if not 1 <= d <= rank:
        raise ValueError(f"corank d={d} must satisfy 1 <= d <= rank={rank}")


class SparseTerms:
    """A sparse map ``terms`` from exponent tuples to nonzero
    coefficients: the shared core of :class:`LaurentPoly`,
    ``chow.GradedElement`` and ``chow.FlagRingElement``.

    Truth, equality, ``+``, unary ``-``, ``-``, ``**`` and the printing
    of a sum live here; the default ``repr`` lists the terms in ascending
    exponent order in the variables x0, x1, ..., as a flag-ring element
    prints.  A subclass adds its constructor, its ``*``, its own ``repr``
    if it orders or names its variables otherwise, and three hooks:

    * ``_coerce(other)``: ``other`` as an instance with the same parent
      (variable count, base model or flag ring), or None when ``other``
      is no operand, which makes the operator return NotImplemented; an
      instance with another parent raises ValueError;
    * ``_scalar(value)``: the constant ``value``, an int or a Fraction;
    * ``_new(terms)``: an instance with the same parent over terms that
      are already pruned.

    Instances are immutable by convention and unhashable.
    """

    __slots__ = ("terms",)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        peer = self._coerce(other)
        if peer is None:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # a scalar that + refuses (LaurentPoly) still equals its constant
            peer = self._scalar(other)
        return self.terms == peer.terms

    __hash__ = None

    def __add__(self, other):
        peer = self._coerce(other)
        if peer is None:
            return NotImplemented
        out = dict(self.terms)
        for key, value in peer.terms.items():
            _accumulate(out, key, value)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({key: -value for key, value in self.terms.items()})

    def __sub__(self, other):
        peer = self._coerce(other)
        if peer is None:
            return NotImplemented
        return self + (-peer)

    def __rsub__(self, other):
        peer = self._coerce(other)
        if peer is None:
            return NotImplemented
        return peer + (-self)

    def _text(self, order, names) -> str:
        """The terms as a sum in ``order``, each ``coeff*monomial`` in the
        variables ``names``; a coefficient 1 is left out, -1 becomes a
        sign, a ring coefficient of several terms is put in parentheses
        before its monomial, and no terms print as ``0``."""
        bits = []
        for exps in order:
            coeff = self.terms[exps]
            text = exact_str(coeff) if isinstance(coeff, (int, Fraction)) else repr(coeff)
            mono = monomial_text(names, exps)
            if not mono:
                bits.append(text)
            elif coeff == 1:
                bits.append(mono)
            elif coeff == -1:
                bits.append("-" + mono)
            elif isinstance(coeff, SparseTerms) and len(coeff.terms) > 1:
                bits.append(f"({text})*{mono}")
            else:
                bits.append(f"{text}*{mono}")
        return " + ".join(bits).replace("+ -", "- ") or "0"

    def __repr__(self):
        order = sorted(self.terms)
        return self._text(order, [f"x{i}" for i in range(len(order[0]))] if order else ())

    def __pow__(self, k: int):
        _refuse_non_int("power", (k,))
        if k < 0:
            raise ValueError("power must be nonnegative")
        result = self._scalar(_ONE)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result


class LaurentPoly(SparseTerms):
    """Finitely supported Laurent polynomial in a fixed set of variables.

    Terms are a sparse map from integer exponent vectors (negative entries
    allowed) to nonzero coefficients; an exponent or a variable count
    that is not an int is refused with ``TypeError``.  Instances are
    immutable by convention: no method mutates ``self``.  Coefficient-ring
    elements and scalars (by :func:`_exact_scalar`) multiply, scalars
    compare as constants, and ``+`` and ``-`` take polynomials only.
    """

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms=None):
        _refuse_non_int("variable count", (nvars,))
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                    )
                _refuse_non_int("exponent", exps)
                _refuse_float(coeff)
                if coeff:
                    clean[exps] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=_ONE) -> "LaurentPoly":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentPoly":
        return cls(nvars, {_unit_vector(i, nvars): _ONE})

    def coeff(self, exps):
        return self.terms.get(tuple(exps), _ZERO)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts: %d vs %d" % (self.nvars, other.nvars))

    def _coerce(self, other):
        if not isinstance(other, LaurentPoly):
            return None
        self._check(other)
        return other

    def _scalar(self, value):
        return LaurentPoly.constant(self.nvars, value)

    def _new(self, terms):
        res = object.__new__(LaurentPoly)
        res.nvars = self.nvars
        res.terms = terms
        return res

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            # a coefficient-ring element, or a scalar
            if not isinstance(other, SparseTerms):
                _exact_scalar(other)
            return self._new({e: p for e, c in self.terms.items() if (p := c * other)})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(out, _tadd(e1, e2), c1 * c2)
        return self._new(out)

    __rmul__ = __mul__

    def permute_variables(self, perm) -> "LaurentPoly":
        """Apply t_i -> t_{perm[i]}; ``perm`` must be a permutation of 0..nvars-1."""
        out = {}
        for exps, coeff in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exps):
                new[perm[i]] = e
            _accumulate(out, tuple(new), coeff)
        return self._new(out)

    def truncate_total_degree(self, bound: int) -> "LaurentPoly":
        return self._new({e: c for e, c in self.terms.items() if sum(e) <= bound})

    def __repr__(self):
        order = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        return self._text(order, [f"t{i}" for i in range(self.nvars)])


def const_of_product(a: LaurentPoly, b: LaurentPoly):
    """Constant term of a * b, as a pairing of opposite monomials.

    Equals the coefficient of t^0 in a * b but never materializes the
    product; the factor with fewer terms drives the loop.
    """
    a._check(b)
    if len(b.terms) < len(a.terms):
        a, b = b, a
    total = _ZERO
    for exps, coeff in a.terms.items():
        mate = b.terms.get(tuple(-x for x in exps))
        if mate is not None:
            total = total + coeff * mate
    return total


def vandermonde_at(values):
    """The Vandermonde product prod_{i<j} (v_i - v_j) of the values in
    their given order; 1 for fewer than two values."""
    return prod(a - b for a, b in combinations(values, 2))


def alternant(powers) -> LaurentPoly:
    """The alternant det[t_i^(powers[j])] in len(powers) variables.

    Built term by term: each permutation p gives
    sgn(p) * prod t_i^(powers[p(i)]), so no polynomial product is formed.
    Repeated powers cancel to the zero polynomial.
    """
    nvars = len(powers)
    if nvars < 1:
        raise ValueError("need at least one variable")
    out = {}
    for perm in permutations(range(nvars)):
        _accumulate(out, tuple(powers[p] for p in perm), perm_sign(perm))
    return LaurentPoly(nvars, out)


@lru_cache(maxsize=None)
def vandermonde(nvars: int) -> LaurentPoly:
    """The product of (t_i - t_j) over i < j, as the alternant of the
    staircase powers (nvars-1, ..., 1, 0); 1 for a single variable.
    Cached: instances are immutable by convention, so sharing is safe.
    """
    return alternant(range(nvars - 1, -1, -1))


def det(rows):
    """Determinant of a square matrix over a commutative ring, by dynamic
    programming over the sets of columns used by the rows so far (2^n
    partial sums, no division).  Entries may therefore come from rings
    with zero divisors (truncated graded rings, Laurent polynomials, ...).
    """
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square and nonempty")
    state = {}
    for j, entry in enumerate(rows[0]):
        if entry:
            state[1 << j] = entry
    for i in range(1, n):
        nxt = {}
        for mask, value in state.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = rows[i][j]
                if not entry:
                    continue
                below = bin(mask & (bit - 1)).count("1")
                term = value * entry
                _accumulate(nxt, mask | bit, -term if (i + below) % 2 else term)
        state = nxt
    full = (1 << n) - 1
    if full in state:
        return state[full]
    return rows[0][0] - rows[0][0]  # zero of the entry ring
