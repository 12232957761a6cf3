"""Truncated multivariate formal series with exact rational coefficients.

Everything downstream (structure constants, coproduct legs, R-matrix
entries) has coefficients in one ``Ring``: a ``ParamSpace`` that fixes the
symbol list, a nonnegative integer weight per symbol used for truncation,
and an invertibility flag allowing bounded negative exponents (used by the
contraction parameter ``eps``); a truncation order; and an exponent floor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import (
    DivergenceError,
    FloorUnderflowError,
    NonTruncatableError,
    StructureError,
)

#: default lower exponent bound for invertible symbols
DEFAULT_FLOOR = -4

#: order / floor of the untruncated ``Ring.exact``
EXACT_ORDER = 10**9
EXACT_FLOOR = -(10**9)

EPS = "eps"


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class ParamSpace:
    """Ordered list of parameter symbols with weights and invertibility."""

    symbols: tuple
    weights: tuple
    invertible: tuple
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise StructureError(f"duplicate symbols in {self.symbols}")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def make(cls, *specs):
        """Build a space from specs: ``name`` (weight 1) or ``(name, weight,
        invertible)``.  The symbol ``eps`` defaults to weight 1, invertible."""
        syms, wts, inv = [], [], []
        for sp in specs:
            if isinstance(sp, str):
                name, w, iv = sp, 1, sp == EPS
            else:
                name, w, iv = sp
            syms.append(name)
            wts.append(w)
            inv.append(bool(iv))
        return cls(tuple(syms), tuple(wts), tuple(inv))

    @property
    def dim(self):
        return len(self.symbols)

    def index(self, name) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructureError(f"symbol {name!r} not in space {self.symbols}") from None

    def has(self, name) -> bool:
        return name in self._index

    def wdeg(self, exps) -> int:
        return sum(map(operator.mul, exps, self.weights))

    def without(self, *names) -> "ParamSpace":
        drop = set(names)
        keep = [i for i, s in enumerate(self.symbols) if s not in drop]
        return ParamSpace(
            tuple(self.symbols[i] for i in keep),
            tuple(self.weights[i] for i in keep),
            tuple(self.invertible[i] for i in keep),
        )

    def union(self, other: "ParamSpace") -> "ParamSpace":
        syms = list(self.symbols)
        wts = list(self.weights)
        inv = list(self.invertible)
        for i, s in enumerate(other.symbols):
            if s in self._index:
                j = self._index[s]
                if self.weights[j] != other.weights[i] or self.invertible[j] != other.invertible[i]:
                    raise StructureError(f"incompatible declarations for symbol {s!r}")
            else:
                syms.append(s)
                wts.append(other.weights[i])
                inv.append(other.invertible[i])
        return ParamSpace(tuple(syms), tuple(wts), tuple(inv))


@dataclass(frozen=True)
class Ring:
    """The coefficient ring: series over ``space`` truncated above weighted
    degree ``order``, with exponents of invertible symbols bounded below by
    ``floor``.  Series and linear combinations combine only over equal
    rings."""

    space: ParamSpace
    order: int
    floor: int = DEFAULT_FLOOR

    @classmethod
    def exact(cls, space, floor=EXACT_FLOOR):
        """The untruncated ring over ``space``."""
        return cls(space, EXACT_ORDER, floor)

    def lower_orders(self):
        """The rings of orders 1 .. order - 1 over the same space and floor,
        lowest first: those onto which truncation is a ring map.  None below
        the exact ring, or where an invertible symbol of positive weight can
        lower a product's weighted degree."""
        if self.order == EXACT_ORDER or any(
                w and iv for w, iv in zip(self.space.weights, self.space.invertible)):
            return []
        return [replace(self, order=k) for k in range(1, self.order)]

    def check_same(self, other):
        """The one compatibility rule: operands live in equal rings."""
        if self is not other and self != other:
            raise StructureError(f"mismatched rings {self} vs {other}")

    def check_exponents(self, exps):
        """Reject exponents below the floor on an invertible symbol, or
        negative on any other."""
        for e, iv in zip(exps, self.space.invertible):
            if iv:
                if e < self.floor:
                    raise FloorUnderflowError([exps])
            elif e < 0:
                raise StructureError(f"negative exponent on non-invertible symbol: {exps}")

    # -- constructors ------------------------------------------------------

    def zero(self):
        return Series(self, {})

    def const(self, c):
        return Series(self, {(0,) * self.space.dim: _frac(c)})

    def one(self):
        return self.const(1)

    def term(self, exps_by_name, c=1):
        exps = [0] * self.space.dim
        for name, e in exps_by_name.items():
            exps[self.space.index(name)] = e
        return Series(self, {tuple(exps): _frac(c)})

    def symbol(self, name, power=1, coeff=1):
        return self.term({name: power}, coeff)


class Series:
    """Truncated series: map from exponent vectors to nonzero ``Fraction``s,
    over one ``Ring``.

    Terms above the truncation order (total weighted degree) are silently
    dropped; exponents below the floor on invertible symbols raise."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        space, order = ring.space, ring.order
        clean = {}
        for exps, c in terms.items():
            c = _frac(c)
            if not c:
                continue
            if len(exps) != space.dim:
                raise StructureError(f"exponent vector {exps} does not fit {space.symbols}")
            ring.check_exponents(exps)
            if space.wdeg(exps) > order:
                continue
            clean[exps] = c
        self.terms = clean

    @property
    def space(self):
        return self.ring.space

    @property
    def order(self):
        return self.ring.order

    # -- helpers -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.space.dim, Fraction(0))

    def min_wdeg(self):
        """Minimal total weighted degree over stored terms; None if zero."""
        if not self.terms:
            return None
        return min(self.space.wdeg(e) for e in self.terms)

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return _series(self.ring, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self.ring.check_same(other.ring)
        return _series(self.ring, _add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if not c:
                return ring.zero()
            return _series(ring, {e: c * v for e, v in self.terms.items()})
        ring.check_same(other.ring)
        return _series(ring, _product(ring, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert_monomial(-n)
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def invert_monomial(self, n: int = 1):
        """Inverse power, defined only for single-term series."""
        if len(self.terms) != 1:
            raise StructureError("can only invert single-term series")
        ((e, c),) = self.terms.items()
        inv = tuple(-x * n for x in e)
        return Series(self.ring, {inv: Fraction(1) / c**n})

    # -- structural operations --------------------------------------------

    def to(self, ring):
        """The same series over ``ring``, symbols matched by name: a symbol
        ``ring`` lacks must have exponent 0 in every term, a symbol new to
        ``ring`` gets exponent 0, and ``ring``'s order and floor apply."""
        src, dst = self.space.symbols, ring.space.symbols
        if src == dst:
            return Series(ring, self.terms)
        pos = {s: i for i, s in enumerate(src)}
        take = [pos.get(s) for s in dst]
        drop = [i for i, s in enumerate(src) if not ring.space.has(s)]
        out = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                raise StructureError(f"term {e} carries symbols outside {dst}")
            out[tuple(0 if i is None else e[i] for i in take)] = c
        return Series(ring, out)

    def substitute(self, sigma, ring=None):
        """Simultaneous substitution symbol -> Series, into ``ring``.

        Symbols absent from ``sigma`` map to themselves; the target ring is
        that of the images (they must agree) unless given explicitly."""
        if ring is None:
            ring = next((img.ring for img in sigma.values()), self.ring)
        images = {}
        for name in self.space.symbols:
            if name in sigma:
                images[name] = sigma[name].to(ring)
            else:
                images[name] = ring.symbol(name)

        out = ring.zero()
        for e, c in self.terms.items():
            term = ring.const(c)
            for name, exp in zip(self.space.symbols, e):
                if exp:
                    term = term * images[name] ** exp
            out = out + term
        return out

    def zero_slice(self, name, context=""):
        """Set ``name`` to zero, keeping the ring: positive powers vanish,
        negative powers raise DivergenceError (tagged with ``context``)."""
        i = self.space.index(name)
        bad = sorted(e for e in self.terms if e[i] < 0)
        if bad:
            raise DivergenceError([self._render_term(e, self.terms[e]) for e in bad],
                                  context=context)
        return Series(self.ring, {e: c for e, c in self.terms.items() if e[i] == 0})

    def limit_zero(self, name=EPS, context=""):
        """The ``name`` -> 0 limit: the checked zero slice in the reduced space."""
        return self.zero_slice(name, context).to(
            replace(self.ring, space=self.space.without(name)))

    # -- rendering ---------------------------------------------------------

    def _render_term(self, e, c):
        mono = "*".join(
            f"{s}^{v}" if v != 1 else s for s, v in zip(self.space.symbols, e) if v
        )
        return f"{c}" if not mono else f"{c}*{mono}"

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(self._render_term(e, c) for e, c in sorted(self.terms.items()))

    __repr__ = __str__

    def to_json(self):
        """{exponent-vector: "num/den"} with a stable key order."""
        out = {}
        for e, c in sorted(self.terms.items()):
            key = "*".join(f"{s}^{v}" for s, v in zip(self.space.symbols, e) if v) or "1"
            out[key] = f"{c.numerator}/{c.denominator}"
        return out


def _series(ring, terms):
    """A Series over ``ring`` from nonzero, in-range, untruncated terms: every
    invariant ``Series.__init__`` checks already holds."""
    s = object.__new__(Series)
    s.ring, s.terms = ring, terms
    return s


def _add_into(acc, terms):
    """Add raw terms (``{exponents: Fraction}``) into the raw dict ``acc`` in
    place and return it; a term whose sum is zero is dropped."""
    for e, c in terms.items():
        if e in acc:
            s = acc[e] + c
            if s:
                acc[e] = s
            else:
                del acc[e]
        else:
            acc[e] = c
    return acc


def _product(ring, t1, t2):
    """The product of two raw term dicts over ``ring``, as a new raw dict: a
    pair above the order is dropped, a kept pair's exponents are checked
    against the floor.  Two single terms multiply directly; longer operands
    add int products over the lcms of their denominators."""
    space, order = ring.space, ring.order
    wdeg = space.wdeg
    # exponents of non-invertible symbols are >= 0, and so are their sums
    check = ring.check_exponents if any(space.invertible) else None
    if len(t1) == 1 == len(t2):
        ((e1, c1),) = t1.items()
        ((e2, c2),) = t2.items()
        e = tuple(map(operator.add, e1, e2))
        if wdeg(e) > order:
            return {}
        if check is not None:
            check(e)
        return {e: c1 * c2}
    sides = []      # per operand: (lcm d of the denominators, [(exps, wdeg, numerator over d)])
    for t in (t1, t2):
        ratios = [c.as_integer_ratio() for c in t.values()]
        d = math.lcm(*[q for _, q in ratios])
        sides.append((d, [(e, wdeg(e), n * (d // q)) for e, (n, q) in zip(t, ratios)]))
    (d1, left), (d2, right) = sides
    out = {}
    for e1, w1, n1 in left:
        room = order - w1
        for e2, w2, n2 in right:
            if w2 > room:
                continue
            e = tuple(map(operator.add, e1, e2))
            if check is not None:
                check(e)
            out[e] = out.get(e, 0) + n1 * n2
    d = d1 * d2
    return {e: Fraction(n, d) for e, n in out.items() if n}


# ---------------------------------------------------------------------------
# analytic (Taylor) kinds
# ---------------------------------------------------------------------------

def _divide_coeffs(num, den, n):
    # power series division mod x^(n+1); den[0] must be 1
    assert den[0] == 1
    out = []
    for k in range(n + 1):
        c = num[k] - sum(out[i] * den[k - i] for i in range(k))
        out.append(c)
    return out


def taylor_coeffs(kind, n):
    """Exact Taylor coefficients c_0..c_n of the named scalar function."""
    if kind == "exp":
        return [Fraction(1, math.factorial(k)) for k in range(n + 1)]
    if kind == "cosh":
        return [Fraction(1, math.factorial(k)) if k % 2 == 0 else Fraction(0) for k in range(n + 1)]
    if kind == "cosh_minus_one":
        c = taylor_coeffs("cosh", n)
        c[0] = Fraction(0)
        return c
    if kind == "sinh_over_arg":
        # sinh(x)/x
        return [
            Fraction(1, math.factorial(k + 1)) if k % 2 == 0 else Fraction(0)
            for k in range(n + 1)
        ]
    if kind == "expm1_over_arg":
        # (e^x - 1)/x
        return [Fraction(1, math.factorial(k + 1)) for k in range(n + 1)]
    if kind == "coshm1_over_argsq":
        # (cosh x - 1)/x^2
        return [
            Fraction(1, math.factorial(k + 2)) if k % 2 == 0 else Fraction(0)
            for k in range(n + 1)
        ]
    if kind == "x_over_tanh":
        # x/tanh(x) = cosh(x) / (sinh(x)/x)
        return _divide_coeffs(taylor_coeffs("cosh", n), taylor_coeffs("sinh_over_arg", n), n)
    raise StructureError(f"unknown analytic kind {kind!r}")


def analytic_series(kind, arg: Series) -> Series:
    """Taylor expansion of the named function composed with a scalar series.

    Every term of ``arg`` must have strictly positive weighted degree so the
    composition truncates."""
    ring = arg.ring
    mw = arg.min_wdeg()
    if mw is not None and mw <= 0:
        raise NonTruncatableError(f"argument has a weight-{mw} term: {arg}")
    kmax = ring.order if mw is None else ring.order // mw
    coeffs = taylor_coeffs(kind, kmax)
    out = ring.zero()
    power = ring.one()
    for k in range(kmax + 1):
        if coeffs[k]:
            out = out + power * coeffs[k]
        if k < kmax:
            power = power * arg
    return out
