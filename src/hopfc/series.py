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
from functools import cached_property, reduce
from fractions import Fraction
from itertools import accumulate, repeat

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

#: every exponent of a weight-0 symbol below this packs; its field's own
#: bound (``Codec``) can lie above it
WEIGHT0_LIMIT = 2**31


def _frac(x) -> Fraction:
    """``x``, an int or a ``Fraction``, as a ``Fraction``: anything else,
    a float above all, is not exact and raises ``TypeError``."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, int):
        raise TypeError(f"not an int or Fraction: {x!r}")
    return Fraction(x)


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

    @cached_property
    def codec(self):
        """The packing of this ring's exponent vectors into int keys."""
        return Codec(self)

    # -- constructors ------------------------------------------------------

    def zero(self):
        return Series(self, {})

    def const(self, c):
        c = _frac(c)
        return _series(self, (c.denominator, {self.codec.zero: c.numerator}) if c else (1, {}))

    def one(self):
        return self.const(1)

    def term(self, exps_by_name, c=1):
        exps = [0] * self.space.dim
        for name, e in exps_by_name.items():
            exps[self.space.index(name)] = e
        return Series(self, {tuple(exps): _frac(c)})

    def symbol(self, name, power=1, coeff=1):
        return self.term({name: power}, coeff)


class Codec:
    """One int key per exponent vector of a ``Ring`` (after Monagan & Pearce,
    "Sparse polynomial multiplication and division in Maple 14", 2009).

    Field i holds ``e_i - lo_i`` (``lo_i`` is the floor on an invertible
    symbol, else 0) in ``b_i`` value bits under an overflow bit and a set
    guard bit; the top field, from bit ``top`` up and unbounded, holds the
    weighted degree less its least value ``wlo``.  A field is wide enough
    for every exponent of a term at or below the order, and, for a weight-0
    symbol, for every exponent below ``WEIGHT0_LIMIT``: its bound,
    ``tops[i] = caps[i] + lows[i]``, is that limit on a symbol that is not
    invertible and ``2^32 + lo_i`` on an invertible one with a floor from
    -2^31 to -1.  Then ``pack(e1) +
    pack(e2) - zero`` is ``pack(e1 + e2)`` without a borrow or carry between
    fields, the order test is ``p >= limit``, and a field below its floor or
    past its width shows as ``p & flags != guards``."""

    def __init__(self, ring):
        space = ring.space
        self.ring = ring
        self.lows = tuple(ring.floor if iv else 0 for iv in space.invertible)
        wlo = sum(map(operator.mul, space.weights, self.lows))
        span = ring.order - wlo         # top field of the highest kept degree
        self.shifts, self.offsets, self.caps = [], [], []
        shift = self.zero = self.flags = self.guards = 0
        for w, lo in zip(space.weights, self.lows):
            most = span // w if w else WEIGHT0_LIMIT - 1 - lo
            b = max(most, -lo, 1).bit_length()
            guard = 1 << (b + 1)
            self.shifts.append(shift)
            self.offsets.append(guard - lo)
            self.caps.append(1 << b)
            self.zero += (guard - lo) << shift
            self.flags |= (3 << b) << shift
            self.guards |= guard << shift
            shift += b + 2
        self.zero -= wlo << shift
        self.top = shift
        self.limit = (span + 1) << shift
        # pack(e) = zero + sum(e_i * steps_i): one unit in field i and w_i in the top
        self.steps = tuple((1 << s) + (w << shift) for s, w in zip(self.shifts, space.weights))
        self.tops = tuple(map(operator.add, self.lows, self.caps))
        self.masks = tuple((cap << 2) - 1 for cap in self.caps)

    def pack(self, exps):
        """The key of ``exps``, or None above the order.  Exponents below
        the floor raise first, as a negative one on a symbol that is not
        invertible does; one too large for its field raises
        ``StructureError``."""
        space = self.ring.space
        if len(exps) != space.dim:
            raise StructureError(f"exponent vector {exps} does not fit {space.symbols}")
        if all(map(operator.le, self.lows, exps)) and all(map(operator.lt, exps, self.tops)):
            # every field in range: the key is exact, and its top field gives the order test
            p = self.zero + sum(map(operator.mul, exps, self.steps))
            return p if p < self.limit else None
        for e, lo, iv in zip(exps, self.lows, space.invertible):
            if e < lo:
                if iv:
                    raise FloorUnderflowError([exps])
                raise StructureError(f"negative exponent on non-invertible symbol: {exps}")
        if space.wdeg(exps) > self.ring.order:
            return None
        name, top = next((n, t) for n, e, t in zip(space.symbols, exps, self.tops) if e >= t)
        raise StructureError(f"exponent vector {exps} is too large: the field "
                             f"of {name} holds exponents below {top}")

    def field(self, i):
        """Field i of a key as ``(mask, zero, unit)``: ``p & mask`` is ``zero
        + e * unit`` for the exponent e of symbol i in the key ``p``."""
        s = self.shifts[i]
        return self.masks[i] << s, self.offsets[i] << s, 1 << s

    def unpack(self, p):
        """The exponent vector of a key, also of a product key with a field
        below its floor or too large."""
        return tuple([((p >> s) & m) - off
                      for s, m, off in zip(self.shifts, self.masks, self.offsets)])


class Series:
    """Truncated series over one ``Ring``.

    Its one stored form is ``raw``, ``(d, {key: n})``: int numerators
    ``n`` over one denominator ``d > 0`` in lowest terms, none zero, keyed
    by the ring's ``Codec``.  ``terms``, ``{exponent vector: Fraction}``, is
    derived from it on every read.

    Terms above the truncation order (total weighted degree) are silently
    dropped; exponents below the floor on invertible symbols raise."""

    __slots__ = ("ring", "raw")

    def __init__(self, ring, terms):
        self.ring = ring
        pack = ring.codec.pack
        fracs = {}
        for exps, c in terms.items():
            c = _frac(c)
            if c and (p := pack(exps)) is not None:
                fracs[p] = c
        d = math.lcm(*[c.denominator for c in fracs.values()])
        self.raw = d, {p: c.numerator * (d // c.denominator) for p, c in fracs.items()}

    @property
    def terms(self):
        """``{exponent vector: Fraction}``, built afresh from ``raw``."""
        d, t = self.raw
        unpack = self.ring.codec.unpack
        return {unpack(p): Fraction(n, d) for p, n in t.items()}

    @property
    def space(self):
        return self.ring.space

    @property
    def order(self):
        return self.ring.order

    # -- helpers -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.raw[1]

    def __bool__(self):
        return bool(self.raw[1])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self.raw == other.raw

    def __hash__(self):
        d, t = self.raw
        return hash((self.ring, d, frozenset(t.items())))

    def min_wdeg(self):
        """Minimal total weighted degree over stored terms; None if zero."""
        return min(map(self.space.wdeg, self.terms), default=None)

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        d, t = self.raw
        return _series(self.ring, (d, {p: -n for p, n in t.items()}))

    def __add__(self, other):
        return lincomb(self, [(1, other)])

    __radd__ = __add__

    def __sub__(self, other):
        return lincomb(self, [(-1, other)])

    def __mul__(self, other):
        """The product (``_mul_terms``), reduced by one gcd."""
        ring = self.ring
        (d1, t1), (d2, t2) = self.raw, _raw(ring, other)
        return _series(ring, _reduce((d1 * d2, _mul_terms(ring.codec, t1, t2))))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """The left fold of ``n`` truncated products from 1, or for ``n < 0``
        the inverse of a single term to the power ``-n``.  One term is raised
        in one step to what the fold gives: the floor or field error
        (``Codec.pack``) of its first power out of range at or below the
        order, else zero past the order.  More terms square and multiply in
        about 2 log n products where that gives the fold's terms and errors
        (``_squaring_is_exact``), else they fold."""
        ring = self.ring
        d, t = self.raw
        if len(t) != 1:
            if n < 0:
                raise StructureError("can only invert single-term series")
            if not _squaring_is_exact(ring, t, n):
                return reduce(operator.mul, repeat(self, n), ring.one())
            out = ring.one()
            for bit in bin(n)[2:]:
                out *= out
                if bit == "1":
                    out *= self
            return out
        ((p, c),) = t.items()
        codec = ring.codec
        e = codec.unpack(p)
        if n > 0:
            w = ring.space.wdeg(e)
            last = min(n, ring.order // w) if w > 0 else n      # the last power kept
            first = min([lo // x + 1 if x < 0 else -(-top // x)
                         for x, lo, top in zip(e, codec.lows, codec.tops) if x], default=n + 1)
            if first <= last:
                codec.pack(tuple(first * x for x in e))      # raises
            if last < n:
                return ring.zero()
        if (q := codec.pack(tuple(n * x for x in e))) is None:
            return ring.zero()
        f = Fraction(c, d) ** n
        return _series(ring, (f.denominator, {q: f.numerator}))

    # -- structural operations --------------------------------------------

    def to(self, ring):
        """The same series over ``ring``, symbols matched by name: a symbol
        ``ring`` lacks must have exponent 0 in every term, a symbol new to
        ``ring`` gets exponent 0, and ``ring``'s order and floor apply, key
        by key (``_ring_change``)."""
        if ring == self.ring:
            return self
        d, t = self.raw
        return _series(ring, _reduce((d, _ring_change(self.ring, ring)(t))))

    def substitute(self, sigma, ring=None):
        """Simultaneous substitution symbol -> Series, into ``ring``.

        Symbols absent from ``sigma`` map to themselves; the target ring is
        that of the images (they must agree) unless given explicitly."""
        if ring is None:
            ring = next((img.ring for img in sigma.values()), self.ring)
        return Substitution(self.ring, sigma, ring)(self)

    def zero_slice(self, name, context=""):
        """Set ``name`` to zero, keeping the ring: positive powers vanish,
        negative powers raise DivergenceError (tagged with ``context``)."""
        d, t = self.raw
        return _series(self.ring, _reduce((d, _zero_slicer(self.ring, name, context)(d, t))))

    # -- rendering ---------------------------------------------------------

    def _render_term(self, e, c):
        return f"{c}*{_mono_str(self.space.symbols, e, False)}" if any(e) else f"{c}"

    def __str__(self):
        if not self:
            return "0"
        return " + ".join(self._render_term(e, c) for e, c in sorted(self.terms.items()))

    __repr__ = __str__

    def to_json(self):
        """{exponent-vector: "num/den"} with a stable key order."""
        return {_mono_str(self.space.symbols, e, True): f"{c.numerator}/{c.denominator}"
                for e, c in sorted(self.terms.items())}


def _mono_str(names, m, full):
    """Render a monomial of parameters or generators, ``names`` with the
    exponents ``m``; ``full`` writes every exponent (the JSON key form)."""
    return "*".join(
        f"{n}^{e}" if full or e != 1 else n for n, e in zip(names, m) if e
    ) or "1"


def _series(ring, raw):
    """A Series over ``ring`` from a raw form in lowest terms with no zero
    numerator and no key outside the ring: what ``Series.__init__`` builds."""
    s = object.__new__(Series)
    s.ring, s.raw = ring, raw
    return s


def _squaring_is_exact(ring, t, n):
    """Whether square-and-multiply gives the left fold's ``n``-th power of
    the term dict ``t`` over ``ring``, terms and errors.  It does where no
    symbol is both invertible and of positive weight, as truncation is then
    a ring map and association does not matter, and where no product of up
    to ``n`` terms at or below the order has a weight-0 exponent outside
    its field, so that neither raises: at most order // d of its factors
    have positive degree, d the least positive degree of a term, and the
    rest degree 0.  Elsewhere the terms that the fold's own intermediate
    powers keep decide its error."""
    codec, space = ring.codec, ring.space
    if any(w and iv for w, iv in zip(space.weights, space.invertible)):
        return False
    exps = [codec.unpack(p) for p in t]
    degs = [space.wdeg(e) for e in exps]
    j = min(n, ring.order // min(g for g in degs if g)) if any(degs) else 0
    for i, w in enumerate(space.weights):
        if not w:
            flat = [e[i] for e, g in zip(exps, degs) if not g] + [0]
            rest = [e[i] for e, g in zip(exps, degs) if g] + [0]
            if (n * min(flat) + j * min(rest) < codec.lows[i]
                    or n * max(flat) + j * max(rest) >= codec.tops[i]):
                return False
    return True


def _ring_change(src, ring):
    """``Series.to`` on term dicts, prepared once per pair of rings: the map
    of a term dict over ``src`` to one over ``ring``, its keys in input
    order (the identity if the rings are equal).  A key with a nonzero
    exponent on a symbol that ``ring`` lacks raises ``StructureError``
    first.

    Where no floor or field error can arise (each kept symbol keeps its
    weight, no kept field's floor rises and no weight-0 field narrows), the
    plan works per field: one mask compare for the dropped symbols, the
    order test on the key's top field (the weighted degree, which the kept
    symbols carry whole), and the target key as a linear form of the kept
    fields.  Otherwise each key is unpacked and packed again with
    ``Codec.pack``, which raises its floor, order and field errors in its
    own order."""
    if ring == src:
        return lambda t: t
    have, want = src.space._index, ring.space._index
    a, b = src.codec, ring.codec
    dropped = [i for s, i in have.items() if s not in want]
    # p & drop compares with gone exactly when every dropped exponent of key p is 0
    drop = sum(a.field(i)[0] for i in dropped)
    gone = sum(a.field(i)[1] for i in dropped)
    take = [have.get(s, -1) for s in ring.space.symbols]    # -1: a 0 appended to e
    kept = [(i, j) for j, i in enumerate(take) if i >= 0]
    wa, wb = src.space.weights, ring.space.weights

    def refuse(p):
        raise StructureError(f"term {a.unpack(p)} carries symbols outside {ring.space.symbols}")

    if all(wa[i] == wb[j] and b.lows[j] <= a.lows[i] and (wb[j] or b.tops[j] >= a.tops[i])
           for i, j in kept):
        # the key's top field is its weighted degree less wlo: kept at or below ring.order
        cut = a.limit + ((ring.order - src.order) << a.top)
        # e_i = field_i - offset_i, and the target key is zero + sum of e_i * steps_j
        fields = [(a.shifts[i], a.masks[i], b.steps[j]) for i, j in kept]
        base = b.zero - sum(a.offsets[i] * b.steps[j] for i, j in kept)

        def move(t):
            out = {}
            for p, n in t.items():
                if p & drop != gone:
                    refuse(p)
                if p < cut:
                    out[base + sum([(p >> s & m) * st for s, m, st in fields])] = n
            return out

        return move
    unpack, pack = a.unpack, b.pack

    def repack(t):
        out = {}
        for p, n in t.items():
            if p & drop != gone:
                refuse(p)
            e = unpack(p) + (0,)
            if (q := pack(tuple([e[i] for i in take]))) is not None:
                out[q] = n
        return out

    return repack


def _zero_slicer(ring, name, context=""):
    """``Series.zero_slice`` on term dicts over ``ring``: the map of ``d, t``
    to the terms of ``t`` with exponent 0 on ``name``, one mask compare per
    key; a negative exponent raises the ``DivergenceError`` of ``(d, t)``."""
    i = ring.space.index(name)
    # p & mask compares with zero as exponent i of the key p compares with 0
    mask, zero, _ = ring.codec.field(i)

    def slice_(d, t):
        if any(p & mask < zero for p in t):
            s = _series(ring, _reduce((d, t)))
            bad = sorted((e, c) for e, c in s.terms.items() if e[i] < 0)
            raise DivergenceError([s._render_term(e, c) for e, c in bad], name, context=context)
        return {p: n for p, n in t.items() if p & mask == zero}

    return slice_


class Substitution:
    """``Series.substitute(sigma, ring)`` prepared once for every series over
    ``src``: calling it maps a ``Series`` over ``src`` to one over ``ring``,
    and ``apply`` maps a raw form ``d, t`` over ``src`` (not necessarily in
    lowest terms) to one over ``ring`` in lowest terms.  Symbols absent from
    ``sigma`` map to themselves.  The images move to ``ring`` here.

    The image of a key, built on first use and kept, is the product
    (``_mul_terms``) of the powers of the images that the key raises, in
    symbol order, each power computed once and still taken after the
    product is zero, reduced once.  ``apply`` sums each numerator times its
    key's image over one running denominator."""

    __slots__ = ("src", "ring", "apply")

    def __init__(self, src, sigma, ring):
        self.src, self.ring = src, ring
        images = [sigma[s].to(ring) if s in sigma else ring.symbol(s) for s in src.space.symbols]
        codec, unpack = ring.codec, src.codec.unpack
        unit = {codec.zero: 1}
        powers, keys = {}, {}

        def image(p):
            d, t = 1, unit
            for i, e in enumerate(unpack(p)):
                if e:
                    if (pw := powers.get((i, e))) is None:
                        pw = powers[i, e] = (images[i] ** e).raw
                    d, t = d * pw[0], pw[1] if t is unit else t and _mul_terms(codec, t, pw[1])
            return _reduce((d, t))

        def apply(d, t):
            out = {}
            acc = [1, {(): out}]
            for p, n in t.items():
                if (im := keys.get(p)) is None:
                    im = keys[p] = image(p)
                m, u = im
                n *= _rescale(acc, m)
                for q, c in u.items():
                    if v := out.get(q, 0) + n * c:
                        out[q] = v
                    else:
                        del out[q]
            return _reduce((acc[0] * d, out))

        self.apply = apply

    def __call__(self, s):
        self.src.check_same(s.ring)
        return _series(self.ring, self.apply(*s.raw))


def _reduce(r):
    """The raw form ``r``, whose dict holds no zero, in lowest terms: one gcd
    divided out.  An empty dict gives ``(1, {})``."""
    d, t = r
    g = math.gcd(d, *t.values())
    if g == 1:
        return r
    return d // g, {p: n // g for p, n in t.items()}


def _mul_terms(codec, t1, t2):
    """The product of two term dicts ``{key: n}`` over ``codec``'s ring,
    with no zero.  Per term pair, one int add gives the key: a pair above
    the order is dropped, and then a kept pair with a field below the floor
    or too large raises, as ``Codec.pack`` does for its exponents.  When
    both sides have more than one term, ``t2`` is walked in key order, and
    a row stops at its first pair above the order: the weighted degree is
    the key's top field, so every later pair of the row is above it too."""
    zero, limit, flags, guards = codec.zero, codec.limit, codec.flags, codec.guards
    out = {}
    multi = len(t1) > 1 < len(t2)
    inner = sorted(t2.items()) if multi else t2.items()
    for p1, n1 in t1.items():
        q = p1 - zero
        for p2, n2 in inner:
            p = q + p2
            if p >= limit:
                if multi:
                    break
                continue
            if p & flags != guards:
                codec.pack(codec.unpack(p))      # raises
            out[p] = out.get(p, 0) + n1 * n2
    # two keys can meet only when both sides have more than one term
    return {p: n for p, n in out.items() if n} if multi else out


def _raw(ring, v):
    """The raw form of ``v``, a ``Series`` over ``ring``, an int or a
    ``Fraction``."""
    if isinstance(v, Series):
        ring.check_same(v.ring)
        return v.raw
    if type(v) is int:      # the common constant, read without a Fraction
        return (1, {ring.codec.zero: v}) if v else (1, {})
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"not a Series, int or Fraction: {v!r}")
    return ring.const(v).raw


def _rescale(acc, d):
    """Bring the accumulator ``[D, {key: {p: n}}]`` to a denominator that
    ``d`` divides; returns the factor that takes numerators over ``d`` to
    it."""
    D = acc[0]
    if D % d:
        m = math.lcm(D, d)
        g = m // D
        for t in acc[1].values():
            for p in t:
                t[p] *= g
        acc[0] = D = m
    return D // d


def _add_terms(acc, k, t, f):
    """``acc[k] += f * t`` over int term dicts; ``acc`` takes ownership of
    ``t``.  A key whose terms all cancel leaves ``acc``, and an empty ``t``
    changes nothing."""
    if (a := acc.get(k)) is None:
        if t:
            if f != 1:
                for p in t:
                    t[p] *= f
            acc[k] = t
        return
    for p, n in t.items():
        if n := a.get(p, 0) + n * f:
            a[p] = n
        else:
            del a[p]
    if not a:
        del acc[k]


def _mul_add(codec, acc, items, c, f, left=False):
    """``acc[k] += f * t * c`` for each ``(k, t)`` of ``items``, over int
    term dicts (``c * t`` if ``left``: the order in which term pairs are
    met).  Each kept term pair is truncated and flag-tested as in
    ``_mul_terms``; with a one-term ``c`` it goes straight into ``acc``, with
    no product dict, else each product is summed in by ``_add_terms``."""
    if len(c) > 1:
        for k, t in items:
            _add_terms(acc, k, _mul_terms(codec, c, t) if left else _mul_terms(codec, t, c), f)
        return
    limit, flags, guards = codec.limit, codec.flags, codec.guards
    ((q, m),) = c.items()
    q -= codec.zero
    m *= f
    for k, t in items:
        if (a := acc.get(k)) is None:
            a = acc[k] = {}
        for p, n in t.items():
            if (p := p + q) < limit:
                if p & flags != guards:
                    codec.pack(codec.unpack(p))      # raises
                if n := a.get(p, 0) + n * m:
                    a[p] = n
                else:
                    del a[p]
        if not a:
            del acc[k]


def _finish(d, acc):
    """An accumulator's ``(d, {key: {p: n}})`` with one gcd divided out: a
    raw form."""
    if d == 1:
        return d, acc
    g = math.gcd(d, *(n for t in acc.values() for n in t.values()))
    if g == 1:
        return d, acc
    return d // g, {k: {p: n // g for p, n in t.items()} for k, t in acc.items()}


def _sum(ring, start, pairs):
    """``start + sum(c * x for c, x in pairs)`` over ``ring``, the one
    accumulator of every linear combination: ``c`` a raw form ``(d, {p:
    n})``, ``start`` and each ``x`` a keyed one ``(d, {key: {p: n}})``, and
    the result keyed, reduced once at the end.  A constant ``c`` scales
    numerators; any other multiplies each term dict (``_mul_add``)."""
    codec = ring.codec
    d, t = start
    acc = [d, {k: dict(u) for k, u in t.items()}]
    terms = acc[1]
    for (e, v), (d, t) in pairs:
        if v:
            m = v.get(codec.zero) if len(v) == 1 else None
            f = _rescale(acc, d * e) * (m or 1)
            if not m:
                _mul_add(codec, terms, t.items(), v, f)
            else:
                for k, u in t.items():
                    # a constant's term dict is copied only where the accumulator takes it
                    _add_terms(terms, k, u if k in terms else dict(u), f)
    return _finish(*acc)


def lincomb(start, pairs):
    """``start + sum(c * x for c, x in pairs)``, one ``_sum`` over the
    single key ``()``: each ``c`` and ``x`` a ``Series`` over the ring of
    ``start`` (else ``StructureError``), an int or a ``Fraction`` (else
    ``TypeError``).  A constant ``x`` becomes the factor, so a series times
    a constant scales numerators and only two series multiply."""
    ring = start.ring
    one = ring.codec.zero
    args = []
    for c, x in pairs:
        (d, t), (e, u) = _raw(ring, c), _raw(ring, x)
        if t and u:
            args.append(((e, u), (d, {(): t})) if len(u) == 1 and one in u
                        else ((d, t), (e, {(): u})))
    d, t = start.raw
    d, t = _sum(ring, (d, {(): t} if t else {}), args)
    return _series(ring, (d, t.get((), {})))


# ---------------------------------------------------------------------------
# analytic (Taylor) kinds
# ---------------------------------------------------------------------------

#: the kinds whose coefficient c_k is 1/(shift + k)! at every ``step``-th k
#: and 0 elsewhere
_FACTORIAL_KINDS = {
    "exp": (0, 1),
    "cosh": (0, 2),
    "sinh_over_arg": (1, 2),            # sinh(x)/x
    "expm1_over_arg": (1, 1),           # (e^x - 1)/x
    "coshm1_over_argsq": (2, 2),        # (cosh x - 1)/x^2
}


def taylor_coeffs(kind, n):
    """Exact Taylor coefficients c_0..c_n of the named scalar function."""
    if kind == "x_over_tanh":
        # x/tanh(x) = cosh(x) / (sinh(x)/x), by power series division; the
        # divisor's c_0 is 1
        num, den, out = taylor_coeffs("cosh", n), taylor_coeffs("sinh_over_arg", n), []
        for k in range(n + 1):
            out.append(num[k] - sum(out[i] * den[k - i] for i in range(k)))
        return out
    if kind not in _FACTORIAL_KINDS:
        raise StructureError(f"unknown analytic kind {kind!r}")
    shift, step = _FACTORIAL_KINDS[kind]
    return [Fraction(1, math.factorial(shift + k)) if k % step == 0 else Fraction(0)
            for k in range(n + 1)]


def taylor(kind, arg, one, times, mw, order):
    """The pairs ``(c_k, arg^k)`` for ``k <= order // mw`` of the named
    function's Taylor expansion at ``arg``, whose terms have least weighted
    degree ``mw`` (``None`` for a zero ``arg``), over a ring truncated at
    ``order``: ``arg^0`` is ``one`` and ``arg^(k+1)`` is ``times(arg^k,
    arg)``, built only as the pairs are read.  The untruncated ring and a
    weight ``<= 0`` term raise ``NonTruncatableError`` here, before any
    coefficient or power is built."""
    if order == EXACT_ORDER:
        raise NonTruncatableError(f"analytic function over the untruncated ring: {arg}")
    if mw is not None and mw <= 0:
        raise NonTruncatableError(f"argument has a weight-{mw} term: {arg}")
    kmax = 0 if mw is None else order // mw
    return zip(taylor_coeffs(kind, kmax), accumulate(repeat(arg, kmax), times, initial=one))


def analytic_series(kind, arg: Series) -> Series:
    """Taylor expansion of the named function composed with a scalar series
    (``taylor``)."""
    ring = arg.ring
    return lincomb(ring.zero(), taylor(kind, arg, ring.one(), operator.mul, arg.min_wdeg(),
                                       ring.order))
