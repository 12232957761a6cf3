"""Noncommutative PBW engine: ordered monomials, rewrite tables, normal forms,
analytic functions of generator arguments, and tensor-slot arithmetic."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import combinations

from .errors import (ConfluenceFailureError, DivergenceError, StructureError,
                     UnsupportedArgumentError)
from .series import (_add_terms, _finish, _mono_str, _mul_add, _mul_terms, _raw, _reduce,
                     _rescale, _ring_change, _series, _sum, _zero_slicer, taylor)

#: rewrite steps allowed in one top-level product, read at call time
STEP_BUDGET = 10**6


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered generator names (the PBW order) with centrality flags."""

    names: tuple
    central: tuple
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise StructureError(f"duplicate generators in {self.names}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

    @classmethod
    def make(cls, names, central=()):
        central = set(central)
        return cls(tuple(names), tuple(n in central for n in names))

    @property
    def dim(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise StructureError(f"unknown generator {name!r} in {self.names}") from None


def word_of(mono):
    """Monomial (exponent tuple) -> sorted word (tuple of generator indices)."""
    w = []
    for i, e in enumerate(mono):
        w.extend([i] * e)
    return tuple(w)


def monomial_of(word, dim):
    m = [0] * dim
    for i in word:
        m[i] += 1
    return tuple(m)


class TensorElement:
    """Finite linear combination over one generator set and one coefficient
    ``Ring``.  A key holds one PBW monomial (exponent tuple) per slot, and
    ``rank`` is the number of slots: an algebra element is the rank-1
    tensor, keyed ``(m,)`` by a PBW monomial ``m``.

    Its one stored form is ``raw``, ``(d, {key: {p: n}})``: int numerators
    ``n`` over one denominator ``d > 0`` in lowest terms, none zero and no
    key without a term, each ``p`` a key of the ring's ``Codec``: the form
    of the slot product's accumulator and of the normal-form cache.
    ``terms``, ``{key: Series}``, is derived from it on every read, and is
    what a constructor takes.

    Slot-wise PBW ordering; the tensor product algebra is the ordinary
    (unbraided) one."""

    __slots__ = ("rank", "gens", "ring", "raw")

    def __init__(self, rank, gens, ring, terms):
        self.rank = rank
        self.gens = gens
        self.ring = ring
        self.raw = _raw_of(ring, terms)

    @property
    def terms(self):
        """``{key: Series}``, built afresh from ``raw``."""
        d, t = self.raw
        return {k: _series(self.ring, _reduce((d, u))) for k, u in t.items()}

    @staticmethod
    def monomial(gens, ring, exps_by_name, coeff=None):
        """The rank-1 tensor ``coeff`` (by default 1) times the PBW monomial
        with the exponents ``exps_by_name``."""
        m = [0] * gens.dim
        for name, e in exps_by_name.items():
            m[gens.index(name)] = e
        return TensorElement(1, gens, ring, {(tuple(m),): ring.one() if coeff is None else coeff})

    def _with(self, raw, ring=None, gens=None):
        """The tensor of this rank over ``raw``, a raw form over ``ring`` and
        ``gens`` (by default this one's)."""
        return _tensor(self.rank, self.gens if gens is None else gens,
                       self.ring if ring is None else ring, raw)

    @staticmethod
    def outer(factors):
        """Tensor product of tensors of any rank: their keys concatenate."""
        f0 = factors[0]
        for f in factors[1:]:
            f0.ring.check_same(f.ring)
        d, terms = _outer([f.raw for f in factors], f0.ring.codec)
        return _tensor(sum(f.rank for f in factors), f0.gens, f0.ring, _finish(d, dict(terms)))

    def permute(self, perm):
        """The slots reordered: slot ``s`` of the result is slot ``perm[s]``
        of this tensor."""
        d, t = self.raw
        return self._with((d, {tuple(ms[p] for p in perm): u for ms, u in t.items()}))

    def _compatible(self, other):
        if self.rank != other.rank:
            raise StructureError("tensor rank mismatch")
        if self.gens.names != other.gens.names:
            raise StructureError("mismatched generator sets")
        self.ring.check_same(other.ring)

    def is_zero(self):
        return not self.raw[1]

    def __bool__(self):
        return bool(self.raw[1])

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.gens.names == other.gens.names
            and self.ring == other.ring
            and self.raw == other.raw
        )

    def __add__(self, other):
        return lincomb(self, [(1, other)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return lincomb(self, [(-1, other)])

    def scale(self, c):
        """Multiply by a scalar Series / Fraction / int."""
        return lincomb(self._with((1, {})), [(c, self)])

    def to(self, ring, gens=None):
        """Every coefficient's ``Series.to(ring)``, over ``gens`` (by default
        these generators; others rename them position by position)."""
        return ring_change(self.ring, ring, gens)(self)

    def zero_slice(self, name, context=""):
        """Every coefficient's ``Series.zero_slice``: the least key, in sorted
        order, whose coefficient diverges raises as that ``Series`` does."""
        slice_ = _zero_slicer(self.ring, name, context)
        d, t = self.raw
        try:
            return self._with(_finish(d, {k: v for k, u in t.items() if (v := slice_(d, u))}))
        except DivergenceError:
            for k in sorted(t):
                slice_(d, t[k])

    def _render_key(self, ms, full):
        slots = " (x) ".join(_mono_str(self.gens.names, m, full) for m in ms)
        return slots if full or self.rank == 1 else f"[{slots}]"

    def __str__(self):
        if not self:
            return "0"
        return " + ".join(
            f"({c})*{self._render_key(k, False)}" for k, c in sorted(self.terms.items())
        )

    __repr__ = __str__

    def to_json(self):
        return {self._render_key(k, True): c.to_json() for k, c in sorted(self.terms.items())}


def _raw_of(ring, terms):
    """The raw form of ``{key: Series}`` over ``ring``, zero coefficients
    dropped: each coefficient's numerators over the lcm of the denominators,
    which is in lowest terms as every coefficient is."""
    for c in terms.values():
        ring.check_same(c.ring)
    d = math.lcm(*[c.raw[0] for c in terms.values()])
    return d, {k: t if e == d else {p: n * (d // e) for p, n in t.items()}
               for k, c in terms.items() if c for e, t in (c.raw,)}


def ring_change(src, ring, gens=None):
    """``TensorElement.to(ring, gens)`` for every tensor over ``src``, its
    key-level ring change (``series._ring_change``) prepared once."""
    move = _ring_change(src, ring)

    def to(x):
        src.check_same(x.ring)
        d, t = x.raw
        return x._with(_finish(d, {k: v for k, u in t.items() if (v := move(u))}), ring, gens)

    return to


def zero_limit(src, ring, gens=None):
    """Every symbol of ``src`` to 0, for every tensor over ``src``: each
    coefficient keeps its term with every exponent 0, written under the
    zero key of ``ring`` (over no symbols) and ``gens``.  Where a symbol is
    invertible, and so a term can diverge, every symbol is sliced first, in
    symbol order (``zero_slice``), which raises the ``DivergenceError`` of
    the first symbol met diverging."""
    names = src.space.symbols if any(src.space.invertible) else ()
    zero, target = src.codec.zero, ring.codec.zero

    def limit(x):
        src.check_same(x.ring)
        for name in names:
            x = x.zero_slice(name)
        d, t = x.raw
        return x._with(_finish(d, {k: {target: u[zero]} for k, u in t.items() if zero in u}),
                       ring, gens)

    return limit


def _tensor(rank, gens, ring, raw):
    """The rank-``rank`` tensor over the raw form ``raw``."""
    new = object.__new__(TensorElement)
    new.rank, new.gens, new.ring, new.raw = rank, gens, ring, raw
    return new


def lincomb(start, pairs):
    """``start + sum(c * x for c, x in pairs)``, one ``series._sum``: each
    ``c`` a ``Series`` over its ring, a ``Fraction`` or an int (else
    ``TypeError``), each ``x`` of the rank, generators and ring of
    ``start``."""
    ring = start.ring
    args = []
    for c, x in pairs:
        start._compatible(x)
        args.append((_raw(ring, c), x.raw))
    return start._with(_sum(ring, start.raw, args))


def _outer(raws, codec):
    """Tensor product of raw forms over ``codec``'s ring: keys concatenate,
    term dicts multiply left to right (``_mul_terms``) and empty products
    are dropped, over the product of the denominators, not reduced.  A
    product with the unit ``{zero: 1}`` is the other dict itself, shared and
    never changed.  The terms come as ``(key, {p: n})`` pairs: of one raw
    form, its own items."""
    unit = {codec.zero: 1}
    d, terms = raws[0]
    terms = terms.items()
    for e, f in raws[1:]:
        d *= e
        terms = [(k + k2, p) for k, c in terms for k2, c2 in f.items()
                 if (p := c2 if c == unit else c if c2 == unit else _mul_terms(codec, c, c2))]
    return d, terms


class RewriteTable:
    """PBW rewrite rules: for positions i > j, ``X_i X_j = X_j X_i + R[i,j]``."""

    def __init__(self, gens, ring, rules):
        self.gens = gens
        self.ring = ring
        self.rules = dict(rules)  # (i, j) with i > j -> rank-1 tensor
        for i in range(gens.dim):
            for j in range(i):
                if gens.central[i] or gens.central[j]:
                    self.rules.setdefault((i, j), self.zero())
                if (i, j) not in self.rules:
                    raise StructureError(
                        f"missing rewrite rule for ({gens.names[i]}, {gens.names[j]})"
                    )
        self._nf_cache = {}
        self._rule_parts = {}
        self._word = lru_cache(maxsize=None)(word_of)     # monomial -> its word
        self.reset_budget()

    @classmethod
    def commuting(cls, gens, ring):
        """A table with every rule zero, to be filled in with ``set_rule``."""
        zero = TensorElement(1, gens, ring, {})
        return cls(gens, ring, {(i, j): zero for i in range(gens.dim) for j in range(i)})

    def reset_budget(self):
        """Start one top-level rewrite: up to ``STEP_BUDGET`` steps."""
        self._steps = 0

    def zero(self):
        return TensorElement(1, self.gens, self.ring, {})

    def one(self, coeff=1):
        return TensorElement.monomial(self.gens, self.ring, {}, self.ring.const(coeff))

    def gen(self, name, coeff=None):
        return TensorElement.monomial(self.gens, self.ring, {name: 1}, coeff)

    def scalar(self, c):
        return self.ring.const(c)

    def sym(self, name, power=1, coeff=1):
        return self.ring.symbol(name, power, coeff)

    def set_rule_by_index(self, i, j, rhs: TensorElement):
        """Install/replace the rule for positions i > j (two-phase table
        construction).  The normal-form cache is emptied only if a normal
        form read this pair since it was last emptied, since no other normal
        form depends on the rule; returns whether it was emptied."""
        if i <= j:
            raise StructureError("rewrite rules require i > j")
        if (self.gens.central[i] or self.gens.central[j]) and rhs:
            raise StructureError(
                f"nonzero rule on central pair ({self.gens.names[i]}, {self.gens.names[j]})"
            )
        self.rules[(i, j)] = rhs
        if (i, j) not in self._rule_parts:
            return False
        self._nf_cache = {}
        self._rule_parts = {}
        return True

    def set_rule(self, xname, yname, bracket):
        """Declare [X, Y] = bracket for named generators, either order."""
        i, j = self.gens.index(xname), self.gens.index(yname)
        if i > j:
            self.set_rule_by_index(i, j, bracket)
        else:
            self.set_rule_by_index(j, i, -bracket)

    # -- normal form -------------------------------------------------------

    def _nf_word(self, word):
        """Normal form of a raw word as ``(d, {(monomial,): {key: n}})``: int
        numerators over one denominator ``d``, none zero, cached (its dicts
        are shared, never changed).  nf(w) is nf of w with its first descent
        swapped, plus c * nf(w with m for the pair) for each term c * m of
        the pair's rule.  A stack of frames (word, parts left in reverse as
        (word, c or None), [d, acc]) replaces that recursion."""
        cache, ring, rule_parts = self._nf_cache, self.ring, self._rule_parts
        codec = ring.codec
        frames = []
        while True:
            while (res := cache.get(word)) is None:
                k = next((k for k in range(len(word) - 1) if word[k] > word[k + 1]), -1)
                if k < 0:
                    res = cache[word] = 1, {(monomial_of(word, self.gens.dim),): {codec.zero: 1}}
                    break
                self._steps += 1
                if self._steps > STEP_BUDGET:
                    raise ConfluenceFailureError(
                        f"rewrite step budget exceeded on word {word}"
                    )
                head, pair, tail = word[:k], word[k:k + 2], word[k + 2:]
                if (rule := rule_parts.get(pair)) is None:
                    rhs = self.rules[pair]
                    ring.check_same(rhs.ring)
                    e, u = rhs.raw
                    rule = rule_parts[pair] = [(self._word(m), (e, t))
                                               for (m,), t in reversed(u.items())]
                swapped = head + pair[::-1] + tail
                parts = [(head + w + tail, c) for w, c in rule] + [(swapped, None)]
                frames.append((word, parts, [1, {}]))
                word = swapped
            while frames:
                w, parts, acc = frames[-1]
                c = parts.pop()[1]
                if c is None and not parts:
                    acc = res       # a zero rule: nf(w) is the swapped word's, shared
                else:
                    (d, terms), (e, c) = res, c or (1, {codec.zero: 1})
                    _mul_add(codec, acc[1], terms.items(), c, _rescale(acc, d * e))
                if parts:
                    word = parts[-1][0]
                    break
                frames.pop()
                res = cache[w] = acc if acc is res else _finish(*acc)
            else:
                return res

    def nf_word(self, word, coeff=None):
        """Normal form of a raw word, optionally scaled by a coefficient."""
        self.reset_budget()
        res = _tensor(1, self.gens, self.ring, self._nf_word(tuple(word)))
        return res if coeff is None else res.scale(coeff)

    def check(self, x: TensorElement):
        if x.gens.names != self.gens.names:
            raise StructureError("element does not belong to this table's algebra")
        self.ring.check_same(x.ring)


def _slot_product(x: TensorElement, y: TensorElement, table: RewriteTable):
    """Slot-wise product of two tensors of one rank: for every term pair,
    each slot's words (memoized on the table) concatenate and are
    normal-formed, a cached normal form read without entering ``_nf_word``.
    The coefficient of a pair is c1 * c2, times the slot-wise outer product
    of the normal forms' coefficients, left to right (``_outer``); at each
    of these products terms above the order go and the flag test runs, and
    a sum that cancels is gone before the next.  The last product goes
    straight into one accumulator over a running denominator (``_mul_add``).
    A pair whose every normal form is one monomial with coefficient 1 adds
    c1 * c2 under the monomials' key with no outer product (``_add_terms``)."""
    x._compatible(y)
    table.check(x)
    table.reset_budget()
    ring, cache, nf, word = x.ring, table._nf_cache, table._nf_word, table._word
    codec = ring.codec
    zero, limit, flags, guards = codec.zero, codec.limit, codec.flags, codec.guards
    unit = {zero: 1}
    (d1, left), (d2, right) = ((d, [([word(m) for m in ms], t) for ms, t in terms.items()])
                               for d, terms in (x.raw, y.raw))
    acc, d12 = [1, {}], d1 * d2
    for words1, t1 in left:
        for words2, t2 in right:
            if len(t1) == 1 == len(t2):
                # the common pair, one term a side, on the spot
                ((p1, n1),), ((p2, n2),) = t1.items(), t2.items()
                if (p := p1 + p2 - zero) >= limit:
                    continue
                if p & flags != guards:
                    codec.pack(codec.unpack(p))      # raises
                c = {p: n1 * n2}
            elif not (c := _mul_terms(codec, t1, t2)):
                continue
            nfs = [cache.get(w := w1 + w2) or nf(w) for w1, w2 in zip(words1, words2)]
            key = ()
            for e, r in nfs:
                if e != 1 or len(r) != 1 or unit not in r.values():
                    e, outer = _outer(nfs, codec)
                    _mul_add(codec, acc[1], outer, c, _rescale(acc, d12 * e))
                    break
                key += next(iter(r))
            else:
                # every normal form is one monomial with coefficient 1
                _add_terms(acc[1], key, c, _rescale(acc, d12))
    return _tensor(x.rank, x.gens, ring, _finish(*acc))


def multiply_slots(t: TensorElement, table: RewriteTable) -> TensorElement:
    """The product m of a rank-2 tensor's two slots: each key (u, v) becomes
    nf(word(u) + word(v)), a cached normal form read without entering
    ``_nf_word``, times the key's coefficient, summed straight into one
    accumulator (``_mul_add``).  The call is one top-level product for the
    rewrite step budget."""
    table.check(t)
    if t.rank != 2:
        raise StructureError(f"multiply_slots takes a rank-2 tensor, not rank {t.rank}")
    table.reset_budget()
    cache, nf, word, codec = table._nf_cache, table._nf_word, table._word, t.ring.codec
    d, terms = t.raw
    acc = [1, {}]
    for (u, v), c in terms.items():
        e, res = cache.get(w := word(u) + word(v)) or nf(w)
        _mul_add(codec, acc[1], res.items(), c, _rescale(acc, d * e))
    return _tensor(1, t.gens, t.ring, _finish(*acc))


def mul(x: TensorElement, y: TensorElement, table: RewriteTable) -> TensorElement:
    """Product in the algebra: concatenate words, then normal-form."""
    return _slot_product(x, y, table)


def tensor_mul(x: TensorElement, y: TensorElement, table: RewriteTable) -> TensorElement:
    """Slot-wise product with per-slot normal form."""
    return _slot_product(x, y, table)


def commutator(x: TensorElement, y: TensorElement, table: RewriteTable) -> TensorElement:
    """x y - y x, slot-wise at any rank: ``mul`` is ``tensor_mul``."""
    return mul(x, y, table) - mul(y, x, table)


def generator_function(kind, arg: TensorElement, table: RewriteTable) -> TensorElement:
    """Taylor expansion of the named function at an algebra-element argument
    (``series.taylor``), whose terms must commute pairwise; a ring or weight
    that does not truncate is refused first."""
    table.check(arg)
    terms = arg.terms
    pairs = taylor(kind, arg, table.one(), partial(mul, table=table),
                   min((c.min_wdeg() for c in terms.values()), default=None), arg.ring.order)
    parts = [TensorElement(1, arg.gens, arg.ring, {k: c}) for k, c in terms.items()]
    for ta, tb in combinations(parts, 2):
        if commutator(ta, tb, table):
            raise UnsupportedArgumentError(f"non-commuting terms in analytic argument: "
                                           f"{ta} vs {tb}")
    return lincomb(table.zero(), pairs)


def monomial_image(m, gens, images, unit, product, memo, slack=None, trim=None):
    """Image of the PBW monomial ``m`` under the extension of the generator
    map ``images`` (name -> value): the fold of ``product``, from ``unit``,
    over the generator images in PBW order.  Every Hopf structure map is
    extended to monomials here.

    ``memo`` (monomial -> (slack, image)) belongs to the caller and must only
    ever see this one ``images`` map and ``trim``.  The image of ``m`` is
    that of ``m`` less its last generator, times that generator's image: the
    fold's own sequence of products, so a memoized image equals an
    unmemoized one.

    A ``slack`` (None: none) asks only for the image's terms whose power of
    one symbol is at most low(m) + ``slack``, low(m) being the least power
    the image of ``m`` can have, and ``trim(image, m, slack)`` drops what
    lies above.  Every product keeps each term's power, so powers and least
    powers both add along the fold, and the shorter image is needed at the
    same slack.  A memo entry holds every term of the image up to its slack
    (None if it is whole), so it serves every slack at or below its own; the
    terms above that it may carry land above what the caller reads."""
    chain = []
    while (hit := memo.get(m)) is None or hit[0] is not None and hit[0] < slack:
        last = next((i for i in range(len(m) - 1, -1, -1) if m[i]), None)
        if last is None:
            hit = memo[m] = None, unit
            break
        chain.append((m, last))
        m = m[:last] + (m[last] - 1,) + m[last + 1:]
    got, img = hit
    for m, last in reversed(chain):
        img = product(img, images[gens.names[last]])
        if trim and (kept := trim(img, m, slack)) is not img:
            got, img = slack, kept
        memo[m] = got, img
    return img


def _check_free_of(table, name, pairs):
    """Raise ``StructureError`` if the rule of ``table`` at one of ``pairs``
    carries the symbol ``name``: a substitution sliced on it reads its
    bounds (``_slice_bounds``) only while every normal form keeps each
    term's power."""
    field, zero, _ = table.ring.codec.field(table.ring.space.index(name))
    for a, b in pairs:
        if any(p & field != zero for t in table.rules[a, b].raw[1].values() for p in t):
            raise StructureError(f"rule [{table.gens.names[a]},{table.gens.names[b]}] carries "
                                 f"{name}: a substitution sliced on it needs rules free of it")


def _slice_bounds(gens, images, table, name):
    """What a substitution of ``images`` (one per name of ``gens``) into
    ``table`` needs to take its zero slice on the symbol ``name``, building
    monomial images only down to the powers of ``name`` that the slice
    reads: ``(name, slack, trim)``.  ``slack(t, ms)`` is that of a term over
    the monomials ``ms`` with coefficient term dict ``t``: -q - sum of
    low(m) over ``ms``, q the least power in ``t``, low(m) = sum of m_i *
    v_i and v_i the least power in the image of generator i (0 in a zero
    image).  ``trim`` is that of ``monomial_image``, which drops an image's
    terms above low(m) + slack if it has any.  They hold while no rule of
    ``table`` carries ``name``: every rule is checked here
    (``_check_free_of``), and a caller that fills rules later checks each
    as it goes in."""
    field, zero, unit = table.ring.codec.field(table.ring.space.index(name))

    def least(t):
        return (min(p & field for p in t) - zero) // unit

    _check_free_of(table, name, table.rules)
    lows = [min(map(least, images[n].raw[1].values()), default=0) for n in gens.names]

    def low(m):
        return sum(map(operator.mul, m, lows))

    def slack(t, ms):
        return -least(t) - sum(map(low, ms))

    def trim(img, m, s):
        top = zero + (low(m) + s) * unit
        d, t = img.raw
        if all(p & field <= top for u in t.values() for p in u):
            return img
        return img._with(_finish(d, {k: w for k, u in t.items()
                                     if (w := {p: n for p, n in u.items() if p & field <= top})}))

    return name, slack, trim


def substitute_generators(x: TensorElement, images, table_target: RewriteTable, coeffs=None,
                          memo=None, bounds=None, context=""):
    """Homomorphic substitution generator -> algebra element of the target,
    slot by slot: per term, the outer product of its monomials' images,
    left to right, times the coefficient mapped by ``coeffs`` goes straight
    into one accumulator (``_mul_add``).  ``coeffs`` is a
    ``series.Substitution`` from the ring of ``x`` to the target's, built
    once for many calls; without it each coefficient moves to the target's
    ring (``series._ring_change``).  ``memo`` may carry monomial images
    from earlier calls with the same ``images`` and ``bounds``, made since
    the target's normal-form cache was last emptied.

    With ``bounds``, the ``_slice_bounds`` of these images on a symbol, the
    result is the ``zero_slice`` on that symbol (with ``context`` for a
    ``DivergenceError``), and each monomial image is built only down to the
    powers of the symbol which the slice can read.  So every term of the
    image of m has power at least low(m).  For a term over monomials (m_1,
    .., m_r) whose coefficient's least power is q, slot s reaches power <= 0
    only through image terms at or below low(m_s) + slack, where the slack
    -q - sum of low(m_t) is one number for every slot; the other terms land
    above 0, where the slice drops them."""
    ring = table_target.ring
    unit, product = table_target.one(), partial(mul, table=table_target)
    memo = {} if memo is None else memo
    name, slack, trim = bounds or (None,) * 3
    d, terms = x.raw
    if coeffs is None:
        move = _ring_change(x.ring, ring)
        coeff = lambda u: (d, move(u))    # noqa: E731
    else:
        x.ring.check_same(coeffs.src)
        ring.check_same(coeffs.ring)
        coeff = partial(coeffs.apply, d)
    acc = [1, {}]
    for ms, u in terms.items():
        e, v = coeff(u)
        if v:
            s = slack and slack(v, ms)
            d2, outer = _outer([monomial_image(m, x.gens, images, unit, product, memo, s,
                                               trim).raw for m in ms], ring.codec)
            _mul_add(ring.codec, acc[1], outer, v, _rescale(acc, d2 * e))
    res = _tensor(x.rank, table_target.gens, ring, _finish(*acc))
    return res if name is None else res.zero_slice(name, context)


# ---------------------------------------------------------------------------
# structure maps on one tensor slot
# ---------------------------------------------------------------------------

def map_slot(t: TensorElement, slot, images, unit, product, memo=None) -> TensorElement:
    """Replace slot ``slot`` of ``t`` by the ``monomial_image`` of its
    monomial: a term c * (.. (x) m (x) ..) becomes c times the image's terms,
    their slots spliced in at ``slot``, so the rank changes by
    ``unit.rank - 1``; each product c * v goes straight into one accumulator
    (``_mul_add``).  Every Hopf structure map on a slot (coproduct, counit,
    antipode) runs through here.  ``memo`` is passed on to ``monomial_image``."""
    t.ring.check_same(unit.ring)
    memo = {} if memo is None else memo
    acc = [1, {}]
    d, terms = t.raw
    for ms, u in terms.items():
        e, img = monomial_image(ms[slot], t.gens, images, unit, product, memo).raw
        pre, post = ms[:slot], ms[slot + 1:]
        _mul_add(t.ring.codec, acc[1], [(pre + ms2 + post, v) for ms2, v in img.items()], u,
                 _rescale(acc, d * e), left=True)
    return _tensor(t.rank - 1 + unit.rank, t.gens, t.ring, _finish(*acc))


def apply_coproduct(x: TensorElement, delta, table: RewriteTable) -> TensorElement:
    """Extend a generator coproduct table multiplicatively to an algebra
    element."""
    return coproduct_on_slot(x, 0, delta, table)


def coproduct_on_slot(t: TensorElement, slot, delta, table: RewriteTable,
                      memo=None) -> TensorElement:
    """Apply the coproduct to one slot of a tensor, raising its rank by one.
    ``memo`` may carry coproducts of monomials from earlier calls with the
    same ``delta``."""
    table.check(t)
    unit = TensorElement.outer([table.one(), table.one()])
    return map_slot(t, slot, delta, unit, lambda a, b: tensor_mul(a, b, table), memo)


def counit_collapse(t: TensorElement, slot, counit_values):
    """Apply the counit to one slot of a tensor, lowering its rank by one.
    ``counit_values``: generator name -> Fraction, each taken as a rank-0
    tensor, so that ``TensorElement.outer`` is their product."""
    def scalar(v):
        return TensorElement(0, t.gens, t.ring, {(): t.ring.const(v)})

    return map_slot(t, slot, {n: scalar(v) for n, v in counit_values.items()}, scalar(1),
                    lambda a, b: TensorElement.outer([a, b]))
