"""The algebra's slot-wise product (``mul``, ``tensor_mul``) against a
reference built here from plain ``Series`` arithmetic, with the same
association: c1 * c2, then the slot-wise outer product of the normal forms'
coefficients, then times c1 * c2; ``map_slot``, ``substitute_generators``
and ``multiply_slots`` against references built from ``terms`` in the same
way; and the key-level
coefficient maps and ``lincomb`` against per-coefficient references."""

import functools
import itertools
import math
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from hopfc import catalog
from hopfc.algebra import (
    GeneratorSet,
    RewriteTable,
    TensorElement,
    coproduct_on_slot,
    lincomb,
    map_slot,
    monomial_image,
    monomial_of,
    mul,
    multiply_slots,
    substitute_generators,
    tensor_mul,
    word_of,
)
from hopfc.errors import DivergenceError, FloorUnderflowError, HopfcError, StructureError
from hopfc.series import ParamSpace, Ring, Series, Substitution


def ref_nf(table, word, memo):
    """{monomial: Series}: nf of the word with its first descent swapped,
    plus v * c for each coefficient v of nf(word with m for the pair) and
    each term c * m of the pair's rule."""
    if word in memo:
        return memo[word]
    k = next((k for k in range(len(word) - 1) if word[k] > word[k + 1]), None)
    if k is None:
        res = {monomial_of(word, table.gens.dim): table.ring.one()}
    else:
        i, j = word[k], word[k + 1]
        res = dict(ref_nf(table, word[:k] + (j, i) + word[k + 2:], memo))
        for (m,), c in table.rules[(i, j)].terms.items():
            for m2, v in ref_nf(table, word[:k] + word_of(m) + word[k + 2:], memo).items():
                res[m2] = res.get(m2, table.ring.zero()) + v * c
    memo[word] = res = {m: v for m, v in res.items() if v}
    return res


def ref_product(x, y, table):
    """{key: Series} of the slot-wise product, by Series ops alone."""
    memo, acc = {}, {}
    for ms1, c1 in x.terms.items():
        for ms2, c2 in y.terms.items():
            c = c1 * c2
            if not c:
                continue
            outer = {(): None}
            for m1, m2 in zip(ms1, ms2):
                nf = ref_nf(table, word_of(m1) + word_of(m2), memo)
                outer = {k + (m,): v if u is None else u * v
                         for k, u in outer.items() for m, v in nf.items()}
            for k, v in outer.items():
                acc[k] = acc.get(k, x.ring.zero()) + v * c
    return {k: v for k, v in acc.items() if v}


def outcome(fn):
    try:
        return fn()
    except FloorUnderflowError:
        return "floor underflow"


@lru_cache(maxsize=None)
def eps_table(order, floor):
    """gl(2) with [Jp, Jm] = J3 + a^2 eps^-1 / 6 * J3^3 over an invertible
    eps: normal forms carry negative eps powers, so products truncate by a
    weight that can go down, and can fall below the floor."""
    ring = Ring(ParamSpace.make("a", "eps"), order, floor)
    t = catalog._gl2_table_classical(ring)
    cube = TensorElement.monomial(t.gens, ring, {"J3": 3}, ring.term({"a": 2, "eps": -1}, F(1, 6)))
    t.set_rule("Jp", "Jm", t.gen("J3") + cube)
    return t


@st.composite
def tables(draw):
    order = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return catalog.get("gl2.II.standard", order).table
    return eps_table(order, draw(st.integers(-4, -1)))


@st.composite
def coefficients(draw, ring):
    lows = [ring.floor if iv else 0 for iv in ring.space.invertible]
    exps = st.tuples(*(st.integers(lo, 2) for lo in lows))
    frac = st.builds(F, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))
    return Series(ring, draw(st.dictionaries(exps, frac, min_size=1, max_size=3)))


@st.composite
def tensors(draw, table, rank, min_size=0):
    mono = st.sampled_from([m for m in itertools.product(range(3), repeat=table.gens.dim)
                            if sum(m) <= 2])
    terms = draw(st.dictionaries(st.tuples(*[mono] * rank), coefficients(table.ring),
                                 min_size=min_size, max_size=3))
    return TensorElement(rank, table.gens, table.ring, terms)


def flipped(draw, x):
    """``x`` with the signs of some terms of each coefficient flipped: a key
    paired with itself then has c1 * c2 = u^2 - v^2, whose cross terms
    cancel."""
    terms = {}
    for k, c in x.terms.items():
        flips = draw(st.lists(st.booleans(), min_size=len(c.terms), max_size=len(c.terms)))
        terms[k] = Series(c.ring, {e: -v if f else v for (e, v), f in zip(c.terms.items(), flips)})
    return TensorElement(x.rank, x.gens, x.ring, terms)


def check_against_reference(x, y, table):
    product = mul if x.rank == 1 else tensor_mul
    got = outcome(lambda: product(x, y, table))
    want = outcome(lambda: ref_product(x, y, table))
    if want == "floor underflow":
        assert got == want
    else:
        assert got != "floor underflow" and got.terms == want
        assert got.rank == x.rank and got.ring == table.ring


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_slot_product_matches_series_reference(data):
    table = data.draw(tables())
    rank = data.draw(st.sampled_from([1, 2]))
    x, y = data.draw(tensors(table, rank)), data.draw(tensors(table, rank))
    check_against_reference(x, y, table)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_slot_product_matches_series_reference_at_rank_3_and_on_cancelling_pairs(data):
    table = data.draw(tables())
    rank = data.draw(st.sampled_from([1, 2, 3]))
    x = data.draw(tensors(table, rank))
    if rank == 3 and data.draw(st.booleans()):
        y = data.draw(tensors(table, rank))
    else:
        y = flipped(data.draw, x)
    check_against_reference(x, y, table)


def check_raw_form(x):
    """``x.raw`` is ``(d, {key: {p: n}})`` with d > 0 in lowest terms, no
    zero numerator and no key without a term, and ``x`` equals the tensor
    built from its own ``terms``."""
    d, terms = x.raw
    nums = [n for t in terms.values() for n in t.values()]
    assert d > 0 and math.gcd(d, *nums) == 1
    assert all(terms.values()) and all(nums)
    assert x == like(x, x.ring, x.terms)


def like(x, ring, terms):
    """The tensor of the rank and generators of ``x`` over ``ring`` with the
    given terms."""
    return TensorElement(x.rank, x.gens, ring, terms)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_tensor_operation_keeps_the_raw_form(data):
    table = data.draw(tables())
    ring = table.ring
    rank = data.draw(st.sampled_from([1, 2]))
    x, y = data.draw(tensors(table, rank)), data.draw(tensors(table, rank))
    c = data.draw(coefficients(ring))
    images = {n: data.draw(tensors(table, 1)) for n in table.gens.names}
    sym = ring.space.symbols[0]
    word = tuple(data.draw(st.lists(st.integers(0, table.gens.dim - 1), max_size=4)))
    lower = Ring(ring.space, max(ring.order - 1, 1), ring.floor)
    ops = [lambda: x + y, lambda: x - y, lambda: x - x, lambda: -x,
           lambda: x.scale(c), lambda: x.scale(F(-4, 6)), lambda: tensor_mul(x, y, table),
           lambda: TensorElement.outer([x, y]), lambda: x.permute(tuple(range(rank))[::-1]),
           lambda: x.zero_slice(sym), lambda: lincomb(x, [(c, y), (F(-4, 6), x), (2, y)]),
           lambda: x.to(lower),
           lambda: table.nf_word(word), lambda: table.nf_word(word, c),
           lambda: map_slot(x, rank - 1, images, table.one(), lambda a, b: mul(a, b, table)),
           lambda: substitute_generators(x, images, table),
           lambda: substitute_generators(x, images, table, Substitution(ring, {sym: c}, ring))]
    for op in ops:
        if (got := outcome(op)) != "floor underflow":
            check_raw_form(got)
    assert (x - x).raw == (1, {})


def per_coefficient(fn, x, ring):
    """The tensor over ``ring`` whose coefficients are ``fn`` of those of
    ``x``, key by key in order: the first coefficient that raises, raises."""
    return like(x, ring, {k: fn(c) for k, c in x.terms.items()})


def agree(got_fn, want_fn):
    """Both raise an error of one type and text, or both give one tensor, of
    one rank and in its raw form."""
    try:
        want = want_fn()
    except HopfcError as exc:
        with pytest.raises(HopfcError) as info:
            got_fn()
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    got = got_fn()
    assert got.rank == want.rank and got.terms == want.terms and got == want
    check_raw_form(got)


@st.composite
def targets(draw, ring):
    """A ring to move to: another order and floor (a coefficient can fall
    below it), a symbol dropped (a term can carry it), one added, or the
    untruncated ring."""
    space = ring.space
    return draw(st.sampled_from([
        Ring(space, draw(st.integers(0, 4)), draw(st.integers(-4, -1))),
        Ring(space.without(draw(st.sampled_from(space.symbols))), ring.order, ring.floor),
        Ring(ParamSpace.make("z").union(space), ring.order, ring.floor),
        Ring.exact(space)]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coefficient_maps_and_lincomb_match_per_coefficient_references(data):
    table = data.draw(tables())
    ring = table.ring
    rank = data.draw(st.sampled_from([1, 2]))
    x = data.draw(tensors(table, rank))
    dst = data.draw(targets(ring))
    agree(lambda: x.to(dst), lambda: per_coefficient(lambda c: c.to(dst), x, dst))
    name = data.draw(st.sampled_from(ring.space.symbols))
    in_key_order = like(x, ring, dict(sorted(x.terms.items())))
    agree(lambda: x.zero_slice(name, "ctx"),
          lambda: per_coefficient(lambda c: c.zero_slice(name, "ctx"), in_key_order, ring))

    scalars = st.one_of(coefficients(ring), st.integers(-3, 3),
                        st.builds(F, st.integers(-3, 3), st.integers(1, 4)))
    pairs = data.draw(st.lists(st.tuples(scalars, tensors(table, rank)), max_size=4))

    def by_terms():
        acc = dict(x.terms)
        for c, y in pairs:
            for k, v in y.terms.items():
                acc[k] = acc.get(k, ring.zero()) + v * c
        return like(x, ring, acc)

    agree(lambda: lincomb(x, pairs), by_terms)
    agree(lambda: lincomb(x, pairs),
          lambda: functools.reduce(lambda acc, p: acc + p[1].scale(p[0]), pairs, x))


def ref_map_slot(t, slot, images, unit, product):
    """{key: Series}: each term c * (.. (x) m (x) ..) of ``t`` gives c * v for
    each term v * k of the ``monomial_image`` of m, with k spliced in at
    ``slot``."""
    memo, acc = {}, {}
    for ms, c in t.terms.items():
        img = monomial_image(ms[slot], t.gens, images, unit, product, memo)
        for k, v in img.terms.items():
            key = ms[:slot] + k + ms[slot + 1:]
            acc[key] = acc.get(key, t.ring.zero()) + c * v
    return {k: v for k, v in acc.items() if v}


def ref_substitute(x, images, target, param_sub):
    """{key: Series}: each term c * (m1 (x) m2 ..) of ``x`` gives v * c' for
    each term v * k of the outer product of the images of m1, m2, .., left
    to right, where c' is c moved to the target ring (``Series.to``) or
    substituted into it (``Series.substitute``)."""
    ring, memo, acc = target.ring, {}, {}
    unit = target.one()
    for ms, c in x.terms.items():
        c = c.to(ring) if param_sub is None else c.substitute(param_sub, ring)
        if not c:
            continue
        imgs = [monomial_image(m, x.gens, images, unit, lambda a, b: mul(a, b, target), memo)
                for m in ms]
        outer = {(): None}
        for img in imgs:
            outer = {k + k2: v if u is None else u * v
                     for k, u in outer.items() for k2, v in img.terms.items()}
        for k, v in outer.items():
            acc[k] = acc.get(k, ring.zero()) + v * c
    return {k: v for k, v in acc.items() if v}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_map_slot_matches_a_reference_built_from_terms(data):
    # images of rank 1 (an algebra map: mul), 2 (a coproduct: tensor_mul)
    # and 0 (a counit: outer products of scalars), multi-term coefficients
    # on both sides, and over an eps table products that fall below the floor
    table = data.draw(tables())
    ring = table.ring
    rank = data.draw(st.sampled_from([1, 2]))
    t = data.draw(tensors(table, rank, 1))
    slot = data.draw(st.integers(0, rank - 1))
    image_rank = data.draw(st.sampled_from([0, 1, 2]))
    if image_rank == 0:
        images = {n: TensorElement(0, table.gens, ring, {(): data.draw(coefficients(ring))})
                  for n in table.gens.names}
        unit = TensorElement(0, table.gens, ring, {(): ring.one()})
        product = lambda a, b: TensorElement.outer([a, b])     # noqa: E731
    else:
        images = {n: data.draw(tensors(table, image_rank, 1)) for n in table.gens.names}
        unit = TensorElement.outer([table.one()] * image_rank)
        product = lambda a, b: tensor_mul(a, b, table)     # noqa: E731
    agree(lambda: map_slot(t, slot, images, unit, product),
          lambda: TensorElement(rank - 1 + image_rank, table.gens, ring,
                                ref_map_slot(t, slot, images, unit, product)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_substitute_generators_matches_a_reference_built_from_terms(data):
    # source and target tables drawn apart: a coefficient can carry a symbol
    # the target lacks (StructureError) or fall below its floor, and a
    # parameter can be substituted by a multi-term series of the target
    source, target = data.draw(tables()), data.draw(tables())
    rank = data.draw(st.sampled_from([1, 2]))
    x = data.draw(tensors(source, rank, 1))
    images = {n: data.draw(tensors(target, 1, 1)) for n in target.gens.names}
    param_sub = None
    if data.draw(st.booleans()):
        param_sub = {data.draw(st.sampled_from(source.ring.space.symbols)):
                     data.draw(coefficients(target.ring))}
    # the reference substitutes only the coefficients that x has
    agree(lambda: substitute_generators(
              x, images, target,
              Substitution(x.ring, param_sub, target.ring) if param_sub and x else None),
          lambda: TensorElement(rank, target.gens, target.ring,
                                ref_substitute(x, images, target, param_sub)))


def ref_multiply_slots(t, table):
    """{key: Series}: each term c * (u (x) v) of ``t`` gives v' * c for each
    term v' * m of nf(word(u) + word(v))."""
    memo, acc = {}, {}
    for (u, v), c in t.terms.items():
        for m, v2 in ref_nf(table, word_of(u) + word_of(v), memo).items():
            acc[(m,)] = acc.get((m,), t.ring.zero()) + v2 * c
    return {k: v for k, v in acc.items() if v}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multiply_slots_matches_a_reference_built_from_terms(data):
    # multi-term coefficients; over an eps table the normal forms' negative
    # eps powers can bring a product below the floor
    table = data.draw(tables())
    t = data.draw(tensors(table, 2, 1))
    agree(lambda: multiply_slots(t, table),
          lambda: TensorElement(1, table.gens, table.ring, ref_multiply_slots(t, table)))
    with pytest.raises(StructureError, match="rank-2"):
        multiply_slots(TensorElement(1, t.gens, t.ring, {}), table)


def test_map_slot_raises_at_the_first_bad_pair_of_c_times_v():
    # c * v over eps_table(3, -2): c = a eps^-1 + a^3 eps^-2 and v = a eps^-1
    # + a^2 eps^-2 have two pairs below the floor; met c term by c term, the
    # first is a^3 eps^-3 (v term by v term it would be a^4 eps^-3)
    t = eps_table(3, -2)
    ring = t.ring
    c = Series(ring, {(1, -1): 1, (3, -2): 1})
    v = Series(ring, {(1, -1): 1, (2, -2): 1})
    x = t.gen("Jp", coeff=c)
    images = {n: t.gen(n, coeff=v) for n in t.gens.names}
    product = lambda a, b: mul(a, b, t)     # noqa: E731
    with pytest.raises(FloorUnderflowError) as info:
        map_slot(x, 0, images, t.one(), product)
    assert info.value.terms == [(3, -3)]
    agree(lambda: map_slot(x, 0, images, t.one(), product),
          lambda: TensorElement(1, t.gens, ring, ref_map_slot(x, 0, images, t.one(), product)))


def test_a_cancelled_outer_sum_is_gone_before_the_product_with_c():
    # at order 3, floor -2, u = a^4 eps^-2, with rules that leave no swapped
    # word: nf(Jm Jp) = (u + 1) J3 and nf(Jm J3) = (1 - u) I, so the one key
    # of the outer product is J3 (x) I, with (u + 1)(1 - u) = 1, as u^2 is
    # above the order and the cross terms u - u cancel; carried on, the
    # cancelled u times c1 c2 = eps^-1 would fall below the floor
    ring = Ring(ParamSpace.make("a", "eps"), 3, -2)
    t = RewriteTable.commuting(GeneratorSet.make(["I", "Jp", "J3", "Jm"], central=["I"]), ring)
    u = ring.term({"a": 4, "eps": -2})
    jp, j3, jm = (t.gens.index(g) for g in ("Jp", "J3", "Jm"))
    t.set_rule_by_index(jm, jp, t.gen("J3", coeff=u + 1) - mul(t.gen("Jp"), t.gen("Jm"), t))
    t.set_rule_by_index(jm, j3, t.gen("I", coeff=ring.one() - u) - mul(t.gen("J3"), t.gen("Jm"), t))
    c = ring.term({"eps": -1})
    x = TensorElement.outer([t.gen("Jm"), t.gen("Jm")]).scale(c)
    y = TensorElement.outer([t.gen("Jp"), t.gen("J3")])
    assert outcome(lambda: u * c) == "floor underflow"
    got = tensor_mul(x, y, t)
    assert got.terms == ref_product(x, y, t) == {((0, 0, 1, 0), (1, 0, 0, 0)): c}
    check_raw_form(got)


def test_a_tensor_slice_names_the_first_divergent_key():
    # both keys diverge: the error is that of the key first in sorted order,
    # Jm's, whatever the order of the raw dict
    t = eps_table(3, -4)
    ring = t.ring
    x = (t.gen("Jp", coeff=ring.term({"eps": -1}, F(1, 6)) + ring.one())
         + t.gen("Jm", coeff=ring.term({"a": 1, "eps": -2}, 3)))
    d, u = x.raw
    for y in (x, x._with((d, dict(reversed(u.items()))))):
        with pytest.raises(DivergenceError) as info:
            y.zero_slice("eps", "[Jp,Jm]")
        assert str(info.value) == "[Jp,Jm]: divergent terms under eps -> 0: ['3*a*eps^-2']"


def test_floor_underflow_in_the_normal_form_is_kept():
    # Jm^2 Jp^2 rewrites through two J3^3 insertions, a^4 eps^-2: below a
    # floor of -1, not of -2
    for floor in (-1, -2):
        t = eps_table(4, floor)
        x, y = (mul(t.gen(g), t.gen(g), t) for g in ("Jm", "Jp"))
        got, want = outcome(lambda: mul(x, y, t)), outcome(lambda: ref_product(x, y, t))
        if floor == -1:
            assert got == want == "floor underflow"
        else:
            assert got.terms == want


def test_truncation_follows_the_association():
    # at order 1, Jm Jp in each slot has a weight-1 term a^2 eps^-1 J3^3: the
    # outer product of the two (weight 2) is dropped before eps^-1 (weight -1)
    # could bring it back to order 1; c * v0 first would keep it
    t = eps_table(1, -4)
    c = t.ring.term({"eps": -1})
    jm, jp = t.gen("Jm"), t.gen("Jp")
    x, y = TensorElement.outer([jm, jm]).scale(c), TensorElement.outer([jp, jp])
    got = tensor_mul(x, y, t)
    assert got.terms == ref_product(x, y, t)
    nf = ref_nf(t, (t.gens.index("Jm"), t.gens.index("Jp")), {})
    other = {(m0, m1): p for m0, v0 in nf.items() for m1, v1 in nf.items()
             if (p := c * v0 * v1)}
    assert set(other) - set(got.terms)


def test_a_cancelled_pair_coefficient_is_not_carried_on():
    # at order 3, floor -2: (u + 1)(u - 1) with u = a^4 eps^-2 is -1, as u^2
    # is above the order and the cross terms cancel; carried on, a cross
    # term times the a^2 eps^-1 / 6 of nf(Jm Jp) would fall below the floor
    t = eps_table(3, -2)
    u = t.ring.term({"a": 4, "eps": -2})
    for rank in (1, 2):
        x = TensorElement.outer([t.gen("Jm", coeff=u + 1)] + [t.gen("I")] * (rank - 1))
        y = TensorElement.outer([t.gen("Jp", coeff=u - 1)] + [t.gen("I")] * (rank - 1))
        got = tensor_mul(x, y, t)
        assert got.terms == ref_product(x, y, t)
        assert any(c.terms == {(2, -1): F(1, 6)} for c in got.terms.values())


def test_tensor_mul_refuses_a_table_over_another_ring():
    h3, h5 = catalog.get("gl2.II.standard", 3), catalog.get("gl2.II.standard", 5)
    with pytest.raises(StructureError):
        tensor_mul(h3.coproduct["Jp"], h3.coproduct["Jm"], h5.table)
    with pytest.raises(StructureError):
        coproduct_on_slot(h3.coproduct["Jp"], 0, h3.coproduct, h5.table)


def test_tensor_product_makes_no_series_product(monkeypatch):
    # the slot product, its normal forms included, multiplies raw terms:
    # not one Series.__mul__ call on a cold table
    H = catalog._BUILDERS["gl2.II.standard"](6)
    cold = RewriteTable(H.gens, H.ring, H.table.rules)     # same rules, empty NF cache
    calls = []
    orig = Series.__mul__

    def counted(a, b):
        calls.append((a, b))
        return orig(a, b)

    monkeypatch.setattr(Series, "__mul__", counted)
    monkeypatch.setattr(Series, "__rmul__", counted)
    got = tensor_mul(H.coproduct["Jp"], H.coproduct["Jm"], cold)
    assert len(got.terms) > 100
    assert not calls


def _xyz_table():
    """X, Y, Z with Y X = X Y + Z / 3 and every other pair commuting, over
    ``a`` at order 3: nf(X Y) is the monomial X Y with coefficient 1, and
    nf(Y X) is X Y + Z / 3, over the denominator 3."""
    ring = Ring(ParamSpace.make("a"), 3)
    t = RewriteTable.commuting(GeneratorSet.make(["X", "Y", "Z"]), ring)
    t.set_rule("Y", "X", t.gen("Z", coeff=ring.const(F(1, 3))))
    return t


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("fast_first", [True, False])
def test_a_monomial_pair_and_an_outer_pair_cancel_on_one_key(rank, fast_first):
    # (X - Y) (Y + X), with X in every further slot: the pair X . Y has a
    # monomial normal form in every slot and adds X Y; the pair Y . X goes
    # through the outer product and subtracts it, over the denominator 3,
    # so the key is gone whichever pair comes first
    t = _xyz_table()
    x_, y_ = t.gen("X"), t.gen("Y")

    def slots(g):
        return TensorElement.outer([g] + [x_] * (rank - 1))

    left = [(1, slots(x_)), (-1, slots(y_))]
    x = lincomb(slots(x_).scale(0), left if fast_first else left[::-1])
    y = slots(y_) + slots(x_)
    got = tensor_mul(x, y, t)
    key = ((1, 1, 0),) + ((2, 0, 0),) * (rank - 1)
    assert key not in got.raw[1]
    assert got.terms == ref_product(x, y, t)
    assert got.terms[((0, 0, 1),) + ((2, 0, 0),) * (rank - 1)] == t.ring.const(F(-1, 3))
    check_raw_form(got)


def test_a_monomial_pair_over_operand_denominators_matches_the_reference():
    # denominators 6 and 10 on the operands and 3 from nf(Y X): an outer
    # pair raises the accumulator's denominator before the monomial pairs
    # X . X and X . Y, which must be brought up to it
    t = _xyz_table()
    ring = t.ring
    x_, y_, z_ = t.gen("X"), t.gen("Y"), t.gen("Z")
    c1 = ring.const(F(1, 6)) + ring.term({"a": 1}, F(5, 4))
    c2 = ring.const(F(-3, 10)) + ring.term({"a": 2}, F(2, 7))
    for rank in (1, 2):
        def slots(g):
            return TensorElement.outer([g] + [z_] * (rank - 1))

        x = lincomb(slots(y_).scale(c1), [(F(5, 6), slots(x_))])
        y = lincomb(slots(x_).scale(c2), [(F(1, 10), slots(y_)), (F(7, 15), slots(z_))])
        assert x.raw[0] != 1 != y.raw[0]
        got = tensor_mul(x, y, t)
        assert got.terms == ref_product(x, y, t)
        check_raw_form(got)
