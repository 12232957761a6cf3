import copy
import inspect
import os
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hopfc import algebra, catalog, series
from hopfc.algebra import (
    Element,
    GeneratorSet,
    RewriteTable,
    TensorElement,
    commutator,
    counit_collapse,
    generator_function,
    lincomb,
    mul,
    substitute_generators,
    tensor_mul,
)
from hopfc.hopf import check_relations_morphism, verify_all
from hopfc.errors import (
    ConfluenceFailureError,
    NonTruncatableError,
    UnsupportedArgumentError,
)
from hopfc.series import ParamSpace, Ring


def fresh(name, order=4):
    # uncached presentation (safe to poke at)
    return catalog._BUILDERS[name](order)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def test_classical_jm_jp():
    t = fresh("gl2.classical").table
    got = t.nf_word((t.gens.index("Jm"), t.gens.index("Jp")))
    want = Element.monomial(t.gens, t.ring, {"Jp": 1, "Jm": 1}) \
        - t.gen("J3")
    assert got == want


def test_classical_j3_jp():
    t = fresh("gl2.classical").table
    got = t.nf_word((t.gens.index("J3"), t.gens.index("Jp")))
    want = Element.monomial(t.gens, t.ring, {"Jp": 1, "J3": 1}) \
        + t.gen("Jp", coeff=t.scalar(2))
    assert got == want


def test_sinh_deformed_jm_jp_at_order_3():
    # Taylor oracle: [Jp, Jm] = sinh(a J3)/a = J3 + a^2 J3^3/6 at N=3
    t = fresh("gl2.II.standard", 3).table
    got = t.nf_word((t.gens.index("Jm"), t.gens.index("Jp")))
    want = (Element.monomial(t.gens, Ring(t.ring.space, 3), {"Jp": 1, "Jm": 1})
            - t.gen("J3")
            - Element.monomial(t.gens, Ring(t.ring.space, 3), {"J3": 3},
                               coeff=Ring(t.ring.space, 3).term({"a": 2}, F(1, 6))))
    assert got == want


def test_unit_law():
    t = fresh("h4.xi").table
    x = t.gen("Am") + t.gen("N", coeff=t.sym("xi"))
    assert mul(t.one(), x, t) == x
    assert mul(x, t.one(), t) == x


def test_oscillator_deformed_commutator():
    # A- A+ - A+ A- = sinh(xi M)/xi = M + xi^2 M^3/6 at N=3
    t = fresh("h4.xi", 3).table
    got = mul(t.gen("Am"), t.gen("Ap"), t) - mul(t.gen("Ap"), t.gen("Am"), t)
    want = t.gen("M") + Element.monomial(
        t.gens, Ring(t.ring.space, 3), {"M": 3},
        coeff=Ring(t.ring.space, 3).term({"xi": 2}, F(1, 6)))
    assert got == want


def test_central_generator_commutes():
    for name in ("h4.xi", "gl2.Iplus.nonstandard"):
        H = fresh(name, 3)
        t = H.table
        central = "M" if "M" in t.gens.names else "I"
        for g in t.gens.names:
            assert not commutator(t.gen(central), t.gen(g), t)


def test_shifted_basis_commutator():
    t = fresh("gl2.Iplus.standard", 3).table
    assert commutator(t.gen("J3p"), t.gen("Jp"), t) == t.gen("Jp", coeff=t.scalar(2))


def test_square_bracket_family():
    # [J3, Jm] = -2 Jm + (a_plus/2)(J3 - lam I)^2
    t = fresh("gl2.Iplus.nonstandard", 3).table
    d = t.gen("J3") - t.gen("I", coeff=t.sym("lam"))
    want = t.gen("Jm", coeff=t.scalar(-2)) + mul(d, d, t).scale(t.sym("a_plus") * F(1, 2))
    assert commutator(t.gen("J3"), t.gen("Jm"), t) == want


# ---------------------------------------------------------------------------
# generator functions
# ---------------------------------------------------------------------------

def test_exp_of_generator():
    t = fresh("gl2.Iplus.nonstandard", 2).table
    got = generator_function("exp", t.gen("Jp", coeff=t.sym("a_plus")), t)
    want = (t.one() + t.gen("Jp", coeff=t.sym("a_plus"))
            + Element.monomial(t.gens, Ring(t.ring.space, 2), {"Jp": 2},
                               coeff=Ring(t.ring.space, 2).term({"a_plus": 2}, F(1, 2))))
    assert got == want


def test_expm1_over_arg_of_generator():
    # (e^{a_plus Jp} - 1)/a_plus = Jp + a_plus Jp^2/2 + ... (cleared form)
    t = fresh("gl2.Iplus.nonstandard", 1).table
    got = mul(t.gen("Jp"),
              generator_function("expm1_over_arg", t.gen("Jp", coeff=t.sym("a_plus")), t),
              t)
    want = t.gen("Jp") + Element.monomial(
        t.gens, Ring(t.ring.space, 1), {"Jp": 2},
        coeff=Ring(t.ring.space, 1).symbol("a_plus", coeff=F(1, 2)))
    assert got == want


def test_exp_inverse_pair():
    t = fresh("gl2.II.standard", 4).table
    arg = t.gen("J3", coeff=t.sym("a", coeff=F(1, 2)))
    e = generator_function("exp", arg, t)
    em = generator_function("exp", -arg, t)
    assert mul(e, em, t) == t.one()


def test_generator_function_guards():
    t = fresh("gl2.classical", 3).table
    with pytest.raises(NonTruncatableError):
        generator_function("exp", t.gen("J3"), t)
    t2 = fresh("gl2.II.standard", 3).table
    arg = t2.gen("J3", coeff=t2.sym("a")) + t2.gen("Jp", coeff=t2.sym("a"))
    with pytest.raises(UnsupportedArgumentError):
        generator_function("exp", arg, t2)


def test_the_untruncated_ring_is_refused_before_the_commuting_check():
    # J3 and Jp do not commute, yet over Ring.exact the ring is what is refused
    t = catalog.lie_structure("gl2.II.standard")
    a = t.sym("a")
    assert commutator(t.gen("J3", coeff=a), t.gen("Jp", coeff=a), t)
    with pytest.raises(NonTruncatableError):
        generator_function("exp", t.gen("J3", coeff=a) + t.gen("Jp", coeff=a), t)


def test_analytic_functions_refuse_the_untruncated_ring_before_any_coefficient(monkeypatch):
    # over Ring.exact the order is 10^9: asking taylor_coeffs for that many
    # factorials would hang, so a stub that refuses stands in for it, and a
    # zero argument over a truncated ring needs only c_0
    asked, taylor_coeffs = [], series.taylor_coeffs

    def taylor(kind, n):
        asked.append(n)
        if n > 10:
            raise AssertionError(f"taylor_coeffs({kind!r}, {n}) asked for")
        return taylor_coeffs(kind, n)

    monkeypatch.setattr(series, "taylor_coeffs", taylor)
    ring = Ring.exact(ParamSpace.make("a"))
    t = RewriteTable.commuting(GeneratorSet.make(["X", "Y"]), ring)
    for arg in (ring.symbol("a"), ring.zero()):
        with pytest.raises(NonTruncatableError):
            series.analytic_series("exp", arg)
    for arg in (t.gen("X", coeff=ring.symbol("a")), t.zero()):
        with pytest.raises(NonTruncatableError):
            generator_function("exp", arg, t)
    assert asked == []
    ring = Ring(ParamSpace.make("a"), 6)
    assert series.analytic_series("exp", ring.zero()) == ring.one()
    assert asked == [0]


# ---------------------------------------------------------------------------
# generator substitution (oscillator scaling images)
# ---------------------------------------------------------------------------

def _scaled_images():
    space = ParamSpace.make("eps")
    h4 = catalog.H4
    t = RewriteTable(
        h4, Ring.exact(space),
        {(i, j): Element.zero(h4, Ring.exact(space))
         for i in range(4) for j in range(i)},
    )
    t.set_rule("N", "Ap", t.gen("Ap"))
    t.set_rule("N", "Am", -t.gen("Am"))
    t.set_rule("Am", "Ap", t.gen("M"))
    images = {
        "I": t.gen("M", coeff=t.sym("eps", power=-2)),
        "Jp": t.gen("Ap", coeff=t.sym("eps", power=-1)),
        "Jm": t.gen("Am", coeff=t.sym("eps", power=-1)),
        "J3": t.gen("N", coeff=t.scalar(2)) - t.gen("M", coeff=t.sym("eps", power=-2)),
    }
    return t, images


def test_substitute_i_squared():
    t, images = _scaled_images()
    gl2 = catalog.GL2
    space = ParamSpace.make("eps")
    x = Element.monomial(gl2, Ring.exact(space), {"I": 2})
    got = substitute_generators(x, images, t)
    want = Element.monomial(t.gens, Ring.exact(space), {"M": 2},
                            coeff=Ring.exact(space).term({"eps": -4}, 1))
    assert got == want


def test_substitute_j3_plus_i():
    t, images = _scaled_images()
    gl2 = catalog.GL2
    space = ParamSpace.make("eps")
    x = (Element.generator(gl2, Ring.exact(space), "J3")
         + Element.generator(gl2, Ring.exact(space), "I"))
    got = substitute_generators(x, images, t)
    assert got == t.gen("N", coeff=t.scalar(2))


# ---------------------------------------------------------------------------
# tensor-slot arithmetic
# ---------------------------------------------------------------------------

def test_slot_independence():
    t = fresh("gl2.classical", 3).table
    x = TensorElement.outer([t.one(), t.gen("Jp")])
    y = TensorElement.outer([t.gen("Jp"), t.one()])
    assert tensor_mul(x, y, t) == TensorElement.outer([t.gen("Jp"), t.gen("Jp")])


def test_coproduct_is_morphism_on_deformed_commutator():
    # Delta(A+)Delta(A-) - Delta(A-)Delta(A+) = Delta([A+, A-]) at N=3
    H = fresh("h4.xi.theta", 3)
    t = H.table
    da, db = H.coproduct["Ap"], H.coproduct["Am"]
    lhs = tensor_mul(da, db, t) - tensor_mul(db, da, t)
    rhs = H.delta(commutator(t.gen("Ap"), t.gen("Am"), t))
    assert lhs == rhs


def test_counit_collapse_of_grouplike_leg():
    H = fresh("gl2.II.standard", 3)
    t = H.table
    leg = generator_function("exp", t.gen("J3", coeff=t.sym("a", coeff=F(1, 2))), t)
    x = TensorElement.outer([leg, t.gen("Jp")])
    got = counit_collapse(x, 0, H.counit)
    assert got == t.gen("Jp")


def test_counit_collapse_with_a_nonzero_counit_value():
    # every catalog counit is zero; eps(I) = 2 makes each collapse scale by
    # 2 per power of I, on either slot of a rank-2 tensor and inside a rank-3 one
    H = fresh("gl2.II.standard", 3)
    gens, ring = H.gens, H.ring
    counit = dict(H.counit, I=F(2))

    def key(*slots):
        return tuple(tuple(slot.get(n, 0) for n in gens.names) for slot in slots)

    c1 = ring.symbol("a") + ring.const(F(1, 3))
    c2 = ring.symbol("b", 2, F(-5, 7))
    c3 = ring.const(F(3))
    t2 = TensorElement(2, gens, ring, {key({"I": 2}, {"Jp": 1}): c1,
                                       key({"Jp": 1}, {"I": 1}): c2,
                                       key({"I": 1}, {}): c3})
    assert counit_collapse(t2, 0, counit) == Element(
        gens, ring, {key({"Jp": 1}): c1 * 4, key({}): c3 * 2})
    assert counit_collapse(t2, 1, counit) == Element(
        gens, ring, {key({"Jp": 1}): c2 * 2, key({"I": 1}): c3})

    t3 = TensorElement(3, gens, ring, {key({"I": 1}, {"J3": 1}, {"I": 3}): c1,
                                       key({"J3": 1}, {"I": 1}, {}): c2,
                                       key({"Jm": 1}, {"I": 2}, {"Jp": 1}): c3})
    assert counit_collapse(t3, 1, counit) == TensorElement(
        2, gens, ring, {key({"J3": 1}, {}): c2 * 2, key({"Jm": 1}, {"Jp": 1}): c3 * 4})
    assert counit_collapse(t3, 2, counit) == TensorElement(
        2, gens, ring, {key({"I": 1}, {"J3": 1}): c1 * 8, key({"J3": 1}, {"I": 1}): c2})


# ---------------------------------------------------------------------------
# confluence / associativity and the step budget
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=4),
       st.lists(st.integers(0, 3), max_size=3),
       st.lists(st.integers(0, 3), max_size=3))
def test_mul_associative_classical(w1, w2, w3):
    t = fresh("gl2.classical", 4).table
    xs = [t.nf_word(tuple(w)) for w in (w1, w2, w3)]
    assert mul(mul(xs[0], xs[1], t), xs[2], t) == mul(xs[0], mul(xs[1], xs[2], t), t)


@pytest.mark.parametrize("name", ["gl2.II.standard", "gl2.Iplus.nonstandard",
                                  "h4.alphaplus", "h4.betaplus.xi"])
def test_mul_associative_deformed(name):
    t = fresh(name, 3).table
    gens = [t.gen(n) for n in t.gens.names]
    for x in gens:
        for y in gens:
            for z in gens:
                assert mul(mul(x, y, t), z, t) == mul(x, mul(y, z, t), t)


def test_rewrite_order_independence():
    # the word Jm J3 Jp has two descents; first-descent rewriting must agree
    # with resolving the other descent first (local confluence)
    t = fresh("gl2.II.standard", 3).table
    i_jm, i_j3, i_jp = (t.gens.index(n) for n in ("Jm", "J3", "Jp"))
    direct = t.nf_word((i_jm, i_j3, i_jp))
    # resolve (J3, Jp) first by hand: Jm (Jp J3 + 2 Jp)
    alt = t.nf_word((i_jm, i_jp, i_j3)) + t.nf_word((i_jm, i_jp), coeff=t.scalar(2))
    assert direct == alt


def test_normal_form_depth_does_not_use_the_interpreter_stack():
    # a recursive normal form of this 16-letter word needs more than 60
    # frames of stack and raises RecursionError here
    t = fresh("gl2.II.standard", 8).table
    word = tuple(reversed(range(4))) * 4
    want = fresh("gl2.II.standard", 8).table.nf_word(word)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        got = t.nf_word(word)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def _cold_classical_table():
    # gl2.classical over its own rules, nothing cached yet
    H = fresh("gl2.classical")
    return RewriteTable(H.gens, H.ring, H.table.rules)


def test_setting_an_unread_rule_keeps_the_normal_form_cache():
    t = _cold_classical_table()
    jm_jp = mul(t.gen("Jm"), t.gen("Jp"), t)      # reads the pair (Jm, Jp) only
    cached = dict(t._nf_cache)
    i, j = t.gens.index("J3"), t.gens.index("Jp")
    new = t.gen("Jp", coeff=t.scalar(3))
    assert (i, j) not in t._rule_parts
    assert t.set_rule_by_index(i, j, new) is False
    assert t._nf_cache == cached
    # the next products read both the kept entries and the new rule
    ref = RewriteTable(t.gens, t.ring, t.rules)
    for a, b, c in [("Jm", "Jp", "J3"), ("J3", "Jp", "Jm"), ("Jm", "J3", "Jp")]:
        got = mul(mul(t.gen(a), t.gen(b), t), t.gen(c), t)
        assert got == mul(mul(ref.gen(a), ref.gen(b), ref), ref.gen(c), ref)
    assert mul(t.gen("J3"), t.gen("Jp"), t) == t.nf_word((j, i)) + new
    assert mul(t.gen("Jm"), t.gen("Jp"), t) == jm_jp


def test_a_warm_verify_rewrites_no_cached_word_and_builds_each_word_once(monkeypatch):
    # the slot product reads a cached normal form without entering _nf_word,
    # and takes each monomial's word from its table's memo; the antipode
    # synthesis makes a table per lower order, each with its own memo
    tables, entered, built = [], [], []
    init, nf_word, word_of = RewriteTable.__init__, RewriteTable._nf_word, algebra.word_of

    def counted_init(table, *args):
        tables.append(table)
        init(table, *args)

    def counted_nf(table, word):
        entered.append(word in table._nf_cache)
        return nf_word(table, word)

    def counted_word(m):
        built.append(m)
        return word_of(m)

    monkeypatch.setattr(RewriteTable, "__init__", counted_init)
    monkeypatch.setattr(RewriteTable, "_nf_word", counted_nf)
    monkeypatch.setattr(algebra, "word_of", counted_word)
    H = fresh("gl2.II.standard")
    first = verify_all(H)
    assert entered and not any(entered)
    entered.clear()
    again = verify_all(H)
    assert [c.ok for c in again.checks] == [c.ok for c in first.checks]
    assert entered and not any(entered)
    assert len(built) == sum(t._word.cache_info().currsize for t in tables)
    assert len(set(built)) == max(t._word.cache_info().currsize for t in tables)


def test_only_pairs_with_a_non_monomial_normal_form_reach_the_outer_product(monkeypatch):
    # a kept pair whose normal forms are all one monomial with coefficient 1
    # adds its coefficient under the monomials' key: only the other pairs
    # reach _outer
    H = fresh("gl2.II.standard")
    unit = {H.ring.codec.zero: 1}
    outer_raws, monomial_keys = [], []
    outer, add_terms = algebra._outer, algebra._add_terms
    slot_product = algebra._slot_product.__code__

    def counted_outer(raws, codec):
        if sys._getframe(1).f_code is slot_product:
            outer_raws.append(raws)
        return outer(raws, codec)

    def counted_add(acc, k, t, f):
        if sys._getframe(1).f_code is slot_product:
            monomial_keys.append(k)
        return add_terms(acc, k, t, f)

    monkeypatch.setattr(algebra, "_outer", counted_outer)
    monkeypatch.setattr(algebra, "_add_terms", counted_add)
    assert check_relations_morphism(H).ok
    assert outer_raws and monomial_keys
    for raws in outer_raws:
        assert any(e != 1 or len(r) != 1 or list(r.values()) != [unit] for e, r in raws)


def test_shared_term_dicts_are_never_changed():
    # a product with the unit shares the other factor's term dicts, which
    # can be a normal form's in the cache or an input's raw form: no later
    # sum, scaling or product changes them
    H = fresh("gl2.II.standard")
    t = H.table
    cache, raws = copy.deepcopy(t._nf_cache), copy.deepcopy(
        {n: x.raw for n, x in H.coproduct.items()})

    def unchanged():
        assert all(t._nf_cache[w] == v for w, v in cache.items())
        assert {n: x.raw for n, x in H.coproduct.items()} == raws

    verify_all(H)
    unchanged()
    cache = copy.deepcopy(t._nf_cache)
    one = t.one()
    c = t.ring.term({t.ring.space.symbols[0]: 1}, F(2, 3)) + t.ring.const(F(1, 5))
    for x in (H.coproduct["Jp"], t.nf_word((t.gens.index("Jm"), t.gens.index("Jp")))):
        before = copy.deepcopy((one.raw, x.raw))
        y = TensorElement.outer([one, x])
        z = TensorElement.outer([x, one])
        sums = [y + y, y - z.permute((x.rank, *range(x.rank))), y.scale(c),
                y.scale(F(-7, 2)), lincomb(y, [(c, y), (3, y), (F(1, 4), y)])]
        assert all(sums[::2]) and not sums[1]
        assert (one.raw, x.raw) == before
        unchanged()


def test_setting_a_read_rule_empties_the_normal_form_cache():
    t = _cold_classical_table()
    i, j = t.gens.index("Jm"), t.gens.index("Jp")
    old = mul(t.gen("Jm"), t.gen("Jp"), t)
    assert (i, j) in t._rule_parts
    new = t.gen("J3", coeff=t.scalar(-2))
    assert t.set_rule_by_index(i, j, new) is True
    assert not t._nf_cache and not t._rule_parts
    got = mul(t.gen("Jm"), t.gen("Jp"), t)
    assert got != old
    assert got == t.nf_word((j, i)) + new
    ref = RewriteTable(t.gens, t.ring, t.rules)
    assert got == mul(ref.gen("Jm"), ref.gen("Jp"), ref)


def test_step_budget_env(monkeypatch):
    # the budget is a module constant read at call time
    monkeypatch.setattr(algebra, "STEP_BUDGET", 1)
    t = fresh("gl2.classical", 4).table
    i_jm, i_jp = t.gens.index("Jm"), t.gens.index("Jp")
    with pytest.raises(ConfluenceFailureError):
        t.nf_word((i_jm, i_jm, i_jp, i_jp))
