import math
import operator
from dataclasses import replace
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from hopfc import catalog, rmatrix, series
from hopfc.algebra import GeneratorSet, RewriteTable, TensorElement, mul, tensor_mul
from hopfc.algebra import lincomb as algebra_lincomb
from hopfc.errors import (
    DivergenceError,
    FloorUnderflowError,
    NonTruncatableError,
    StructureError,
)
from hopfc.series import (
    DEFAULT_FLOOR,
    WEIGHT0_LIMIT,
    Codec,
    ParamSpace,
    Ring,
    Series,
    analytic_series,
    lincomb,
    taylor_coeffs,
)


SP = ParamSpace.make("a", "b")
SPE = ParamSpace.make("a", "eps")


def sym(space, name, order=4, **kw):
    return Ring(space, order).symbol(name, **kw)


# ---------------------------------------------------------------------------
# Taylor oracles: independent factorial sums
# ---------------------------------------------------------------------------

def test_taylor_exp_oracle():
    # oracle: c_k = 1/k!
    assert taylor_coeffs("exp", 5) == [F(1, math.factorial(k)) for k in range(6)]


def test_taylor_cosh_oracle():
    want = [F(1), F(0), F(1, 2), F(0), F(1, 24), F(0)]
    assert taylor_coeffs("cosh", 5) == want


def test_taylor_sinh_over_arg_oracle():
    # sinh(x)/x = sum x^(2k)/(2k+1)!
    got = taylor_coeffs("sinh_over_arg", 6)
    for k, c in enumerate(got):
        assert c == (F(1, math.factorial(k + 1)) if k % 2 == 0 else F(0))


def test_taylor_expm1_over_arg_oracle():
    # (e^x - 1)/x = sum x^k/(k+1)!
    assert taylor_coeffs("expm1_over_arg", 4) == [F(1, math.factorial(k + 1))
                                                  for k in range(5)]


def test_taylor_coshm1_over_argsq_oracle():
    # (cosh x - 1)/x^2 = sum x^(2k)/(2k+2)!
    got = taylor_coeffs("coshm1_over_argsq", 4)
    assert got[0] == F(1, 2)
    assert got[2] == F(1, 24)
    assert got[1] == got[3] == F(0)


def test_taylor_x_over_tanh_oracle():
    # oracle: (x/tanh x) * (sinh x / x) = cosh x as a coefficient convolution
    n = 8
    xot = taylor_coeffs("x_over_tanh", n)
    soa = taylor_coeffs("sinh_over_arg", n)
    cosh = taylor_coeffs("cosh", n)
    for k in range(n + 1):
        assert sum(xot[i] * soa[k - i] for i in range(k + 1)) == cosh[k]


TAYLOR_KINDS = ("exp", "cosh", "sinh_over_arg", "expm1_over_arg", "coshm1_over_argsq",
                "x_over_tanh")


@pytest.mark.parametrize("kind", TAYLOR_KINDS)
def test_taylor_coeffs_against_sympy_series(kind):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = {
        "exp": sympy.exp(x),
        "cosh": sympy.cosh(x),
        "sinh_over_arg": sympy.sinh(x) / x,
        "expm1_over_arg": (sympy.exp(x) - 1) / x,
        "coshm1_over_argsq": (sympy.cosh(x) - 1) / x**2,
        "x_over_tanh": x / sympy.tanh(x),
    }[kind]
    n = 12
    poly = sympy.series(f, x, 0, n + 1).removeO()
    want = [sympy.Rational(poly.coeff(x, k)) for k in range(n + 1)]
    got = taylor_coeffs(kind, n)
    assert [(c.numerator, c.denominator) for c in got] == [(int(c.p), int(c.q)) for c in want]


def _taylor_operands(ring):
    """A weight-2 argument over ``ring`` as a series, an algebra element and
    a 4x4 matrix, each with its unit and its product."""
    a2 = ring.symbol("a", power=2)
    t = RewriteTable.commuting(GeneratorSet.make(["X", "Y"]), ring)
    m = rmatrix.mat_zero(ring, 4)
    m[0][1] = m[1][2] = a2
    return [(a2, ring.one(), operator.mul),
            (t.gen("X", coeff=a2), t.one(), partial(mul, table=t)),
            (m, rmatrix.mat_identity(ring, 4), rmatrix.mat_mul)]


def _counting(times, calls):
    def counted(p, x):
        calls.append(1)
        return times(p, x)
    return counted


@pytest.mark.parametrize("which", range(3), ids=["series", "element", "matrix"])
def test_taylor_of_a_weight_two_argument_at_order_five_has_three_pairs(which):
    ring = Ring(ParamSpace.make("a"), 5)
    arg, one, times = _taylor_operands(ring)[which]
    calls = []
    pairs = series.taylor("exp", arg, one, _counting(times, calls), 2, ring.order)
    assert calls == []                      # the powers are built as they are read
    pairs = list(pairs)
    assert [c for c, _ in pairs] == [1, 1, F(1, 2)]
    assert [p for _, p in pairs] == [one, arg, times(arg, arg)]
    assert len(calls) == 2


@pytest.mark.parametrize("which", range(3), ids=["series", "element", "matrix"])
@pytest.mark.parametrize("ring, mw", [(Ring.exact(ParamSpace.make("a")), 2),
                                      (Ring(ParamSpace.make(("a", 0, False)), 5), 0)],
                         ids=["exact", "weight0"])
def test_taylor_refuses_before_any_coefficient_or_power(monkeypatch, which, ring, mw):
    asked, calls = [], []
    monkeypatch.setattr(series, "taylor_coeffs", lambda kind, n: asked.append(n))
    arg, one, times = _taylor_operands(ring)[which]
    with pytest.raises(NonTruncatableError):
        series.taylor("exp", arg, one, _counting(times, calls), mw, ring.order)
    assert asked == [] and calls == []


# ---------------------------------------------------------------------------
# arithmetic, truncation, valuations
# ---------------------------------------------------------------------------

def test_additive_cancellation():
    one = Ring(SP, 4).one()
    a = sym(SP, "a")
    assert (one + a) + (-a) == one


def test_half_plus_half():
    a = sym(SP, "a")
    assert a * F(1, 2) + a * F(1, 2) == a


def test_expm1_over_arg_series_plus_negation():
    s = analytic_series("expm1_over_arg", sym(SP, "a", order=2))
    expected = Ring(SP, 2).one() + sym(SP, "a", order=2) * F(1, 2) \
        + Ring(SP, 2).term({"a": 2}, F(1, 6))
    assert s == expected
    assert (s + (-s)).is_zero()


def test_truncated_product():
    # (1 + a/2 + a^2/6) * a -> a + a^2/2 + a^3/6 at N=3
    s = analytic_series("expm1_over_arg", sym(SP, "a", order=3))
    got = s * sym(SP, "a", order=3)
    want = (sym(SP, "a", order=3)
            + Ring(SP, 3).term({"a": 2}, F(1, 2))
            + Ring(SP, 3).term({"a": 3}, F(1, 6)))
    assert got == want


def test_eps_valuation_cancellation():
    e2 = Ring(SPE, 4).term({"eps": 2}, 1)
    em2 = Ring(SPE, 4).term({"eps": -2}, 1)
    assert e2 * em2 == Ring(SPE, 4).one()


def test_ratio_symbol_numeric_oracle():
    # kappa * a substitutes for the product parameter: with a = 1/3 and the
    # ratio 3/5, the product is exactly 1/5
    space = ParamSpace.make("a", ("kappa", 0, False))
    s = Ring(space, 4).symbol("kappa") * Ring(space, 4).symbol("a")
    num = s.substitute({
        "a": Ring(space, 4).const(F(1, 3)),
        "kappa": Ring(space, 4).const(F(3, 5)),
    })
    assert num.terms == {(0, 0): F(1, 5)}


# ---------------------------------------------------------------------------
# substitution and the eps limit
# ---------------------------------------------------------------------------

def _contraction_space():
    return ParamSpace.make("a", "b_plus", "a_plus", "xi", "beta_plus",
                           "alpha_plus", "eps")


def test_substitute_parameter_images():
    sp = _contraction_space()
    a = Ring.exact(sp).symbol("a")
    img = Ring.exact(sp).term({"eps": 2, "xi": 1}, F(-1))
    assert a.substitute({"a": img}) == img

    bp = Ring.exact(sp).symbol("b_plus")
    img2 = Ring.exact(sp).term({"eps": 3, "beta_plus": 1}, F(2))
    assert bp.substitute({"b_plus": img2}) == img2

    ap = Ring.exact(sp).symbol("a_plus")
    img3 = Ring.exact(sp).term({"eps": 1, "alpha_plus": 1}, F(1))
    assert ap.substitute({"a_plus": img3}) == img3


def _eps_limit(s):
    """The eps -> 0 limit: the zero slice, moved to the space without eps."""
    return s.zero_slice("eps").to(replace(s.ring, space=s.space.without("eps")))


def test_limit_zero_drops_positive_powers():
    sp = ParamSpace.make("theta", "xi", "eps")
    s = Ring(sp, 4).symbol("theta") \
        + Ring(sp, 4).term({"eps": 2, "xi": 1}, 1)
    lim = _eps_limit(s)
    assert lim == Ring(lim.space, 4).symbol("theta")


def test_limit_zero_divergence():
    sp = ParamSpace.make("xi", "eps")
    s = Ring(sp, 4).term({"eps": -2, "xi": 1}, 1)
    with pytest.raises(DivergenceError):
        _eps_limit(s)


def test_limit_zero_at_solved_exponent():
    # eps^(n-2) * theta with n = 2 survives as theta
    sp = ParamSpace.make("theta", "eps")
    n = 2
    s = Ring(sp, 4).term({"eps": n - 2, "theta": 1}, 1)
    lim = _eps_limit(s)
    assert lim == Ring(lim.space, 4).symbol("theta")


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_floor_underflow():
    sp = ParamSpace.make("eps",)
    em = Ring(sp, 4).term({"eps": -4}, 1)
    with pytest.raises(FloorUnderflowError):
        em * Ring(sp, 4).term({"eps": -1}, 1)


def test_negative_power_of_plain_symbol_rejected():
    with pytest.raises(StructureError):
        Ring(SP, 4).term({"a": -1}, 1)


def test_restrict_foreign_symbol_rejected():
    sp = ParamSpace.make("a", "b")
    s = Ring(sp, 4).symbol("b")
    with pytest.raises(StructureError):
        s.to(Ring(ParamSpace.make("a"), 4))


def test_to_across_mixed_symbol_sets():
    # one call drops eps (exponent 0 throughout), adds xi and lowers the order
    src = Ring(ParamSpace.make("a", "eps", ("b", 2, False)), 6)
    s = Series(src, {(1, 0, 1): F(2, 3), (0, 0, 0): F(-1), (2, 0, 1): F(5), (3, 0, 0): F(7)})
    dst = Ring(ParamSpace.make(("b", 2, False), "xi", "a"), 3)
    got = s.to(dst)
    assert got.ring == dst
    assert got.terms == {(1, 0, 1): F(2, 3), (0, 0, 0): F(-1), (0, 0, 3): F(7)}
    for e in (1, -1):
        with pytest.raises(StructureError):
            Series(src, {(1, e, 0): F(1)}).to(dst)


def test_to_applies_the_target_floor():
    s = Ring(SPE, 4, floor=-4).term({"eps": -2})
    assert s.to(Ring(SPE, 4, floor=-2)).terms == {(0, -2): 1}
    with pytest.raises(FloorUnderflowError):
        s.to(Ring(SPE, 4, floor=-1))


def test_analytic_series_needs_positive_weight():
    sp = ParamSpace.make("a", ("kappa", 0, False))
    with pytest.raises(NonTruncatableError):
        analytic_series("exp", Ring(sp, 4).symbol("kappa"))


def test_weighted_truncation_uses_weights():
    sp = ParamSpace.make("a", ("kappa", 0, False))
    # kappa^10 has weight 0 and must survive any order
    s = Ring(sp, 2).term({"kappa": 10}, 1)
    assert not s.is_zero()
    assert Ring(sp, 2).term({"a": 3}, 1).is_zero()


# ---------------------------------------------------------------------------
# ring axioms (property-based)
# ---------------------------------------------------------------------------

def _series_strategy():
    coeff = st.builds(F, st.integers(-40, 40), st.integers(1, 8))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: Series(Ring(SP, 4), d)
    )


@settings(max_examples=60, deadline=None)
@given(_series_strategy(), _series_strategy(), _series_strategy())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + Ring(SP, 4).zero() == x
    assert x * Ring(SP, 4).one() == x


@settings(max_examples=40, deadline=None)
@given(_series_strategy())
def test_embed_restrict_roundtrip(x):
    big = ParamSpace.make("a", "b", "c")
    assert x.to(Ring(big, 4)).to(Ring(SP, 4)) == x


# ---------------------------------------------------------------------------
# the product kernel against a naive pairwise Fraction loop
# ---------------------------------------------------------------------------

#: a weight-0 ratio symbol, an invertible eps and a weight-2 symbol
SPK = ParamSpace.make("a", ("kappa", 0, False), "eps", ("b", 2, False))
#: the same without an invertible symbol
SPN = ParamSpace.make("a", ("kappa", 0, False), ("b", 2, False))


def naive_product(x, y):
    """The product term pair by term pair: truncate by the summed weights,
    check the floor on what is kept, add ``Fraction`` products."""
    ring = x.ring
    space = ring.space
    out = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            e = tuple(p + q for p, q in zip(e1, e2))
            if sum(v * w for v, w in zip(e, space.weights)) > ring.order:
                continue
            if any(iv and v < ring.floor for v, iv in zip(e, space.invertible)):
                raise FloorUnderflowError([e])
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _coeff():
    small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    huge = st.builds(F, st.integers(-2**140, 2**140), st.integers(1, 2**130))
    return st.one_of(small, huge, st.just(F(1, 2**130)))


@st.composite
def _operands(draw):
    """Two series over one ring on SPK or SPN; the second is sometimes the
    first with some signs flipped, so that products cancel exactly."""
    space = draw(st.sampled_from([SPK, SPN]))
    ring = Ring(space, draw(st.integers(0, 5)), draw(st.integers(-4, -1)))
    lows = [ring.floor if iv else 0 for iv in space.invertible]
    exps = st.tuples(*(st.integers(lo, 3) for lo in lows))
    x = Series(ring, draw(st.dictionaries(exps, _coeff(), max_size=6)))
    if draw(st.booleans()):
        flips = draw(st.lists(st.booleans(), min_size=len(x.terms), max_size=len(x.terms)))
        y = Series(ring, {e: -c if f else c for (e, c), f in zip(x.terms.items(), flips)})
    else:
        y = Series(ring, draw(st.dictionaries(exps, _coeff(), max_size=6)))
    return x, y


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_product_matches_naive_pairwise_loop(xy):
    x, y = xy
    try:
        want = naive_product(x, y)
    except FloorUnderflowError:
        with pytest.raises(FloorUnderflowError):
            x * y
        return
    got = x * y
    assert got.terms == want
    assert got.ring is x.ring
    assert all(isinstance(c, F) and c for c in got.terms.values())
    # the kernel's raw form and one built from the same terms are one value
    rebuilt = Series(x.ring, want)
    assert got == rebuilt and hash(got) == hash(rebuilt)


def ref_lincomb(start, pairs):
    """``start + sum(c * x)`` over ``terms``: a constant is a one-term series
    at exponent 0, and each product is ``naive_product``."""
    ring = start.ring
    const = (0,) * ring.space.dim
    out = dict(start.terms)
    for c, x in pairs:
        c, x = (v if isinstance(v, Series) else Series(ring, {const: F(v)}) for v in (c, x))
        for e, v in naive_product(c, x).items():
            out[e] = out.get(e, F(0)) + v
    return {e: v for e, v in out.items() if v}


@st.composite
def _lincomb_cases(draw):
    """A start (sometimes zero) and up to 4 pairs over one ring on SPK or
    SPN, each factor a series, an int or a Fraction; sometimes the pairs end
    with the negation of everything before, so the sum cancels to zero."""
    space = draw(st.sampled_from([SPK, SPN]))
    ring = Ring(space, draw(st.integers(0, 5)), draw(st.integers(-4, -1)))
    lows = [ring.floor if iv else 0 for iv in space.invertible]
    exps = st.tuples(*(st.integers(lo, 3) for lo in lows))
    series = st.dictionaries(exps, _coeff(), max_size=4).map(lambda t: Series(ring, t))
    factor = st.one_of(series, st.integers(-3, 3), _coeff())
    start = draw(st.one_of(st.just(ring.zero()), series))
    pairs = draw(st.lists(st.tuples(factor, factor), max_size=4))
    cancel = draw(st.booleans())
    if cancel:
        pairs += [(-c, x) for c, x in pairs] + [(-1, start)]
    return start, pairs, cancel


@settings(max_examples=300, deadline=None)
@given(_lincomb_cases())
def test_lincomb_matches_a_fraction_reference(case):
    start, pairs, cancel = case
    operands = [start] + [v for pair in pairs for v in pair if isinstance(v, Series)]
    before = [(v.raw[0], dict(v.raw[1])) for v in operands]
    # the same sum over rank-0 tensors, a constant x given as a series
    ring, gens = start.ring, catalog.get("gl2.classical", 3).gens
    scalar = lambda s: TensorElement(0, gens, ring, {(): s})    # noqa: E731
    tensor_pairs = [(c, scalar(x if isinstance(x, Series) else ring.const(x))) for c, x in pairs]
    try:
        want = ref_lincomb(start, pairs)
    except FloorUnderflowError:
        with pytest.raises(FloorUnderflowError):
            lincomb(start, pairs)
        with pytest.raises(FloorUnderflowError):
            algebra_lincomb(scalar(start), tensor_pairs)
        return
    got = lincomb(start, pairs)
    assert got.ring is start.ring and got.terms == want
    assert algebra_lincomb(scalar(start), tensor_pairs).terms.get((), ring.zero()) == got
    assert [v.raw for v in operands] == before      # the operands are only read
    assert not cancel or got.is_zero()
    # the raw form: lowest terms, a positive denominator, no zero numerator
    d, t = got.raw
    assert d > 0 and math.gcd(d, *t.values()) == 1 and all(t.values())
    assert got.raw == Series(start.ring, want).raw


def test_lincomb_of_mismatched_rings_is_refused():
    start, other = Ring(SP, 4).one(), Ring(SP, 3).symbol("a")
    for pair in [(other, 2), (F(1, 2), other)]:
        with pytest.raises(StructureError, match="mismatched rings"):
            lincomb(start, [pair])
    # a float is not exact: no sum or product converts one
    for pair in [(0.5, start), (start, 0.5)]:
        with pytest.raises(TypeError, match="not a Series, int or Fraction"):
            lincomb(start, [pair])
    with pytest.raises(TypeError):
        start * 0.5
    # nor does a constructor, a table's scalar or a tensor sum or scale
    ring = start.ring
    x = catalog.get("gl2.classical", 3).table.gen("Jp")
    for make in [lambda: ring.const(0.1), lambda: ring.term({"a": 1}, 0.1),
                 lambda: Series(ring, {(1, 0): 0.1}),
                 lambda: RewriteTable.commuting(x.gens, ring).scalar(0.1),
                 lambda: algebra_lincomb(x, [(0.1, x)]), lambda: x.scale(0.5)]:
        with pytest.raises(TypeError):
            make()


def test_product_cancels_exactly():
    ring = Ring(SPK, 4)
    c = F(3, 2**130 + 1)
    one, a = ring.one(), ring.symbol("a", coeff=c)
    got = (one + a) * (one - a)
    assert got.terms == naive_product(one + a, one - a)
    assert got == one - ring.term({"a": 2}, c * c)


def test_product_keeps_terms_at_the_truncation_boundary():
    ring = Ring(SPK, 4)
    x = ring.term({"a": 1, "kappa": 5}, F(1, 3)) + ring.term({"b": 1}, 1)
    y = ring.term({"a": 1}, F(2, 7)) + ring.term({"b": 1, "eps": 1}, 1)
    got = x * y
    assert got.terms == naive_product(x, y)
    # a^2 kappa^5 (weight 2), b a (3) and a kappa^5 eps b (4) stay;
    # b^2 eps (5) goes
    assert got.terms == {(2, 5, 0, 0): F(2, 21), (1, 0, 0, 1): F(2, 7),
                         (1, 5, 1, 1): F(1, 3)}
    assert (0, 0, 1, 2) not in got.terms


@pytest.mark.parametrize("extra", [(0, 0), (0, 1), (1, 1)], ids=["1x1", "1xn", "nxn"])
def test_product_drops_a_pair_above_the_order_before_the_floor_test(extra):
    # on (a, eps) at order 2, floor -4: a^8 eps^-5 is above the order, so it
    # is dropped before the floor test, while a^7 eps^-5 is kept and raises.
    # A constant term on neither, one or both operands runs the single-term
    # path and the dict path with one or two long operands
    ring = Ring(SPE, 2, floor=-4)
    x = ring.term({"a": 6, "eps": -4}) + extra[0]
    above, kept = (ring.term({"a": k, "eps": -1}) + extra[1] for k in (2, 1))
    got = x * above
    assert got.terms == naive_product(x, above)
    assert got.is_zero() == (extra == (0, 0))
    with pytest.raises(FloorUnderflowError):
        x * kept


def test_product_eps_floor_underflow_is_pinned():
    ring = Ring(ParamSpace.make("eps"), 4, floor=-4)
    em3 = ring.term({"eps": -3}, 1)
    with pytest.raises(FloorUnderflowError):
        em3 * em3


def ref_mul_terms(ring, t1, t2):
    """``_mul_terms`` pair by pair in insertion order over exponent vectors:
    a pair above the order is skipped with ``continue``, and a kept one is
    packed by ``Codec.pack``, which raises for a bad field.  Returns the
    product and the error types of the kept pairs that raise."""
    codec = ring.codec
    out, errors = {}, set()
    for p1, n1 in t1.items():
        for p2, n2 in t2.items():
            e = tuple(map(operator.add, codec.unpack(p1), codec.unpack(p2)))
            if ring.space.wdeg(e) > ring.order:
                continue
            try:
                p = codec.pack(e)
            except (FloorUnderflowError, StructureError) as exc:
                errors.add(type(exc))
                continue
            out[p] = out.get(p, 0) + n1 * n2
    return {p: n for p, n in out.items() if n}, errors


@st.composite
def _term_dict_pairs(draw):
    """Two term dicts over one SPK or SPN ring, of one to six keys each,
    inserted in a drawn order, so that a key whose pairs are above the order
    often comes before a kept one; kappa is sometimes near the top of its
    field and eps near its floor, so that kept pairs can raise."""
    space = draw(st.sampled_from([SPK, SPN]))
    ring = Ring(space, draw(st.integers(0, 5)), draw(st.integers(-4, -1)))
    near_top = st.integers(WEIGHT0_LIMIT // 2 - 2, WEIGHT0_LIMIT // 2 + 1)
    ranges = {"kappa": st.one_of(st.integers(0, 3), near_top), "eps": st.integers(ring.floor, 3)}
    exps = st.tuples(*(ranges.get(s, st.integers(0, 3)) for s in space.symbols))

    def term_dict():
        keys = draw(st.lists(exps.map(ring.codec.pack).filter(lambda p: p is not None),
                             min_size=1, max_size=6, unique=True))
        return {p: draw(st.integers(-5, 5).filter(bool)) for p in draw(st.permutations(keys))}

    return ring, term_dict(), term_dict()


@settings(max_examples=300, deadline=None)
@given(_term_dict_pairs())
def test_mul_terms_matches_a_pairwise_loop_in_any_key_order(case):
    ring, t1, t2 = case
    want, errors = ref_mul_terms(ring, t1, t2)
    if errors:
        with pytest.raises(tuple(errors)):
            series._mul_terms(ring.codec, t1, t2)
        return
    got = series._mul_terms(ring.codec, t1, t2)
    assert got == want
    if len(t1) == 1 or len(t2) == 1:
        # a one-term side: the pairs are met in the order of today's loop
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("bad, error", [({"eps": -4}, FloorUnderflowError),
                                        ({"kappa": WEIGHT0_LIMIT // 2}, StructureError)])
def test_mul_terms_tests_a_kept_pair_met_after_one_above_the_order(bad, error):
    # at order 2, floor -4, the first key of t2 (b, weight 2) takes the row
    # of a^2 eps^-1 kappa^(2^30) above the order, and the second, met after
    # it in insertion order, gives a kept pair past a field's range
    ring = Ring(SPK, 2, -4)
    pack = ring.codec.pack
    t1 = {pack((2, WEIGHT0_LIMIT // 2, -1, 0)): 1, ring.codec.zero: 1}
    t2 = {pack((0, 0, 0, 1)): 1, pack(tuple(bad.get(s, 0) for s in SPK.symbols)): 1}
    assert ref_mul_terms(ring, t1, t2)[1] == {error}
    with pytest.raises(error):
        series._mul_terms(ring.codec, t1, t2)


def test_product_of_mismatched_rings_is_refused():
    with pytest.raises(StructureError):
        Ring(SP, 3).symbol("a") * Ring(SP, 4).symbol("a")
    with pytest.raises(StructureError):
        Ring(SP, 4, floor=-3).symbol("a") * Ring(SP, 4).symbol("a")


def test_exact_product_against_sympy():
    sympy = pytest.importorskip("sympy")
    ring = Ring.exact(SP)
    sa, sb = sympy.symbols("a b")
    big = 2**101 + 7
    xs = {(0, 0): F(1, big), (1, 0): F(-5, 3 * big), (2, 1): F(2**70, big + 2), (0, 3): F(7)}
    ys = {(0, 0): F(big, 11), (1, 1): F(1, big * 13), (3, 0): F(-1, 2**103), (0, 1): F(3, 4)}

    def poly(terms):
        return sum(sympy.Rational(c.numerator, c.denominator) * sa**i * sb**j
                   for (i, j), c in terms.items())

    got = Series(ring, xs) * Series(ring, ys)
    want = sympy.Poly(sympy.expand(poly(xs) * poly(ys)), sa, sb)
    assert {e: (c.numerator, c.denominator) for e, c in got.terms.items()} == {
        e: (int(c.p), int(c.q)) for e, c in want.terms()}
    assert max(c.denominator.bit_length() for c in got.terms.values()) > 100


def count_fraction_ops(monkeypatch):
    """The list to which every later ``Fraction`` multiply or add appends
    its name."""
    calls = []

    def counted(name):
        op = getattr(F, name)

        def wrapper(*args):
            calls.append(name)
            return op(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(F, name, counted(name))
    return calls


def test_product_does_no_per_pair_fraction_arithmetic(monkeypatch):
    # the kernel multiplies and adds plain int numerators; a Fraction is
    # only built once per output coefficient
    ring = Ring.exact(SP)
    x = Series(ring, {(i, i % 3): F(2 * i + 1, 3**i + 2) for i in range(20)})
    y = Series(ring, {(i % 4, i): F(2 * i - 27, 5**i + 1) for i in range(20)})
    calls = count_fraction_ops(monkeypatch)
    got = x * y
    assert calls == []
    want = naive_product(x, y)
    # the counters do see a pairwise loop: one multiply and one add per pair
    assert sorted(set(calls)) == ["__add__", "__mul__"]
    assert calls.count("__mul__") == calls.count("__add__") == 20 * 20
    assert got.terms == want


def test_tensor_product_does_no_fraction_arithmetic(monkeypatch):
    # the algebra layer, normal forms included, works on the same int raw
    # forms: on a cold table not one Fraction multiply or add
    H = catalog._BUILDERS["gl2.II.standard"](6)
    cold = RewriteTable(H.gens, H.ring, H.table.rules)     # same rules, empty NF cache
    x, y = H.coproduct["Jp"], H.coproduct["Jm"]
    calls = count_fraction_ops(monkeypatch)
    got = tensor_mul(x, y, cold)
    assert calls == []
    assert len(got.terms) > 100


# ---------------------------------------------------------------------------
# the exponent codec
# ---------------------------------------------------------------------------

#: an invertible weight-0 symbol over the untruncated ring (as rmatrix's
#: exact family II) and the untruncated ring over SPK
EXACT_RINGS = [Ring.exact(ParamSpace.make(("B", 0, True), ("p", 1, False)), floor=DEFAULT_FLOOR),
               Ring.exact(SPK)]


@st.composite
def _codec_cases(draw):
    """A ring (SPK or SPN, an eps ring, or an exact one) and two exponent
    vectors that it keeps, drawn up to and past the order and near the
    weight-0 limit."""
    kind = draw(st.sampled_from(["SPK", "SPN", "eps", "exact"]))
    if kind == "exact":
        ring = draw(st.sampled_from(EXACT_RINGS))
    else:
        space = {"SPK": SPK, "SPN": SPN, "eps": ParamSpace.make("eps", ("b", 2, False))}[kind]
        ring = Ring(space, draw(st.integers(0, 9)), draw(st.integers(-4, -1)))
    lows = [ring.floor if iv else 0 for iv in ring.space.invertible]
    # up to just past the field's bound on a weight-0 symbol
    highs = [cap + lo + 2 if w == 0 else min(ring.order, 10**9) // w + 2
             for w, lo, cap in zip(ring.space.weights, lows, ring.codec.caps)]

    def exps():
        vec = st.tuples(*(st.one_of(st.integers(lo, min(hi, lo + 12)), st.integers(lo, hi))
                          for lo, hi in zip(lows, highs)))
        return draw(vec.filter(lambda e: _packs(ring, e)))

    return ring, exps(), exps()


def _packs(ring, e):
    try:
        return ring.codec.pack(e) is not None
    except (FloorUnderflowError, StructureError):
        return False


@settings(max_examples=400, deadline=None)
@given(_codec_cases())
def test_codec_round_trip_and_additivity(case):
    ring, e1, e2 = case
    c = ring.codec
    p1, p2 = c.pack(e1), c.pack(e2)
    assert c.unpack(p1) == e1 and c.unpack(p2) == e2
    e = tuple(map(operator.add, e1, e2))
    p = p1 + p2 - c.zero
    assert c.unpack(p) == e
    kept = ring.space.wdeg(e) <= ring.order
    assert (p < c.limit) == kept
    if kept:
        # a key passes the flag test exactly when it is the key of the sum
        assert (p & c.flags == c.guards) == _packs(ring, e)
        if _packs(ring, e):
            assert p == c.pack(e)


def test_weight0_exponent_too_large_for_its_field_raises():
    ring = Ring(SPK, 4)
    top = ring.term({"kappa": WEIGHT0_LIMIT - 1})
    assert ring.term({"kappa": 2**30}) * ring.term({"kappa": 2**30 - 1}) == top
    assert top.terms == {(0, WEIGHT0_LIMIT - 1, 0, 0): 1}
    with pytest.raises(StructureError):
        ring.term({"kappa": WEIGHT0_LIMIT})
    with pytest.raises(StructureError):
        top * ring.term({"kappa": 1})
    with pytest.raises(StructureError):
        (top + ring.one()) * (ring.symbol("kappa") + ring.symbol("a"))
    half = ring.term({"kappa": 2**30 + 5})
    with pytest.raises(StructureError):
        half * half * ring.symbol("kappa")
    # an invertible weight-0 symbol over the untruncated ring at floor -4:
    # its field holds every exponent below 2^32 - 4, past WEIGHT0_LIMIT
    ring = EXACT_RINGS[0]
    bound = 2**32 - 4
    assert ring.codec.caps[0] + ring.codec.lows[0] == bound
    b = ring.term({"B": WEIGHT0_LIMIT - 1})
    assert (b * ring.term({"B": -4})).terms == {(WEIGHT0_LIMIT - 5, 0): 1}
    past = ring.term({"B": WEIGHT0_LIMIT + 10})
    assert past.terms == {(WEIGHT0_LIMIT + 10, 0): 1}
    assert (past * ring.term({"B": -4})).terms == {(WEIGHT0_LIMIT + 6, 0): 1}
    assert (past * ring.term({"B": bound - 1 - (WEIGHT0_LIMIT + 10)})).terms == {(bound - 1, 0): 1}
    with pytest.raises(StructureError, match=f"below {bound}"):
        ring.term({"B": bound})
    with pytest.raises(StructureError, match=f"below {bound}"):
        past * past
    with pytest.raises(StructureError):
        b * b
    with pytest.raises(FloorUnderflowError):
        ring.term({"B": -4}) * ring.term({"B": -1})


# ---------------------------------------------------------------------------
# key-level ring change, slice, substitution and constants against
# term-level references
# ---------------------------------------------------------------------------

#: symbol specs to draw spaces from: invertible of weight 1 and 0, plain of
#: weight 1, 0 and 2
POOL = {"a": ("a", 1, False), "eps": ("eps", 1, True), "B": ("B", 0, True),
        "kappa": ("kappa", 0, False), "b": ("b", 2, False), "xi": ("xi", 1, False)}


def terms_product(ring, x, y):
    """``naive_product`` on ``{exponents: Fraction}`` dicts."""
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(map(operator.add, e1, e2))
            if ring.space.wdeg(e) > ring.order:
                continue
            if any(iv and v < ring.floor for v, iv in zip(e, ring.space.invertible)):
                raise FloorUnderflowError([e])
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_to(s, ring):
    """``s.to(ring)`` one exponent vector at a time through ``Series``."""
    out = {}
    for e, c in s.terms.items():
        by_name = dict(zip(s.space.symbols, e))
        if any(v for n, v in by_name.items() if not ring.space.has(n)):
            raise StructureError(f"{e} has a symbol outside {ring.space.symbols}")
        out.update(Series(ring, {tuple(by_name.get(n, 0) for n in ring.space.symbols): c}).terms)
    return out


def render(space, e, c):
    mono = "*".join(f"{n}^{v}" if v != 1 else n for n, v in zip(space.symbols, e) if v)
    return f"{c}*{mono}" if mono else f"{c}"


def ref_zero_slice(s, name, context):
    i = s.space.index(name)
    terms = s.terms
    bad = sorted(e for e in terms if e[i] < 0)
    if bad:
        raise DivergenceError([render(s.space, e, terms[e]) for e in bad], name, context=context)
    return {e: c for e, c in terms.items() if e[i] == 0}


def ref_substitute(x, sigma, ring):
    """Per term: the constant times each image's power in symbol order, the
    powers as repeated truncated products, summed with ``Fraction``s."""
    images = {}
    for n in x.space.symbols:
        if n in sigma:
            images[n] = ref_to(sigma[n], ring)
        elif ring.space.has(n):
            images[n] = Series(ring, {tuple(int(m == n) for m in ring.space.symbols): 1}).terms
        else:
            raise StructureError(f"{n} not in {ring.space.symbols}")
    zero = (0,) * ring.space.dim
    out = {}
    for e, c in x.terms.items():
        term = {zero: c}
        for n, k in zip(x.space.symbols, e):
            if k > 0:
                power = {zero: F(1)}
                for _ in range(k):
                    power = terms_product(ring, power, images[n])
            elif k < 0:
                if len(images[n]) != 1:
                    raise StructureError("can only invert single-term series")
                ((v, c1),) = images[n].items()
                power = Series(ring, {tuple(-u * -k for u in v): 1 / c1 ** -k}).terms
            if k:
                term = terms_product(ring, term, power)
        for v, c1 in term.items():
            out[v] = out.get(v, F(0)) + c1
    return {v: c for v, c in out.items() if c}


def agree(got_fn, want_fn, ring):
    """Both raise the same error (the same text for a divergence), or both
    give one series over ``ring``: its terms, and its raw form."""
    try:
        want = want_fn()
    except (DivergenceError, FloorUnderflowError, StructureError) as exc:
        with pytest.raises(type(exc)) as info:
            got_fn()
        assert type(info.value) is type(exc)
        if isinstance(exc, DivergenceError):
            assert str(info.value) == str(exc)
        return
    got = got_fn()
    assert got.ring == ring and got.terms == want
    assert got.raw == Series(ring, want).raw


@st.composite
def _rings(draw):
    names = draw(st.lists(st.sampled_from(sorted(POOL)), min_size=1, max_size=4, unique=True))
    space = ParamSpace.make(*(POOL[n] for n in names))
    if draw(st.integers(0, 4)) == 0:
        return Ring.exact(space)
    return Ring(space, draw(st.integers(0, 5)), draw(st.integers(-4, -1)))


@st.composite
def _series_over(draw, ring, small=False):
    """Up to 5 kept terms over ``ring``; unless ``small``, exponents reach
    past a lower order and floor (on the untruncated ring, far enough below
    a floor to borrow from the next field of a key that does not check),
    and weight-0 ones sit near their field's bound."""
    def exponent(w, iv):
        lo = max(ring.floor, -200) if iv else 0
        if small:
            return st.integers(max(lo, -2), 3)
        near = st.integers(2**32 - 8, 2**32 - 1) if iv else st.integers(2**31 - 4, 2**31 - 1)
        return st.one_of(st.integers(max(lo, -6), 9), st.integers(lo, 9),
                         *[near] * (w == 0))

    exps = st.tuples(*(exponent(w, iv) for w, iv in zip(ring.space.weights, ring.space.invertible)))
    coeff = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    terms = draw(st.dictionaries(exps.filter(lambda e: _packs(ring, e)), coeff, max_size=5))
    return Series(ring, terms)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_key_level_coefficient_ops_match_term_level_references(data):
    src, dst = data.draw(_rings()), data.draw(_rings())
    s = data.draw(_series_over(src))
    agree(lambda: s.to(dst), lambda: ref_to(s, dst), dst)

    name = data.draw(st.sampled_from(src.space.symbols))
    agree(lambda: s.zero_slice(name, "ctx"), lambda: ref_zero_slice(s, name, "ctx"), src)

    c = data.draw(st.builds(F, st.integers(-9, 9), st.integers(1, 9)))
    agree(lambda: dst.const(c), lambda: Series(dst, {(0,) * dst.space.dim: c}).terms, dst)

    x = data.draw(_series_over(src, small=True))
    sigma = {}
    for n in data.draw(st.lists(st.sampled_from(src.space.symbols), unique=True)):
        ring = data.draw(st.sampled_from([dst, dst, src]))
        sigma[n] = data.draw(_series_over(ring, small=True))
    agree(lambda: x.substitute(sigma, dst), lambda: ref_substitute(x, sigma, dst), dst)


def test_to_from_the_untruncated_ring_checks_fields_it_cannot_hold():
    # a field of the untruncated ring spans far more than one of order 2:
    # eps^-68 would borrow from the key's next field and pass the flag test
    # of the narrow one, and a^40 eps^-40 would carry into it
    src, dst = Ring.exact(SPE), Ring(SPE, 2, floor=-4)
    for e in range(-150, 1):
        for s in (src.term({"eps": e}), src.term({"a": -e, "eps": e}),
                  src.term({"a": 1, "eps": e}) + src.term({"eps": 1})):
            agree(lambda: s.to(dst), lambda: ref_to(s, dst), dst)
    s = src.term({"a": 2, "eps": -1}) + src.term({"a": 40, "eps": -40}) + src.term({"a": 9})
    with pytest.raises(FloorUnderflowError):
        s.to(dst)


def test_substitute_takes_every_power_of_a_term():
    # at order 2, a^3 is zero, so the term a^3 eps^-1 is zero before eps^-1
    # is reached; the inverse of eps + eps^2 is still asked for, and refused
    ring = Ring(SPE, 2)
    x = ring.term({"a": 3, "eps": -1}) + ring.symbol("a")
    sigma = {"eps": ring.symbol("eps") + ring.term({"eps": 2})}
    with pytest.raises(StructureError, match="single-term"):
        x.substitute(sigma)
    agree(lambda: x.substitute(sigma), lambda: ref_substitute(x, sigma, ring), ring)


def test_ring_change_and_slice_work_on_keys(monkeypatch):
    # zero_slice of a 50-term series tests int keys: not one exponent vector
    # is unpacked or packed; to repacks each key and matches the term-level
    # reference
    ring = Ring(SPK, 6)
    s = Series(ring, {(i % 3, i, i % 5 // 2, i % 2): F(i + 1, 7) for i in range(50)})
    wider = Ring(ParamSpace.make("xi", *(POOL[n] for n in ("a", "kappa", "eps", "b"))), 6)
    lower = Ring(SPK, 3, floor=-2)
    want = [Series(r, w).raw for r, w in ((wider, ref_to(s, wider)), (lower, ref_to(s, lower)),
                                          (ring, ref_zero_slice(s, "eps", "")),
                                          (ring, ref_zero_slice(s, "b", "")))]
    calls = []
    for name in ("pack", "unpack"):
        def counted(self, arg, _op=getattr(Codec, name), _name=name):
            calls.append(_name)
            return _op(self, arg)
        monkeypatch.setattr(Codec, name, counted)
    got = [s.zero_slice("eps"), s.zero_slice("b")]
    assert calls == []
    got = [s.to(wider), s.to(lower)] + got
    assert [g.raw for g in got] == want
    calls.clear()
    # the counters see a term-level read
    assert len(s.terms) == 50 and calls == ["unpack"] * 50
