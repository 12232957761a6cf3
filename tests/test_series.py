import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hopfc.errors import (
    DivergenceError,
    FloorUnderflowError,
    NonTruncatableError,
    StructureError,
)
from hopfc.series import (
    ParamSpace,
    Ring,
    Series,
    analytic_series,
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
    assert num.constant_term() == F(1, 5)


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


def test_limit_zero_drops_positive_powers():
    sp = ParamSpace.make("theta", "xi", "eps")
    s = Ring(sp, 4).symbol("theta") \
        + Ring(sp, 4).term({"eps": 2, "xi": 1}, 1)
    lim = s.limit_zero("eps")
    assert lim == Ring(lim.space, 4).symbol("theta")


def test_limit_zero_divergence():
    sp = ParamSpace.make("xi", "eps")
    s = Ring(sp, 4).term({"eps": -2, "xi": 1}, 1)
    with pytest.raises(DivergenceError):
        s.limit_zero("eps")


def test_limit_zero_at_solved_exponent():
    # eps^(n-2) * theta with n = 2 survives as theta
    sp = ParamSpace.make("theta", "eps")
    n = 2
    s = Ring(sp, 4).term({"eps": n - 2, "theta": 1}, 1)
    lim = s.limit_zero("eps")
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
        s.restrict(Ring(ParamSpace.make("a"), 4))


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
    assert x.embed(Ring(big, 4)).restrict(Ring(SP, 4)) == x
