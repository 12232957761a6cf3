"""Authoritative, versioned data: every algebra presentation, classical
r-matrix, Lie structure, scaling map, and contraction case the engine knows
about.

Ratio-symbol convention (denominator clearing): the two-parameter families
whose structure constants involve parameter quotients are presented in
coordinates where the quotient is its own weight-0 symbol:

* ``gl2.Iplus.standard``  uses (a, kappa)    with  a_plus = kappa * a
* ``gl2.Iplus.nonstandard`` uses (a_plus, lam) with  b_plus = lam * a_plus
* ``h4.betaplus.xi``      uses (xi, mu)      with  beta_plus = mu * xi

so every structure constant is a genuine truncated series and no series
division ever happens.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import (
    Element,
    GeneratorSet,
    RewriteTable,
    TensorElement,
    generator_function,
    lincomb,
    mul,
)
from .contraction import ContractionCase, ParamImage, ScalingMap
from .errors import LookupError_
from .hopf import HopfPresentation
from .series import EPS, ParamSpace, Ring, analytic_series

F = Fraction

CATALOG_VERSION = "1.0.0"

DEFAULT_ORDER = 4

GL2 = GeneratorSet.make(("I", "Jp", "J3", "Jm"), central=("I",))
GL2P = GeneratorSet.make(("I", "Jp", "J3p", "Jm"), central=("I",))
H4 = GeneratorSet.make(("M", "Ap", "N", "Am"), central=("M",))


# ---------------------------------------------------------------------------
# presentation helpers
# ---------------------------------------------------------------------------

def _outer(x, y):
    return TensorElement.outer([x, y])


def _primitive(table, name):
    x, one = table.gen(name), table.one()
    return _outer(x, one) + _outer(one, x)


def _gf(table, kind, gen_name, sym=None, sym_coeff=1):
    """generator_function(kind, c * sym * X) with a symbol coefficient."""
    coeff = table.sym(sym, coeff=sym_coeff) if sym else table.scalar(sym_coeff)
    return generator_function(kind, table.gen(gen_name, coeff=coeff), table)


def _counit_zero(gens):
    return {n: F(0) for n in gens.names}


# ---------------------------------------------------------------------------
# gl(2)-side presentations
# ---------------------------------------------------------------------------

def _gl2_table_classical(ring):
    t = RewriteTable.commuting(GL2, ring)
    t.set_rule("J3", "Jp", t.gen("Jp", coeff=t.scalar(2)))
    t.set_rule("J3", "Jm", t.gen("Jm", coeff=t.scalar(-2)))
    t.set_rule("Jp", "Jm", t.gen("J3"))
    return t


def _gl2_classical_casimir(t):
    return (
        mul(t.gen("J3"), t.gen("J3"), t)
        + mul(t.gen("Jp"), t.gen("Jm"), t).scale(2)
        + mul(t.gen("Jm"), t.gen("Jp"), t).scale(2)
    )


def _gl2_classical(order):
    t = _gl2_table_classical(Ring(ParamSpace.make(), order))
    delta = {n: _primitive(t, n) for n in GL2.names}
    return HopfPresentation("gl2.classical", t, delta, _counit_zero(GL2),
                            _gl2_classical_casimir(t))


def _gl2_II_standard(order):
    # two-parameter standard family: primitive J3 and I, sinh-deformed [Jp,Jm]
    t = _gl2_table_classical(Ring(ParamSpace.make("a", "b"), order))
    t.set_rule("Jp", "Jm", mul(t.gen("J3"), _gf(t, "sinh_over_arg", "J3", "a"), t))

    def leg(sign, bsign):
        arg = (t.gen("J3", coeff=t.sym("a", coeff=F(sign, 2)))
               + t.gen("I", coeff=t.sym("b", coeff=F(bsign * sign, 2))))
        return generator_function("exp", arg, t)

    delta = {
        "I": _primitive(t, "I"),
        "J3": _primitive(t, "J3"),
        "Jp": _outer(leg(1, -1), t.gen("Jp")) + _outer(t.gen("Jp"), leg(-1, -1)),
        "Jm": _outer(leg(1, 1), t.gen("Jm")) + _outer(t.gen("Jm"), leg(-1, 1)),
    }
    cosh_a = analytic_series("cosh", t.sym("a"))
    sinh_a_over_a = analytic_series("sinh_over_arg", t.sym("a"))
    s = mul(t.gen("J3"), _gf(t, "sinh_over_arg", "J3", "a", F(1, 2)), t)
    casimir = (
        mul(s, s, t).scale(cosh_a)
        + (mul(t.gen("Jp"), t.gen("Jm"), t)
           + mul(t.gen("Jm"), t.gen("Jp"), t)).scale(sinh_a_over_a * 2)
    )
    return HopfPresentation("gl2.II.standard", t, delta, _counit_zero(GL2), casimir)


def _gl2_II_nonstandard(order):
    # twist family: classical relations and Casimir, deformed coproduct
    t = _gl2_table_classical(Ring(ParamSpace.make("b", "b_plus"), order))
    e_plus = _gf(t, "exp", "I", "b")
    e_minus = _gf(t, "exp", "I", "b", -1)
    one = t.one()
    bp = t.sym("b_plus")
    # (e^{bI}-1)/b, (e^{-bI}-1)/(2b), (1-cosh bI)/(2b^2) in cleared form
    g1 = mul(t.gen("I"), _gf(t, "expm1_over_arg", "I", "b"), t)
    g2 = mul(t.gen("I"), _gf(t, "expm1_over_arg", "I", "b", -1), t).scale(F(-1, 2))
    g3 = mul(mul(t.gen("I"), t.gen("I"), t),
             _gf(t, "coshm1_over_argsq", "I", "b"), t).scale(F(-1, 2))
    delta = {
        "I": _primitive(t, "I"),
        "Jp": _outer(one, t.gen("Jp")) + _outer(t.gen("Jp"), e_plus),
        "J3": _primitive(t, "J3") + _outer(t.gen("Jp"), g1).scale(bp),
        "Jm": (_outer(one, t.gen("Jm")) + _outer(t.gen("Jm"), e_minus)
               + _outer(t.gen("J3"), g2).scale(bp)
               + _outer(t.gen("Jp"), g3).scale(bp * bp)),
    }
    return HopfPresentation("gl2.II.nonstandard", t, delta, _counit_zero(GL2),
                            _gl2_classical_casimir(t))


def _gl2_Iplus_standard(order):
    # standard + non-standard superposition, in (a, kappa) coordinates with
    # a_plus = kappa * a; PBW basis uses the shifted generator J3p
    t = RewriteTable.commuting(GL2P, Ring(ParamSpace.make("a", ("kappa", 0, False)), order))
    t.set_rule("J3p", "Jp", t.gen("Jp", coeff=t.scalar(2)))
    kap = t.sym("kappa")
    half_sinh = mul(t.gen("J3p"), _gf(t, "sinh_over_arg", "J3p", "a", F(1, 2)), t)
    t.set_rule("J3p", "Jm",
               t.gen("Jm", coeff=t.scalar(-2))
               - half_sinh.scale(kap)
               - t.gen("Jp", coeff=kap * kap))
    em1_a = analytic_series("expm1_over_arg", t.sym("a"))   # (e^a - 1)/a
    e_half_m = _gf(t, "exp", "J3p", "a", F(-1, 2))
    e_half_p = _gf(t, "exp", "J3p", "a", F(1, 2))
    t.set_rule("Jp", "Jm",
               mul(t.gen("J3p"), _gf(t, "sinh_over_arg", "J3p", "a"), t)
               + (mul(e_half_m, t.gen("Jp"), t)
                  + mul(t.gen("Jp"), e_half_p, t)).scale(kap * em1_a * F(1, 2)))
    delta = {
        "I": _primitive(t, "I"),
        "J3p": _primitive(t, "J3p"),
        "Jp": _outer(e_half_p, t.gen("Jp")) + _outer(t.gen("Jp"), e_half_m),
        "Jm": _outer(e_half_p, t.gen("Jm")) + _outer(t.gen("Jm"), e_half_m),
    }
    xot = analytic_series("x_over_tanh", t.sym("a"))        # a/tanh(a)
    j3p2 = mul(t.gen("J3p"), t.gen("J3p"), t)
    casimir = (
        mul(j3p2, _gf(t, "coshm1_over_argsq", "J3p", "a"), t).scale(xot * 2)
        + (mul(t.gen("Jp"), t.gen("Jm"), t) + mul(t.gen("Jm"), t.gen("Jp"), t)).scale(2)
        + mul(t.gen("Jp"), t.gen("Jp"), t).scale(kap * kap)
        + (mul(half_sinh, t.gen("Jp"), t) + mul(t.gen("Jp"), half_sinh, t)).scale(kap)
    )
    return HopfPresentation("gl2.Iplus.standard", t, delta, _counit_zero(GL2P), casimir)


def _gl2_Iplus_nonstandard(order):
    # triangular family in (a_plus, lam) coordinates with b_plus = lam * a_plus
    t = RewriteTable.commuting(GL2, Ring(ParamSpace.make("a_plus", ("lam", 0, False)), order))
    t.set_rule("J3", "Jp",
               mul(t.gen("Jp"), _gf(t, "expm1_over_arg", "Jp", "a_plus"), t).scale(2))
    lam = t.sym("lam")
    d = t.gen("J3") - t.gen("I", coeff=lam)     # J3 - (b_plus/a_plus) I
    ap = t.sym("a_plus")
    t.set_rule("J3", "Jm",
               t.gen("Jm", coeff=t.scalar(-2)) + mul(d, d, t).scale(ap * F(1, 2)))
    e_p = _gf(t, "exp", "Jp", "a_plus")
    t.set_rule("Jp", "Jm",
               t.gen("J3") + mul(t.gen("I"), e_p - t.one(), t).scale(lam))
    one = t.one()
    delta = {
        "Jp": _primitive(t, "Jp"),
        "I": _primitive(t, "I"),
        "J3": (_outer(one, t.gen("J3")) + _outer(t.gen("J3"), e_p)
               - _outer(t.gen("I"), e_p - one).scale(lam)),
        "Jm": (_outer(one, t.gen("Jm")) + _outer(t.gen("Jm"), e_p)
               - _outer(d, mul(t.gen("I"), e_p, t)).scale(lam * ap * F(1, 2))),
    }
    e_m = _gf(t, "exp", "Jp", "a_plus", -1)
    # (1 - e^{-a_plus Jp})/a_plus in cleared form
    p = mul(t.gen("Jp"), _gf(t, "expm1_over_arg", "Jp", "a_plus", -1), t)
    casimir = (
        mul(d, mul(e_m, d, t), t)
        + mul(t.gen("J3"), t.gen("I"), t).scale(lam * 2)
        + (mul(p, t.gen("Jm"), t) + mul(t.gen("Jm"), p, t)).scale(2)
        + (e_m - one).scale(2)
    )
    return HopfPresentation("gl2.Iplus.nonstandard", t, delta, _counit_zero(GL2), casimir)


# ---------------------------------------------------------------------------
# oscillator-side presentations
# ---------------------------------------------------------------------------

def _h4_table_classical(ring):
    t = RewriteTable.commuting(H4, ring)
    t.set_rule("N", "Ap", t.gen("Ap"))
    t.set_rule("N", "Am", -t.gen("Am"))
    t.set_rule("Am", "Ap", t.gen("M"))
    return t


def _h4_casimir(t, m):
    """2 N m - Ap Am - Am Ap, with ``m`` the element that [Am, Ap] equals."""
    return (
        mul(t.gen("N"), m, t).scale(2)
        - mul(t.gen("Ap"), t.gen("Am"), t)
        - mul(t.gen("Am"), t.gen("Ap"), t)
    )


def _h4_classical(order):
    t = _h4_table_classical(Ring(ParamSpace.make(), order))
    delta = {n: _primitive(t, n) for n in H4.names}
    return HopfPresentation("h4.classical", t, delta, _counit_zero(H4),
                            _h4_casimir(t, t.gen("M")))


def _h4_xi_theta(order):
    t = _h4_table_classical(Ring(ParamSpace.make("xi", "theta"), order))
    sinh_m = mul(t.gen("M"), _gf(t, "sinh_over_arg", "M", "xi"), t)
    t.set_rule("Am", "Ap", sinh_m)

    # exp((ts*theta + xs*xi) M) legs
    def exp_leg(ts, xs):
        arg = t.gen("M", coeff=t.sym("theta", coeff=ts) + t.sym("xi", coeff=xs))
        return generator_function("exp", arg, t)

    delta = {
        "M": _primitive(t, "M"),
        "N": _primitive(t, "N"),
        "Ap": (_outer(exp_leg(F(1, 2), F(1, 2)), t.gen("Ap"))
               + _outer(t.gen("Ap"), exp_leg(F(-1, 2), F(-1, 2)))),
        "Am": (_outer(exp_leg(F(-1, 2), F(1, 2)), t.gen("Am"))
               + _outer(t.gen("Am"), exp_leg(F(1, 2), F(-1, 2)))),
    }
    return HopfPresentation("h4.xi.theta", t, delta, _counit_zero(H4), _h4_casimir(t, sinh_m))


def _h4_xi(order):
    t = _h4_table_classical(Ring(ParamSpace.make("xi",), order))
    sinh_m = mul(t.gen("M"), _gf(t, "sinh_over_arg", "M", "xi"), t)
    t.set_rule("Am", "Ap", sinh_m)
    e_p = _gf(t, "exp", "M", "xi", F(1, 2))
    e_m = _gf(t, "exp", "M", "xi", F(-1, 2))
    delta = {
        "M": _primitive(t, "M"),
        "N": _primitive(t, "N"),
        "Ap": _outer(e_p, t.gen("Ap")) + _outer(t.gen("Ap"), e_m),
        "Am": _outer(e_p, t.gen("Am")) + _outer(t.gen("Am"), e_m),
    }
    return HopfPresentation("h4.xi", t, delta, _counit_zero(H4), _h4_casimir(t, sinh_m))


def _h4_betaplus_theta(order):
    t = _h4_table_classical(Ring(ParamSpace.make("theta", "beta_plus"), order))
    bp = t.sym("beta_plus")
    one = t.one()
    e_p = _gf(t, "exp", "M", "theta")
    e_m = _gf(t, "exp", "M", "theta", -1)
    g_p = mul(t.gen("M"), _gf(t, "expm1_over_arg", "M", "theta"), t)
    g_m = mul(t.gen("M"), _gf(t, "expm1_over_arg", "M", "theta", -1), t)
    delta = {
        "M": _primitive(t, "M"),
        "Ap": _outer(one, t.gen("Ap")) + _outer(t.gen("Ap"), e_m),
        "Am": (_outer(one, t.gen("Am")) + _outer(t.gen("Am"), e_p)
               + _outer(t.gen("M"), g_p).scale(bp)),
        "N": _primitive(t, "N") + _outer(t.gen("Ap"), g_m).scale(bp),
    }
    return HopfPresentation("h4.betaplus.theta", t, delta, _counit_zero(H4),
                            _h4_casimir(t, t.gen("M")))


def _h4_betaplus_xi(order):
    # (xi, mu) coordinates with beta_plus = mu * xi
    t = _h4_table_classical(Ring(ParamSpace.make("xi", ("mu", 0, False)), order))
    mu = t.sym("mu")
    sinh_m = mul(t.gen("M"), _gf(t, "sinh_over_arg", "M", "xi"), t)
    sinh_half = mul(t.gen("M"), _gf(t, "sinh_over_arg", "M", "xi", F(1, 2)), t)
    t.set_rule("N", "Am", -t.gen("Am") + (sinh_m - sinh_half).scale(mu))
    t.set_rule("Am", "Ap", sinh_m)
    e_p = _gf(t, "exp", "M", "xi", F(1, 2))
    e_m = _gf(t, "exp", "M", "xi", F(-1, 2))
    one = t.one()
    delta = {
        "M": _primitive(t, "M"),
        "Ap": _outer(e_p, t.gen("Ap")) + _outer(t.gen("Ap"), e_m),
        "Am": _outer(e_p, t.gen("Am")) + _outer(t.gen("Am"), e_m),
        "N": (_primitive(t, "N")
              - _outer(e_p - one, t.gen("Ap")).scale(mu)
              - _outer(t.gen("Ap"), e_m - one).scale(mu)),
    }
    casimir = (_h4_casimir(t, sinh_m)
               + mul(t.gen("Ap"), sinh_m - sinh_half, t).scale(mu * 2))
    return HopfPresentation("h4.betaplus.xi", t, delta, _counit_zero(H4), casimir)


def _h4_alphaplus(order):
    t = _h4_table_classical(Ring(ParamSpace.make("alpha_plus",), order))
    t.set_rule("N", "Ap",
               mul(t.gen("Ap"), _gf(t, "expm1_over_arg", "Ap", "alpha_plus"), t))
    e_p = _gf(t, "exp", "Ap", "alpha_plus")
    t.set_rule("Am", "Ap", mul(t.gen("M"), e_p, t))
    one = t.one()
    ap = t.sym("alpha_plus")
    delta = {
        "Ap": _primitive(t, "Ap"),
        "M": _primitive(t, "M"),
        "Am": (_outer(one, t.gen("Am")) + _outer(t.gen("Am"), e_p)
               + _outer(t.gen("N"), mul(t.gen("M"), e_p, t)).scale(ap)),
        "N": _outer(one, t.gen("N")) + _outer(t.gen("N"), e_p),
    }
    q = mul(t.gen("Ap"), _gf(t, "expm1_over_arg", "Ap", "alpha_plus", -1), t).scale(-1)
    casimir = (
        mul(t.gen("N"), t.gen("M"), t).scale(2)
        + mul(q, t.gen("Am"), t)
        + mul(t.gen("Am"), q, t)
    )
    return HopfPresentation("h4.alphaplus", t, delta, _counit_zero(H4), casimir)


_BUILDERS = {
    "gl2.classical": _gl2_classical,
    "gl2.II.standard": _gl2_II_standard,
    "gl2.II.nonstandard": _gl2_II_nonstandard,
    "gl2.Iplus.standard": _gl2_Iplus_standard,
    "gl2.Iplus.nonstandard": _gl2_Iplus_nonstandard,
    "h4.classical": _h4_classical,
    "h4.xi.theta": _h4_xi_theta,
    "h4.xi": _h4_xi,
    "h4.betaplus.theta": _h4_betaplus_theta,
    "h4.betaplus.xi": _h4_betaplus_xi,
    "h4.alphaplus": _h4_alphaplus,
}


def names():
    return sorted(_BUILDERS)


@lru_cache(maxsize=None)
def get(name, order=DEFAULT_ORDER) -> HopfPresentation:
    if name not in _BUILDERS:
        raise LookupError_(name, names())
    return _BUILDERS[name](order)


# ---------------------------------------------------------------------------
# classical r-matrices and Lie structures (original paper parameters)
# ---------------------------------------------------------------------------

#: family -> (parameter symbols, wedge terms (coeff-fraction, symbol, X, Y))
_R_SPECS = {
    "gl2.Iplus.standard": (
        ("a", "a_plus"),
        [(F(1, 2), "a_plus", "J3", "Jp"), (F(-1), "a", "Jp", "Jm")],
    ),
    "gl2.Iplus.nonstandard": (
        ("a_plus", "b_plus"),
        [(F(1, 2), "a_plus", "J3", "Jp"), (F(1, 2), "b_plus", "Jp", "I")],
    ),
    "gl2.II.standard": (
        ("a", "b"),
        [(F(-1, 2), "b", "J3", "I"), (F(-1), "a", "Jp", "Jm")],
    ),
    "gl2.II.nonstandard": (
        ("b", "b_plus"),
        [(F(-1, 2), "b", "J3", "I"), (F(1, 2), "b_plus", "Jp", "I")],
    ),
}


@lru_cache(maxsize=None)
def classical_r(name) -> TensorElement:
    """The r-matrix of a gl(2) family: c * (X (x) Y - Y (x) X) summed over
    its wedge terms c * X ^ Y, over the exact ring of its parameters."""
    if name not in _R_SPECS:
        raise LookupError_(name, sorted(_R_SPECS))
    syms, terms = _R_SPECS[name]
    ring = Ring.exact(ParamSpace.make(*syms))
    g = {n: Element.generator(GL2, ring, n) for n in GL2.names}
    return lincomb(TensorElement(2, GL2, ring, {}), (
        (ring.symbol(sym, coeff=c), _outer(g[x], g[y]) - _outer(g[y], g[x]))
        for c, sym, x, y in terms))


_CLASSICAL_TABLES = {"gl2.classical": _gl2_table_classical,
                     "h4.classical": _h4_table_classical}


@lru_cache(maxsize=None)
def lie_structure(name) -> RewriteTable:
    """Classical Lie algebra underlying a catalog family: the classical
    rewrite table, over the exact ring of the family's r-matrix."""
    if name in _R_SPECS:
        return _gl2_table_classical(classical_r(name).ring)
    if name in _CLASSICAL_TABLES:
        return _CLASSICAL_TABLES[name](Ring.exact(ParamSpace.make()))
    raise LookupError_(name, sorted(_R_SPECS) + sorted(_CLASSICAL_TABLES))


# ---------------------------------------------------------------------------
# contraction cases
# ---------------------------------------------------------------------------

def _scaling_j3():
    forward = {
        "M": [(F(1), {EPS: 2}, "I")],
        "Ap": [(F(1), {EPS: 1}, "Jp")],
        "N": [(F(1, 2), {}, "J3"), (F(1, 2), {}, "I")],
        "Am": [(F(1), {EPS: 1}, "Jm")],
    }
    inverse = {
        "I": [(F(1), {EPS: -2}, "M")],
        "Jp": [(F(1), {EPS: -1}, "Ap")],
        "J3": [(F(2), {}, "N"), (F(-1), {EPS: -2}, "M")],
        "Jm": [(F(1), {EPS: -1}, "Am")],
    }
    return ScalingMap(H4, forward, inverse)


def _scaling_j3p():
    # J3p = J3 - kappa Jp, so N = (J3p + kappa Jp + I)/2
    forward = {
        "M": [(F(1), {EPS: 2}, "I")],
        "Ap": [(F(1), {EPS: 1}, "Jp")],
        "N": [(F(1, 2), {}, "J3p"), (F(1, 2), {"kappa": 1}, "Jp"), (F(1, 2), {}, "I")],
        "Am": [(F(1), {EPS: 1}, "Jm")],
    }
    inverse = {
        "I": [(F(1), {EPS: -2}, "M")],
        "Jp": [(F(1), {EPS: -1}, "Ap")],
        "J3p": [(F(2), {}, "N"), (F(-1), {EPS: -2}, "M"),
                (F(-1), {"kappa": 1, EPS: -1}, "Ap")],
        "Jm": [(F(1), {EPS: -1}, "Am")],
    }
    return ScalingMap(H4, forward, inverse)


def _ct_sinh_sq(table):
    # (1/2) (sinh(aI/2)/(a/2))^2
    arg = table.gen("I", coeff=table.sym("a", coeff=F(1, 2)))
    s = mul(table.gen("I"), generator_function("sinh_over_arg", arg, table), table)
    return mul(s, s, table).scale(F(1, 2))


def _ct_half_i_sq(table):
    return mul(table.gen("I"), table.gen("I"), table).scale(F(1, 2))


def _ct_i_sq(table):
    return mul(table.gen("I"), table.gen("I"), table)


CASES = {
    "II.standard": ContractionCase(
        name="II.standard",
        source="gl2.II.standard",
        target="h4.xi.theta",
        scaling=_scaling_j3(),
        param_map={"a": ParamImage(F(-1), 2, "xi"),
                   "b": ParamImage(F(-1), 2, "theta")},
        lie_r_name="gl2.II.standard",
        lie_param_map={"a": ParamImage(F(-1), 2, "xi"),
                       "b": ParamImage(F(-1), 2, "theta")},
        lie_groups={"a": "a", "b": "b"},
        target_params=("xi", "theta"),
        casimir_counterterm=_ct_sinh_sq,
        expected_exponents={"a": 2, "b": 2},
    ),
    "II.nonstandard": ContractionCase(
        name="II.nonstandard",
        source="gl2.II.nonstandard",
        target="h4.betaplus.theta",
        scaling=_scaling_j3(),
        param_map={"b": ParamImage(F(-1), 2, "theta"),
                   "b_plus": ParamImage(F(2), 3, "beta_plus")},
        lie_r_name="gl2.II.nonstandard",
        lie_param_map={"b": ParamImage(F(-1), 2, "theta"),
                       "b_plus": ParamImage(F(2), 3, "beta_plus")},
        lie_groups={"b": "b", "b_plus": "b_plus"},
        target_params=("theta", "beta_plus"),
        casimir_counterterm=_ct_half_i_sq,
        expected_exponents={"b": 2, "b_plus": 3},
    ),
    "Iplus.standard": ContractionCase(
        name="Iplus.standard",
        source="gl2.Iplus.standard",
        target="h4.betaplus.xi",
        scaling=_scaling_j3p(),
        # a_plus = 2 eps^3 beta_plus and a = -eps^2 xi give
        # kappa = a_plus/a = -2 eps (beta_plus/xi) = -2 eps mu
        param_map={"a": ParamImage(F(-1), 2, "xi"),
                   "kappa": ParamImage(F(-2), 1, "mu")},
        lie_r_name="gl2.Iplus.standard",
        lie_param_map={"a": ParamImage(F(-1), 2, "xi"),
                       "a_plus": ParamImage(F(2), 3, "beta_plus")},
        lie_groups={"a": "a", "a_plus": "a_plus"},
        target_params=("xi", ("mu", 0, False)),
        casimir_counterterm=_ct_sinh_sq,
        expected_exponents={"a": 2, "a_plus": 3},
    ),
    "Iplus.nonstandard": ContractionCase(
        name="Iplus.nonstandard",
        source="gl2.Iplus.nonstandard",
        target="h4.alphaplus",
        scaling=_scaling_j3(),
        # a_plus = eps alpha_plus and b_plus = -eps alpha_plus give
        # lam = b_plus/a_plus = -1
        param_map={"a_plus": ParamImage(F(1), 1, "alpha_plus"),
                   "lam": ParamImage(F(-1), 0, None)},
        lie_r_name="gl2.Iplus.nonstandard",
        lie_param_map={"a_plus": ParamImage(F(1), 1, "alpha_plus"),
                       "b_plus": ParamImage(F(-1), 1, "alpha_plus")},
        lie_groups={"a_plus": "n", "b_plus": "n"},
        target_params=("alpha_plus",),
        casimir_counterterm=_ct_i_sq,
        expected_exponents={"n": 1},
    ),
}


def get_case(name) -> ContractionCase:
    if name not in CASES:
        raise LookupError_(name, sorted(CASES))
    return CASES[name]


def list_cases():
    """Deterministic case metadata for reports."""
    out = []
    for name in sorted(CASES):
        c = CASES[name]
        out.append({
            "name": name,
            "source": c.source,
            "target": c.target,
            "param_map": {
                old: f"{img.coeff}*eps^{img.eps_exp}"
                     + (f"*{img.target}" if img.target else "")
                for old, img in sorted(c.lie_param_map.items())
            },
            "correlated": len(set(c.lie_groups.values())) < len(c.lie_groups),
        })
    return out


def basis_change_map(order=DEFAULT_ORDER):
    """Primed-basis map removing the ratio parameter from h4.betaplus.xi:
    N' = N + mu*Ap and Am' = Am + mu*sinh(xi M/2)/(xi/2), expressed over the
    unprimed presentation."""
    H = get("h4.betaplus.xi", order)
    t = H.table
    mu = t.sym("mu")
    sinh_half = mul(t.gen("M"), _gf(t, "sinh_over_arg", "M", "xi", F(1, 2)), t)
    return {
        "M": t.gen("M"),
        "Ap": t.gen("Ap"),
        "N": t.gen("N") + t.gen("Ap", coeff=mu),
        "Am": t.gen("Am") + sinh_half.scale(mu),
    }


# ---------------------------------------------------------------------------
# JSON dump
# ---------------------------------------------------------------------------

def dump(name, order=DEFAULT_ORDER):
    """Documented JSON rendering of a presentation: generators in PBW order,
    relations as coefficient tables, coproducts as slot-tagged terms."""
    H = get(name, order)
    gens = H.gens
    relations = {}
    for (i, j), r in sorted(H.table.rules.items()):
        relations[f"[{gens.names[i]},{gens.names[j]}]"] = r.to_json()
    return {
        "name": name,
        "catalog_version": CATALOG_VERSION,
        "order": order,
        "generators": list(gens.names),
        "central": [n for n, c in zip(gens.names, gens.central) if c],
        "parameters": [
            {"name": s, "weight": w, "invertible": iv}
            for s, w, iv in zip(H.ring.space.symbols, H.ring.space.weights,
                                H.ring.space.invertible)
        ],
        "relations": relations,
        "coproducts": {n: H.coproduct[n].to_json() for n in gens.names},
        "counits": {n: str(H.counit[n]) for n in gens.names},
        "casimir": H.casimir.to_json() if H.casimir is not None else None,
    }
