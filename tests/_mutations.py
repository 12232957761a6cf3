"""Single-fault mutations of catalog data.  Each entry builds a mutated copy
of one structure and returns True iff some check trips on it.  Shared by the
mutation tests and the acceptance suite."""

import dataclasses
from fractions import Fraction as F

from hopfc import catalog, rmatrix
from hopfc.algebra import TensorElement, generator_function, mul
from hopfc.bialgebra import check_cocycle, check_cojacobi, cocommutator_from_r
from hopfc.contraction import ParamImage, change_of_basis, contract_hopf, match_presentation
from hopfc.errors import DivergenceError
from hopfc.hopf import (check_casimir_central, check_counit, check_jacobi,
                        check_relations_morphism, verify_all)
from hopfc.series import Ring


def _fresh(name, order=3):
    return catalog._BUILDERS[name](order)


def classical_rule_sign():
    H = _fresh("gl2.classical")
    H.table.set_rule("J3", "Jp", H.table.gen("Jp", coeff=H.table.scalar(-2)))
    return not check_jacobi(H).ok


def sinh_coefficient_corruption():
    # 1/6 -> 1/5 in the cubic term of the deformed [Jp, Jm]
    H = _fresh("gl2.II.standard")
    t = H.table
    cube = mul(t.gen("J3"), mul(t.gen("J3"), t.gen("J3"), t), t)
    c = t.sym("a") * t.sym("a") * F(1, 5)
    t.set_rule("Jp", "Jm", t.gen("J3") + cube.scale(c))
    return not check_relations_morphism(H).ok


def coproduct_leg_sign():
    # flip the sign of the I part in the legs of Delta(Jp)
    H = _fresh("gl2.II.standard")
    t = H.table
    arg = (t.gen("J3", coeff=t.sym("a", coeff=F(1, 2)))
           + t.gen("I", coeff=t.sym("b", coeff=F(1, 2))))
    g, gm = generator_function("exp", arg, t), generator_function("exp", -arg, t)
    H.coproduct["Jp"] = (TensorElement.outer([g, t.gen("Jp")])
                         + TensorElement.outer([t.gen("Jp"), gm]))
    return not verify_all(H).ok


def counit_nonzero_on_generator():
    H = _fresh("gl2.classical")
    H.counit["I"] = F(1)
    return not check_counit(H).ok


def casimir_term_dropped():
    H = _fresh("gl2.Iplus.standard")
    t = H.table
    kap = t.sym("kappa")
    H.casimir = H.casimir - mul(t.gen("Jp"), t.gen("Jp"), t).scale(kap * kap)
    return not check_casimir_central(H).ok


def oscillator_coproduct_leg_inverted():
    H = _fresh("h4.alphaplus")
    t = H.table
    e_m = generator_function("exp", t.gen("Ap", coeff=t.sym("alpha_plus", coeff=-1)), t)
    H.coproduct["N"] = (TensorElement.outer([t.one(), t.gen("N")])
                        + TensorElement.outer([t.gen("N"), e_m]))
    return not verify_all(H).ok


def oscillator_coproduct_legs_swapped():
    H = _fresh("h4.xi.theta")
    t = H.table

    def leg(ts, xs):
        arg = t.gen("M", coeff=t.sym("theta", coeff=ts) + t.sym("xi", coeff=xs))
        return generator_function("exp", arg, t)

    # Delta(Am) given the legs that belong to Delta(Ap)
    H.coproduct["Am"] = (
        TensorElement.outer([leg(F(1, 2), F(1, 2)), t.gen("Am")])
        + TensorElement.outer([t.gen("Am"), leg(F(-1, 2), F(-1, 2))]))
    return not verify_all(H).ok


def cocommutator_perturbed():
    L = catalog.lie_structure("gl2.II.standard")
    delta = dict(cocommutator_from_r(L, catalog.classical_r("gl2.II.standard")))
    i, jp = L.gen("I"), L.gen("Jp")
    bump = (TensorElement.outer([i, jp]) - TensorElement.outer([jp, i])).scale(
        Ring.exact(L.ring.space).symbol("a"))
    delta["Jm"] = delta["Jm"] + bump
    return not check_cocycle(L, delta).ok or not check_cojacobi(L, delta).ok


def lie_rule_sign():
    # [J3, Jp] = -2 Jp in a fresh classical table, not the cached one
    r = catalog.classical_r("gl2.II.standard")
    t = catalog._gl2_table_classical(r.ring)
    t.set_rule("J3", "Jp", t.gen("Jp", coeff=t.scalar(-2)))
    return not check_cocycle(t, cocommutator_from_r(t, r)).ok


def rmatrix_entry_sign():
    R = rmatrix._build_family_II(3)
    R[1][3] = -R[1][3]
    return not rmatrix.mat_is_zero(rmatrix.qybe_residual(R))


def rmatrix_exact_entry_sign():
    R = rmatrix._build_family_II_exact()
    R[2][3] = -R[2][3]
    return not rmatrix.mat_is_zero(rmatrix.qybe_residual(R))


def parameter_exponent_lowered():
    case = catalog.get_case("II.standard")
    bad = dataclasses.replace(case, param_map={
        "a": ParamImage(F(-1), 1, "xi"),
        "b": case.param_map["b"],
    })
    try:
        contract_hopf(bad, 3)
    except DivergenceError:
        return True
    return False


def scaling_map_sign():
    # N = (J3 - I)/2 instead of (J3 + I)/2
    from hopfc.contraction import ScalingMap
    from hopfc.series import EPS
    bad = ScalingMap(
        catalog.H4,
        {"M": [(F(1), {EPS: 2}, "I")],
         "Ap": [(F(1), {EPS: 1}, "Jp")],
         "N": [(F(1, 2), {}, "J3"), (F(-1, 2), {}, "I")],
         "Am": [(F(1), {EPS: 1}, "Jm")]},
        {"I": [(F(1), {EPS: -2}, "M")],
         "Jp": [(F(1), {EPS: -1}, "Ap")],
         "J3": [(F(2), {}, "N"), (F(1), {EPS: -2}, "M")],
         "Jm": [(F(1), {EPS: -1}, "Am")]},
    )
    case = dataclasses.replace(catalog.get_case("II.standard"), scaling=bad)
    got = contract_hopf(case, 3)
    return not match_presentation(got, catalog.get("h4.xi.theta", 3)).match


def basis_map_sign():
    fwd = catalog.basis_change_map(3)
    H = catalog.get("h4.betaplus.xi", 3)
    t = H.table
    fwd = dict(fwd)
    fwd["N"] = t.gen("N") - t.gen("Ap", coeff=t.sym("mu"))
    primed = change_of_basis(H, fwd)
    return not match_presentation(primed, catalog.get("h4.xi", 3)).match


def counterterm_sign():
    case = dataclasses.replace(
        catalog.get_case("II.nonstandard"),
        casimir_counterterm=lambda t: catalog._ct_half_i_sq(t).scale(F(-1)))
    try:
        contract_hopf(case, 3)
    except DivergenceError:
        return True
    return False


MUTATIONS = [
    ("classical_rule_sign", classical_rule_sign),
    ("sinh_coefficient_corruption", sinh_coefficient_corruption),
    ("coproduct_leg_sign", coproduct_leg_sign),
    ("counit_nonzero_on_generator", counit_nonzero_on_generator),
    ("casimir_term_dropped", casimir_term_dropped),
    ("oscillator_coproduct_leg_inverted", oscillator_coproduct_leg_inverted),
    ("oscillator_coproduct_legs_swapped", oscillator_coproduct_legs_swapped),
    ("cocommutator_perturbed", cocommutator_perturbed),
    ("lie_rule_sign", lie_rule_sign),
    ("rmatrix_entry_sign", rmatrix_entry_sign),
    ("rmatrix_exact_entry_sign", rmatrix_exact_entry_sign),
    ("parameter_exponent_lowered", parameter_exponent_lowered),
    ("scaling_map_sign", scaling_map_sign),
    ("basis_map_sign", basis_map_sign),
    ("counterterm_sign", counterterm_sign),
]
