"""End-to-end acceptance criteria.  Each test prints one PASS/FAIL line."""

import dataclasses
import time
from fractions import Fraction as F

from _mutations import MUTATIONS

from hopfc import catalog, rmatrix
from hopfc.algebra import mul
from hopfc.contraction import (
    ParamImage,
    change_of_basis,
    classical_limit,
    contract_hopf,
    match_presentation,
    solve_min_exponents,
)
from hopfc.errors import DivergenceError
from hopfc.hopf import verify_all
from hopfc.series import Ring


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, desc


def test_acceptance_1_full_verification_at_two_orders():
    t0 = time.perf_counter()
    ok = True
    for order in (4, 6):
        for name in catalog.names():
            rep = verify_all(catalog.get(name, order))
            if not rep.ok:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    _report(1, ok, f"all {len(catalog.names())} presentations verify at "
                   f"N=4 and N=6 in {elapsed:.1f}s (< 300s)")


def test_acceptance_2_classical_limits():
    ok = True
    pairs = [(n, "gl2.classical") for n in catalog.names()
             if n.startswith("gl2.") and n != "gl2.classical"]
    pairs += [(n, "h4.classical") for n in catalog.names()
              if n.startswith("h4.") and n != "h4.classical"]
    for name, classical in pairs:
        lim = classical_limit(catalog.get(name, 4), rename={"J3p": "J3"})
        if not match_presentation(lim, catalog.get(classical, 4)).match:
            ok = False
    # and the classical Casimirs are the expected quadratic elements
    G = catalog.get("gl2.classical", 4)
    t = G.table
    ok = ok and G.casimir == (
        mul(t.gen("J3"), t.gen("J3"), t)
        + mul(t.gen("Jp"), t.gen("Jm"), t).scale(2)
        + mul(t.gen("Jm"), t.gen("Jp"), t).scale(2))
    H = catalog.get("h4.classical", 4)
    s = H.table
    ok = ok and H.casimir == (
        mul(s.gen("N"), s.gen("M"), s).scale(2)
        - mul(s.gen("Ap"), s.gen("Am"), s)
        - mul(s.gen("Am"), s.gen("Ap"), s))
    _report(2, ok, f"{len(pairs)} classical limits exact, Casimirs included")


def test_acceptance_3_minimal_exponents():
    ok = True
    for name in sorted(catalog.CASES):
        case = catalog.get_case(name)
        sol = solve_min_exponents(case)
        if sol.r_min != case.expected_exponents:
            ok = False
    # correlated one-parameter limit: shared exponent 1, single wedge term
    sol = solve_min_exponents(catalog.get_case("Iplus.nonstandard"))
    sp = sol.r_contracted.ring.space
    ap = Ring.exact(sp).symbol("alpha_plus", coeff=F(-1))
    e = {n: tuple(int(n == k) for k in catalog.H4.names) for n in ("Ap", "N")}
    want = {(e["Ap"], e["N"]): ap, (e["N"], e["Ap"]): -ap}
    ok = ok and sol.r_min == {"n": 1} and sol.r_contracted.terms == want
    # decorrelating the parameters forces exponent 3 term by term
    ind = dataclasses.replace(
        catalog.get_case("Iplus.nonstandard"),
        lie_param_map={"a_plus": ParamImage(F(1), 1, "alpha_1"),
                       "b_plus": ParamImage(F(-1), 1, "alpha_2")},
        lie_groups={"a_plus": "a_plus", "b_plus": "b_plus"},
    )
    ind_sol = solve_min_exponents(ind)
    ok = ok and ind_sol.r_min == {"a_plus": 3, "b_plus": 3}
    _report(3, ok, "minimal exponents (2,2), (2,3), (2,3), and correlated "
                   "n=1 vs term-wise n=3")


def test_acceptance_4_coboundary_verdicts():
    verdicts = {name: solve_min_exponents(catalog.get_case(name)).coboundary
                for name in sorted(catalog.CASES)}
    ok = all(verdicts.values())
    _report(4, ok, f"coboundary verdict for all 4 cases: {verdicts}")


def test_acceptance_5_contraction_fidelity():
    ok = True
    for name in sorted(catalog.CASES):
        case = catalog.get_case(name)
        got = contract_hopf(case, 4)
        m = match_presentation(got, catalog.get(case.target, 4))
        if not m.match:
            ok = False
    primed = change_of_basis(catalog.get("h4.betaplus.xi", 4),
                             catalog.basis_change_map(4))
    ok = ok and match_presentation(primed, catalog.get("h4.xi", 4)).match
    _report(5, ok, "all 4 contractions match their targets term for term at "
                   "N=4 (Casimirs included), plus the primed-basis reduction")


def test_acceptance_6_rmatrix_checks():
    ok = True
    for name in rmatrix.rmat_names():
        ok = ok and rmatrix.mat_is_zero(
            rmatrix.qybe_residual(rmatrix.get_rmat(name, exact=True)))
        ok = ok and rmatrix.mat_is_zero(
            rmatrix.qybe_residual(rmatrix.get_rmat(name, 6)))
    r = catalog.classical_r("gl2.II.nonstandard")
    E = rmatrix.exp_wedge_rep(r, 6)
    ok = ok and rmatrix.mat_is_zero(
        rmatrix.mat_sub(E, rmatrix.get_rmat("gl2.II.nonstandard", 6)))
    Ra = rmatrix.rmat_limit(rmatrix.get_rmat("gl2.Iplus.standard", 6), "a")
    ok = ok and rmatrix.mat_is_zero(rmatrix.qybe_residual(Ra))
    ok = ok and rmatrix.mat_is_zero(rmatrix.triangularity_residual(Ra))
    Rap = rmatrix.rmat_limit(rmatrix.get_rmat("gl2.Iplus.standard", 6), "a_plus")
    ok = ok and rmatrix.mat_is_zero(rmatrix.qybe_residual(Rap))
    _report(6, ok, "QYBE holds (exact and N=6 series) for both matrices, "
                   "exp{r} reproduces the triangular one, limits pass")


def test_acceptance_7_divergence_guard():
    params = [("II.standard", "a"), ("II.standard", "b"),
              ("II.nonstandard", "b"), ("II.nonstandard", "b_plus"),
              ("Iplus.standard", "a"), ("Iplus.standard", "kappa"),
              ("Iplus.nonstandard", "a_plus")]
    tripped = 0
    for name, param in params:
        case = catalog.get_case(name)
        n = case.param_map[param].eps_exp
        try:
            contract_hopf(case, 4, force_exponents={param: n - 1})
        except DivergenceError:
            tripped += 1
    ok = tripped == len(params)
    _report(7, ok, f"exponent one below minimum diverges for "
                   f"{tripped}/{len(params)} parameters")


def test_acceptance_8_mutation_coverage():
    failures = [name for name, fn in MUTATIONS if not fn()]
    ok = len(MUTATIONS) >= 12 and not failures
    _report(8, ok, f"{len(MUTATIONS)} single mutations all trip a check"
                   + (f"; undetected: {failures}" if failures else ""))
