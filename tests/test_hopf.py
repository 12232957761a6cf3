from fractions import Fraction as F

from hopfc import catalog, hopf
from hopfc.algebra import generator_function, mul
from hopfc.errors import SynthesisFailureError
from hopfc.hopf import (
    ALL_CHECKS,
    Check,
    VerificationReport,
    check_antipode,
    check_counit,
    check_jacobi,
    solve_antipode,
    verify_all,
)


def fresh(name, order=3):
    return catalog._BUILDERS[name](order)


def test_verify_all_classical():
    for name in ("gl2.classical", "h4.classical"):
        rep = verify_all(fresh(name))
        assert rep.ok, rep.to_text()


def test_verify_all_deformed_spot():
    for name in ("gl2.II.standard", "h4.betaplus.xi"):
        rep = verify_all(fresh(name))
        assert rep.ok, rep.to_text()


def test_report_shapes():
    rep = verify_all(fresh("h4.xi"))
    assert rep.ok
    assert [c.name for c in rep.checks] == [
        "jacobi", "relations_morphism", "coassociativity", "counit",
        "casimir_central", "antipode",
    ]
    assert "[PASS]" in rep.to_text()


def test_antipode_classical_is_negation():
    H = fresh("gl2.classical")
    S = solve_antipode(H)
    for n in H.gens.names:
        assert S[n] == -H.gen(n)


def test_antipode_primitive_generator_stays_negated():
    # Ap is primitive in h4.alphaplus, so S(Ap) = -Ap even though the
    # other antipode images pick up corrections
    H = fresh("h4.alphaplus")
    S = solve_antipode(H)
    assert S["Ap"] == -H.gen("Ap")
    assert S["M"] == -H.gen("M")


def test_antipode_conjugation_formula():
    # with Delta(Jp) = g (x) Jp + Jp (x) g^{-1} and g group-like,
    # S(Jp) = -g^{-1} Jp g
    H = fresh("gl2.II.standard")
    t = H.table
    S = solve_antipode(H)
    arg = (t.gen("J3", coeff=t.sym("a", coeff=F(1, 2)))
           + t.gen("I", coeff=t.sym("b", coeff=F(-1, 2))))
    g = generator_function("exp", arg, t)
    g_inv = generator_function("exp", -arg, t)
    assert S["Jp"] == -mul(g_inv, mul(t.gen("Jp"), g, t), t)


def test_failing_check_is_reported():
    H = fresh("gl2.classical")
    H.table.set_rule("J3", "Jp", H.table.gen("Jp", coeff=H.table.scalar(-2)))
    entry = check_jacobi(H)
    assert not entry.ok
    assert entry.residuals


def test_counit_check_detects_bad_value():
    H = fresh("gl2.classical")
    H.counit["I"] = F(1)
    assert not check_counit(H).ok


def test_every_check_does_its_work_in_the_call():
    # the benchmark times each ALL_CHECKS call, so a check that deferred its
    # work (a generator, or residuals left lazy) would time as about zero
    H = fresh("gl2.classical", 2)
    for key, fn in ALL_CHECKS:
        c = fn(H)
        assert isinstance(c, Check) and c.name == key
        assert type(c.residuals) is list


def test_failing_check_json_and_text():
    H = fresh("gl2.classical")
    H.table.set_rule("J3", "Jp", H.table.gen("Jp", coeff=H.table.scalar(-2)))
    rep = VerificationReport(H.name, H.ring.order, [check_jacobi(H), check_counit(H)])
    assert [c.to_json() for c in rep.checks] == [
        {"name": "jacobi", "verdict": "fail", "residual": ["jacobi(Jp,J3,Jm) = (4)*J3"]},
        {"name": "counit", "verdict": "pass"},
    ]
    assert rep.to_text().splitlines() == [
        "gl2.classical  (order 3)",
        "  [FAIL] jacobi",
        "         residual: jacobi(Jp,J3,Jm) = (4)*J3",
        "  [PASS] counit",
    ]


def test_antipode_synthesis_failure_is_its_one_residual(monkeypatch):
    def diverge(H):
        raise SynthesisFailureError(f"antipode synthesis did not converge for {H.name}")

    monkeypatch.setattr(hopf, "solve_antipode", diverge)
    assert check_antipode(fresh("h4.xi", 2)).to_json() == {
        "name": "antipode", "verdict": "fail",
        "residual": ["antipode synthesis did not converge for h4.xi"]}
