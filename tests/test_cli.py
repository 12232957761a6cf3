import dataclasses
import json
from fractions import Fraction as F

import pytest

from hopfc import catalog, cli
from hopfc.cli import main
from hopfc.series import EXACT_ORDER


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == catalog.names()


def test_verify_pass(capsys):
    assert main(["verify", "gl2.classical", "--order", "3"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_verify_unknown_name(capsys):
    assert main(["verify", "gl2.bogus"]) == 2
    assert "valid names" in capsys.readouterr().err


def test_verify_no_names(capsys):
    assert main(["verify"]) == 2


def test_bad_order():
    assert main(["verify", "gl2.classical", "--order", "0"]) == 2


@pytest.mark.parametrize("argv", [["verify", "gl2.classical"], ["verify", "gl2.II.standard"],
                                  ["contract", "II.standard"], ["rmatrix", "gl2.II.nonstandard"]])
def test_an_order_from_the_exact_bound_up_is_refused(argv, capsys):
    # EXACT_ORDER is the untruncated ring's order: taken as a truncation
    # order it would run in exact mode, or refuse the generator functions
    for order in (EXACT_ORDER, EXACT_ORDER + 1):
        assert main(argv + ["--order", str(order)]) == 2
        captured = capsys.readouterr()
        assert f"--order must be >= 1 and below {EXACT_ORDER}" in captured.err
        assert not captured.out
    # the bound is exact: one below it passes the check (--list does no work)
    assert main(["verify", "--list", "--order", str(EXACT_ORDER - 1)]) == 0


def test_contract_list(capsys):
    assert main(["contract", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all("source" in json.loads(ln) for ln in lines)


def test_contract_pass(capsys):
    assert main(["contract", "Iplus.nonstandard", "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "min_exponents" in out and "FAIL" not in out


def test_contract_with_basis_change():
    assert main(["contract", "Iplus.standard", "--order", "3",
                 "--then-basis-change"]) == 0


def test_basis_change_wrong_case(capsys):
    assert main(["contract", "II.standard", "--order", "3",
                 "--then-basis-change"]) == 2


def test_basis_change_wrong_case_fails_before_any_case_runs(capsys, monkeypatch):
    # the case --then-basis-change does not apply to comes second
    def unreachable(case):
        raise AssertionError(f"{case.name} ran before --then-basis-change was checked")

    monkeypatch.setattr("hopfc.cli.solve_min_exponents", unreachable)
    assert main(["contract", "Iplus.standard", "II.standard", "--then-basis-change",
                 "--order", "8"]) == 2
    assert "not II.standard" in capsys.readouterr().err


def test_failing_exponent_checks_list_the_mismatched_groups(capsys, monkeypatch):
    case = catalog.get_case("II.standard")
    altered = dataclasses.replace(case, expected_exponents={"a": 2, "b": 3})
    monkeypatch.setattr(catalog, "get_case", lambda name: altered)
    real = cli.solve_min_exponents
    monkeypatch.setattr(cli, "solve_min_exponents", lambda c: dataclasses.replace(
        real(c), delta_min={"a": 3, "b": 2}))
    assert main(["contract", "II.standard", "--order", "2", "--format", "json"]) == 1
    minima, coboundary, match = json.loads(capsys.readouterr().out)["checks"]
    assert list(minima) == ["name", "verdict", "residual", "details"]
    assert (minima["verdict"], minima["residual"]) == ("fail", ["group b: 2 vs 3"])
    assert coboundary == {
        "name": "II.standard.coboundary", "verdict": "fail", "residual": ["group a: 2 vs 3"],
        "details": "r minima {'a': 2, 'b': 2} vs delta minima {'a': 3, 'b': 2}"}
    assert match["verdict"] == "pass" and match["residual"] == []


def test_forced_exponent_divergence(capsys):
    assert main(["contract", "Iplus.standard", "--order", "3",
                 "--force-exponent", "a=1"]) == 3
    assert "divergen" in capsys.readouterr().err


def test_force_exponent_unknown_key(capsys):
    assert main(["contract", "Iplus.nonstandard", "--order", "2",
                 "--force-exponent", "zzz=1"]) == 2
    err = capsys.readouterr().err
    assert "'zzz'" in err and "['a_plus', 'lam']" in err


def test_bad_force_syntax():
    assert main(["contract", "Iplus.standard", "--force-exponent", "a"]) == 2


def test_rmatrix_default_runs_qybe(capsys):
    assert main(["rmatrix", "gl2.II.nonstandard", "--order", "3"]) == 0
    assert "qybe" in capsys.readouterr().out


def test_rmatrix_exact(capsys):
    assert main(["rmatrix", "gl2.Iplus.standard", "--exact-r", "--qybe"]) == 0


def _plant_counit_fault(monkeypatch, faulty):
    """Make ``catalog.get(faulty, ...)`` hand out a fresh build whose first
    generator has counit 1: its counit check fails, and so does a match
    against it."""
    real = catalog.get

    def get(name, order=catalog.DEFAULT_ORDER):
        if name != faulty:
            return real(name, order)
        H = catalog._BUILDERS[name](order)
        H.counit[H.gens.names[0]] = F(1)
        return H

    monkeypatch.setattr(catalog, "get", get)


def test_verify_failure_exits_one(capsys, monkeypatch):
    # the faulty algebra comes first: a later passing one must not mask it
    _plant_counit_fault(monkeypatch, "gl2.classical")
    assert main(["verify", "gl2.classical", "h4.classical", "--order", "2",
                 "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in report["checks"] if c["verdict"] == "fail"]
    assert "gl2.classical.counit" in failed
    assert not [n for n in failed if n.startswith("h4.")]


def test_contract_failure_exits_one(capsys, monkeypatch):
    _plant_counit_fault(monkeypatch, catalog.get_case("II.standard").target)
    assert main(["contract", "II.standard", "Iplus.nonstandard", "--order", "2",
                 "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in report["checks"] if c["verdict"] == "fail"]
    assert failed == ["II.standard.match_target"]


def test_rmatrix_exp_check():
    assert main(["rmatrix", "gl2.II.nonstandard", "--exp-check",
                 "--order", "3"]) == 0


@pytest.mark.parametrize("flag", [["--exact-r"], ["--limit", "a"]])
def test_rmatrix_exp_check_refuses_exact_or_sliced_matrix(capsys, flag):
    # exp(r) is compared with the truncated series R, so an exact or sliced R
    # asked for alongside it is a usage error, not silently dropped
    argv = ["rmatrix", "gl2.Iplus.standard", "--exp-check", "--order", "3", *flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--exp-check" in err and flag[0] in err


def test_rmatrix_failing_text_report_shows_eight_residual_lines(capsys):
    # exp(r) and R differ in 9 entries at N=3; the report lists the first 8
    assert main(["rmatrix", "gl2.Iplus.standard", "--exp-check", "--order", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [
        f"rmatrix  (catalog {catalog.CATALOG_VERSION})",
        "  [FAIL] exp_check",
        "         residual: (0, 1): -1/2*a*a_plus + -1/6*a^2*a_plus",
        "         residual: (0, 2): 1/2*a*a_plus + 2/3*a^2*a_plus",
        "         residual: (0, 3): -1/4*a*a_plus^2",
        "         residual: (1, 1): -1*a + -1*a^2 + -1/6*a^3",
        "         residual: (1, 2): 1*a + 2*a^2 + 3/2*a^3",
        "         residual: (1, 3): -1/2*a*a_plus + -2/3*a^2*a_plus",
        "         residual: (2, 1): 1*a + -1/6*a^3",
        "         residual: (2, 2): -1*a + -1*a^2 + -1/6*a^3",
    ]
    assert lines[-1].startswith("  elapsed: ")


def test_rmatrix_triangularity_fails_on_full_matrix():
    assert main(["rmatrix", "gl2.Iplus.standard", "--triangularity",
                 "--order", "3"]) == 1


def test_rmatrix_limit_then_triangularity():
    assert main(["rmatrix", "gl2.Iplus.standard", "--limit", "a",
                 "--triangularity", "--order", "3"]) == 0


def test_rmatrix_limit_unknown_symbol(capsys):
    assert main(["rmatrix", "gl2.II.nonstandard", "--order", "2", "--limit", "zz"]) == 2
    err = capsys.readouterr().err
    assert "'zz'" in err and "['b', 'b_plus']" in err


def test_rmatrix_unknown():
    assert main(["rmatrix", "bogus"]) == 2


def test_dump_to_file(tmp_path):
    out = tmp_path / "dump.json"
    assert main(["dump", "h4.xi", "--order", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["name"] == "h4.xi"


def test_dump_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump", "h4.xi", "--format", "text"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_json_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        assert main(["verify", "h4.xi", "--order", "3", "--format", "json",
                     "--out", str(p)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    for r in (ra, rb):
        r.pop("timing")
        r["config"].pop("out")
    assert ra == rb


def test_rmatrix_limit_rejects_a_value(capsys):
    # --limit takes a symbol, not an assignment: a=5 is no symbol of the matrix
    assert main(["rmatrix", "gl2.Iplus.standard", "--order", "2", "--limit", "a=5"]) == 2
    assert "'a=5'" in capsys.readouterr().err


def test_rmatrix_without_check_flags_runs_qybe_only(capsys):
    # no check flag means QYBE alone, even for a matrix that fails
    # --triangularity
    assert main(["rmatrix", "gl2.Iplus.standard", "--order", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == ["qybe"]


@pytest.mark.parametrize("argv", [["verify", "gl2.classical", "--order", "2"],
                                  ["dump", "gl2.classical", "--order", "2"]],
                         ids=["verify", "dump"])
def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "report"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hopfc: cannot write") and str(out) in err
    assert not out.exists()


def _unreachable(*args, **kwargs):
    raise AssertionError("work ran before the --out path was checked")


@pytest.mark.parametrize("argv, module, attr", [
    (["verify", "gl2.II.standard", "--order", "8"], "hopfc.cli", "verify_all"),
    (["contract", "II.standard", "--order", "8"], "hopfc.cli", "solve_min_exponents"),
    (["rmatrix", "gl2.Iplus.standard", "--order", "8"], "hopfc.rmatrix", "get_rmat"),
    (["dump", "gl2.II.standard", "--order", "8"], "hopfc.catalog", "dump"),
], ids=["verify", "contract", "rmatrix", "dump"])
def test_unwritable_out_path_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                   argv, module, attr):
    monkeypatch.setattr(f"{module}.{attr}", _unreachable)
    out = tmp_path / "missing" / "report"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hopfc: cannot write {out}: ")


def test_out_path_check_leaves_no_file_behind(tmp_path):
    # a command that writes no report (here --list) leaves no empty file
    out = tmp_path / "report"
    assert main(["verify", "--list", "--out", str(out)]) == 0
    assert not out.exists()
    out.write_text("kept\n")
    assert main(["verify", "--list", "--out", str(out)]) == 0
    assert out.read_text() == "kept\n"
