import json

import pytest

from hopfc import catalog
from hopfc.algebra import mul
from hopfc.contraction import classical_limit, match_presentation
from hopfc.errors import LookupError_
from hopfc.hopf import verify_all

ALL_NAMES = [
    "gl2.II.nonstandard", "gl2.II.standard", "gl2.Iplus.nonstandard",
    "gl2.Iplus.standard", "gl2.classical", "h4.alphaplus", "h4.betaplus.theta",
    "h4.betaplus.xi", "h4.classical", "h4.xi", "h4.xi.theta",
]


def test_names():
    assert catalog.names() == ALL_NAMES


def test_unknown_name_lists_valid_ones():
    with pytest.raises(LookupError_) as exc:
        catalog.get("gl2.bogus")
    assert "gl2.classical" in str(exc.value)


def test_get_is_cached():
    assert catalog.get("h4.xi", 3) is catalog.get("h4.xi", 3)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dump_schema(name):
    d = catalog.dump(name, 2)
    assert d["name"] == name
    assert d["catalog_version"] == catalog.CATALOG_VERSION
    assert d["order"] == 2
    assert len(d["generators"]) == 4
    assert len(d["central"]) == 1
    assert len(d["relations"]) == 6
    assert set(d["coproducts"]) == set(d["generators"])
    json.dumps(d)   # round-trippable


def test_list_cases():
    cases = catalog.list_cases()
    assert [c["name"] for c in cases] == sorted(catalog.CASES)
    flags = {c["name"]: c["correlated"] for c in cases}
    assert flags == {"II.standard": False, "II.nonstandard": False,
                     "Iplus.standard": False, "Iplus.nonstandard": True}


def test_unknown_case():
    with pytest.raises(LookupError_):
        catalog.get_case("nope")


def test_classical_casimirs_explicitly():
    G = catalog.get("gl2.classical", 3)
    t = G.table
    want = (mul(t.gen("J3"), t.gen("J3"), t)
            + mul(t.gen("Jp"), t.gen("Jm"), t).scale(2)
            + mul(t.gen("Jm"), t.gen("Jp"), t).scale(2))
    assert G.casimir == want
    H = catalog.get("h4.classical", 3)
    s = H.table
    want_h = (mul(s.gen("N"), s.gen("M"), s).scale(2)
              - mul(s.gen("Ap"), s.gen("Am"), s)
              - mul(s.gen("Am"), s.gen("Ap"), s))
    assert H.casimir == want_h


def test_classical_limit_casimirs_are_exact():
    for name in ("gl2.II.standard", "gl2.Iplus.standard"):
        lim = classical_limit(catalog.get(name, 3), rename={"J3p": "J3"})
        m = match_presentation(lim, catalog.get("gl2.classical", 3))
        assert m.match, m.residuals
    lim = classical_limit(catalog.get("h4.alphaplus", 3))
    assert match_presentation(lim, catalog.get("h4.classical", 3)).match


@pytest.mark.parametrize("name", ALL_NAMES)
def test_truncation_consistency(name):
    # a presentation built at N=6 and truncated to N=4 is the N=4 build
    r4 = catalog.get(name, 4).ring
    cut = catalog.get(name, 6).to(r4)
    m = match_presentation(cut, catalog.get(name, 4))
    assert m.match, m.residuals


@pytest.mark.parametrize("name", ALL_NAMES)
def test_verdict_does_not_depend_on_which_series_form_was_read_first(name):
    # every coefficient read as {exponents: Fraction} first, as a dump reads
    # it, and then verified: the same report as a fresh build's
    want = verify_all(catalog._BUILDERS[name](4))
    H = catalog._BUILDERS[name](4)
    for t in [*H.table.rules.values(), *H.coproduct.values(), H.casimir or H.table.zero()]:
        for c in t.terms.values():
            assert c.terms
    got = verify_all(H)
    assert (json.dumps([c.to_json() for c in got.checks])
            == json.dumps([c.to_json() for c in want.checks]))
    assert got.to_text() == want.to_text()
