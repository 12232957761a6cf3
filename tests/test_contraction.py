import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hopfc import algebra, catalog, contraction
from hopfc.algebra import (GeneratorSet, RewriteTable, TensorElement, monomial_image, mul,
                           substitute_generators)
from hopfc.contraction import (
    ContractionCase,
    ParamImage,
    _combo_element,
    _transport,
    change_of_basis,
    classical_limit,
    contract_hopf,
    match_presentation,
    solve_min_exponents,
)
from hopfc.errors import DivergenceError, StructureError
from hopfc.hopf import HopfPresentation
from hopfc.series import EPS, ParamSpace, Ring

CASE_NAMES = sorted(catalog.CASES)


def wedge_terms(dim, wedges):
    """Terms of the full tensor sum of c * (X_i (x) X_j - X_j (x) X_i) over
    ``{(i, j): c}``, with generators given by their PBW position."""
    def e(k):
        return tuple(int(k == n) for n in range(dim))
    terms = {}
    for (i, j), c in wedges.items():
        terms[e(i), e(j)] = c
        terms[e(j), e(i)] = -c
    return terms


# ---------------------------------------------------------------------------
# minimal-exponent solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CASE_NAMES)
def test_solver_minima_and_coboundary(name):
    case = catalog.get_case(name)
    sol = solve_min_exponents(case)
    assert sol.r_min == case.expected_exponents
    assert sol.delta_min == case.expected_exponents
    assert sol.coboundary


def test_contracted_r_correlated():
    # the single surviving term N^Ap with the shared exponent n = 1
    sol = solve_min_exponents(catalog.get_case("Iplus.nonstandard"))
    rc = sol.r_contracted
    sp = rc.ring.space
    want = {(1, 2): Ring.exact(sp).symbol("alpha_plus",
                                          coeff=F(-1))}
    assert rc.terms == wedge_terms(4, want)


def test_contracted_r_two_parameter():
    sol = solve_min_exponents(catalog.get_case("Iplus.standard"))
    rc = sol.r_contracted
    sp = rc.ring.space
    want = {
        (0, 1): Ring.exact(sp).symbol("beta_plus", coeff=F(-1)),
        (1, 3): Ring.exact(sp).symbol("xi"),
    }
    assert rc.terms == wedge_terms(4, want)


def test_independent_parameters_need_higher_exponent():
    # decorrelating the two parameters of the triangular family forces
    # exponent 3 on each, and only one wedge term survives the limit
    case = catalog.get_case("Iplus.nonstandard")
    ind = dataclasses.replace(
        case,
        lie_param_map={"a_plus": ParamImage(F(1), 1, "alpha_1"),
                       "b_plus": ParamImage(F(-1), 1, "alpha_2")},
        lie_groups={"a_plus": "a_plus", "b_plus": "b_plus"},
    )
    sol = solve_min_exponents(ind)
    assert sol.r_min == {"a_plus": 3, "b_plus": 3}
    assert sol.delta_min == {"a_plus": 3, "b_plus": 3}
    assert sol.coboundary
    assert set(sol.r_contracted.terms) == set(wedge_terms(4, {(0, 1): 1}))


def test_scaling_map_round_trip():
    # forward after inverse, and inverse after forward, is the identity on
    # every generator, for both scaling maps in the catalog
    ring = Ring.exact(ParamSpace.make(("kappa", 0, False), EPS))
    for scaling, old_gens in ((catalog._scaling_j3(), catalog.GL2),
                              (catalog._scaling_j3p(), catalog.GL2P)):
        old = RewriteTable.commuting(old_gens, ring)
        new = RewriteTable.commuting(scaling.new_gens, ring)
        forward = {y: _combo_element(old, combo, None) for y, combo in scaling.forward.items()}
        inverse = {x: _combo_element(new, combo, None) for x, combo in scaling.inverse.items()}
        for x in old_gens.names:
            assert substitute_generators(inverse[x], forward, old) == old.gen(x)
        for y in scaling.new_gens.names:
            assert substitute_generators(forward[y], inverse, new) == new.gen(y)


# ---------------------------------------------------------------------------
# quantum contraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CASE_NAMES)
def test_contract_matches_target(name):
    case = catalog.get_case(name)
    got = contract_hopf(case, 3)
    m = match_presentation(got, catalog.get(case.target, 3))
    assert m.match, m.residuals


def test_contract_casimir_value():
    case = catalog.get_case("II.nonstandard")
    assert contract_hopf(case, 3).casimir == catalog.get(case.target, 3).casimir


DIVERGENT = [
    ("II.standard", "a"), ("II.standard", "b"),
    ("II.nonstandard", "b"), ("II.nonstandard", "b_plus"),
    ("Iplus.standard", "a"), ("Iplus.standard", "kappa"),
    ("Iplus.nonstandard", "a_plus"),
]


@pytest.mark.parametrize("name,param", DIVERGENT)
def test_exponent_one_below_minimum_diverges(name, param):
    case = catalog.get_case(name)
    n = case.param_map[param].eps_exp
    with pytest.raises(DivergenceError):
        contract_hopf(case, 3, force_exponents={param: n - 1})


def test_coproduct_slot_coefficients_of_contracted_source():
    # two deformed terms of Delta(Jm) in the twist family: the J3 (x) I term
    # carries -b_plus/2 and the Jp (x) I^2 term carries -b_plus^2/4
    H = catalog.get("gl2.II.nonstandard", 3)
    terms = H.coproduct["Jm"].terms
    mono = {n: tuple(1 if g == n else 0 for g in H.gens.names)
            for n in H.gens.names}
    i_sq = tuple(2 if g == "I" else 0 for g in H.gens.names)
    c1 = terms[(mono["J3"], mono["I"])]
    assert c1 == Ring(H.ring.space, 3).symbol("b_plus", coeff=F(-1, 2))
    c2 = terms[(mono["Jp"], i_sq)]
    want2 = (Ring(H.ring.space, 3).symbol("b_plus")
             * Ring(H.ring.space, 3).symbol("b_plus")) * F(-1, 4)
    assert c2 == want2


def test_inline_classical_contraction():
    # the parameter-free oscillator limit of the classical algebra, with the
    # quadratic central counterterm
    case = ContractionCase(
        name="classical",
        source="gl2.classical",
        target="h4.classical",
        scaling=catalog._scaling_j3(),
        param_map={},
        lie_r_name="gl2.II.standard",
        lie_param_map={},
        lie_groups={},
        target_params=(),
        casimir_counterterm=catalog._ct_half_i_sq,
    )
    got = contract_hopf(case, 3)
    m = match_presentation(got, catalog.get("h4.classical", 3))
    assert m.match, m.residuals


# ---------------------------------------------------------------------------
# change of basis and classical limits
# ---------------------------------------------------------------------------

def test_basis_change_removes_ratio_parameter():
    H = catalog.get("h4.betaplus.xi", 3)
    primed = change_of_basis(H, catalog.basis_change_map(3))
    m = match_presentation(primed, catalog.get("h4.xi", 3))
    assert m.match, m.residuals


def test_basis_change_identity_is_noop():
    H = catalog.get("h4.xi", 3)
    fwd = {n: H.table.gen(n) for n in H.gens.names}
    m = match_presentation(change_of_basis(H, fwd), H)
    assert m.match, m.residuals


def test_contract_then_basis_change_chain():
    case = catalog.get_case("Iplus.standard")
    got = contract_hopf(case, 3)
    m = match_presentation(got, catalog.get("h4.betaplus.xi", 3))
    assert m.match, m.residuals
    primed = change_of_basis(catalog.get("h4.betaplus.xi", 3),
                             catalog.basis_change_map(3))
    m2 = match_presentation(primed, catalog.get("h4.xi", 3))
    assert m2.match, m2.residuals


@pytest.mark.parametrize("name,classical", [
    ("gl2.II.standard", "gl2.classical"),
    ("gl2.II.nonstandard", "gl2.classical"),
    ("gl2.Iplus.standard", "gl2.classical"),
    ("gl2.Iplus.nonstandard", "gl2.classical"),
    ("h4.xi.theta", "h4.classical"),
    ("h4.xi", "h4.classical"),
    ("h4.betaplus.theta", "h4.classical"),
    ("h4.betaplus.xi", "h4.classical"),
    ("h4.alphaplus", "h4.classical"),
])
def test_classical_limits(name, classical):
    lim = classical_limit(catalog.get(name, 3), rename={"J3p": "J3"})
    m = match_presentation(lim, catalog.get(classical, 3))
    assert m.match, m.residuals


@pytest.mark.parametrize("name", CASE_NAMES)
def test_contraction_commutes_with_truncation(name):
    case = catalog.get_case(name)
    want = contract_hopf(case, 4)
    cut = contract_hopf(case, 6).to(want.ring)
    m = match_presentation(cut, want)
    assert m.match, m.residuals


def test_match_residual_is_rendered_like_every_other_residual():
    H = catalog._BUILDERS["gl2.classical"](4)
    t = H.table
    t.set_rule("J3", "Jp", t.gen("Jp", coeff=t.scalar(-2)))
    m = match_presentation(H, catalog.get("gl2.classical", 4))
    assert m.match is False
    assert [str(r) for r in m.residuals] == ["rule [J3,Jp]: (-4)*Jp"]


def _h4_counit_m_two():
    H = catalog._BUILDERS["h4.classical"](3)
    H.counit["M"] = F(2)
    return H


def _h4_without_casimir():
    H = catalog._BUILDERS["h4.classical"](3)
    H.casimir = None
    return H


def _gl2_limit_in_j3p():
    return classical_limit(catalog.get("gl2.Iplus.standard", 3))


@pytest.mark.parametrize("make, target, lines", [
    (_h4_counit_m_two, "h4.classical", ["counit(M): 2 vs 0"]),
    (_h4_without_casimir, "h4.classical", ["casimir present on one side only"]),
    (_gl2_limit_in_j3p, "gl2.classical",
     ["generator mismatch: ('I', 'Jp', 'J3p', 'Jm') vs ('I', 'Jp', 'J3', 'Jm')"]),
], ids=["counit", "casimir", "generators"])
def test_match_residual_lines(make, target, lines):
    # the report lines of a failing match, which no benchmark invocation reaches
    m = match_presentation(make(), catalog.get(target, 3))
    assert m.match is False
    assert [str(r) for r in m.residuals] == lines


# ---------------------------------------------------------------------------
# the transport's one monomial-image memo
# ---------------------------------------------------------------------------

def _same_presentation(a, b):
    return (a.name == b.name and a.ring == b.ring and a.gens == b.gens
            and a.table.rules == b.table.rules and a.coproduct == b.coproduct
            and a.counit == b.counit and a.casimir == b.casimir)


@pytest.fixture
def every_fill_clears(monkeypatch):
    """Every ``set_rule_by_index`` empties the normal-form cache and reports
    it, so the transport drops its memo after each rule: a fresh memo per
    moved rule."""
    orig = RewriteTable.set_rule_by_index

    def clearing(table, i, j, rhs):
        orig(table, i, j, rhs)
        table._nf_cache, table._rule_parts = {}, {}
        return True

    return lambda: monkeypatch.setattr(RewriteTable, "set_rule_by_index", clearing)


@pytest.fixture
def unshared(monkeypatch):
    """No monomial image outlives one ``substitute_generators`` call in
    ``contraction``, and each sliced call bounds its images afresh; the
    substitution, the slice and its context are passed on."""
    def fresh_memo(x, images, table, sub=None, memo=None, bounds=None, context=""):
        fresh = bounds and algebra._slice_bounds(x.gens, images, table, bounds[0])
        return substitute_generators(x, images, table, sub, None, fresh, context)

    return lambda: monkeypatch.setattr(contraction, "substitute_generators", fresh_memo)


@pytest.mark.parametrize("order", [4, 6, 8])
@pytest.mark.parametrize("name", CASE_NAMES)
def test_contraction_is_the_same_without_a_shared_memo(name, order, every_fill_clears,
                                                       unshared):
    case = catalog.get_case(name)
    shared = contract_hopf(case, order)
    every_fill_clears()
    assert _same_presentation(contract_hopf(case, order), shared)
    unshared()
    assert _same_presentation(contract_hopf(case, order), shared)


def _chain_basis_map(order):
    # Ap' = Ap + xi N and N' = N + xi Am: the inverse takes two rounds
    t = catalog.get("h4.xi", order).table
    xi = t.sym("xi")
    return {"M": t.gen("M"), "Ap": t.gen("Ap") + t.gen("N", coeff=xi),
            "N": t.gen("N") + t.gen("Am", coeff=xi), "Am": t.gen("Am")}


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("source, make_map", [
    ("h4.betaplus.xi", catalog.basis_change_map), ("h4.xi", _chain_basis_map),
], ids=["catalog", "chain"])
def test_basis_change_is_the_same_without_a_shared_memo(source, make_map, order,
                                                        every_fill_clears, unshared):
    H, fwd = catalog.get(source, order), make_map(order)
    shared = change_of_basis(H, fwd)
    every_fill_clears()
    assert _same_presentation(change_of_basis(H, fwd), shared)
    unshared()
    assert _same_presentation(change_of_basis(H, fwd), shared)


def _transport_that_refills_a_read_rule():
    """A transport over h4.classical in which a move reads the scaffold's
    (Am, Ap) rule while it is still zero, and a later fill replaces it: the
    old M goes to M + Am, and N' = N + Ap Am, Am' = Am + M Ap."""
    H = catalog.get("h4.classical", 3)
    t = H.table
    forward = {n: t.gen(n) for n in H.gens.names}
    forward["N"] = forward["N"] + mul(t.gen("Ap"), t.gen("Am"), t)
    forward["Am"] = forward["Am"] + mul(t.gen("M"), t.gen("Ap"), t)
    table = RewriteTable.commuting(H.gens, H.ring)
    inverse = {n: table.gen(n) for n in H.gens.names}
    inverse["M"] = inverse["M"] + table.gen("Am")
    coproduct, casimir = _transport(H, forward, inverse, table, H.casimir)
    return table.rules, coproduct, casimir


def test_a_fill_that_replaces_a_read_rule_drops_the_memo(monkeypatch, every_fill_clears,
                                                         unshared):
    cleared = []
    orig = RewriteTable.set_rule_by_index

    def recorded(table, i, j, rhs):
        cleared.append(orig(table, i, j, rhs))
        return cleared[-1]

    monkeypatch.setattr(RewriteTable, "set_rule_by_index", recorded)
    got = _transport_that_refills_a_read_rule()
    assert cleared == [False, False, False, False, True, False]    # the (Am, Ap) fill
    every_fill_clears()
    assert got == _transport_that_refills_a_read_rule()
    unshared()
    assert got == _transport_that_refills_a_read_rule()


def test_contraction_work_bound(monkeypatch):
    # the transport reuses monomial images across rules, and builds each
    # only down to the eps powers that the slice reads: 280 term pairs here,
    # against 2,911 with images in full, and 6,641 in full with a fresh memo
    # per rule
    case = catalog.get_case("Iplus.standard")
    catalog.get(case.source, 8)
    pairs = []
    orig = algebra._slot_product

    def counted(x, y, table):
        pairs.append(len(x.terms) * len(y.terms))
        return orig(x, y, table)

    monkeypatch.setattr(algebra, "_slot_product", counted)
    contract_hopf(case, 8)
    assert sum(pairs) <= 280


# ---------------------------------------------------------------------------
# monomial images only down to the eps powers that the slice reads
# ---------------------------------------------------------------------------

@pytest.fixture
def in_full(monkeypatch):
    """Every substitution in ``contraction`` builds its images in full and
    takes the zero slice afterwards, as before the bound."""
    def full_then_slice(x, images, table, sub=None, memo=None, bounds=None, context=""):
        y = substitute_generators(x, images, table, sub, memo)
        return y if bounds is None else y.zero_slice(bounds[0], context)

    return lambda: monkeypatch.setattr(contraction, "substitute_generators", full_then_slice)


@pytest.mark.parametrize("order", [4, 8, 12])
@pytest.mark.parametrize("name", CASE_NAMES)
def test_bounded_images_contract_exactly(name, order, in_full):
    case = catalog.get_case(name)
    bounded = contract_hopf(case, order)
    in_full()
    assert _same_presentation(contract_hopf(case, order), bounded)


@pytest.mark.parametrize("name,param", DIVERGENT)
def test_bounded_images_diverge_with_the_same_message(name, param, in_full):
    case = catalog.get_case(name)
    force = {param: case.param_map[param].eps_exp - 1}
    with pytest.raises(DivergenceError) as bounded:
        contract_hopf(case, 3, force_exponents=force)
    in_full()
    with pytest.raises(DivergenceError) as full:
        contract_hopf(case, 3, force_exponents=force)
    assert str(bounded.value) == str(full.value)


@pytest.mark.parametrize("name,param", DIVERGENT)
def test_a_divergence_message_does_not_depend_on_key_order(name, param, monkeypatch):
    # every raw dict reversed before each slice: the same term is named
    case = catalog.get_case(name)
    force = {param: case.param_map[param].eps_exp - 1}
    with pytest.raises(DivergenceError) as kept:
        contract_hopf(case, 3, force_exponents=force)
    orig = TensorElement.zero_slice

    def reversed_first(x, symbol, context=""):
        d, t = x.raw
        flipped = {k: dict(reversed(u.items())) for k, u in reversed(t.items())}
        return orig(x._with((d, flipped)), symbol, context)

    monkeypatch.setattr(TensorElement, "zero_slice", reversed_first)
    with pytest.raises(DivergenceError) as reordered:
        contract_hopf(case, 3, force_exponents=force)
    assert str(reordered.value) == str(kept.value)


def test_a_bound_one_too_tight_is_not_exact(monkeypatch, in_full):
    # every term's slack one lower: the images lose terms that reach eps^0
    orig = algebra._slice_bounds

    def tighter(*args):
        name, slack, trim = orig(*args)
        return name, (lambda t, ms: slack(t, ms) - 1), trim

    case = catalog.get_case("Iplus.standard")
    monkeypatch.setattr(contraction, "_slice_bounds", tighter)
    tight = contract_hopf(case, 4)
    in_full()
    assert not _same_presentation(contract_hopf(case, 4), tight)


@pytest.fixture(scope="module")
def iplus_transport():
    """The source generators, inverse images and filled scaffold of the
    ``Iplus.standard`` contraction at order 4, and their slice bounds."""
    seen, orig = [], contraction._slice_bounds

    def recorded(gens, images, table, name):
        seen.append((gens, images, table))
        return orig(gens, images, table, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contraction, "_slice_bounds", recorded)
        contract_hopf(catalog.get_case("Iplus.standard"), 4)
    gens, images, table = seen[-1]
    return gens, images, table, algebra._slice_bounds(gens, images, table, EPS)


@settings(max_examples=60, deadline=None)
@given(m=st.tuples(*[st.integers(0, 2)] * 4).filter(lambda m: sum(m) <= 4),
       slack=st.integers(0, 4), lower=st.integers(0, 5))
def test_an_image_at_a_slack_is_the_whole_image_trimmed(iplus_transport, m, slack, lower):
    # built at slack s, the image of m is the whole image cut at eps power
    # low(m) + s (nothing lies below low(m)), and its memo entry serves
    # every slack at or below s with no further product
    gens, images, table, (_, _, trim) = iplus_transport
    products = []

    def product(a, b):
        products.append(1)
        return mul(a, b, table)

    def image(memo, s):
        return monomial_image(m, gens, images, table.one(), product, memo, s, trim)

    whole, memo = monomial_image(m, gens, images, table.one(), product, {}), {}
    assert not trim(whole, m, -1)
    assert image(memo, slack) == trim(whole, m, slack)
    products.clear()
    assert trim(image(memo, slack - lower), m, slack - lower) == trim(whole, m, slack - lower)
    assert products == []


def _scaffold_normal_forms(monkeypatch, case, order):
    """The words normal-formed over the scaffold of ``contract_hopf``: its
    normal-form cache at the end, plus each cache that a fill emptied."""
    tables, emptied = [], []
    commuting, fill = RewriteTable.commuting.__func__, RewriteTable.set_rule_by_index

    def recorded(cls, gens, ring):
        tables.append(commuting(cls, gens, ring))
        return tables[-1]

    def counted(table, i, j, rhs):
        n = len(table._nf_cache)
        cleared = fill(table, i, j, rhs)
        emptied.append(n if cleared else 0)
        return cleared

    monkeypatch.setattr(RewriteTable, "commuting", classmethod(recorded))
    monkeypatch.setattr(RewriteTable, "set_rule_by_index", counted)
    contract_hopf(case, order)
    return sum(emptied) + len(tables[-1]._nf_cache)


def test_bounded_images_normal_form_fewer_words(monkeypatch, in_full):
    # the image of J3p^k, (2N - eps^-2 M + 2 mu Ap)^k, is built only down
    # to its eps^-2k M^k term
    case = catalog.get_case("Iplus.standard")
    catalog.get(case.source, 8)
    assert _scaffold_normal_forms(monkeypatch, case, 8) == 86
    in_full()
    assert _scaffold_normal_forms(monkeypatch, case, 8) == 1772


def test_a_sliced_substitution_refuses_a_rule_with_the_slice_symbol(monkeypatch):
    # plant eps in the first nonzero scaffold rule: normal forms would no
    # longer keep each term's eps power, so the next substitution refuses
    fill, planted = RewriteTable.set_rule_by_index, []

    def with_eps(table, i, j, rhs):
        if rhs and not planted:
            planted.append((i, j))
            rhs = rhs + table.gen(table.gens.names[j], coeff=table.sym(EPS))
        return fill(table, i, j, rhs)

    monkeypatch.setattr(RewriteTable, "set_rule_by_index", with_eps)
    with pytest.raises(StructureError, match="carries eps"):
        contract_hopf(catalog.get_case("Iplus.standard"), 4)
    assert planted


# ---------------------------------------------------------------------------
# coefficient maps prepared once: no move on equal rings, one lookup per
# coefficient in the classical limit, slice bounds once per transport
# ---------------------------------------------------------------------------

#: every deformed presentation and the classical one its limit matches
CLASSICAL = [(n, "gl2.classical" if n.startswith("gl2.") else "h4.classical")
             for n in catalog.names() if not n.endswith(".classical")]


def test_match_presentation_moves_neither_side_when_the_rings_agree(monkeypatch):
    # the 4 contractions and the 9 classical limits at N=8, as the
    # benchmark matches them: every pair shares one ring
    cases = [catalog.get_case(n) for n in CASE_NAMES]
    pairs = [(contract_hopf(c, 8), catalog.get(c.target, 8)) for c in cases]
    pairs += [(classical_limit(catalog.get(n, 8), rename={"J3p": "J3"}), catalog.get(t, 8))
              for n, t in CLASSICAL]
    assert len(pairs) == 13
    moved, to = [], HopfPresentation.to
    monkeypatch.setattr(HopfPresentation, "to",
                        lambda H, ring: moved.append(H.name) or to(H, ring))
    for got, want in pairs:
        assert got.ring == want.ring
        m = match_presentation(got, want)
        assert m.match, m.residuals
    assert moved == []


@pytest.mark.parametrize("name", ["gl2.II.standard", "gl2.Iplus.standard", "h4.xi.theta"])
def test_a_mismatch_on_equal_rings_renders_as_on_the_union_ring(name):
    # one coproduct term, the one with the longest coefficient, flips sign
    bad, good = catalog._BUILDERS[name](8), catalog.get(name, 8)
    g = max(bad.gens.names,
            key=lambda n: max(len(str(c)) for c in bad.coproduct[n].terms.values()))
    d = bad.coproduct[g]
    terms = d.terms
    k = max(terms, key=lambda k: len(str(terms[k])))
    terms[k] = -terms[k]
    bad.coproduct[g] = TensorElement(2, d.gens, d.ring, terms)
    m = match_presentation(bad, good)
    ring = Ring.exact(bad.ring.space.union(good.ring.space))
    union = match_presentation(bad.to(ring), good.to(ring))
    assert m.match is False
    assert [str(r) for r in m.residuals] == [str(r) for r in union.residuals]
    assert m.to_json() == union.to_json()


def symbol_by_symbol_limit(H, rename=None):
    """The classical limit as a slice per parameter, then a move to the
    parameterless ring."""
    names = tuple(rename.get(n, n) if rename else n for n in H.gens.names)
    ring = dataclasses.replace(H.ring, space=ParamSpace.make())
    gens = GeneratorSet(names, H.gens.central)

    def limit(x):
        for s in H.ring.space.symbols:
            x = x.zero_slice(s)
        return x.to(ring, gens)

    return H.map_tensors(limit, ring, gens)


@pytest.mark.parametrize("name,classical", CLASSICAL)
def test_classical_limit_keeps_what_the_symbol_by_symbol_slice_keeps(name, classical):
    H = catalog.get(name, 8)
    got = classical_limit(H, rename={"J3p": "J3"})
    want = symbol_by_symbol_limit(H, rename={"J3p": "J3"})
    assert got.table.rules == want.table.rules and got.casimir == want.casimir
    assert got.coproduct == want.coproduct and got.ring == want.ring
    assert [list(x.raw[1]) for x in got.coproduct.values()] == \
        [list(x.raw[1]) for x in want.coproduct.values()]


def _with_eps(name, scale):
    """``name`` at order 4 over its space and an invertible eps, each
    coproduct times the monomial ``scale`` (exponents by symbol)."""
    H = catalog.get(name, 4)
    ring = Ring(H.ring.space.union(ParamSpace.make(EPS)), 4)
    H = H.to(ring)
    H.coproduct = {n: d.scale(ring.term(scale)) for n, d in H.coproduct.items()}
    return H


@pytest.mark.parametrize("scale", [{EPS: -1}, {"a": 1, EPS: -1}, {EPS: 1}, {"b": 1, EPS: -2}])
def test_classical_limit_with_a_negative_power_slices_symbol_by_symbol(scale):
    # a negative eps power raises the DivergenceError of the symbol-by-symbol
    # slice, naming eps; one under a positive power of a symbol sliced
    # before it is dropped, as there
    H = _with_eps("gl2.II.standard", scale)
    try:
        want = symbol_by_symbol_limit(H)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as got:
            classical_limit(H)
        assert str(got.value) == str(exc) and "eps" in str(exc)
        return
    got = classical_limit(H)
    assert got.coproduct == want.coproduct and got.table.rules == want.table.rules


def test_a_standalone_sliced_substitution_checks_every_rule():
    # a standalone caller builds the slice's bounds itself, and building
    # them refuses a rule that carries the slice symbol
    ring = Ring.exact(ParamSpace.make("a", EPS))
    gens = GeneratorSet.make(["X", "Y"])
    table = RewriteTable.commuting(gens, ring)
    images = {n: table.gen(n) for n in gens.names}
    x = mul(table.gen("Y"), table.gen("X"), table)
    bounds = algebra._slice_bounds(gens, images, table, EPS)
    assert substitute_generators(x, images, table, bounds=bounds) == x
    table.set_rule("Y", "X", table.gen("X", coeff=table.sym(EPS)))
    with pytest.raises(StructureError, match="carries eps"):
        algebra._slice_bounds(gens, images, table, EPS)
