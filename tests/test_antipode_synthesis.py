"""The graded antipode synthesis and the memoized Hopf-map extension change
how much work a check does, never what it finds: the synthesized S equals
the plain full-order iteration, a verdict does not depend on which caches
are warm, and the work stays below fixed call counts.  The antipode defect
m(S x id)Delta(X) - eps(X) 1 equals its term-by-term sum, and its path stays
fused."""

import dataclasses
from fractions import Fraction as F

import pytest

from hopfc import algebra, catalog, hopf
from hopfc.algebra import TensorElement, lincomb, mul
from hopfc.hopf import (_antipode_round, antipode_defect, check_coassociativity,
                        solve_antipode, verify_all)
from hopfc.series import ParamSpace, Ring

ALL_NAMES = catalog.names()


def plain_antipode(H):
    """The full-order iteration from S = -X, with no warm start and no memo."""
    S = {n: -H.gen(n) for n in H.gens.names}
    for _ in range(H.ring.order + 2):
        defects = {n: antipode_defect(H, S, n, "left") for n in H.gens.names}
        if all(d.is_zero() for d in defects.values()):
            return S
        S = {n: S[n] - defects[n] for n in H.gens.names}
    raise AssertionError(f"plain iteration did not converge for {H.name}")


@pytest.mark.parametrize("name, order", [(n, 4) for n in ALL_NAMES] + [
    ("gl2.II.standard", 5),
    ("gl2.Iplus.nonstandard", 5),   # carries the weight-0 symbol lam
])
def test_graded_antipode_equals_plain_iteration(name, order):
    H = catalog.get(name, order)
    assert solve_antipode(H) == plain_antipode(H)


@pytest.mark.parametrize("name", ["gl2.classical", "h4.classical"])
def test_exact_ring_antipode_is_negation(name):
    H = catalog.get(name, 4)
    exact = Ring.exact(H.ring.space)
    assert exact.lower_orders() == []
    He = H.to(exact)
    S = solve_antipode(He)
    assert S == plain_antipode(He) == {n: -He.gen(n) for n in He.gens.names}


def test_lower_orders():
    ring = catalog.get("gl2.II.standard", 4).ring
    assert [r.order for r in ring.lower_orders()] == [1, 2, 3]
    assert all((r.space, r.floor) == (ring.space, ring.floor) for r in ring.lower_orders())
    # eps^-1 * eps^2 has weight 1, though eps^2 alone is cut at order 1
    assert Ring(ParamSpace.make("a", "eps"), 4).lower_orders() == []
    # a weight-0 invertible symbol leaves every weighted degree alone
    assert len(Ring(ParamSpace.make("a", ("B", 0, True)), 4).lower_orders()) == 3


@pytest.mark.parametrize("name", ALL_NAMES)
def test_verdict_does_not_depend_on_cache_warmth(name):
    H = catalog._BUILDERS[name](4)
    cold = [c.to_json() for c in verify_all(H).checks]
    assert [c.to_json() for c in verify_all(H).checks] == cold
    assert [c.to_json() for c in verify_all(catalog.get(name, 4)).checks] == cold


def _count_calls(monkeypatch, module, fname):
    calls = []
    orig = getattr(module, fname)

    def counted(*args):
        calls.append(None)
        return orig(*args)

    monkeypatch.setattr(module, fname, counted)
    return calls


def test_work_guard(monkeypatch):
    # a deterministic bound on the work of the two checks the memo and the
    # warm start speed up; without them these counts are 2786 and 564
    H = catalog._BUILDERS["gl2.II.standard"](6)
    products = _count_calls(monkeypatch, hopf, "mul")
    solve_antipode(H)
    assert len(products) <= 700
    tensor_products = _count_calls(monkeypatch, algebra, "tensor_mul")
    assert check_coassociativity(H).ok
    assert len(tensor_products) <= 40


def ref_image(S, m, H):
    """S of the PBW monomial ``m``, anti-multiplicatively by ``mul``: the
    image of each generator of the word, in order, times the product so far
    on its left."""
    img = H.table.one()
    for i, e in enumerate(m):
        for _ in range(e):
            img = mul(S[H.gens.names[i]], img, H.table)
    return img


def ref_defect(H, S, name, side):
    """-eps(X) 1 + sum of c S(a) b (or c a S(b) on the right) over the terms
    c a (x) b of Delta(X): one product per term."""
    def monomial(m):
        return TensorElement(1, H.gens, H.ring, {(m,): H.ring.one()})

    def term(a, b):
        if side == "left":
            return mul(ref_image(S, a, H), monomial(b), H.table)
        return mul(monomial(a), ref_image(S, b, H), H.table)

    return lincomb(H.table.one(-F(H.counit[name])),
                   [(c, term(a, b)) for (a, b), c in H.coproduct[name].terms.items()])


@pytest.mark.parametrize("name", ALL_NAMES)
def test_antipode_defect_equals_the_sum_of_its_terms(name):
    # S = -X and the antipode synthesized at order 2 (both leave nonzero
    # defects at order 4 on six of the eleven presentations), and -X - X^2 / 2
    # (nonzero defects on all); a nonzero counit on a copy gives the
    # -eps(X) 1 term a value
    H = catalog.get(name, 4)
    low = solve_antipode(H.to(H.ring.lower_orders()[1]))
    guesses = [{n: -H.gen(n) for n in H.gens.names},
               {n: s.to(H.ring) for n, s in low.items()},
               {n: -H.gen(n) - mul(H.gen(n), H.gen(n), H.table).scale(F(1, 2))
                for n in H.gens.names}]
    counit = {n: F(k + 1, 3) for k, n in enumerate(H.gens.names)}
    for P in (H, dataclasses.replace(H, counit=counit)):
        for S in guesses:
            for n in H.gens.names:
                for side in ("left", "right"):
                    got = antipode_defect(P, S, n, side)
                    assert got == ref_defect(P, S, n, side), (n, side)
    assert antipode_defect(H, guesses[2], H.gens.names[1], "right")


def test_an_antipode_round_multiplies_once_per_generator_and_not_per_coproduct_term(monkeypatch):
    # each generator's defect is one multiply_slots call over the whole
    # (S x id)Delta(X); every slot product is one step of an S image of a
    # monomial, one per monomial of the round's memo other than 1
    H = catalog._BUILDERS["gl2.II.standard"](4)
    memos = []
    apply_antipode = hopf.apply_antipode

    def recorded(S, x, table, memo=None, slot=0):
        memos.append(memo)
        return apply_antipode(S, x, table, memo, slot)

    monkeypatch.setattr(hopf, "apply_antipode", recorded)
    fused = _count_calls(monkeypatch, hopf, "multiply_slots")
    products = _count_calls(monkeypatch, algebra, "_slot_product")
    _antipode_round(H, {n: -H.gen(n) for n in H.gens.names})
    assert len(fused) == len(memos) == H.gens.dim
    memo = memos[0]
    assert all(m is memo for m in memos)
    assert len(products) == len(memo) - 1
