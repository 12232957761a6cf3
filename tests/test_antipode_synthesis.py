"""The graded antipode synthesis and the memoized Hopf-map extension change
how much work a check does, never what it finds: the synthesized S equals
the plain full-order iteration, a verdict does not depend on which caches
are warm, and the work stays below fixed call counts."""

import pytest

from hopfc import algebra, catalog, hopf
from hopfc.hopf import antipode_defect, check_coassociativity, solve_antipode, verify_all
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
