"""The structure maps are fixed by their values on generators: the coproduct
and counit extend multiplicatively, the antipode anti-multiplicatively, and a
generator substitution homomorphically.  Checked on products of two
generators, in both orders, and on the rank-3 tensors (Delta x id) Delta(X),
at order 2."""

import itertools

import pytest

from hopfc import catalog
from hopfc.algebra import (
    apply_coproduct,
    coproduct_on_slot,
    counit_collapse,
    mul,
    substitute_generators,
    tensor_mul,
)
from hopfc.hopf import apply_antipode, solve_antipode

NAMES = ["gl2.II.standard", "h4.alphaplus"]


def pairs(H):
    for a, b in itertools.product(H.gens.names, repeat=2):
        x, y = H.gen(a), H.gen(b)
        yield x, y, mul(x, y, H.table)


@pytest.mark.parametrize("name", NAMES)
def test_coproduct_is_multiplicative(name):
    H = catalog.get(name, 2)
    for x, y, xy in pairs(H):
        assert H.delta(xy) == tensor_mul(H.delta(x), H.delta(y), H.table), (x, y)


@pytest.mark.parametrize("name", NAMES)
def test_antipode_is_anti_multiplicative(name):
    H = catalog.get(name, 2)
    S = solve_antipode(H)
    for x, y, xy in pairs(H):
        want = mul(apply_antipode(S, y, H.table), apply_antipode(S, x, H.table), H.table)
        assert apply_antipode(S, xy, H.table) == want, (x, y)


@pytest.mark.parametrize("name", NAMES)
def test_counit_axiom_on_products(name):
    H = catalog.get(name, 2)
    for _, _, xy in pairs(H):
        d = apply_coproduct(xy, H.coproduct, H.table)
        assert counit_collapse(d, 0, H.counit) == xy
        assert counit_collapse(d, 1, H.counit) == xy


@pytest.mark.parametrize("name", NAMES)
def test_identity_substitution(name):
    H = catalog.get(name, 2)
    ident = {n: H.gen(n) for n in H.gens.names}
    for x, _, xy in pairs(H):
        x1 = xy + x.scale(H.table.sym(H.ring.space.symbols[0]))
        assert substitute_generators(x1, ident, H.table) == x1
        d = H.delta(x1)
        assert substitute_generators(d, ident, H.table) == d


@pytest.mark.parametrize("name", NAMES)
def test_rank3_counit_and_substitution(name):
    # the counit on any one slot of (Delta x id) Delta(X) gives back Delta(X)
    H = catalog.get(name, 2)
    ident = {n: H.gen(n) for n in H.gens.names}
    for n in H.gens.names:
        d = H.delta(H.gen(n))
        t = coproduct_on_slot(d, 0, H.coproduct, H.table)
        assert t.rank == 3
        for k in range(3):
            assert counit_collapse(t, k, H.counit) == d, (n, k)
        assert substitute_generators(t, ident, H.table) == t, n
