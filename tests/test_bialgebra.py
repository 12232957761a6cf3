import itertools
from fractions import Fraction as F

import pytest

from hopfc import catalog
from hopfc.algebra import TensorElement, commutator
from hopfc.bialgebra import (
    check_cocycle,
    check_cojacobi,
    cocommutator_from_r,
    is_ad_invariant,
    schouten_bracket,
)
from hopfc.series import Ring

R_NAMES = ["gl2.Iplus.standard", "gl2.Iplus.nonstandard",
           "gl2.II.standard", "gl2.II.nonstandard"]


def wedge(t, c, x, y):
    """c * X ^ Y = c * (X (x) Y - Y (x) X) over the table ``t``."""
    X, Y = t.gen(x), t.gen(y)
    return (TensorElement.outer([X, Y]) - TensorElement.outer([Y, X])).scale(c)


def test_lie_jacobi():
    for name in ("gl2.II.standard", "h4.classical"):
        t = catalog.lie_structure(name)
        for a, b, c in itertools.combinations(t.gens.names, 3):
            x, y, z = t.gen(a), t.gen(b), t.gen(c)
            assert not (commutator(commutator(x, y, t), z, t)
                        + commutator(commutator(y, z, t), x, t)
                        + commutator(commutator(z, x, t), y, t))


@pytest.mark.parametrize("name", R_NAMES)
def test_cocommutator_is_bialgebra(name):
    L = catalog.lie_structure(name)
    r = catalog.classical_r(name)
    delta = cocommutator_from_r(L, r)
    assert check_cocycle(L, delta).ok
    assert check_cojacobi(L, delta).ok


@pytest.mark.parametrize("name", R_NAMES)
def test_central_generator_cocommutes(name):
    L = catalog.lie_structure(name)
    delta = cocommutator_from_r(L, catalog.classical_r(name))
    assert delta["I"].is_zero()


def test_zero_r_gives_zero_delta():
    L = catalog.lie_structure("gl2.II.standard")
    zero = TensorElement(2, L.gens, L.ring, {})
    delta = cocommutator_from_r(L, zero)
    assert all(delta[x].is_zero() for x in L.gens.names)


def test_delta_jp_hand_oracle():
    # r = -(b/2) J3^I - a Jp^Jm  gives  delta(Jp) = a J3^Jp + b Jp^I
    L = catalog.lie_structure("gl2.II.standard")
    r = catalog.classical_r("gl2.II.standard")
    delta = cocommutator_from_r(L, r)
    sp = r.ring.space
    want = (wedge(L, Ring.exact(sp).symbol("b", coeff=F(-1)), "I", "Jp")
            + wedge(L, Ring.exact(sp).symbol("a", coeff=F(-1)), "Jp", "J3"))
    assert delta["Jp"] == want


@pytest.mark.parametrize("name", ["gl2.Iplus.nonstandard", "gl2.II.nonstandard"])
def test_triangular_families_have_zero_schouten(name):
    L = catalog.lie_structure(name)
    assert schouten_bracket(L, catalog.classical_r(name)).is_zero()


@pytest.mark.parametrize("name", ["gl2.II.standard", "gl2.Iplus.standard"])
def test_quasitriangular_families_have_invariant_schouten(name):
    L = catalog.lie_structure(name)
    s = schouten_bracket(L, catalog.classical_r(name))
    assert s
    assert is_ad_invariant(L, s)


def test_perturbed_delta_breaks_cocycle():
    L = catalog.lie_structure("gl2.II.standard")
    delta = cocommutator_from_r(L, catalog.classical_r("gl2.II.standard"))
    sp = L.ring.space
    bump = wedge(L, Ring.exact(sp).symbol("a"), "I", "Jp")
    delta = dict(delta)
    delta["Jm"] = delta["Jm"] + bump
    assert not check_cocycle(L, delta).ok
