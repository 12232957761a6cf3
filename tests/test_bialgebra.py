from fractions import Fraction as F

import pytest

from hopfc import catalog
from hopfc.bialgebra import (
    WedgeTensor,
    check_cocycle,
    check_cojacobi,
    cocommutator_from_r,
    is_ad_invariant,
    schouten_bracket,
)
from hopfc.series import Ring

R_NAMES = ["gl2.Iplus.standard", "gl2.Iplus.nonstandard",
           "gl2.II.standard", "gl2.II.nonstandard"]


def test_lie_jacobi():
    assert catalog.lie_structure("gl2.II.standard").check_jacobi() == []
    assert catalog.lie_structure("h4.classical").check_jacobi() == []


@pytest.mark.parametrize("name", R_NAMES)
def test_cocommutator_is_bialgebra(name):
    L = catalog.lie_structure(name)
    r = catalog.classical_r(name)
    delta = cocommutator_from_r(L, r)
    assert check_cocycle(L, delta) == []
    assert check_cojacobi(L, delta) == []


@pytest.mark.parametrize("name", R_NAMES)
def test_central_generator_cocommutes(name):
    L = catalog.lie_structure(name)
    delta = cocommutator_from_r(L, catalog.classical_r(name))
    assert delta[catalog.GL2.index("I")].is_zero()


def test_zero_r_gives_zero_delta():
    L = catalog.lie_structure("gl2.II.standard")
    zero = WedgeTensor(L.gens, L.ring, {})
    delta = cocommutator_from_r(L, zero)
    assert all(delta[x].is_zero() for x in range(L.gens.dim))


def test_delta_jp_hand_oracle():
    # r = -(b/2) J3^I - a Jp^Jm  gives  delta(Jp) = a J3^Jp + b Jp^I
    L = catalog.lie_structure("gl2.II.standard")
    r = catalog.classical_r("gl2.II.standard")
    delta = cocommutator_from_r(L, r)
    sp = r.ring.space
    want = WedgeTensor(L.gens, Ring.exact(sp), {
        (0, 1): Ring.exact(sp).symbol("b", coeff=F(-1)),
        (1, 2): Ring.exact(sp).symbol("a", coeff=F(-1)),
    })
    assert delta[catalog.GL2.index("Jp")] == want


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
    bump = WedgeTensor(L.gens, L.ring, {
        (0, 1): Ring.exact(sp).symbol("a"),
    })
    delta = dict(delta)
    delta[catalog.GL2.index("Jm")] = delta[catalog.GL2.index("Jm")] + bump
    assert check_cocycle(L, delta)
