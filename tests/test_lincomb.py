"""Exact renderings of every linear-combination kind, and the ring change
of whole presentations.  Reports and bench hashes reach these strings through
residuals and the contracted r-matrix, so they must not drift."""

import json
from fractions import Fraction as F

import pytest

from hopfc import catalog
from hopfc.algebra import coproduct_on_slot, mul
from hopfc.bialgebra import WedgeTensor, cocommutator_from_r
from hopfc.contraction import match_presentation
from hopfc.errors import StructureError
from hopfc.series import ParamSpace, Ring


def test_element_rendering():
    t = catalog.get("gl2.II.standard", 2).table
    x = (mul(t.gen("Jm"), t.gen("Jp"), t)
         + t.gen("J3", coeff=t.sym("a", power=2, coeff=F(-1, 6)))
         + t.one(F(3, 2)))
    assert str(x) == "(3/2)*1 + (-1 + -1/6*a^2)*J3 + (-1/6*a^2)*J3^3 + (1)*Jp*Jm"
    assert json.dumps(x.to_json()) == (
        '{"1": {"1": "3/2"}, "J3^1": {"1": "-1/1", "a^2": "-1/6"}, '
        '"J3^3": {"a^2": "-1/6"}, "Jp^1*Jm^1": {"1": "1/1"}}')


def test_rank2_tensor_rendering():
    d = catalog.get("gl2.II.standard", 2).coproduct["Jp"]
    assert str(d) == (
        "(1)*[1 (x) Jp] + (1/2*a)*[J3 (x) Jp] + (1/8*a^2)*[J3^2 (x) Jp] + "
        "(1)*[Jp (x) 1] + (-1/2*a)*[Jp (x) J3] + (1/8*a^2)*[Jp (x) J3^2] + "
        "(1/2*b)*[Jp (x) I] + (-1/4*a*b)*[Jp (x) I*J3] + (1/8*b^2)*[Jp (x) I^2] + "
        "(-1/2*b)*[I (x) Jp] + (-1/4*a*b)*[I*J3 (x) Jp] + (1/8*b^2)*[I^2 (x) Jp]")
    assert json.dumps(d.to_json()) == (
        '{"1 (x) Jp^1": {"1": "1/1"}, "J3^1 (x) Jp^1": {"a^1": "1/2"}, '
        '"J3^2 (x) Jp^1": {"a^2": "1/8"}, "Jp^1 (x) 1": {"1": "1/1"}, '
        '"Jp^1 (x) J3^1": {"a^1": "-1/2"}, "Jp^1 (x) J3^2": {"a^2": "1/8"}, '
        '"Jp^1 (x) I^1": {"b^1": "1/2"}, "Jp^1 (x) I^1*J3^1": {"a^1*b^1": "-1/4"}, '
        '"Jp^1 (x) I^2": {"b^2": "1/8"}, "I^1 (x) Jp^1": {"b^1": "-1/2"}, '
        '"I^1*J3^1 (x) Jp^1": {"a^1*b^1": "-1/4"}, "I^2 (x) Jp^1": {"b^2": "1/8"}}')


def test_rank3_tensor_rendering():
    H = catalog.get("gl2.II.nonstandard", 1)
    d3 = coproduct_on_slot(H.coproduct["J3"], 0, H.coproduct, H.table)
    assert str(d3) == (
        "(1)*[1 (x) 1 (x) J3] + (1)*[1 (x) J3 (x) 1] + (1*b_plus)*[1 (x) Jp (x) I] + "
        "(1)*[J3 (x) 1 (x) 1] + (1*b_plus)*[Jp (x) 1 (x) I] + (1*b_plus)*[Jp (x) I (x) 1]")
    assert json.dumps(d3.to_json()) == (
        '{"1 (x) 1 (x) J3^1": {"1": "1/1"}, "1 (x) J3^1 (x) 1": {"1": "1/1"}, '
        '"1 (x) Jp^1 (x) I^1": {"b_plus^1": "1/1"}, "J3^1 (x) 1 (x) 1": {"1": "1/1"}, '
        '"Jp^1 (x) 1 (x) I^1": {"b_plus^1": "1/1"}, "Jp^1 (x) I^1 (x) 1": {"b_plus^1": "1/1"}}')


def test_wedge_rendering():
    L = catalog.lie_structure("gl2.Iplus.standard")
    r = catalog.classical_r("gl2.Iplus.standard")
    assert str(WedgeTensor(r)) == "(-1/2*a_plus)*Jp^J3 + (-1*a)*Jp^Jm"
    delta = cocommutator_from_r(L, r)
    assert str(WedgeTensor(delta["Jm"])) == "(-1*a_plus)*Jp^Jm + (1*a)*J3^Jm"
    assert str(WedgeTensor(delta["I"])) == "0"


@pytest.mark.parametrize("name", catalog.names())
def test_embed_restrict_round_trip(name):
    H = catalog.get(name, 3)
    big = Ring(H.ring.space.union(ParamSpace.make("z", "eps")), H.ring.order, H.ring.floor)
    up = H.to(big)
    assert all(t.ring is big for t in up.coproduct.values())
    back = up.to(H.ring)
    m = match_presentation(back, H)
    assert m.match, m.residuals
    assert back.casimir == H.casimir


def test_add_across_truncation_orders_raises():
    # the two coefficient rings differ only in their order
    with pytest.raises(StructureError):
        catalog.get("gl2.classical", 3).gen("Jp") + catalog.get("gl2.classical", 5).gen("Jm")


def test_equality_agrees_with_compatibility():
    # equal terms over rings that differ only in their order are not equal,
    # just as they cannot be added
    sp = ParamSpace.make("a")
    a3, a5 = Ring(sp, 3).symbol("a"), Ring(sp, 5).symbol("a")
    assert a3 != a5
    assert a3 == Ring(sp, 3).symbol("a")
    assert hash(a3) == hash(Ring(sp, 3).symbol("a"))
    jp3, jp5 = (catalog.get("gl2.classical", n).gen("Jp") for n in (3, 5))
    assert jp3 != jp5
    assert jp3 == catalog.get("gl2.classical", 3).gen("Jp")
