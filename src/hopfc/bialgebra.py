"""Classical layer: cocommutators of classical r-matrices and their
consistency checks (cocycle, co-Jacobi, Schouten bracket), on the Hopf
layer's types; the cocycle and co-Jacobi checks return a ``hopf.Check``.

The Lie algebra is a classical ``RewriteTable`` (``catalog.lie_structure``):
the commutator of two generators is their bracket.  A Lie vector is a
degree-1 rank-1 ``TensorElement``.  r, delta(X) and the Schouten bracket are
``TensorElement``s with one generator per slot; r and delta(X) are written
out in full, c * (X (x) Y - Y (x) X) for the wedge c * X ^ Y, which
``wedge_str`` prints."""

from __future__ import annotations

import itertools

from .algebra import RewriteTable, TensorElement, commutator, coproduct_on_slot, lincomb
from .hopf import Check


def wedge_str(t: TensorElement):
    """An antisymmetric rank-2 tensor with one generator per slot, printed
    by its X_i (x) X_j terms with i < j as X_i^X_j."""
    names = t.gens.names
    half = {}
    for ms, c in t.terms.items():
        i, j = (m.index(1) for m in ms)
        if i < j:
            half[i, j] = c
    return " + ".join(
        f"({c})*{names[i]}^{names[j]}" for (i, j), c in sorted(half.items())) or "0"


def _ad(table: RewriteTable, x, t: TensorElement) -> TensorElement:
    """ad_x on a tensor: the commutator with x placed in each slot in turn."""
    one = table.one()
    parts = [commutator(TensorElement.outer([x if k == s else one for k in range(t.rank)]),
                        t, table)
             for s in range(t.rank)]
    return lincomb(parts[0], [(1, p) for p in parts[1:]])


def cocommutator_from_r(table: RewriteTable, r: TensorElement):
    """delta(X) = [X (x) 1 + 1 (x) X, r], keyed by generator name."""
    return {n: _ad(table, table.gen(n), r) for n in table.gens.names}


def check_cocycle(table: RewriteTable, delta) -> Check:
    """delta([X,Y]) = ad_X delta(Y) - ad_Y delta(X), all generator pairs."""
    def defect(x, y):
        X, Y = table.gen(x), table.gen(y)
        return (coproduct_on_slot(commutator(X, Y, table), 0, delta, table)
                - _ad(table, X, delta[y]) + _ad(table, Y, delta[x]))

    return Check.of("cocycle", ((f"cocycle({x},{y}): ", defect(x, y))
                                for x, y in itertools.combinations(table.gens.names, 2)))


def check_cojacobi(table: RewriteTable, delta) -> Check:
    """Cyclic sum over the slots of (delta (x) id) delta(X) vanishes for every X."""
    def defect(x):
        d2 = coproduct_on_slot(delta[x], 0, delta, table)
        return d2 + d2.permute((2, 0, 1)) + d2.permute((1, 2, 0))

    return Check.of("cojacobi", ((f"cojacobi({x}): ", defect(x)) for x in table.gens.names))


def schouten_bracket(table: RewriteTable, r: TensorElement) -> TensorElement:
    """[[r, r]] = [r12, r13] + [r12, r23] + [r13, r23], a rank-3 tensor."""
    one = table.one()
    r12, r23 = TensorElement.outer([r, one]), TensorElement.outer([one, r])
    r13 = r12.permute((0, 2, 1))
    return (commutator(r12, r13, table) + commutator(r12, r23, table)
            + commutator(r13, r23, table))


def is_ad_invariant(table: RewriteTable, t: TensorElement):
    """Check a tensor commutes with every ad-action."""
    return not any(_ad(table, table.gen(n), t) for n in table.gens.names)
