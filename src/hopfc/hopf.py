"""Hopf-algebra presentations, axiom verification, and order-by-order
antipode synthesis."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    RewriteTable,
    TensorElement,
    apply_coproduct,
    commutator,
    coproduct_on_slot,
    counit_collapse,
    lincomb,
    map_slot,
    mul,
    multiply_slots,
    ring_change,
    tensor_mul,
)
from .errors import StructureError, SynthesisFailureError


@dataclass
class HopfPresentation:
    """One quantum algebra: generators, rewrite table, coproduct, counit,
    optional Casimir."""

    name: str
    table: RewriteTable
    coproduct: dict            # generator name -> rank-2 TensorElement
    counit: dict               # generator name -> Fraction (constant term)
    casimir: TensorElement = None

    def __post_init__(self):
        for n in self.gens.names:
            if n not in self.coproduct:
                raise StructureError(f"coproduct missing for generator {n}")
            if n not in self.counit:
                raise StructureError(f"counit missing for generator {n}")

    @property
    def gens(self):
        return self.table.gens

    @property
    def ring(self):
        return self.table.ring

    def gen(self, name):
        return self.table.gen(name)

    def delta(self, x: TensorElement) -> TensorElement:
        return apply_coproduct(x, self.coproduct, self.table)

    def map_tensors(self, fn, ring, gens=None) -> HopfPresentation:
        """This presentation over ``ring`` and ``gens`` (by default its own
        generators; others rename them position by position), with ``fn``
        applied to each of its rewrite rules, coproducts and Casimir."""
        gens = self.gens if gens is None else gens
        pairs = list(zip(self.gens.names, gens.names))
        return HopfPresentation(
            self.name,
            RewriteTable(gens, ring, {k: fn(r) for k, r in self.table.rules.items()}),
            {new: fn(self.coproduct[old]) for old, new in pairs},
            {new: self.counit[old] for old, new in pairs},
            None if self.casimir is None else fn(self.casimir),
        )

    def to(self, ring) -> HopfPresentation:
        """This presentation with every coefficient moved to ``ring``
        (``TensorElement.to``), the ring change prepared once."""
        return self.map_tensors(ring_change(self.ring, ring), ring)


#: residual lines shown per check in a text report (and in an R-matrix check)
MAX_RESIDUAL_LINES = 8


class Residual(NamedTuple):
    """One nonzero defect of a check: a tensor, a ``Series`` or a message
    string, reported as ``label + str(value)``."""

    label: str
    value: object

    def __str__(self):
        return self.label + str(self.value)


@dataclass
class Check:
    """One check of any layer: its name, its nonzero ``Residual``s and a
    details line.  It passes when no residual is left; ``listed`` keeps an
    empty residual list in the JSON report."""

    name: str
    residuals: list
    details: str = ""
    listed: bool = False

    @classmethod
    def of(cls, name, pairs, details="", listed=False):
        """The check whose residuals are the nonzero ``(label, residual)``
        pairs, all computed here."""
        return cls(name, [Residual(label, r) for label, r in pairs if r], details, listed)

    @property
    def ok(self):
        return not self.residuals

    match = ok  # bench/worker.py reads match_presentation(...).match

    def to_json(self):
        out = {"name": self.name, "verdict": "pass" if self.ok else "fail"}
        if self.residuals or self.listed:
            out["residual"] = [str(r) for r in self.residuals]
        if self.details:
            out["details"] = self.details
        return out


def render_text(title, checks):
    """The text report: ``title``, then one verdict line per check with at
    most ``MAX_RESIDUAL_LINES`` residual lines under it."""
    lines = [title]
    for c in checks:
        mark = "PASS" if c.ok else "FAIL"
        lines.append(f"  [{mark}] {c.name}" + (f"  {c.details}" if c.details else ""))
        lines += [f"         residual: {r}" for r in c.residuals[:MAX_RESIDUAL_LINES]]
    return "\n".join(lines)


@dataclass
class VerificationReport:
    algebra: str
    order: int
    checks: list

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def to_text(self):
        return render_text(f"{self.algebra}  (order {self.order})", self.checks)


# ---------------------------------------------------------------------------
# individual axiom checks
# ---------------------------------------------------------------------------

def check_jacobi(H: HopfPresentation) -> Check:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 for all generator triples."""
    t = H.table

    def nested(a, b, c):
        return commutator(commutator(H.gen(a), H.gen(b), t), H.gen(c), t)

    return Check.of("jacobi", (
        (f"jacobi({a},{b},{c}) = ", nested(a, b, c) + nested(b, c, a) + nested(c, a, b))
        for a, b, c in itertools.combinations(H.gens.names, 3)))


def check_relations_morphism(H: HopfPresentation) -> Check:
    """Delta([X,Y]) = [Delta(X), Delta(Y)] for every generator pair."""
    t = H.table

    def defect(a, b):
        lhs = H.delta(commutator(H.gen(a), H.gen(b), t))
        da, db = H.coproduct[a], H.coproduct[b]
        return lhs - (tensor_mul(da, db, t) - tensor_mul(db, da, t))

    return Check.of("relations_morphism", (
        (f"Delta([{a},{b}]) mismatch: ", defect(a, b))
        for a, b in itertools.combinations(H.gens.names, 2)))


def check_coassociativity(H: HopfPresentation) -> Check:
    """(Delta x id) Delta = (id x Delta) Delta on every generator."""
    memo = {}

    def on_slot(n, slot):
        return coproduct_on_slot(H.coproduct[n], slot, H.coproduct, H.table, memo)

    return Check.of("coassociativity", (
        (f"coassoc({n}): ", on_slot(n, 0) - on_slot(n, 1)) for n in H.gens.names))


def check_counit(H: HopfPresentation) -> Check:
    """(eps x id) Delta(X) = X = (id x eps) Delta(X)."""
    return Check.of("counit", (
        (f"counit {side}({n}): ", counit_collapse(H.coproduct[n], slot, H.counit) - H.gen(n))
        for n in H.gens.names for slot, side in enumerate(("left", "right"))))


def check_casimir_central(H: HopfPresentation) -> Check:
    if H.casimir is None:
        return Check("casimir_central", [], "no casimir declared")
    return Check.of("casimir_central", (
        (f"[C,{n}] = ", commutator(H.casimir, H.gen(n), H.table)) for n in H.gens.names))


# ---------------------------------------------------------------------------
# antipode
# ---------------------------------------------------------------------------

def apply_antipode(S, x: TensorElement, table: RewriteTable, memo=None, slot=0) -> TensorElement:
    """Extend generator images anti-multiplicatively and apply the result to
    slot ``slot`` of a tensor of any rank (an algebra element by default).
    ``memo`` may carry images of monomials from earlier calls with the same
    ``S``."""
    table.check(x)
    return map_slot(x, slot, S, table.one(), lambda a, b: mul(b, a, table), memo)


def antipode_defect(H: HopfPresentation, S, name, side="left", memo=None) -> TensorElement:
    """m(S x id)Delta(X) - eps(X) 1  (or the id x S variant): the antipode
    on one slot of the whole coproduct, then one ``multiply_slots``.  Each
    c * S(a) is truncated before its product with b, which gives the sum of
    the c S(a) b wherever truncation is a ring map (``Ring.lower_orders``).
    ``memo`` is passed on to ``apply_antipode``."""
    t = apply_antipode(S, H.coproduct[name], H.table, memo, 0 if side == "left" else 1)
    return lincomb(H.table.one(-Fraction(H.counit[name])), [(1, multiply_slots(t, H.table))])


def _antipode_round(H: HopfPresentation, S):
    """One step of the iteration: ``S`` less the left defect of every
    generator (all computed through one memo), and whether every defect
    was zero."""
    memo = {}
    defects = {n: antipode_defect(H, S, n, "left", memo) for n in H.gens.names}
    return {n: S[n] - d for n, d in defects.items()}, all(d.is_zero() for d in defects.values())


def solve_antipode(H: HopfPresentation):
    """Synthesize S on generators order-by-order in parameter weight.

    Starts from the primitive-coproduct guess S(X) = -X and peels off the
    defect of the left antipode axiom.  A warm start runs one round at each
    lower truncation order of the ring (truncation is a ring map when no
    exponent is negative), on ``H`` without its Casimir, which no round
    reads, so S enters the full-order loop nearly right; that loop iterates
    until the defect vanishes at the full order."""
    names = H.gens.names
    S = {n: -H.gen(n) for n in names}
    bare = replace(H, casimir=None)
    for ring in H.ring.lower_orders():
        down, up = ring_change(H.ring, ring), ring_change(ring, H.ring)
        Sk, _ = _antipode_round(bare.to(ring), {n: down(S[n]) for n in names})
        S = {n: up(Sk[n]) for n in names}
    for _ in range(H.ring.order + 2):
        S, done = _antipode_round(H, S)
        if done:
            return S
    raise SynthesisFailureError(
        f"antipode synthesis did not converge for {H.name} at order {H.ring.order}"
    )


def check_antipode(H: HopfPresentation) -> Check:
    try:
        S = solve_antipode(H)
    except SynthesisFailureError as exc:
        return Check.of("antipode", [("", str(exc))])
    memo = {}
    return Check.of("antipode", (
        (f"right antipode defect({n}): ", antipode_defect(H, S, n, "right", memo))
        for n in H.gens.names), "synthesized order-by-order")


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

ALL_CHECKS = (
    ("jacobi", check_jacobi),
    ("relations_morphism", check_relations_morphism),
    ("coassociativity", check_coassociativity),
    ("counit", check_counit),
    ("casimir_central", check_casimir_central),
    ("antipode", check_antipode),
)


def verify_all(H: HopfPresentation) -> VerificationReport:
    return VerificationReport(H.name, H.ring.order, [fn(H) for _, fn in ALL_CHECKS])
