"""Hopf-algebra presentations, axiom verification, and order-by-order
antipode synthesis."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    Element,
    RewriteTable,
    TensorElement,
    apply_coproduct,
    commutator,
    coproduct_on_slot,
    counit_collapse,
    map_slot,
    mul,
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
    casimir: Element = None

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

    def delta(self, x: Element) -> TensorElement:
        return apply_coproduct(x, self.coproduct, self.table)

    def map_coeffs(self, fn, ring, gens=None) -> HopfPresentation:
        """This presentation with ``fn`` applied to every coefficient of its
        rewrite rules, coproducts and Casimir, over ``ring``.  ``gens``
        renames the generators position by position."""
        gens = self.gens if gens is None else gens

        def conv(x):
            return x.map_coeffs(fn, ring, gens)

        rules = {k: conv(r) for k, r in self.table.rules.items()}
        pairs = list(zip(self.gens.names, gens.names))
        return HopfPresentation(
            self.name,
            RewriteTable(gens, ring, rules),
            {new: conv(self.coproduct[old]) for old, new in pairs},
            {new: self.counit[old] for old, new in pairs},
            None if self.casimir is None else conv(self.casimir),
        )

    def to(self, ring) -> HopfPresentation:
        """This presentation with every coefficient moved to ``ring``
        (``Series.to``)."""
        return self.map_coeffs(lambda c: c.to(ring), ring)


@dataclass
class CheckEntry:
    name: str
    ok: bool
    residuals: list = field(default_factory=list)
    details: str = ""

    def to_json(self):
        out = {"name": self.name, "verdict": "pass" if self.ok else "fail"}
        if self.residuals:
            out["residual"] = [str(r) for r in self.residuals]
        if self.details:
            out["details"] = self.details
        return out


@dataclass
class VerificationReport:
    algebra: str
    order: int
    entries: list
    elapsed: float = 0.0

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def to_json(self):
        return {
            "algebra": self.algebra,
            "order": self.order,
            "checks": [e.to_json() for e in self.entries],
            "verdict": "pass" if self.ok else "fail",
        }

    def to_text(self):
        lines = [f"{self.algebra}  (order {self.order})"]
        for e in self.entries:
            mark = "PASS" if e.ok else "FAIL"
            lines.append(f"  [{mark}] {e.name}" + (f"  {e.details}" if e.details else ""))
            for r in e.residuals:
                lines.append(f"         residual: {r}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# individual axiom checks
# ---------------------------------------------------------------------------

def check_jacobi(H: HopfPresentation) -> CheckEntry:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 for all generator triples."""
    t = H.table
    residuals = []
    names = H.gens.names
    for a, b, c in itertools.combinations(names, 3):
        x, y, z = H.gen(a), H.gen(b), H.gen(c)
        r = (
            commutator(commutator(x, y, t), z, t)
            + commutator(commutator(y, z, t), x, t)
            + commutator(commutator(z, x, t), y, t)
        )
        if r:
            residuals.append(f"jacobi({a},{b},{c}) = {r}")
    return CheckEntry("jacobi", not residuals, residuals)


def check_relations_morphism(H: HopfPresentation) -> CheckEntry:
    """Delta([X,Y]) = [Delta(X), Delta(Y)] for every generator pair."""
    t = H.table
    residuals = []
    for a, b in itertools.combinations(H.gens.names, 2):
        lhs = H.delta(commutator(H.gen(a), H.gen(b), t))
        da, db = H.coproduct[a], H.coproduct[b]
        rhs = tensor_mul(da, db, t) - tensor_mul(db, da, t)
        r = lhs - rhs
        if r:
            residuals.append(f"Delta([{a},{b}]) mismatch: {r}")
    return CheckEntry("relations_morphism", not residuals, residuals)


def check_coassociativity(H: HopfPresentation) -> CheckEntry:
    """(Delta x id) Delta = (id x Delta) Delta on every generator."""
    residuals = []
    memo = {}
    for n in H.gens.names:
        d = H.coproduct[n]
        left = coproduct_on_slot(d, 0, H.coproduct, H.table, memo)
        right = coproduct_on_slot(d, 1, H.coproduct, H.table, memo)
        r = left - right
        if r:
            residuals.append(f"coassoc({n}): {r}")
    return CheckEntry("coassociativity", not residuals, residuals)


def check_counit(H: HopfPresentation) -> CheckEntry:
    """(eps x id) Delta(X) = X = (id x eps) Delta(X)."""
    residuals = []
    for n in H.gens.names:
        d = H.coproduct[n]
        x = H.gen(n)
        left = counit_collapse(d, 0, H.counit) - x
        right = counit_collapse(d, 1, H.counit) - x
        if left:
            residuals.append(f"counit left({n}): {left}")
        if right:
            residuals.append(f"counit right({n}): {right}")
    return CheckEntry("counit", not residuals, residuals)


def check_casimir_central(H: HopfPresentation) -> CheckEntry:
    if H.casimir is None:
        return CheckEntry("casimir_central", True, details="no casimir declared")
    residuals = []
    for n in H.gens.names:
        r = commutator(H.casimir, H.gen(n), H.table)
        if r:
            residuals.append(f"[C,{n}] = {r}")
    return CheckEntry("casimir_central", not residuals, residuals)


# ---------------------------------------------------------------------------
# antipode
# ---------------------------------------------------------------------------

def apply_antipode(S, x: Element, table: RewriteTable, memo=None) -> Element:
    """Extend generator images anti-multiplicatively to an Element.  ``memo``
    may carry images of monomials from earlier calls with the same ``S``."""
    table.check(x)
    return map_slot(x, 0, S, table.one(), lambda a, b: mul(b, a, table), memo)


def antipode_defect(H: HopfPresentation, S, name, side="left", memo=None) -> Element:
    """m(S x id)Delta(X) - eps(X) 1  (or the id x S variant).  ``memo`` is
    passed on to ``apply_antipode``."""
    d = H.coproduct[name]
    slot = 0 if side == "left" else 1
    acc = H.table.zero()
    one = H.ring.one()
    for ms, c in d.terms.items():
        s_img = apply_antipode(S, Element(H.gens, H.ring, {(ms[slot],): one}), H.table, memo)
        other = Element(H.gens, H.ring, {(ms[1 - slot],): one})
        if side == "left":
            acc = acc + mul(s_img, other, H.table).scale(c)
        else:
            acc = acc + mul(other, s_img, H.table).scale(c)
    eps_val = Fraction(H.counit[name])
    if eps_val:
        acc = acc - H.table.one(eps_val)
    return acc


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
    exponent is negative), so S enters the full-order loop nearly right;
    that loop iterates until the defect vanishes at the full order."""
    names = H.gens.names
    S = {n: -H.gen(n) for n in names}
    for ring in H.ring.lower_orders():
        Sk, _ = _antipode_round(H.to(ring), {n: S[n].to(ring) for n in names})
        S = {n: Sk[n].to(H.ring) for n in names}
    for _ in range(H.ring.order + 2):
        S, done = _antipode_round(H, S)
        if done:
            return S
    raise SynthesisFailureError(
        f"antipode synthesis did not converge for {H.name} at order {H.ring.order}"
    )


def check_antipode(H: HopfPresentation) -> CheckEntry:
    try:
        S = solve_antipode(H)
    except SynthesisFailureError as exc:
        return CheckEntry("antipode", False, [str(exc)])
    residuals = []
    memo = {}
    for n in H.gens.names:
        r = antipode_defect(H, S, n, "right", memo)
        if r:
            residuals.append(f"right antipode defect({n}): {r}")
    return CheckEntry("antipode", not residuals, residuals,
                      details="synthesized order-by-order")


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


def verify_all(H: HopfPresentation, checks=None) -> VerificationReport:
    t0 = time.perf_counter()
    wanted = set(checks) if checks else None
    entries = [fn(H) for key, fn in ALL_CHECKS if wanted is None or key in wanted]
    return VerificationReport(H.name, H.ring.order, entries, time.perf_counter() - t0)
