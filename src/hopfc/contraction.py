"""Generalized Lie-bialgebra contraction engine: generator scaling maps,
minimal-exponent solving for r and delta, coboundary verdicts, quantum
contraction by the eps -> 0 limit, and Casimir-limit prescriptions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import bialgebra
from .algebra import (
    GeneratorSet,
    RewriteTable,
    TensorElement,
    _check_free_of,
    _slice_bounds,
    apply_coproduct,
    commutator,
    lincomb,
    substitute_generators,
    zero_limit,
)
from .bialgebra import wedge_str
from .errors import StructureError
from .hopf import Check, HopfPresentation
from .series import EPS, ParamSpace, Ring, Substitution


# ---------------------------------------------------------------------------
# case data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingMap:
    """Invertible eps-dependent change of generators.

    ``forward``: new generator name -> list of (Fraction, coeff-monomial dict,
    old generator name); ``inverse``: old name -> same shape over new names.
    Coefficient monomials are exponent dicts over workspace symbols (eps and
    source parameters)."""

    new_gens: GeneratorSet
    forward: dict
    inverse: dict


@dataclass(frozen=True)
class ParamImage:
    coeff: Fraction
    eps_exp: int
    target: str | None    # None: pure constant image


@dataclass(frozen=True)
class ContractionCase:
    name: str
    source: str
    target: str
    scaling: ScalingMap
    param_map: dict            # source symbol -> ParamImage (catalog coordinates)
    lie_r_name: str            # classical r-matrix catalog name
    lie_param_map: dict        # original paper parameters -> ParamImage
    lie_groups: dict           # original parameter -> group key for the solver
    target_params: tuple       # specs for the contracted ParamSpace
    casimir_counterterm: object = None   # callable(table) -> element over source gens
    expected_exponents: dict = field(default_factory=dict)

    def target_space(self):
        return ParamSpace.make(*self.target_params)


@dataclass
class ExponentSolution:
    r_min: dict
    delta_min: dict
    r_contracted: TensorElement = None

    @property
    def coboundary(self):
        """r and delta force the same exponent on every group (both None on a
        group neither constrains)."""
        return self.r_min == self.delta_min

    def to_json(self):
        return {
            "r_min": {k: v for k, v in sorted(self.r_min.items())},
            "delta_min": {k: v for k, v in sorted(self.delta_min.items())},
            "coboundary": self.coboundary,
            "r_contracted": wedge_str(self.r_contracted) if self.r_contracted else None,
        }


# ---------------------------------------------------------------------------
# Lie-level transformation and the minimal-exponent solver
# ---------------------------------------------------------------------------

def _lie_sigma(ring, param_map, exponents=None):
    """Parameter substitution old symbol -> c * eps^n * new, as Series."""
    sigma = {}
    for old, img in param_map.items():
        n = img.eps_exp if exponents is None else exponents.get(old, img.eps_exp)
        mono = {}
        if n:
            mono[EPS] = n
        if img.target is not None:
            mono[img.target] = 1
        sigma[old] = ring.term(mono, img.coeff)
    return sigma


def transform_wedge(w: TensorElement, images, table: RewriteTable, sub) -> TensorElement:
    """Push a tensor through the (inverse) generator scaling ``images``
    (old generator -> element over ``table``) and the parameter substitution
    ``sub`` (a ``Substitution``); cancellation happens here, before any
    valuation is read off."""
    return substitute_generators(w, images, table, sub)


def _min_exponents_from(wedges, space, group_syms):
    """Per group, the minimal integer n making every surviving eps exponent
    nonnegative.  ``wedges``: iterable of tensors."""
    eps_i = space.index(EPS)
    sym_i = {s: space.index(s) for syms in group_syms.values() for s in syms}
    mins = {g: None for g in group_syms}
    for w in wedges:
        for c in w.terms.values():
            for exps in c.terms:
                v = exps[eps_i]
                for g, syms in group_syms.items():
                    d = sum(exps[sym_i[s]] for s in syms)
                    if d > 0:
                        need = math.ceil(Fraction(-v, d))
                        if mins[g] is None or need > mins[g]:
                            mins[g] = need
    return mins


def solve_min_exponents(case: ContractionCase):
    """Minimal eps exponents for the classical r-matrix and the cocommutator,
    plus the coboundary verdict and the contracted r at the minima."""
    from . import catalog

    r = catalog.classical_r(case.lie_r_name)
    # r lives over (I, Jp, J3, Jm) for every gl(2) family, so the Lie-level
    # scaling is the one of the J3 basis
    scaling = catalog._scaling_j3()
    new_gens = scaling.new_gens

    # workspace: old params + new params + eps
    new_syms = sorted({img.target for img in case.lie_param_map.values() if img.target})
    space = r.ring.space.union(ParamSpace.make(*new_syms, EPS))
    ring = Ring.exact(space)
    table = RewriteTable.commuting(new_gens, ring)
    images = {old: _combo_element(table, combo, None) for old, combo in scaling.inverse.items()}

    group_syms = {}
    for old, g in case.lie_groups.items():
        tgt = case.lie_param_map[old].target
        if tgt:
            group_syms.setdefault(g, set()).add(tgt)

    # one substitution for r and every cocommutator, whose ring is r's
    sub0 = Substitution(r.ring, _lie_sigma(ring, case.lie_param_map,
                                           exponents={p: 0 for p in case.lie_param_map}), ring)

    r_t = transform_wedge(r, images, table, sub0)
    r_min = _min_exponents_from([r_t], space, group_syms)

    delta = bialgebra.cocommutator_from_r(catalog.lie_structure(case.lie_r_name), r)
    moved = {x: transform_wedge(d, images, table, sub0) for x, d in delta.items()}
    d_new = [lincomb(TensorElement(2, new_gens, ring, {}),
                     ((ring.term(mono, f), moved[x]) for f, mono, x in combo))
             for combo in scaling.forward.values()]
    d_min = _min_exponents_from(d_new, space, group_syms)

    # contracted r at the minimal exponents
    exps = {}
    for old, g in case.lie_groups.items():
        if r_min.get(g) is not None:
            exps[old] = r_min[g]
    sub = Substitution(r.ring, _lie_sigma(ring, case.lie_param_map, exponents=exps), ring)
    r_lim = transform_wedge(r, images, table, sub)
    r_contracted = r_lim.zero_slice(EPS, context="contracted r").to(
        replace(ring, space=space.without(EPS)))

    return ExponentSolution(r_min, d_min, r_contracted)


# ---------------------------------------------------------------------------
# quantum contraction
# ---------------------------------------------------------------------------

def _combo_element(table, combo, sub):
    """Linear combination [(Fraction, coeff-monomial, gen name)] -> element,
    with the parameter substitution ``sub`` (a ``Substitution``) applied to
    the coefficients."""
    ring = table.ring
    coeffs = (ring.term(mono, f) for f, mono, _ in combo)
    if sub:
        coeffs = map(sub, coeffs)
    return lincomb(table.zero(), zip(coeffs, (table.gen(g) for _, _, g in combo)))


def _transport(H, forward, inverse, table, casimir, sub=None, slice_symbol=None):
    """Rewrite the structure maps of ``H`` in new generators: ``forward`` maps
    each new generator to an element of ``H``, ``inverse`` each old generator
    to an element over ``table``.  Fills the rules of ``table`` pair by pair,
    each before it is first needed, then moves the coproducts and ``casimir``
    (an element of ``H`` or None) across, each coefficient through ``sub``
    (a ``Substitution`` from the ring of ``H`` to that of ``table``; None:
    a ring change).  Every move shares one memo of monomial images over
    ``table``; it is dropped only when a fill empties the table's
    normal-form cache, i.e. replaces a rule that a product read.  With
    ``slice_symbol``, every moved map is its zero slice on that symbol
    (``substitute_generators``), whose monomial images are bounded once,
    here (``_slice_bounds``); every rule is checked free of the symbol as
    it goes in.  Returns ``(coproduct, casimir)``."""
    memo = {}
    bounds = None if slice_symbol is None else _slice_bounds(H.gens, inverse, table, slice_symbol)

    def move(x, context):
        return substitute_generators(x, inverse, table, sub, memo, bounds, context)

    names = table.gens.names
    for i in range(len(names)):
        for j in range(i):
            com = commutator(forward[names[i]], forward[names[j]], H.table)
            if table.set_rule_by_index(i, j, move(com, f"[{names[i]},{names[j]}]")):
                memo.clear()
            if bounds:
                _check_free_of(table, slice_symbol, [(i, j)])
    coproduct = {y: move(apply_coproduct(forward[y], H.coproduct, H.table), f"Delta({y})")
                 for y in names}
    return coproduct, None if casimir is None else move(casimir, "casimir limit")


def contract_hopf(case: ContractionCase, order=4, force_exponents=None) -> HopfPresentation:
    """Substitute the scaling and parameter maps into every structure map of
    the source, take the eps -> 0 limit, and assemble the contracted
    presentation (with its contracted Casimir, if the source has one)."""
    from . import catalog

    src = catalog.get(case.source, order)
    tgt_space = case.target_space()
    ws = Ring.exact(src.ring.space.union(tgt_space).union(ParamSpace.make(EPS)))
    sub = Substitution(ws, _lie_sigma(ws, case.param_map, force_exponents), ws)
    src_ws = src.to(ws)

    new_gens = case.scaling.new_gens
    scaffold = RewriteTable.commuting(new_gens, ws)

    inverse_images = {
        old: _combo_element(scaffold, combo, sub)
        for old, combo in case.scaling.inverse.items()
    }
    forward_elements = {
        new: _combo_element(src_ws.table, combo, sub)
        for new, combo in case.scaling.forward.items()
    }

    # Casimir: lim eps^2 ( -C/2 + counterterm )
    casimir = None
    if src.casimir is not None and case.casimir_counterterm is not None:
        counterterm = case.casimir_counterterm(src.table).to(ws)
        casimir = src_ws.casimir.scale(Fraction(-1, 2)) + counterterm
        casimir = casimir.scale(ws.term({EPS: 2}))

    coproduct, casimir = _transport(src_ws, forward_elements, inverse_images, scaffold,
                                    casimir, sub, EPS)
    contracted = HopfPresentation(
        name=f"{case.source} --({case.name})--> {case.target}",
        table=scaffold,
        coproduct=coproduct,
        counit={n: Fraction(0) for n in new_gens.names},
        casimir=casimir,
    )
    # assemble at the requested order over the target space
    return contracted.to(Ring(tgt_space, order))


# ---------------------------------------------------------------------------
# presentation comparison and change of basis
# ---------------------------------------------------------------------------

def match_presentation(got: HopfPresentation, want: HopfPresentation) -> Check:
    """Term-for-term comparison of rewrite rules, coproducts, counits and
    Casimirs, as a ``Check`` that always lists its residuals."""
    names = got.gens.names
    if names != want.gens.names:
        return Check.of("match", [("generator mismatch: ", f"{names} vs {want.gens.names}")],
                        listed=True)
    if got.ring != want.ring:
        ring = Ring.exact(got.ring.space.union(want.ring.space))
        got, want = got.to(ring), want.to(ring)

    pairs = [(f"rule [{names[i]},{names[j]}]: ", got.table.rules[i, j] - want.table.rules[i, j])
             for i, j in sorted(got.table.rules)]
    for n in names:
        a, b = got.counit[n], want.counit[n]
        pairs += [(f"coproduct({n}): ", got.coproduct[n] - want.coproduct[n]),
                  (f"counit({n}): ", "" if Fraction(a) == Fraction(b) else f"{a} vs {b}")]
    if (got.casimir is None) != (want.casimir is None):
        pairs.append(("", "casimir present on one side only"))
    elif got.casimir is not None:
        pairs.append(("casimir: ", got.casimir - want.casimir))
    return Check.of("match", pairs, listed=True)


def change_of_basis(H: HopfPresentation, forward: dict) -> HopfPresentation:
    """Rewrite all structure maps in a new PBW basis given by
    ``forward``: generator name -> element (new basis element in old basis).

    The map must be unitriangular: forward(X) = X + terms of positive
    parameter weight."""
    table = H.table
    gens = H.gens
    order = H.ring.order

    # invert order-by-order: old generator as element over the primed basis,
    # with one memo of monomial images per ``inverse`` map (each round, the check)
    inverse = {n: table.gen(n) for n in gens.names}
    for _ in range(order + 2):
        nxt, memo = {}, {}
        for n in gens.names:
            corr = forward[n] - table.gen(n)
            nxt[n] = table.gen(n) - substitute_generators(corr, inverse, table, memo=memo)
        if all(nxt[n] == inverse[n] for n in gens.names):
            inverse = nxt
            break
        inverse = nxt
    memo = {}
    check = {n: substitute_generators(forward[n], inverse, table, memo=memo) for n in gens.names}
    for n in gens.names:
        if check[n] != table.gen(n):
            raise StructureError(f"basis map not invertible at order {order}: {n}")

    new_table = RewriteTable.commuting(gens, H.ring)
    coproduct, casimir = _transport(H, forward, inverse, new_table, H.casimir)
    return HopfPresentation(
        name=f"{H.name} [basis change]",
        table=new_table,
        coproduct=coproduct,
        counit=dict(H.counit),
        casimir=casimir,
    )


def classical_limit(H: HopfPresentation, rename=None) -> HopfPresentation:
    """All deformation parameters -> 0, optionally renaming generators: one
    lookup per coefficient (``zero_limit``)."""
    names = tuple(rename.get(n, n) if rename else n for n in H.gens.names)
    ring = replace(H.ring, space=ParamSpace.make())
    gens = GeneratorSet(names, H.gens.central)
    lim = H.map_tensors(zero_limit(H.ring, ring, gens), ring, gens)
    lim.name = f"{H.name} [classical limit]"
    return lim
