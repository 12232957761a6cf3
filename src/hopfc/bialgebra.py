"""Classical layer: Lie brackets, classical r-matrices, cocommutators and
their consistency checks (cocycle, co-Jacobi, Schouten bracket).

Vectors and tensors over the Lie-algebra basis are ``LinComb``s keyed by
tuples of generator indices: ``(k,)`` for a vector, ``(i, j, k)`` for rank 3."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import GeneratorSet, LinComb
from .errors import StructureError
from .series import Ring


@dataclass
class LieStructure:
    """Lie algebra given by structure constants on an ordered basis."""

    gens: GeneratorSet
    ring: Ring             # coefficients (the parameters of r etc.)
    brackets: dict         # (i, j) with i < j -> vector LinComb

    def scalar(self, c):
        return self.ring.const(c)

    def zero(self, cls=LinComb):
        return cls(self.gens, self.ring, {})

    def bracket_basis(self, i, j):
        """[X_i, X_j] as a vector; antisymmetry handled here."""
        if i < j:
            return self.brackets.get((i, j)) or self.zero()
        if i > j:
            return -(self.brackets.get((j, i)) or self.zero())
        return self.zero()

    def bracket(self, u, v):
        out = self.zero()
        for (i,), ci in u.terms.items():
            for (j,), cj in v.terms.items():
                out = out + self.bracket_basis(i, j).scale(ci * cj)
        return out

    def check_jacobi(self):
        residuals = []
        n = self.gens.dim
        for a, b, c in itertools.combinations(range(n), 3):
            u, v, w = (self.zero().add_terms([((k,), self.scalar(1))]) for k in (a, b, c))
            r = (self.bracket(self.bracket(u, v), w)
                 + self.bracket(self.bracket(v, w), u)
                 + self.bracket(self.bracket(w, u), v))
            if r:
                residuals.append((a, b, c, r))
        return residuals


class WedgeTensor(LinComb):
    """Antisymmetric rank-2 tensor in the wedge basis X_i ^ X_j with i < j,
    convention X ^ Y = X (x) Y - Y (x) X."""

    __slots__ = ()

    def __init__(self, gens, ring, terms):
        if any(i >= j for i, j in terms):
            raise StructureError("wedge entries must use i < j")
        super().__init__(gens, ring, terms)

    def add_wedges(self, items):
        """``self`` plus c * X_i ^ X_j for every ``((i, j), c)`` of ``items``."""
        return self.add_terms(((i, j), c) if i < j else ((j, i), -c)
                              for (i, j), c in items if i != j)

    @classmethod
    def from_tensor(cls, t: LinComb):
        """Antisymmetrize a rank-2 tensor: X_i (x) X_j -> X_i ^ X_j / 2."""
        half = Fraction(1, 2)
        return cls(t.gens, t.ring, {}).add_wedges(
            (k, c * half) for k, c in t.terms.items())

    def to_tensor(self) -> LinComb:
        return LinComb(self.gens, self.ring,
                       {k: v for (i, j), c in self.terms.items()
                        for k, v in (((i, j), c), ((j, i), -c))})

    def _render_key(self, k, full):
        i, j = k
        return f"{self.gens.names[i]}^{self.gens.names[j]}"


def _ad_terms(L: LieStructure, x, t: LinComb):
    """ad_x on a tensor by the Leibniz rule, as (key, coeff) pairs."""
    for key, c in t.terms.items():
        for s, a in enumerate(key):
            for (k,), ck in L.bracket_basis(x, a).terms.items():
                yield key[:s] + (k,) + key[s + 1:], c * ck


def _ad_on_wedge(L: LieStructure, x, w: WedgeTensor) -> WedgeTensor:
    """ad_x acting on a wedge tensor via the Leibniz extension."""
    return WedgeTensor.from_tensor(L.zero().add_terms(_ad_terms(L, x, w.to_tensor())))


def cocommutator_from_r(L: LieStructure, r: WedgeTensor):
    """delta(X) = [X (x) 1 + 1 (x) X, r], per generator, in wedge form."""
    return {x: _ad_on_wedge(L, x, r) for x in range(L.gens.dim)}


def check_cocycle(L: LieStructure, delta):
    """delta([X,Y]) = ad_X delta(Y) - ad_Y delta(X), all generator pairs."""
    residuals = []
    for x, y in itertools.combinations(range(L.gens.dim), 2):
        lhs = L.zero(WedgeTensor)
        for (k,), ck in L.bracket_basis(x, y).terms.items():
            lhs = lhs + delta[k].scale(ck)
        rhs = _ad_on_wedge(L, x, delta[y]) - _ad_on_wedge(L, y, delta[x])
        r = lhs - rhs
        if r:
            residuals.append((L.gens.names[x], L.gens.names[y], r))
    return residuals


def check_cojacobi(L: LieStructure, delta):
    """Circular sum of (delta (x) id) delta(X) vanishes for every X."""
    residuals = []
    for x in range(L.gens.dim):
        acc = L.zero().add_terms(
            (key, c * c2)
            for (a, b), c in delta[x].to_tensor().terms.items()
            for (p, q), c2 in delta[a].to_tensor().terms.items()
            for key in ((p, q, b), (b, p, q), (q, b, p)))
        if acc:
            residuals.append((L.gens.names[x], acc))
    return residuals


def schouten_bracket(L: LieStructure, r: WedgeTensor) -> LinComb:
    """[[r, r]] as a rank-3 tensor."""
    rt = r.to_tensor().terms

    def terms():
        for (a, b), c1 in rt.items():
            for (cc, d), c2 in rt.items():
                v = c1 * c2
                # [r12, r13] = [X_a, X_c] (x) X_b (x) X_d
                for (k,), ck in L.bracket_basis(a, cc).terms.items():
                    yield (k, b, d), v * ck
                # [r12, r23] = X_a (x) [X_b, X_c] (x) X_d
                for (k,), ck in L.bracket_basis(b, cc).terms.items():
                    yield (a, k, d), v * ck
                # [r13, r23] = X_a (x) X_c (x) [X_b, X_d]
                for (k,), ck in L.bracket_basis(b, d).terms.items():
                    yield (a, cc, k), v * ck

    return L.zero().add_terms(terms())


def is_ad_invariant(L: LieStructure, tensor3: LinComb):
    """Check a rank-3 tensor commutes with every ad-action."""
    return not any(L.zero().add_terms(_ad_terms(L, x, tensor3))
                   for x in range(L.gens.dim))
