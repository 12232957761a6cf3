"""4x4 R-matrix verification: quantum Yang-Baxter equation on the triple
tensor product, exp-of-r construction in the fundamental representation,
parameter limits, and triangularity."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import TensorElement
from .errors import LookupError_
from .series import DEFAULT_FLOOR, ParamSpace, Ring, analytic_series, lincomb, taylor

F = Fraction


# ---------------------------------------------------------------------------
# matrices of Series
# ---------------------------------------------------------------------------

def mat_zero(ring, n):
    z = ring.zero()
    return [[z for _ in range(n)] for _ in range(n)]


def mat_identity(ring, n):
    m = mat_zero(ring, n)
    one = ring.one()
    for i in range(n):
        m[i][i] = one
    return m


def mat_lincomb(start, products):
    """``start + sum(a b)`` over the pairs ``(a, b)`` of square matrices in
    ``products``, each entry one ``lincomb`` over the pairs of nonzero
    factors of every product."""
    cols = [(a, list(zip(*b))) for a, b in products]
    return [[lincomb(s, [(x, y) for a, bc in cols for x, y in zip(a[i], bc[j]) if x and y])
             for j, s in enumerate(row)] for i, row in enumerate(start)]


def mat_mul(a, b):
    """The product of two square matrices: ``mat_lincomb`` from zero."""
    return mat_lincomb(mat_zero(a[0][0].ring, len(a)), [(a, b)])


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_is_zero(a):
    return all(not x for row in a for x in row)


def mat_nonzero_entries(a):
    """The nonzero entries as ``(label, entry)`` residual pairs."""
    return [(f"{(i, j)}: ", x) for i, row in enumerate(a) for j, x in enumerate(row) if x]


# ---------------------------------------------------------------------------
# QYBE and triangularity
# ---------------------------------------------------------------------------

def place_slots(r4, slots, n):
    """Place a 4x4 (2x2 (x) 2x2) matrix on the two slots named in ``slots``
    of an ``n``-fold tensor product of 2-dim spaces, its first factor on
    ``slots[0]``, with the identity on every other slot."""
    out = mat_zero(r4[0][0].ring, 1 << n)
    a, b = slots
    free = [n - 1 - s for s in range(n) if s not in slots]

    def pair(idx):
        return (((idx >> (n - 1 - a)) & 1) << 1) | ((idx >> (n - 1 - b)) & 1)

    for i in range(1 << n):
        for j in range(1 << n):
            if all((i >> f) & 1 == (j >> f) & 1 for f in free):
                out[i][j] = r4[pair(i)][pair(j)]
    return out


def qybe_residual(r4):
    """R12 R13 R23 - R23 R13 R12 on the triple tensor product, from three
    products: R12 T - (P12 T P12) R12 with T = R13 R23, the last two summed
    by one ``mat_lincomb``, with no pass for the difference.  P12, the swap of
    slots 0 and 1 (index bits 2 and 1), takes R13 to R23 and back, so
    R23 R13 = P12 T P12 is T with its entries relabelled, for every R.  The
    regrouping R12 (R13 R23) of (R12 R13) R23 is exact wherever truncation
    is a ring map (``Ring.lower_orders``), as on every ring built here: the
    series rings in (a, a_plus) and (b, b_plus), of weight 1 with no
    invertible symbol, and the exact rings, which do not truncate (family
    II's floor -4 covers the B^-3 that the products reach)."""
    r12 = place_slots(r4, (0, 1), 3)
    t = mat_mul(place_slots(r4, (0, 2), 3), place_slots(r4, (1, 2), 3))
    swap = [i ^ 6 if (i >> 1 ^ i >> 2) & 1 else i for i in range(8)]
    return mat_lincomb(mat_zero(r4[0][0].ring, 8),
                       [(r12, t), ([[t[i][j] for j in swap] for i in swap],
                                   [[-x for x in row] for row in r12])])


def triangularity_residual(r4):
    """R21 R - identity (zero iff the matrix is triangular); R21 is R placed
    on slots (1, 0)."""
    return mat_sub(mat_mul(place_slots(r4, (1, 0), 2), r4), mat_identity(r4[0][0].ring, 4))


def rmat_limit(r4, name):
    """Zero-slice of one parameter in every entry; negative powers raise."""
    space = r4[0][0].space
    if not space.has(name):
        raise LookupError_(name, space.symbols, what="parameter")
    return [[c.zero_slice(name, context=f"entry ({i},{j})")
             for j, c in enumerate(row)]
            for i, row in enumerate(r4)]


# ---------------------------------------------------------------------------
# fundamental representation and exp{r}
# ---------------------------------------------------------------------------

#: classical fundamental representation: generator name -> 2x2 rational matrix
FUNDAMENTAL_REP = {
    "J3": ((F(1), F(0)), (F(0), F(-1))),
    "Jp": ((F(0), F(1)), (F(0), F(0))),
    "Jm": ((F(0), F(0)), (F(1), F(0))),
    "I": ((F(1), F(0)), (F(0), F(1))),
}


def exp_wedge_rep(r: TensorElement, order):
    """Evaluate a classical r-matrix in rep (x) rep and exponentiate.

    Entry (2*i1 + i2, 2*j1 + j2) of rho(r) is the sum over the terms
    ``c * A (x) B`` of r of ``c * A[i1][j1] * B[i2][j2]``.  Its entries must
    carry parameter weight >= 1, so the exponential series terminates at the
    truncation order: exp is the sum of ``series.taylor``'s pairs."""
    ring = Ring(r.ring.space, order)
    zero = ring.zero()
    terms = [(c.to(ring), [FUNDAMENTAL_REP[r.gens.names[m.index(1)]] for m in ms])
             for ms, c in r.terms.items()]
    x = [[lincomb(zero, [(c, a[i // 2][j // 2] * b[i % 2][j % 2]) for c, (a, b) in terms])
          for j in range(4)] for i in range(4)]
    mw = min((c.min_wdeg() for row in x for c in row if c), default=None)
    pairs = list(taylor("exp", x, mat_identity(ring, 4), mat_mul, mw, order))
    return [[lincomb(zero, [(c, p[i][j]) for c, p in pairs]) for j in range(4)]
            for i in range(4)]


# ---------------------------------------------------------------------------
# the two printed matrices
# ---------------------------------------------------------------------------

def _family_I(ring, q, h):
    """The printed family-I matrix in its entries q and h."""
    one, zero = ring.one(), ring.zero()
    return [
        [one, h, -(q * h), h * h],
        [zero, q, one - q * q, q * h],
        [zero, zero, q, -h],
        [zero, zero, zero, one],
    ]


def _family_II(ring, e, em, p):
    """The printed family-II matrix in its entries e = e^b, em = e^-b and p."""
    one, zero = ring.one(), ring.zero()
    return [
        [one, -(em * p), p, -(em * p * p)],
        [zero, em, zero, em * p],
        [zero, zero, e, -p],
        [zero, zero, zero, one],
    ]


def _build_family_I(order):
    """Series mode in (a, a_plus): q = e^a, h = (a_plus/2)(e^a - 1)/a."""
    ring = Ring(ParamSpace.make("a", "a_plus"), order)
    a = ring.symbol("a")
    h = ring.symbol("a_plus", coeff=F(1, 2)) * analytic_series("expm1_over_arg", a)
    return _family_I(ring, analytic_series("exp", a), h)


def _build_family_I_exact():
    """Exact mode: Q and h as independent polynomial symbols; the QYBE check
    becomes an exact polynomial identity."""
    ring = Ring.exact(ParamSpace.make(("Q", 1, False), ("h", 1, False)))
    return _family_I(ring, ring.symbol("Q"), ring.symbol("h"))


def _build_family_II(order):
    """Series mode in (b, b_plus): p = (b_plus/2)(e^b - 1)/b."""
    ring = Ring(ParamSpace.make("b", "b_plus"), order)
    b = ring.symbol("b")
    p = ring.symbol("b_plus", coeff=F(1, 2)) * analytic_series("expm1_over_arg", b)
    return _family_II(ring, analytic_series("exp", b), analytic_series("exp", -b), p)


def _build_family_II_exact():
    """Exact mode: B = e^b invertible, p polynomial; floor -4 covers the
    B^{-3} reached by triple products."""
    ring = Ring.exact(ParamSpace.make(("B", 0, True), ("p", 1, False)), floor=DEFAULT_FLOOR)
    b = ring.symbol("B")
    return _family_II(ring, b, b ** -1, ring.symbol("p"))


_RMAT_BUILDERS = {
    "gl2.Iplus.standard": (_build_family_I, _build_family_I_exact),
    "gl2.II.nonstandard": (_build_family_II, _build_family_II_exact),
}


def rmat_names():
    return sorted(_RMAT_BUILDERS)


@lru_cache(maxsize=None)
def get_rmat(name, order=4, exact=False):
    """The named matrix, shared between callers and so handed out as a tuple
    of row tuples; every ``mat_*`` helper returns fresh lists."""
    if name not in _RMAT_BUILDERS:
        raise LookupError_(name, rmat_names())
    series_builder, exact_builder = _RMAT_BUILDERS[name]
    rows = exact_builder() if exact else series_builder(order)
    return tuple(map(tuple, rows))
