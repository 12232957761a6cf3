from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hopfc import catalog, rmatrix
from hopfc.algebra import Element, TensorElement
from hopfc.errors import DivergenceError, LookupError_, NonTruncatableError
from hopfc.series import ParamSpace, Ring, Series

NAMES = rmatrix.rmat_names()


def test_identity_satisfies_qybe():
    sp = ParamSpace.make("a")
    R = rmatrix.mat_identity(Ring(sp, 3), 4)
    assert rmatrix.mat_is_zero(rmatrix.qybe_residual(R))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("order", [2, 4, 6])
def test_qybe_series(name, order):
    R = rmatrix.get_rmat(name, order)
    assert rmatrix.mat_is_zero(rmatrix.qybe_residual(R))


@pytest.mark.parametrize("name", NAMES)
def test_qybe_exact(name):
    R = rmatrix.get_rmat(name, exact=True)
    assert rmatrix.mat_is_zero(rmatrix.qybe_residual(R))


def naive_mat_mul(a, b):
    """The product by a triple loop over ``terms``: every term pair of
    every ``a[i][k] * b[k][j]``, truncated by weighted degree."""
    ring = a[0][0].ring
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                for e1, c1 in a[i][k].terms.items():
                    for e2, c2 in b[k][j].terms.items():
                        e = tuple(p + q for p, q in zip(e1, e2))
                        if ring.space.wdeg(e) <= ring.order:
                            acc[e] = acc.get(e, F(0)) + c1 * c2
            row.append({e: c for e, c in acc.items() if c})
        out.append(row)
    return out


@st.composite
def _matrix_pairs(draw):
    """Two n x n matrices of series (n = 2 or 4), entries often zero; when
    ``cancel``, a's columns 0 and 1 agree and b's rows 0 and 1 are
    negatives, so the k = 0 and k = 1 products of every entry cancel."""
    n = draw(st.sampled_from([2, 4]))
    ring = Ring(ParamSpace.make("a", "a_plus"), draw(st.integers(1, 4)))
    coeff = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
    entry = st.one_of(st.just({}), st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff, max_size=3))

    def matrix():
        return [[Series(ring, draw(entry)) for _ in range(n)] for _ in range(n)]

    a, b = matrix(), matrix()
    if draw(st.booleans()):
        for row in a:
            row[1] = row[0]
        b[1] = [-x for x in b[0]]
    return a, b


@settings(max_examples=150, deadline=None)
@given(_matrix_pairs())
def test_mat_mul_matches_a_naive_triple_loop(ab):
    a, b = ab
    got = rmatrix.mat_mul(a, b)
    assert [[x.terms for x in row] for row in got] == naive_mat_mul(a, b)
    assert all(x.ring is a[0][0].ring for row in got for x in row)


def naive_qybe_residual(r4):
    """(R12 R13) R23 - (R23 R13) R12, every product by ``naive_mat_mul``."""
    ring = r4[0][0].ring

    def times(a, b):
        return [[Series(ring, t) for t in row] for row in naive_mat_mul(a, b)]

    r12, r13, r23 = (rmatrix.place_slots(r4, s, 3) for s in ((0, 1), (0, 2), (1, 2)))
    return rmatrix.mat_sub(times(times(r12, r13), r23), times(times(r23, r13), r12))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("order", [4, 8])
@pytest.mark.parametrize("flip", [False, True], ids=["catalog", "flipped"])
def test_qybe_residual_regrouped_is_exact_in_truncated_rings(name, order, flip):
    # R12 (R13 R23) and P12 (R13 R23) P12 stand for (R12 R13) R23 and
    # R23 R13; with R[0][1] sign-flipped the residual is nonzero
    R = [list(row) for row in rmatrix.get_rmat(name, order)]
    if flip:
        R[0][1] = -R[0][1]
    got = rmatrix.qybe_residual(R)
    assert [[x.raw for x in row] for row in got] == \
        [[x.raw for x in row] for row in naive_qybe_residual(R)]
    assert rmatrix.mat_is_zero(got) != flip


def test_qybe_residual_makes_three_matrix_products(monkeypatch):
    # T = R13 R23, then R12 T and (P12 T P12)(-R12) in one sum
    products = []

    def counted(start, pairs):
        products.extend(pairs)
        return mat_lincomb(start, pairs)

    mat_lincomb = rmatrix.mat_lincomb
    monkeypatch.setattr(rmatrix, "mat_lincomb", counted)
    rmatrix.qybe_residual(rmatrix.get_rmat("gl2.II.nonstandard", 4))
    assert len(products) == 3


def test_exp_of_r_reproduces_triangular_matrix():
    r = catalog.classical_r("gl2.II.nonstandard")
    E = rmatrix.exp_wedge_rep(r, 4)
    R = rmatrix.get_rmat("gl2.II.nonstandard", 4)
    assert rmatrix.mat_is_zero(rmatrix.mat_sub(E, R))


def test_exp_of_r_inverse_pair():
    r = catalog.classical_r("gl2.II.nonstandard")
    E = rmatrix.exp_wedge_rep(r, 4)
    Em = rmatrix.exp_wedge_rep(-r, 4)
    prod = rmatrix.mat_mul(E, Em)
    sp = E[0][0].space
    assert rmatrix.mat_is_zero(
        rmatrix.mat_sub(prod, rmatrix.mat_identity(Ring(sp, 4), 4)))


def test_exp_of_r_with_a_weight_zero_coefficient_is_refused():
    r = catalog.classical_r("gl2.II.nonstandard")
    j3, i = (Element.generator(r.gens, r.ring, n) for n in ("J3", "I"))
    w = TensorElement.outer([j3, i]) - TensorElement.outer([i, j3])
    with pytest.raises(NonTruncatableError):
        rmatrix.exp_wedge_rep(r + w, 4)


def test_exp_of_triangular_r_is_triangular_solution():
    r = catalog.classical_r("gl2.Iplus.nonstandard")
    E = rmatrix.exp_wedge_rep(r, 4)
    assert rmatrix.mat_is_zero(rmatrix.qybe_residual(E))
    assert rmatrix.mat_is_zero(rmatrix.triangularity_residual(E))


def test_full_two_parameter_matrix_is_not_triangular():
    R = rmatrix.get_rmat("gl2.Iplus.standard", 4)
    assert not rmatrix.mat_is_zero(rmatrix.triangularity_residual(R))


def test_a_limit_is_triangular_and_satisfies_qybe():
    R = rmatrix.rmat_limit(rmatrix.get_rmat("gl2.Iplus.standard", 4), "a")
    assert rmatrix.mat_is_zero(rmatrix.qybe_residual(R))
    assert rmatrix.mat_is_zero(rmatrix.triangularity_residual(R))


def test_a_plus_limit_satisfies_qybe():
    R = rmatrix.rmat_limit(rmatrix.get_rmat("gl2.Iplus.standard", 4), "a_plus")
    assert rmatrix.mat_is_zero(rmatrix.qybe_residual(R))


def test_limit_commutes_with_qybe_residual():
    R = rmatrix.get_rmat("gl2.II.nonstandard", 4)
    lim_then = rmatrix.qybe_residual(rmatrix.rmat_limit(R, "b"))
    then_lim = [[c.zero_slice("b") for c in row]
                for row in rmatrix.qybe_residual(R)]
    assert rmatrix.mat_is_zero(rmatrix.mat_sub(lim_then, then_lim))


def test_b_plus_limit_is_diagonal():
    R = rmatrix.rmat_limit(rmatrix.get_rmat("gl2.II.nonstandard", 4), "b_plus")
    for i in range(4):
        for j in range(4):
            if i != j:
                assert not R[i][j]


def test_limit_of_inverse_power_diverges():
    R = rmatrix.get_rmat("gl2.II.nonstandard", exact=True)
    with pytest.raises(DivergenceError) as info:
        rmatrix.rmat_limit(R, "B")
    assert str(info.value) == "entry (0,1): divergent terms under B -> 0: ['-1*B^-1*p']"


def test_unknown_matrix_name():
    with pytest.raises(LookupError_):
        rmatrix.get_rmat("nope")


def test_shared_matrix_is_immutable():
    R = rmatrix.get_rmat("gl2.II.nonstandard", 4)
    with pytest.raises(TypeError):
        R[1][3] = -R[1][3]
    with pytest.raises(TypeError):
        R[1] = R[2]
    fresh = rmatrix._build_family_II(4)
    assert rmatrix.get_rmat("gl2.II.nonstandard", 4) == tuple(map(tuple, fresh))
    assert rmatrix.mat_is_zero(rmatrix.qybe_residual(rmatrix.get_rmat("gl2.II.nonstandard", 4)))
