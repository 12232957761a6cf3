import pytest

from hopfc import catalog, rmatrix
from hopfc.errors import DivergenceError, LookupError_
from hopfc.series import ParamSpace, Ring

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
    with pytest.raises(DivergenceError):
        rmatrix.rmat_limit(R, "B")


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
