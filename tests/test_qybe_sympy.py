"""Exact-mode QYBE against an independent oracle: sympy builds R12, R13 and
R23 with Kronecker products and a slot swap (not ``place_slots``), and
expands R12 R13 R23 - R23 R13 R12 as Laurent polynomials.  Test-only; skipped
where sympy is not installed."""

import pytest

from hopfc import rmatrix

sympy = pytest.importorskip("sympy")


def to_sympy(s, symbols):
    """A ``Series`` of the untruncated ring as a sympy expression."""
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[x ** e for x, e in zip(symbols, exps)])
                       for exps, c in s.terms.items()])


def oracle_residual(r4, symbols):
    """R12 R13 R23 - R23 R13 R12, slot 0 the most significant bit of an
    index, as ``place_slots`` numbers them."""
    R = sympy.Matrix(4, 4, lambda i, j: to_sympy(r4[i][j], symbols))
    eye = sympy.eye(2)
    swap = sympy.Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    p23 = sympy.kronecker_product(eye, swap)
    r12 = sympy.kronecker_product(R, eye)
    r23 = sympy.kronecker_product(eye, R)
    r13 = p23 * r12 * p23
    return (r12 * r13 * r23 - r23 * r13 * r12).applyfunc(sympy.expand)


def check_against_oracle(r4):
    symbols = sympy.symbols(r4[0][0].space.symbols)
    got = rmatrix.qybe_residual(r4)
    want = oracle_residual(r4, symbols)
    for i in range(8):
        for j in range(8):
            assert sympy.expand(to_sympy(got[i][j], symbols) - want[i, j]) == 0, (i, j)
    return want


@pytest.mark.parametrize("name", rmatrix.rmat_names())
def test_exact_qybe_residual_matches_sympy(name):
    R = rmatrix.get_rmat(name, exact=True)
    assert check_against_oracle(R).is_zero_matrix
    assert rmatrix.mat_is_zero(rmatrix.qybe_residual(R))


@pytest.mark.parametrize("name", rmatrix.rmat_names())
def test_a_flipped_sign_gives_the_same_nonzero_residual_on_both_sides(name):
    R = [list(row) for row in rmatrix.get_rmat(name, exact=True)]
    R[0][1] = -R[0][1]
    want = check_against_oracle(R)
    assert not want.is_zero_matrix
    assert not rmatrix.mat_is_zero(rmatrix.qybe_residual(R))
