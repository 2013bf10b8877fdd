"""Exact elimination, spectra and solving over the Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylkit.errors import IrrationalSpectrum
from weylkit.linalg import (charpoly, eigen_decomposition, eigenvalues,
                            mat_mul, mat_vec, nullspace, rank, rref, solve)
from weylkit.scalars import ONE, ZERO, Scalar

from .strategies import scalar_st


def _mat(rows):
    return [[Scalar(Fraction(c)) if not isinstance(c, Scalar) else c
             for c in row] for row in rows]


def test_rref_idempotent_and_pivots():
    a = _mat([[2, 4, 0], [1, 2, 1], [0, 0, 3]])
    reduced, pivots = rref(a)
    assert pivots == [0, 2]
    assert reduced[0][:2] == [ONE, Scalar(2)]
    again, pivots2 = rref(reduced)
    assert again == reduced and pivots2 == pivots


def test_rank():
    assert rank(_mat([[1, 2], [2, 4]])) == 1
    assert rank(_mat([[1, 0], [0, 1]])) == 2


def test_solve_consistent_and_inconsistent():
    a = _mat([[1, 1], [1, -1]])
    x = solve(a, [Scalar(3), Scalar(1)])
    assert x == [Scalar(2), Scalar(1)]
    assert solve(_mat([[1, 1], [1, 1]]), [Scalar(0), Scalar(1)]) is None


def test_nullspace_annihilates():
    a = _mat([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(a, v) == [ZERO, ZERO]


def test_charpoly_companion():
    # t² - 3t + 2 from its companion matrix, coefficients ascending
    a = _mat([[0, -2], [1, 3]])
    assert charpoly(a) == [Scalar(2), Scalar(-3), ONE]


def test_eigenvalues_with_multiplicity():
    a = _mat([[2, 1], [0, 2]])
    assert eigenvalues(a) == [(Scalar(2), 2)]


def test_eigen_decomposition_diagonalisable():
    a = _mat([[0, 1], [1, 0]])
    decomp = dict((lam, vecs) for lam, vecs in eigen_decomposition(a))
    assert set(decomp) == {Scalar(1), Scalar(-1)}
    for lam, vecs in decomp.items():
        assert len(vecs) == 1
        v = vecs[0]
        assert mat_vec(a, v) == [lam * c for c in v]


def test_eigen_decomposition_gaussian_rational_spectrum():
    a = _mat([[0, 1], [-1, 0]])
    lams = {lam for lam, _ in eigen_decomposition(a)}
    assert lams == {Scalar(0, 1), Scalar(0, -1)}


def test_irrational_spectrum_is_reported():
    with pytest.raises(IrrationalSpectrum):
        eigenvalues(_mat([[0, 2], [1, 0]]))  # x² - 2


@given(st.lists(st.lists(scalar_st, min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(scalar_st, min_size=3, max_size=3))
def test_solve_certifies_its_answer(a, b):
    x = solve(a, b)
    if x is not None:
        assert mat_vec(a, x) == b


@given(st.lists(st.lists(scalar_st, min_size=2, max_size=2),
                min_size=3, max_size=3))
def test_nullspace_dimension_complements_rank(a):
    assert rank(a) + len(nullspace(a)) == 2
    zero_vec = [ZERO] * 3
    for v in nullspace(a):
        assert mat_vec(a, v) == zero_vec


@given(st.lists(st.lists(scalar_st, min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.lists(st.lists(scalar_st, min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_charpoly_is_multiplicative_on_determinant(a, b):
    # the constant coefficient of det(tI - ·) is det on even sizes
    det_a = charpoly(a)[0]
    det_b = charpoly(b)[0]
    assert charpoly(mat_mul(a, b))[0] == det_a * det_b


# -- rref against the dense elimination it replaced --------------------------------


def _dense_rref(a):
    """The full-row update rref used before it skipped zero cells (reference)."""
    rows = [list(r) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, nrows) if rows[k][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _dense_nullspace(a):
    rows, pivots = _dense_rref(a)
    ncols = len(a[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


sparse_scalar_st = st.one_of(st.just(ZERO), scalar_st)


@st.composite
def sparse_matrix_st(draw):
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return [[draw(sparse_scalar_st) for _ in range(ncols)] for _ in range(nrows)]


@given(sparse_matrix_st(), st.data())
def test_rref_nullspace_solve_match_dense_elimination(a, data):
    snapshot = [list(row) for row in a]
    assert rref(a) == _dense_rref(a)
    assert a == snapshot
    assert nullspace(a) == _dense_nullspace(a)
    b = [data.draw(sparse_scalar_st) for _ in a]
    rows, pivots = _dense_rref([row + [rhs] for row, rhs in zip(a, b)])
    ncols = len(a[0])
    expected = None
    if ncols not in pivots:
        expected = [ZERO] * ncols
        for r, c in enumerate(pivots):
            expected[c] = rows[r][ncols]
    assert solve(a, b) == expected
