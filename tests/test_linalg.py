"""Exact elimination, spectra and solving over the Gaussian rationals."""

from fractions import Fraction

import random
from collections import Counter
from math import gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weylkit import dixmier, liestruct, linalg
from weylkit.elements import WeylElement, _term_order, bracket, p, q
from weylkit.errors import BadParams, IrrationalSpectrum
from weylkit.linalg import Echelon, charpoly, eigen_decomposition, eigenvalues, integer_kernel, rref
from weylkit.scalars import ONE, ZERO, Scalar, _clear

from . import frozen_eigen
from .frozen_echelon import ScalarEchelon, echelon_kernel
from .frozen_echelon import eigen_decomposition as frozen_eigen_decomposition
from .strategies import big_scalar_st, scalar_st


def _mat(rows):
    return [[Scalar(Fraction(c)) if not isinstance(c, Scalar) else c
             for c in row] for row in rows]


def _mat_vec(a, v):
    return [sum((x * v[k] for k, x in enumerate(row)), ZERO) for row in a]


def _mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)] for row in a]


def _sparse(v):
    return {k: x for k, x in enumerate(v) if x}


def _columns(a):
    """The sparse columns of a dense matrix, keyed by row index."""
    return [_sparse(col) for col in zip(*a)]


def _cleared(v):
    """A sparse Scalar vector as the engine takes it: (numerators over Z[i], den)."""
    (num,), den = _clear(v)
    return num, den


def _over(coords):
    """Numerators over one int (num, n) from the engine as Scalars {k: num[k]/n}."""
    num, n = coords
    return {k: Scalar(a, b) / n for k, (a, b) in num.items()}


def _scalars(coords, keys):
    """Coordinates from the engine as a list of Scalars, one per key; None for None."""
    return None if coords is None else [_over(coords).get(k, ZERO) for k in keys]


def _unit(row, pivot):
    """A row over Z[i] divided by its pivot value, as Scalars."""
    p = Scalar(*row[pivot])
    return {c: Scalar(a, b) / p for c, (a, b) in row.items()}


def _kernel(columns):
    """``integer_kernel`` on Scalar columns cleared over one denominator, each
    relation divided by its s, the entry at its largest key."""
    return [_unit(rel, max(rel)) for rel in integer_kernel(_clear(*columns)[0])]


def _eigenvalues(a):
    """``eigenvalues`` of a dense Scalar matrix, on its columns cleared over one lcm."""
    return eigenvalues(*_clear(*_columns(a)))


def _eigen_decomposition(a):
    """``eigen_decomposition`` of a dense Scalar matrix, on its columns cleared over
    one lcm, each relation as the dense Scalar vector with one at its largest key."""
    return [(lam, [[_unit(rel, max(rel)).get(c, ZERO) for c in range(len(a))] for rel in rels])
            for lam, rels in eigen_decomposition(*_clear(*_columns(a)))]


def _rank(a):
    """The rank of a, as the dimension of an Echelon over its rows."""
    span = Echelon()
    for row in a:
        span.insert(*_cleared(_sparse(row)))
    return span.dim


def _nullspace(a):
    """``_kernel`` on the columns of a, one dense vector per free column."""
    return [[v.get(c, ZERO) for c in range(len(a[0]))] for v in _kernel(_columns(a))]


def _solve(a, b):
    """One solution of a·x = b, free variables zero, by ``Echelon.express``
    over the inserted columns of a; None if there is none."""
    columns = Echelon()
    for col in _columns(a):
        columns.insert(*_cleared(col))
    return _scalars(columns.express(*_cleared(_sparse(b))), range(columns.ngens))


def test_rref_idempotent_and_pivots():
    a = _mat([[2, 4, 0], [1, 2, 1], [0, 0, 3]])
    reduced, pivots = rref(a)
    assert pivots == [0, 2]
    assert reduced[0][:2] == [ONE, Scalar(2)]
    again, pivots2 = rref(reduced)
    assert again == reduced and pivots2 == pivots


def test_rank():
    assert _rank(_mat([[1, 2], [2, 4]])) == 1
    assert _rank(_mat([[1, 0], [0, 1]])) == 2


def test_solve_consistent_and_inconsistent():
    a = _mat([[1, 1], [1, -1]])
    x = _solve(a, [Scalar(3), Scalar(1)])
    assert x == [Scalar(2), Scalar(1)]
    assert _solve(_mat([[1, 1], [1, 1]]), [Scalar(0), Scalar(1)]) is None


def test_nullspace_annihilates():
    a = _mat([[1, 2, 3], [2, 4, 6]])
    basis = _nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert _mat_vec(a, v) == [ZERO, ZERO]


def test_charpoly_companion():
    # t² - 3t + 2 from its companion matrix, coefficients ascending
    a = _mat([[0, -2], [1, 3]])
    assert charpoly(a) == [Scalar(2), Scalar(-3), ONE]


def test_eigenvalues_with_multiplicity():
    a = _mat([[2, 1], [0, 2]])
    assert _eigenvalues(a) == [(Scalar(2), 2)]
    # not triangular, so the double root comes from the charpoly's root search
    assert _eigenvalues(_mat([[3, 1], [-1, 1]])) == [(Scalar(2), 2)]


def test_eigen_decomposition_diagonalisable():
    a = _mat([[0, 1], [1, 0]])
    decomp = dict((lam, vecs) for lam, vecs in _eigen_decomposition(a))
    assert set(decomp) == {Scalar(1), Scalar(-1)}
    for lam, vecs in decomp.items():
        assert len(vecs) == 1
        v = vecs[0]
        assert _mat_vec(a, v) == [lam * c for c in v]


def test_eigen_decomposition_gaussian_rational_spectrum():
    a = _mat([[0, 1], [-1, 0]])
    lams = {lam for lam, _ in _eigen_decomposition(a)}
    assert lams == {Scalar(0, 1), Scalar(0, -1)}


def test_irrational_spectrum_is_reported():
    with pytest.raises(IrrationalSpectrum):
        _eigenvalues(_mat([[0, 2], [1, 0]]))  # x² - 2


@pytest.mark.parametrize("call", [
    lambda: rref([[ONE, ONE], [ONE]]),
    lambda: charpoly([[ONE], [ONE]]),
    lambda: eigenvalues([[ONE, ZERO]]),
    lambda: rref([[ONE, 0.5]]),
], ids=["ragged rref", "non-square charpoly", "Scalar rows to eigenvalues", "float entry"])
def test_a_malformed_matrix_raises_bad_params(call):
    # each of these returned an answer without an error: rref read the ragged
    # rows as a 2x2 identity, charpoly gave t² - t and eigenvalues [(1, 1)]
    with pytest.raises(BadParams):
        call()


def test_eigenvalues_refuse_columns_off_the_square():
    for columns, den in [([{0: (1, 0), 1: (0, 1)}], 1), ([{-1: (1, 0)}, {}], 1),
                         ([{0: (1, 0)}], 0), ([{0: (1, 0)}], Fraction(1, 2))]:
        with pytest.raises(BadParams):
            eigenvalues(columns, den)


def test_the_scalar_matrix_edge_takes_ints_and_fractions():
    # entries go through the one coefficient reader, as change_basis's do; an
    # int raised AttributeError
    assert charpoly([[1, 2], [3, 4]]) == [Scalar(-2), Scalar(-5), ONE]
    assert rref([[Fraction(1, 2), 1], [1, 2]]) == ([[ONE, Scalar(2)], [ZERO, ZERO]], [0])
    assert charpoly([[Fraction(1, 2), Scalar(0, 1)], [2, 0]]) == [Scalar(0, -2),
                                                                  Scalar(Fraction(-1, 2)), ONE]


@given(st.lists(st.lists(scalar_st, min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(scalar_st, min_size=3, max_size=3))
def test_solve_certifies_its_answer(a, b):
    x = _solve(a, b)
    if x is not None:
        assert _mat_vec(a, x) == b


@given(st.lists(st.lists(scalar_st, min_size=2, max_size=2),
                min_size=3, max_size=3))
def test_nullspace_dimension_complements_rank(a):
    assert _rank(a) + len(_nullspace(a)) == 2
    zero_vec = [ZERO] * 3
    for v in _nullspace(a):
        assert _mat_vec(a, v) == zero_vec


@given(st.lists(st.lists(scalar_st, min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.lists(st.lists(scalar_st, min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_charpoly_is_multiplicative_on_determinant(a, b):
    # the constant coefficient of det(tI - ·) is det on even sizes
    det_a = charpoly(a)[0]
    det_b = charpoly(b)[0]
    assert charpoly(_mat_mul(a, b))[0] == det_a * det_b


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
    assert _nullspace(a) == _dense_nullspace(a)
    b = [data.draw(sparse_scalar_st) for _ in a]
    rows, pivots = _dense_rref([row + [rhs] for row, rhs in zip(a, b)])
    ncols = len(a[0])
    expected = None
    if ncols not in pivots:
        expected = [ZERO] * ncols
        for r, c in enumerate(pivots):
            expected[c] = rows[r][ncols]
    assert _solve(a, b) == expected


# -- kernels by column insertion against the rref-based versions they replaced ----


def _rref_solve(a, b):
    """solve as it was built on rref, with free variables zero (reference)."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = rref([row + [rhs] for row, rhs in zip(a, b)])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, c in zip(rows, pivots):
        x[c] = row[ncols]
    return x


def _rref_nullspace(a):
    """nullspace as it was built on rref, one vector per free column (reference)."""
    if not a:
        return []
    rows, pivots = rref(a)
    ncols = len(a[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


@st.composite
def system_st(draw):
    """A sparse or low-rank matrix a with a right-hand side b.

    Low-rank matrices are products of sparse factors through rank ≤ 3, so
    most have free columns; b is a·x for a drawn x, or drawn freely, which
    on a rank-deficient a is usually inconsistent.
    """
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        a = [[draw(sparse_scalar_st) for _ in range(ncols)] for _ in range(nrows)]
    else:
        r = draw(st.integers(1, 3))
        left = [[draw(sparse_scalar_st) for _ in range(r)] for _ in range(nrows)]
        right = [[draw(sparse_scalar_st) for _ in range(ncols)] for _ in range(r)]
        a = _mat_mul(left, right)
    if draw(st.booleans()):
        b = _mat_vec(a, [draw(sparse_scalar_st) for _ in range(ncols)])
    else:
        b = [draw(sparse_scalar_st) for _ in range(nrows)]
    return a, b


@given(system_st())
def test_kernel_nullspace_and_solve_match_the_rref_versions(system):
    a, b = system
    assert _nullspace(a) == _rref_nullspace(a)
    assert _solve(a, b) == _rref_solve(a, b)
    # kernel alone, on sparse columns keyed by non-integer rows
    ncols = len(a[0])
    columns = [{("row", r): row[c] for r, row in enumerate(a) if row[c]} for c in range(ncols)]
    relations = _kernel(columns)
    assert all(all(rel.values()) for rel in relations)
    assert [[rel.get(c, ZERO) for c in range(ncols)] for rel in relations] == _rref_nullspace(a)


def test_kernels_use_no_dense_routine(monkeypatch):
    def dense(*args):
        raise AssertionError("a dense routine was called")

    for module in (linalg, liestruct, dixmier):
        monkeypatch.setattr(module, "rref", dense, raising=False)
    a = _mat([[1, 2, 3], [2, 4, 6]])
    assert len(_nullspace(a)) == 2
    assert _solve(a, [Scalar(1), Scalar(2)]) == [ONE, ZERO, ZERO]
    for tag in ("Sl2SemidirectH3", "Sl2SemidirectC2"):
        algebra = liestruct.catalog(liestruct.CatalogTag(tag)).algebra
        assert liestruct.recognize(algebra) == liestruct.CatalogTag(tag)
    chain = liestruct.filiform_normal_basis(liestruct.catalog(liestruct.CatalogTag("L", 5)).realization)
    assert len(chain) == 6
    assert len(dixmier.eigenvectors_truncated(p * q, 1, 4)) == 2
    # a triangular spectrum is read off the diagonal and any other from the
    # charpoly on Gaussian integers; each eigenspace is read off the sparse
    # columns of a - λI
    b = _mat([[2, 1, 0], [0, 2, 0], [0, 0, -1]])
    for c in (b, _conjugate(b, [(2, 0, ONE)])):
        assert [(lam, len(vecs)) for lam, vecs in _eigen_decomposition(c)] == [(Scalar(-1), 1),
                                                                              (Scalar(2), 1)]
    real = liestruct.catalog(liestruct.CatalogTag("Sl2")).realization
    spaces = liestruct.weight_spaces(real, real.algebra.labels.index("H"))
    assert sorted(len(v) for v in spaces.values()) == [1, 1, 1]


# -- the Gaussian-integer engines against the Scalar code they replaced -------------


def _scalar_charpoly(a):
    """``charpoly`` as it was: Faddeev–LeVerrier on Scalars, frozen (reference)."""
    n = len(a)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    am = [[ZERO] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [list(row) for row in am]
        for d in range(n):
            m[d][d] = m[d][d] + coeffs[n - k + 1]
        am = _mat_mul(a, m)
        tr = sum((am[d][d] for d in range(n)), ZERO)
        coeffs[n - k] = -tr / k
    return coeffs


@st.composite
def dense_columns_st(draw, nrows=None, ncols=None):
    """Dense columns of 30-digit Gaussian rationals over mixed denominators, with
    zero columns, duplicates, multiples and combinations of earlier columns."""
    nrows = nrows or draw(st.integers(1, 5))
    entry = st.one_of(st.just(ZERO), big_scalar_st)
    columns = []
    for _ in range(ncols or draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["fresh", "zero", "duplicate", "combination"]))
        if kind == "zero":
            col = [ZERO] * nrows
        elif kind == "fresh" or not columns:
            col = [draw(entry) for _ in range(nrows)]
        elif kind == "duplicate":
            col = list(draw(st.sampled_from(columns)))
        else:
            col = [ZERO] * nrows
            for other in draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3)):
                c = draw(st.one_of(big_scalar_st, scalar_st))
                col = [x + c * y for x, y in zip(col, other)]
        columns.append(col)
    return columns


def _content(pairs):
    return gcd(*(t for pair in pairs for t in pair))


@given(dense_columns_st())
def test_kernel_matches_the_echelon_kernel(columns):
    sparse = [_sparse(col) for col in columns]
    assert _kernel(sparse) == echelon_kernel(sparse)
    # the engine divides out integer content: each reduction (remainder,
    # multiples subtracted and scale) is primitive
    span = Echelon()
    for col in sparse:
        rem, used, s, pivot = span._reduce(*_cleared(col))
        assert _content([s, *rem.values(), *used.values()]) == 1
        span._append(rem, used, s, pivot)


# scrambled against _term_order, so the two keys give different pivots
_MONOMIALS = [(0, 1), (2, 0), (0, 0), (1, 1), (3, 0)]


@st.composite
def echelon_problem_st(draw):
    """A key, rows and query vectors over 30-digit numerators and mixed
    denominators, with zero rows, duplicates, multiples and combinations."""
    width = draw(st.integers(1, 5))
    vectors = draw(dense_columns_st(width))
    key = draw(st.sampled_from([None, _term_order]))
    cols = range(width) if key is None else _MONOMIALS
    sparse = [{cols[c]: x for c, x in enumerate(v) if x} for v in vectors]
    return key, sparse[:draw(st.integers(0, len(sparse)))], sparse


def _unit_rows(span):
    return [_unit(row, pivot) for row, pivot in zip(span.rows, span.pivots)]


@given(echelon_problem_st())
def test_echelon_matches_the_scalar_engine(problem):
    key, rows, queries = problem
    new, old = Echelon(key=key), ScalarEchelon(rows, key=key)
    for row in rows:
        new.insert(*_cleared(row))
    assert (_unit_rows(new), new.pivots, new.ngens) == (old.rows, old.pivots, old.ngens)
    assert [_over(row) for row in new.reduced_rows()] == old.reduced_rows()
    for v in queries:
        assert new.contains(*_cleared(v)) == old.contains(v)
        assert _scalars(new.express(*_cleared(v)), range(new.ngens)) == old.express(v)
        assert _scalars(new.row_coordinates(*_cleared(v)), range(new.dim)) == \
            old.row_coordinates(v)
    new, old = Echelon(key=key), ScalarEchelon(key=key)
    for v in queries:
        assert _over(new.insert_coordinates(*_cleared(v))) == old.insert_coordinates(v)
    assert (_unit_rows(new), new.pivots) == (old.rows, old.pivots)


def _domain_charpoly(a):
    """Reference: sympy's DomainMatrix.charpoly over QQ_I, coefficients ascending."""
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    n = len(a)
    dm = DomainMatrix([[QQ_I(QQ(x.re.numerator, x.re.denominator),
                             QQ(x.im.numerator, x.im.denominator)) for x in row]
                       for row in a], (n, n), QQ_I)
    return [Scalar(Fraction(int(g.x.numerator), int(g.x.denominator)),
                   Fraction(int(g.y.numerator), int(g.y.denominator)))
            for g in reversed(dm.charpoly())]


@st.composite
def square_matrix_st(draw):
    n = draw(st.integers(1, 5))
    return [list(row) for row in zip(*draw(dense_columns_st(n, n)))]


@given(square_matrix_st())
def test_charpoly_matches_the_scalar_recursion_and_sympy(a):
    assert charpoly(a) == _scalar_charpoly(a) == _domain_charpoly(a)


def _bracket_eigenvectors(x, lam, max_degree):
    """``eigenvectors_truncated`` as it was: the Scalar columns [x, m] − λm of
    ``bracket`` fed to the frozen kernel (reference)."""
    unknowns = [(i, j) for i in range(max_degree + 1) for j in range(max_degree + 1 - i)]
    columns = [(bracket(x, WeylElement.monomial(*m)) - WeylElement.monomial(*m).scale(lam)).terms
               for m in unknowns]
    span = ScalarEchelon(({unknowns[j]: c for j, c in rel.items()}
                          for rel in echelon_kernel(columns)), key=_term_order)
    return [WeylElement(row) for row in span.reduced_rows()]


@st.composite
def eigen_problem_st(draw):
    """x = c·pq + e plus optional terms, and λ often c·k, where m = p^i q^j with
    j − i = k gives a zero column; 30-digit numerators, mixed denominators."""
    c = draw(big_scalar_st.filter(bool))
    x = WeylElement({(1, 1): c, (0, 0): draw(big_scalar_st)})
    for m in draw(st.lists(st.sampled_from([(1, 0), (0, 1), (2, 0), (0, 2), (1, 2), (2, 1)]),
                           max_size=2, unique=True)):
        x = x + WeylElement({m: draw(st.one_of(big_scalar_st, scalar_st))})
    weight = st.integers(-3, 3).map(lambda k: c * k)
    # c·k/r is a weight only if the denominator r is mishandled
    off_weight = st.tuples(st.integers(-3, 3), st.integers(2, 4)).map(lambda kr: c * kr[0] / kr[1])
    lam = draw(st.one_of(weight, weight, weight, off_weight, big_scalar_st, scalar_st))
    return x, lam, draw(st.integers(0, 5))


@given(eigen_problem_st())
def test_eigenvectors_truncated_match_the_bracket_columns(problem):
    x, lam, degree = problem
    assert dixmier.eigenvectors_truncated(x, lam, degree) == _bracket_eigenvectors(x, lam, degree)


@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                       st.sampled_from([1, -1, Scalar(0, 1), Fraction(1, 2)]),
                       min_size=1, max_size=3).map(WeylElement),
       st.integers(-2, 2), st.integers(0, 3))
@example(q ** 4 + p ** 3, 0, 1)
@example(q ** 5 + p ** 4, 0, 2)
def test_eigenvectors_of_exponents_past_the_window_match_the_bracket_columns(x, lam, degree):
    # the columns reach p-exponents past the window, which their codes must
    # keep apart: coded over the window alone, p^3 + q^4 at degree 1 merges
    # p^2 with q^3 and finds an eigenvector that is none
    assert dixmier.eigenvectors_truncated(x, lam, degree) == _bracket_eigenvectors(x, lam, degree)


# -- eigenvalues against sympy's factorisation over Q(i) ---------------------------


def _factor_list_eigenvalues(a):
    """Reference: sympy's charpoly and factor_list over QQ_I, sorted like eigenvalues."""
    from sympy import Poly, Symbol
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def back(g):
        return Scalar(Fraction(int(g.x.numerator), int(g.x.denominator)),
                      Fraction(int(g.y.numerator), int(g.y.denominator)))

    n = len(a)
    dm = DomainMatrix([[QQ_I(QQ(x.re.numerator, x.re.denominator),
                             QQ(x.im.numerator, x.im.denominator)) for x in row]
                       for row in a], (n, n), QQ_I)
    out = []
    for f, mult in Poly(dm.charpoly(), Symbol("t"), domain=QQ_I).factor_list()[1]:
        if f.degree() > 1:
            raise IrrationalSpectrum(f"irreducible factor of degree {f.degree()}")
        top, const = f.rep.to_list()
        out.append((-back(const) / back(top), mult))
    return sorted(out, key=lambda pair: pair[0].sort_key())


def _elementary(n, r, c, g):
    e = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    e[r][c] = g
    return e


def _conjugate(a, moves):
    """u·a·u⁻¹ for u the product of the elementary Z[i] matrices I + g·e_rc."""
    n = len(a)
    for r, c, g in moves:
        a = _mat_mul(_mat_mul(_elementary(n, r, c, g), a), _elementary(n, r, c, -g))
    return a


def _triangular(diagonal, above):
    n = len(diagonal)
    return [[diagonal[r] if r == c else (above[r][c] if c > r else ZERO)
             for c in range(n)] for r in range(n)]


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[ZERO] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for r, row in enumerate(b):
            out[k + r][k:k + len(b)] = row
        k += len(b)
    return out


gaussian_int_st = st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2))
_HALF_THIRD = Scalar(Fraction(1, 2), Fraction(1, 3))
# small values keep N(a₀) under the norm budget, so the root search is what runs
eigen_st = st.one_of(
    st.builds(Scalar, st.integers(-4, 4), st.integers(-4, 4)),
    st.sampled_from([_HALF_THIRD, Scalar(Fraction(-3, 2)), Scalar(0, Fraction(-1, 3)),
                     Scalar(Fraction(1, 2), Fraction(-1, 2)), Scalar(Fraction(2, 3), 2)]))


@st.composite
def moves_st(draw, n):
    if n == 1:
        return []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda rc: rc[0] != rc[1])
    return [(*draw(pair), draw(gaussian_int_st)) for _ in range(draw(st.integers(0, 2 * n)))]


@st.composite
def split_matrix_st(draw):
    """A matrix with a prescribed Q(i) spectrum, repeated values likely."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(eigen_st, min_size=1, max_size=3))
    spectrum = [draw(st.sampled_from(pool)) for _ in range(n)]
    above = [[draw(st.one_of(st.just(ZERO), eigen_st)) for _ in range(n)] for _ in range(n)]
    return spectrum, _conjugate(_triangular(spectrum, above), draw(moves_st(n)))


@given(split_matrix_st())
def test_eigenvalues_match_the_factoriser_on_split_spectra(case):
    spectrum, a = case
    got = _eigenvalues(a)
    assert got == _factor_list_eigenvalues(a)
    assert dict(got) == Counter(spectrum)


@pytest.mark.parametrize("spectrum", [
    [_HALF_THIRD],
    [Scalar(5)],
    [ZERO],
    [_HALF_THIRD, _HALF_THIRD, Scalar(-1)],
    [ZERO, ZERO, ZERO, ZERO],
    [ZERO, ZERO, Scalar(2), Scalar(0, 1), Scalar(Fraction(-2, 5))],
    [Scalar(0, 3), Scalar(0, -3), Scalar(-4), Scalar(-4), Scalar(2), ZERO],
], ids=["1x1 non-integral", "1x1 integer", "1x1 zero", "repeated non-integral",
        "nilpotent", "double zero root", "workload-like"])
def test_eigenvalues_of_prescribed_spectra(spectrum):
    rng = random.Random(len(spectrum))
    n = len(spectrum)
    above = [[Scalar(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
    moves = [(r, c, Scalar(rng.randint(-2, 2), rng.randint(-2, 2)))
             for r, c in ((rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)) if r != c]
    a = _conjugate(_triangular(spectrum, above), moves)
    got = _eigenvalues(a)
    assert got == _factor_list_eigenvalues(a)
    assert dict(got) == Counter(spectrum)


# Gaussian rationals for the conjugating moves, so the entries mix denominators
_move_st = st.one_of(gaussian_int_st, st.sampled_from(
    [Scalar(Fraction(1, 3)), Scalar(Fraction(-2, 5), Fraction(1, 7)), Scalar(0, Fraction(3, 4))]))


@st.composite
def eigenspace_matrix_st(draw):
    """A conjugated triangular or block-diagonal matrix with a prescribed spectrum
    from a small pool, so values repeat; the entries above the diagonal are
    often zero (a larger eigenspace) and often not (a defective eigenvalue)."""
    pool = draw(st.lists(eigen_st, min_size=1, max_size=3))
    entry = st.one_of(st.just(ZERO), st.just(ZERO), eigen_st)
    if draw(st.booleans()):
        spectrum = [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(1, 5)))]
        a = _triangular(spectrum, [[draw(entry) for _ in spectrum] for _ in spectrum])
    else:
        blocks = []
        for _ in range(draw(st.integers(1, 3))):
            values = [draw(st.sampled_from(pool))] * draw(st.integers(1, 2))
            blocks.append(_triangular(values, [[draw(entry) for _ in values] for _ in values]))
        spectrum = [x for b in blocks for x in (row[r] for r, row in enumerate(b))]
        a = _block_diagonal(*blocks)
    n = len(a)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda rc: rc[0] != rc[1])
    moves = [(*draw(pair), draw(_move_st)) for _ in range(draw(st.integers(0, 2 * n)))] if n > 1 else []
    return spectrum, _conjugate(a, moves)


@given(eigenspace_matrix_st())
def test_integer_eigenspaces_match_the_frozen_decomposition(case):
    spectrum, a = case
    n = len(a)
    columns, den = _clear(*_columns(a))
    got, want = eigen_decomposition(columns, den), frozen_eigen_decomposition(a)
    assert dict(eigenvalues(columns, den)) == Counter(spectrum)
    assert [lam for lam, _ in got] == [lam for lam, _ in want]
    for (lam, relations), (_, vectors) in zip(got, want):
        assert all(type(t) is int for rel in relations for z in rel.values() for t in z)
        dense = [[Scalar(*rel.get(c, (0, 0))) for c in range(n)] for rel in relations]
        for v in dense:
            assert _mat_vec(a, v) == [lam * x for x in v]
        # the same number of independent vectors, spanning the same space
        assert len(dense) == len(vectors) == _rank(dense) == _rank(dense + vectors)


def test_mixed_denominators_stay_on_the_root_search(monkeypatch):
    # entry denominators 5, 7, 14, 35 and 70 but a spectrum over 2: scaled by
    # the entry lcm 70, N(a₀) is about 10¹⁴, past the norm budget, while the
    # least scale 2 gives N(a₀) = 81
    spectrum = [Scalar(Fraction(3, 2)), Scalar(Fraction(-1, 2)), Scalar(0, Fraction(3, 2)),
                Scalar(Fraction(1, 2))]
    above = [[ZERO, Scalar(Fraction(1, 35)), Scalar(Fraction(2, 7)), Scalar(Fraction(3, 5))],
             [ZERO, ZERO, Scalar(Fraction(-4, 5)), Scalar(0, Fraction(1, 7))],
             [ZERO, ZERO, ZERO, Scalar(Fraction(2, 35), 1)],
             [ZERO] * 4]
    a = _conjugate(_triangular(spectrum, above), [(0, 1, Scalar(1, 1)), (2, 0, Scalar(-2)),
                                                  (3, 1, Scalar(0, 1)), (1, 2, ONE)])
    assert max(x.d for row in a for x in row) == 70

    def no_fallback(coeffs):
        raise AssertionError("eigenvalues fell back to the factoriser")

    monkeypatch.setattr(linalg, "_factor_roots", no_fallback)
    got = _eigenvalues(a)
    assert got == _factor_list_eigenvalues(a)
    assert dict(got) == Counter(spectrum)


def _companion(*coeffs):
    """Companion matrix of the monic t^n + coeffs[n-1] t^(n-1) + … + coeffs[0]."""
    n = len(coeffs)
    return [[(ONE if r == c + 1 else ZERO) if c < n - 1 else ZERO - coeffs[r]
             for c in range(n)] for r in range(n)]


X2_MINUS_2, X2_PLUS_2, X2_MINUS_I = _companion(-2, 0), _companion(2, 0), _companion(Scalar(0, -1), 0)


@given(st.sampled_from([X2_MINUS_2, X2_PLUS_2, X2_MINUS_I]),
       st.lists(st.sampled_from([X2_MINUS_2, X2_PLUS_2, X2_MINUS_I]), max_size=1),
       st.lists(eigen_st, max_size=2), st.data())
def test_root_free_factors_raise(block, extra, split, data):
    a = _block_diagonal(block, *extra, _triangular(split, [[ONE] * len(split)] * len(split)))
    a = _conjugate(a, data.draw(moves_st(len(a))))
    with pytest.raises(IrrationalSpectrum, match=f"factor of degree {2 + 2 * len(extra)} "):
        _eigenvalues(a)


@st.composite
def triangular_matrix_st(draw):
    """An upper, lower or diagonal matrix whose diagonal repeats values from a
    small pool, zero likely, and moves that conjugate it."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.one_of(st.just(ZERO), eigen_st), min_size=1, max_size=3))
    spectrum = [draw(st.sampled_from(pool)) for _ in range(n)]
    shape = draw(st.sampled_from(["upper", "lower", "diagonal"]))
    entry = st.just(ZERO) if shape == "diagonal" else st.one_of(st.just(ZERO), eigen_st)
    a = _triangular(spectrum, [[draw(entry) for _ in range(n)] for _ in range(n)])
    if shape == "lower":
        a = [list(col) for col in zip(*a)]
    return spectrum, a, draw(moves_st(n))


@given(triangular_matrix_st())
def test_triangular_spectra_match_the_charpoly(case):
    # read off the diagonal, the spectrum is the one the charpoly and its root
    # search give, on the matrix itself and on the same matrix conjugated
    spectrum, a, moves = case
    columns, den = _clear(*_columns(a))
    got = eigenvalues(columns, den)
    assert got == frozen_eigen.eigenvalues(columns, den) == _factor_list_eigenvalues(a)
    assert dict(got) == Counter(spectrum)
    assert eigenvalues(*_clear(*_columns(_conjugate(a, moves)))) == got
    assert eigen_decomposition(columns, den) == frozen_eigen.eigen_decomposition(columns, den)


def _outcome(f, columns, den):
    """f's answer, or the message of the IrrationalSpectrum it raised."""
    try:
        return f(columns, den)
    except IrrationalSpectrum as e:
        return str(e)


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(ZERO), st.just(ZERO), eigen_st), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_spectra_match_the_frozen_charpoly_on_any_matrix(a):
    # most of these matrices are neither triangular nor split over Q(i)
    columns, den = _clear(*_columns(a))
    for new, old in ((eigenvalues, frozen_eigen.eigenvalues),
                     (eigen_decomposition, frozen_eigen.eigen_decomposition)):
        assert _outcome(new, columns, den) == _outcome(old, columns, den)


def _count_fallbacks(monkeypatch):
    calls = []
    fallback = linalg._factor_roots
    monkeypatch.setattr(linalg, "_factor_roots", lambda coeffs: calls.append(1) or fallback(coeffs))
    return calls


def test_eigenvalues_above_the_norm_budget_use_the_factoriser(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    big = Scalar(999999999989)  # prime
    for spectrum in ([big], [big, ONE], [big, Scalar(0, 1), ZERO],
                     [Scalar(999983, 1000), Scalar(-2)]):
        a = _conjugate(_triangular(spectrum, [[ONE] * 3] * 3), [(1, 0, Scalar(1, 1))][:len(spectrum) - 1])
        got = _eigenvalues(a)
        assert got == _factor_list_eigenvalues(a)
        assert dict(got) == Counter(spectrum)
        if len(spectrum) == 1:
            # a 1×1 matrix is triangular: its eigenvalue is read off the diagonal
            assert calls == []
    with pytest.raises(IrrationalSpectrum, match="factor of degree 2 "):
        _eigenvalues(_companion(-999999999989, 0))
    assert len(calls) == 4
    # the norm of the lowest nonzero coefficient is what puts these over the budget
    assert 999983 ** 2 + 1000 ** 2 > linalg._NORM_BUDGET


def test_eigenvalues_below_the_norm_budget_never_use_the_factoriser(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    spectrum = [Scalar(99991), Scalar(0, 1)]  # 99991² is just under the budget
    # conjugated, so the divisor search runs, not the triangular read
    a = _conjugate(_triangular(spectrum, [[ONE] * 2] * 2), [(1, 0, Scalar(1, 1))])
    assert dict(_eigenvalues(a)) == Counter(spectrum)
    with pytest.raises(IrrationalSpectrum, match="factor of degree 2 "):
        _eigenvalues(_companion(-2, 0))
    # a factor common to den and every entry is cut first: over 10¹¹ the monic
    # charpoly t - 10¹¹ would be past the budget
    assert eigenvalues([{0: (10 ** 11, 0)}], 10 ** 11) == [(ONE, 1)]
    # that 1×1 case is read off its diagonal; on a matrix that is not
    # triangular, det(tI - 10¹¹·a) has a₀ = 10²² unless the factor is cut
    assert eigenvalues([{0: (2 * 10 ** 11, 0), 1: (-10 ** 11, 0)}, {0: (10 ** 11, 0)}],
                       10 ** 11) == [(ONE, 2)]
    assert calls == []


def test_a_zero_scalar_entry_is_no_pivot():
    # the Scalar edges clear their entries on entry; a zero entry cleared over
    # Z[i] would be stored as a pivot of value (0, 0)
    assert rref([[ZERO], [ONE]]) == ([[ONE], [ZERO]], [0])
    assert rref([[ZERO, Scalar(2)]]) == ([[ZERO, ONE]], [1])
    assert _eigen_decomposition([[ZERO, ZERO], [Scalar(3), ZERO]]) == [(ZERO, [[ZERO, ONE]])]
    # an empty generator adds no row but still counts for express
    span = Echelon([{}, {0: (1, 0)}])
    assert (span.dim, span.pivots, span.ngens) == (1, [0], 2)
    assert _scalars(span.express({0: (2, 0)}, 3), range(2)) == [ZERO, Scalar(Fraction(2, 3))]


def test_echelon_rows_are_stored_as_reduction_left_them():
    # an append divides nothing: a row keeps its scale, its pivot value included
    span = Echelon([{0: (2, 0), 1: (4, 0)}])
    span.insert({0: (1, 0), 1: (2, 0), 2: (0, 3)}, 5)
    assert span.rows == [{0: (2, 0), 1: (4, 0)}, {2: (0, 6)}]
    assert span.pivots == [0, 2]


_gaussian_st = st.tuples(st.integers(-10 ** 20, 10 ** 20), st.integers(-10 ** 20, 10 ** 20))


def _gaussian_combination(pairs):
    """Σ z·col over pairs (col, z) of a sparse column and a Gaussian integer."""
    out = {}
    for col, (a, b) in pairs:
        for k, (x, y) in col.items():
            re, im = out.get(k, (0, 0))
            out[k] = (re + a * x - b * y, im + a * y + b * x)
    return {k: z for k, z in out.items() if z != (0, 0)}


@st.composite
def integer_columns_st(draw):
    """Sparse columns over Z[i] on five keys: fresh ones, zero ones and
    Z[i]-combinations of earlier ones."""
    columns = []
    for _ in range(draw(st.integers(0, 8))):
        if columns and draw(st.booleans()):
            picks = st.tuples(st.sampled_from(columns), _gaussian_st)
            columns.append(_gaussian_combination(draw(st.lists(picks, min_size=1, max_size=3))))
        else:
            col = draw(st.dictionaries(st.integers(0, 4), _gaussian_st, max_size=5))
            columns.append({k: z for k, z in col.items() if z != (0, 0)})
    return columns


@given(integer_columns_st())
def test_integer_kernel_relations_are_exact_over_the_gaussian_integers(columns):
    relations = integer_kernel(columns)
    span = Echelon()
    dependent = [j for j, col in enumerate(columns) if not span.insert(col, 1)]
    assert [max(relation) for relation in relations] == dependent
    scalar_columns = [{k: Scalar(a, b) for k, (a, b) in col.items()} for col in columns]
    scaled = echelon_kernel(scalar_columns)
    assert len(relations) == len(scaled)
    for relation, want in zip(relations, scaled):
        assert all(type(t) is int for z in relation.values() for t in z)
        s = relation[max(relation)]
        # s·col_j − Σ x_g·col_g vanishes exactly, and over s it is the frozen
        # kernel's relation
        assert s != (0, 0) and _gaussian_combination(
            (columns[g], z) for g, z in relation.items()) == {}
        assert _unit(relation, max(relation)) == want


def test_reduced_rows_are_stored_at_their_cleared_size(monkeypatch):
    # each row done is stored as the row with pivot one, cleared of its
    # denominators; kept at the scale its reduction left, its size would feed
    # every later row's and grow geometrically, to tens of thousands of bits here
    rng = random.Random(0)
    a = [[Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-2, 2))
          for _ in range(11)] for _ in range(8)]
    span = Echelon()
    for row in a:
        span.insert(*_cleared(_sparse(row)))
    sizes = []
    insert = Echelon.insert

    def recorded(self, v, den=1):
        sizes.extend(abs(t).bit_length() for z in v.values() for t in z)
        return insert(self, v, den)

    monkeypatch.setattr(Echelon, "insert", recorded)
    rows = ScalarEchelon(_sparse(row) for row in a).reduced_rows()
    assert [_over(row) for row in span.reduced_rows()] == rows
    cleared = [abs(t).bit_length() for row in rows for den in [lcm(*(x.d for x in row.values()))]
               for x in row.values() for t in (x.a * (den // x.d), x.b * (den // x.d))]
    assert sorted(sizes) == sorted(cleared)
