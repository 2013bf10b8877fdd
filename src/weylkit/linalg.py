"""Exact linear algebra over the Gaussian-rational scalars.

Every row reduction in the package goes through one sparse engine,
``Echelon``: rows are dicts from hashable columns (matrix column indices
here, monomials in ``elements.ElementSpan``, basis indices in ``liestruct``)
to nonzero Scalars, each row's pivot is its least column under a sort key,
and only nonzero entries are ever touched.  The dense entry points ``rref``,
``rank``, ``solve`` and ``nullspace`` take lists of rows of Scalars and are
built on it.  All elimination is exact field arithmetic, so ranks, solution
sets and spectra are decided, never estimated.  Eigenvalues go through the
characteristic polynomial (Faddeev–LeVerrier, division-exact) factorised over
Q(i) via sympy's QQ_I domain: a factor of degree two or more means the
spectrum leaves Q(i) and is reported as such rather than approximated.  sympy
is imported there, on first use, so the rest of the package loads without it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import BadParams, IrrationalSpectrum
from .scalars import ONE, ZERO, Scalar

__all__ = [
    "Echelon", "identity", "zeros", "mat_mul", "mat_vec", "rref",
    "rank", "solve", "nullspace", "charpoly", "eigenvalues", "eigen_decomposition",
]

Matrix = list[list[Scalar]]
Vector = list[Scalar]


def identity(n: int) -> Matrix:
    return [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[ZERO] * ncols for _ in range(nrows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise BadParams(f"cannot multiply a {len(a)}x{len(a[0])} by a {len(b)}-row matrix")
    return [[sum((x * b[k][c] for k, x in enumerate(row) if x), ZERO)
             for c in range(len(b[0]) if b else 0)] for row in a]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if a and len(a[0]) != len(v):
        raise BadParams(f"cannot apply a {len(a)}x{len(a[0])} matrix to {len(v)} coordinates")
    return [sum((x * v[k] for k, x in enumerate(row) if x), ZERO) for row in a]


class Echelon:
    """Sparse echelon form of a growing span, over hashable columns.

    Rows are dicts {column: nonzero Scalar}; a row's pivot is its least column
    under ``key`` (the column itself by default).  Stored rows keep insertion
    order, with distinct pivots of coefficient one.  ``reduce`` eliminates
    only while the leading column is a pivot, which decides membership.  Each
    row also carries its expression over the inserted generators (generator
    index -> Scalar), for ``express``.
    """

    def __init__(self, key=None):
        self.key = key
        self.rows: list[dict] = []
        self.pivots: list = []
        self._row_of: dict = {}  # pivot column -> row index
        self._coords: list[dict] = []
        self.ngens = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict):
        """Top-reduce v; returns (remainder, {row index: multiple subtracted})."""
        v = dict(v)
        used: dict[int, Scalar] = {}
        while v:
            lead = min(v, key=self.key)
            r = self._row_of.get(lead)
            if r is None:
                break
            c = v[lead]
            _subtract(v, self.rows[r], c)
            used[r] = c
        return v, used

    def insert(self, v: dict) -> Optional[dict]:
        """Add a generator; returns its new row, or None if v is in the span."""
        gen = self.ngens
        self.ngens += 1
        rem, used = self.reduce(v)
        if not rem:
            return None
        pivot = min(rem, key=self.key)
        inv = rem[pivot].inverse()
        row = {col: x * inv for col, x in rem.items()}
        coords = {gen: inv}
        for r, c in used.items():
            _subtract(coords, self._coords[r], c * inv)
        self._coords.append(coords)
        self._row_of[pivot] = len(self.rows)
        self.rows.append(row)
        self.pivots.append(pivot)
        return row

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)[0]

    def express(self, v: dict) -> Optional[list[Scalar]]:
        """Coordinates of v over the inserted generators, or None if outside."""
        rem, used = self.reduce(v)
        if rem:
            return None
        out = [ZERO] * self.ngens
        for r, c in used.items():
            for g, x in self._coords[r].items():
                out[g] = out[g] + c * x
        return out

    def row_coordinates(self, v: dict) -> Optional[list[Scalar]]:
        """Coordinates of v over the stored rows, or None if outside."""
        rem, used = self.reduce(v)
        if rem:
            return None
        return [used.get(r, ZERO) for r in range(len(self.rows))]

    def reduced_rows(self) -> list[dict]:
        """The unique fully reduced basis of the span, pivots ascending."""
        done: dict = {}  # pivot -> reduced row, filled from the last pivot down
        for pivot in sorted(self.pivots, key=self.key, reverse=True):
            row = dict(self.rows[self._row_of[pivot]])
            # reduced rows vanish on each other's pivots, so one pass clears all
            for col, c in [(col, c) for col, c in row.items() if col in done]:
                _subtract(row, done[col], c)
            done[pivot] = row
        return list(done.values())[::-1]


def _subtract(v: dict, row: dict, c: Scalar):
    """v -= c·row in place, dropping entries that cancel."""
    for col, x in row.items():
        y = v.get(col, ZERO) - c * x
        if y:
            v[col] = y
        else:
            del v[col]


def _row_span(a: Matrix) -> Echelon:
    span = Echelon()
    for row in a:
        span.insert({c: x for c, x in enumerate(row) if x})
    return span


def rref(a: Matrix):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    ncols = len(a[0]) if a else 0
    span = _row_span(a)
    rows = [[r.get(c, ZERO) for c in range(ncols)] for r in span.reduced_rows()]
    rows += [[ZERO] * ncols for _ in range(len(a) - len(rows))]
    return rows, sorted(span.pivots)


def rank(a: Matrix) -> int:
    return _row_span(a).dim


def solve(a: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of a·x = b (free variables zero), or None."""
    if len(a) != len(b):
        raise BadParams(f"a {len(a)}-row system needs {len(a)} right-hand sides, got {len(b)}")
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


def nullspace(a: Matrix) -> list[Vector]:
    """A basis of the kernel of a (one vector per free column)."""
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


def charpoly(a: Matrix) -> list[Scalar]:
    """Coefficients c with det(tI - a) = Σ c[k] t^k, c[n] = 1.

    Faddeev–LeVerrier recursion; the division by the step index is exact.
    """
    n = len(a)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    am = zeros(n, n)  # a · M_{k-1}
    for k in range(1, n + 1):
        m = [list(row) for row in am]
        for d in range(n):
            m[d][d] = m[d][d] + coeffs[n - k + 1]
        am = mat_mul(a, m)
        tr = sum((am[d][d] for d in range(n)), ZERO)
        coeffs[n - k] = -tr / k
    return coeffs


def _to_sympy(c: Scalar):
    import sympy
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.Rational(c.im.numerator, c.im.denominator) * sympy.I)


def _from_sympy(expr) -> Scalar:
    re, im = expr.as_real_imag()
    return Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def eigenvalues(a: Matrix) -> list[tuple[Scalar, int]]:
    """Eigenvalues in Q(i) with algebraic multiplicities, deterministic order.

    Raises IrrationalSpectrum if the characteristic polynomial has an
    irreducible factor of degree at least two over Q(i).
    """
    n = len(a)
    if n == 0:
        return []
    import sympy
    coeffs = charpoly(a)
    x = sympy.Symbol("x")
    poly = sympy.Poly(sum(_to_sympy(c) * x ** k for k, c in enumerate(coeffs)),
                      x, domain="QQ_I")
    _, factors = poly.factor_list()
    out = []
    for f, mult in factors:
        if f.degree() > 1:
            raise IrrationalSpectrum(
                f"characteristic polynomial has an irreducible factor of degree {f.degree()} over Q(i)")
        top, const = (_from_sympy(c) for c in f.all_coeffs())
        out.append(((-const) / top, mult))
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


def eigen_decomposition(a: Matrix) -> list[tuple[Scalar, list[Vector]]]:
    """All Q(i)-eigenvalues with exact eigenspace bases.

    The caller decides what a defective operator means for it; this just
    reports each eigenspace (geometric) basis.
    """
    out = []
    for lam, _ in eigenvalues(a):
        shifted = [[a[r][c] - (lam if r == c else ZERO) for c in range(len(a))]
                   for r in range(len(a))]
        out.append((lam, nullspace(shifted)))
    return out
