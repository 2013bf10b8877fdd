"""Exact dense linear algebra over the Gaussian-rational scalars.

Matrices are lists of rows of Scalars; vectors are lists of Scalars.  All
elimination is exact field arithmetic, so ranks, solution sets and spectra
are decided, never estimated.  Eigenvalues go through the characteristic
polynomial (Faddeev–LeVerrier, division-exact) factorised over Q(i) via
sympy's QQ_I domain: a factor of degree two or more means the spectrum
leaves Q(i) and is reported as such rather than approximated.  sympy is
imported there, on first use, so the rest of the package loads without it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import BadParams, IrrationalSpectrum
from .scalars import ONE, ZERO, Scalar

__all__ = [
    "identity", "zeros", "mat_mul", "mat_vec", "rref",
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


def rref(a: Matrix):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, nrows) if rows[k][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        # only the pivot row's nonzero columns change the other rows
        support = [(j, y) for j, y in enumerate(rows[r]) if y]
        for k in range(nrows):
            row = rows[k]
            f = row[c]
            if k != r and f:
                for j, y in support:
                    row[j] = row[j] - f * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def solve(a: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of a·x = b (free variables zero), or None."""
    if len(a) != len(b):
        raise BadParams(f"a {len(a)}-row system needs {len(a)} right-hand sides, got {len(b)}")
    if not a:
        return []
    aug = [row + [rhs] for row, rhs in zip(a, b)]
    rows, pivots = rref(aug)
    ncols = len(a[0])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def nullspace(a: Matrix) -> list[Vector]:
    """A basis of the kernel of a (one vector per free column)."""
    if not a:
        return []
    rows, pivots = rref(a)
    ncols = len(a[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
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
