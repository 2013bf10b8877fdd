"""Exact linear algebra over the Gaussian-rational scalars.

Every row reduction in the package goes through one sparse engine,
``Echelon``: rows are dicts from hashable columns (matrix column indices
here, monomials in ``elements.ElementSpan``, basis indices in ``liestruct``)
to nonzero Scalars, each row's pivot is its least column under a sort key,
and only nonzero entries are ever touched.  Rows carry their coordinates
over the inserted generators, so ``Echelon.express`` solves a linear system
over its inserted columns and ``kernel`` reads a relation off each column
that reduces to zero, with no back-reduction.  ``rref`` remains, over the
same engine, for the baseline script ``perfbench/baseline.py``.  All
elimination is exact field arithmetic, so ranks, solution sets and spectra
are decided, never estimated.  Eigenvalues come from the characteristic
polynomial (Faddeev–LeVerrier, division-exact, the one dense matrix
product), scaled to be monic over Z[i], whose Q(i)-roots are then Gaussian
integers dividing its lowest nonzero coefficient a₀.  While N(a₀) is within
``_NORM_BUDGET`` the divisors are enumerated by trial division and tested by
exact Horner deflation, which makes the search complete without sympy; only
above the budget is the polynomial factorised over Q(i) by sympy, imported
then.  A factor of degree two or more with no root means the spectrum leaves
Q(i), and is reported as such rather than approximated.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

from .errors import BadParams, IrrationalSpectrum
from .scalars import ONE, ZERO, Scalar

__all__ = [
    "Echelon", "mat_mul", "rref", "kernel", "charpoly", "eigenvalues", "eigen_decomposition",
]

Matrix = list[list[Scalar]]
Vector = list[Scalar]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise BadParams(f"cannot multiply a {len(a)}x{len(a[0])} by a {len(b)}-row matrix")
    return [[sum((x * b[k][c] for k, x in enumerate(row) if x), ZERO)
             for c in range(len(b[0]) if b else 0)] for row in a]


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
        return self._append(*self.reduce(v))

    def _append(self, rem: dict, used: dict) -> Optional[dict]:
        """Record a generator from its reduction; a new row unless rem is zero."""
        gen = self.ngens
        self.ngens += 1
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


def rref(a: Matrix):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    ncols = len(a[0]) if a else 0
    span = Echelon()
    for row in a:
        span.insert({c: x for c, x in enumerate(row) if x})
    rows = [[r.get(c, ZERO) for c in range(ncols)] for r in span.reduced_rows()]
    rows += [[ZERO] * ncols for _ in range(len(a) - len(rows))]
    return rows, sorted(span.pivots)


def kernel(columns: list[dict]) -> list[dict]:
    """The relations among sparse columns inserted in order: for each column j
    that reduces to zero, e_j − (its coordinates over the earlier columns)."""
    span = Echelon()
    basis = []
    for j, col in enumerate(columns):
        rem, used = span.reduce(col)
        if span._append(rem, used) is None:
            relation = {j: ONE}
            for r, c in used.items():
                _subtract(relation, span._coords[r], c)
            basis.append(relation)
    return basis


def charpoly(a: Matrix) -> list[Scalar]:
    """Coefficients c with det(tI - a) = Σ c[k] t^k, c[n] = 1.

    Faddeev–LeVerrier recursion; the division by the step index is exact.
    """
    n = len(a)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    am = [[ZERO] * n for _ in range(n)]  # a · M_{k-1}
    for k in range(1, n + 1):
        m = [list(row) for row in am]
        for d in range(n):
            m[d][d] = m[d][d] + coeffs[n - k + 1]
        am = mat_mul(a, m)
        tr = sum((am[d][d] for d in range(n)), ZERO)
        coeffs[n - k] = -tr / k
    return coeffs


# Trial division of N(a₀) runs to its square root, so the root search in
# ``eigenvalues`` never takes more than about 10⁵ divisions.
_NORM_BUDGET = 10 ** 10
_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _gmul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _gdiv(u: tuple[int, int], v: tuple[int, int]) -> Optional[tuple[int, int]]:
    """u/v when the quotient is a Gaussian integer, else None."""
    n = v[0] * v[0] + v[1] * v[1]
    re, im = u[0] * v[0] + u[1] * v[1], u[1] * v[0] - u[0] * v[1]
    if re % n or im % n:
        return None
    return re // n, im // n


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n > 0, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _two_squares(p: int) -> tuple[int, int]:
    """(x, y) with x² + y² = p, for a prime p ≡ 1 (mod 4) (Hermite–Serret)."""
    c = 2
    while (t := pow(c, (p - 1) // 4, p)) * t % p != p - 1:
        c += 1
    r0, r1 = p, t
    while r1 * r1 > p:
        r0, r1 = r1, r0 % r1
    return r1, isqrt(p - r1 * r1)


def _gaussian_divisors(z: tuple[int, int]) -> Optional[list[tuple[int, int]]]:
    """Every divisor of z ≠ 0 in Z[i], or None when its norm exceeds the budget."""
    norm = z[0] * z[0] + z[1] * z[1]
    if norm > _NORM_BUDGET:
        return None
    divisors = [(1, 0)]  # one per associate class
    for p in _prime_factors(norm):
        if p == 2:
            primes = [(1, 1)]
        elif p % 4 == 3:
            primes = [(p, 0)]
        else:
            x, y = _two_squares(p)
            primes = [(x, y), (x, -y)]
        for pi in primes:
            powers = [(1, 0)]
            while (rest := _gdiv(z, pi)) is not None:
                z = rest
                powers.append(_gmul(powers[-1], pi))
            divisors = [_gmul(u, v) for u in divisors for v in powers]
    return [_gmul(u, v) for v in divisors for u in _UNITS]


def _deflate(poly: list[tuple[int, int]], z: tuple[int, int]) -> Optional[list[tuple[int, int]]]:
    """poly/(t - z) by Horner, highest coefficient first; None unless z is a root."""
    x, y = z
    out = []
    cr = ci = 0
    for ar, ai in poly:
        cr, ci = ar + cr * x - ci * y, ai + cr * y + ci * x
        out.append((cr, ci))
    return out[:-1] if out[-1] == (0, 0) else None


def _root_free(degree: int) -> IrrationalSpectrum:
    return IrrationalSpectrum(
        f"characteristic polynomial has a factor of degree {degree} with no root in Q(i)")


def _to_sympy(c: Scalar):
    import sympy
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.Rational(c.im.numerator, c.im.denominator) * sympy.I)


def _from_sympy(expr) -> Scalar:
    re, im = expr.as_real_imag()
    return Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _factor_roots(coeffs: list[Scalar]) -> list[tuple[Scalar, int]]:
    """The Q(i)-roots of a charpoly by sympy's factorisation over QQ_I."""
    import sympy
    x = sympy.Symbol("x")
    poly = sympy.Poly(sum(_to_sympy(c) * x ** k for k, c in enumerate(coeffs)),
                      x, domain="QQ_I")
    roots = []
    rest = 0
    for f, mult in poly.factor_list()[1]:
        if f.degree() > 1:
            rest += f.degree() * mult
        else:
            top, const = (_from_sympy(c) for c in f.all_coeffs())
            roots.append(((-const) / top, mult))
    if rest:
        raise _root_free(rest)
    return roots


def _root_scale(a: Matrix, coeffs: list[Scalar]) -> int:
    """The least D > 0 with D^(n-k)·c_k in Z[i] for every charpoly coefficient c_k.

    It divides the lcm L of the entry denominators, which is one such D (and
    is used as it is above the norm budget): p^e for each prime p of L.
    """
    n = len(coeffs) - 1
    bound = lcm(*(x.d for row in a for x in row))
    if bound > _NORM_BUDGET:
        return bound
    d = 1
    for p in _prime_factors(bound):
        e = 0
        while any(c.d % p ** (e * (n - k) + 1) == 0 for k, c in enumerate(coeffs[:n])):
            e += 1
        d *= p ** e
    return d


def eigenvalues(a: Matrix) -> list[tuple[Scalar, int]]:
    """Eigenvalues in Q(i) with algebraic multiplicities, deterministic order.

    With D from ``_root_scale``, det(tI - D·a) is monic over Z[i], and Z[i]
    is integrally closed, so its Q(i)-roots are Gaussian integers.  Past the
    zero roots, each divides the lowest nonzero coefficient a₀.  Every
    divisor of a₀ is tried, and each root found is counted and deflated by
    exact Horner division, then divided by D.  While N(a₀) ≤ _NORM_BUDGET
    this search is complete and sympy is never loaded; above it the
    polynomial is factorised over Q(i) by sympy instead.

    Raises IrrationalSpectrum if a factor of degree at least two (not
    necessarily irreducible) has no root in Q(i).
    """
    n = len(a)
    if n == 0:
        return []
    coeffs = charpoly(a)
    d = _root_scale(a, coeffs)
    # det(tI - D·a), highest coefficient first; D^(n-k)·c_k lies in Z[i]
    poly = [((c := coeffs[k] * d ** (n - k)).a, c.b) for k in range(n, -1, -1)]
    roots: dict[tuple[int, int], int] = {}
    while poly[-1] == (0, 0):
        poly.pop()
        roots[(0, 0)] = roots.get((0, 0), 0) + 1
    if len(poly) > 1:
        candidates = _gaussian_divisors(poly[-1])
        if candidates is None:
            return sorted(_factor_roots(coeffs), key=lambda pair: pair[0].sort_key())
        for z in candidates:
            while len(poly) > 1 and (rest := _deflate(poly, z)) is not None:
                poly = rest
                roots[z] = roots.get(z, 0) + 1
        if len(poly) > 1:
            raise _root_free(len(poly) - 1)
    out = [(Scalar(Fraction(x, d), Fraction(y, d)), m) for (x, y), m in roots.items()]
    return sorted(out, key=lambda pair: pair[0].sort_key())


def eigen_decomposition(a: Matrix) -> list[tuple[Scalar, list[Vector]]]:
    """All Q(i)-eigenvalues with exact eigenspace bases.

    The caller decides what a defective operator means for it; this just
    reports each eigenspace (geometric) basis.
    """
    n = len(a)
    out = []
    for lam, _ in eigenvalues(a):
        # the sparse columns of a - λI, for kernel
        shifted = [{r: x for r in range(n) if (x := a[r][c] - lam if r == c else a[r][c])}
                   for c in range(n)]
        out.append((lam, [[v.get(c, ZERO) for c in range(n)] for v in kernel(shifted)]))
    return out
