"""Exact linear algebra over the Gaussian-rational scalars.

Row reductions over Scalars go through one sparse engine, ``Echelon``: rows
are dicts from hashable columns to nonzero Scalars, each row's pivot is its
least column under a sort key, and rows carry their coordinates over the
inserted generators, so ``Echelon.express`` solves a linear system.  ``rref``
remains, over the same engine, for the baseline script
``perfbench/baseline.py``.  ``kernel`` and ``charpoly`` run on Gaussian
integers and build Scalars only for their results: ``kernel`` clears each
column over its own denominator and eliminates fraction-free, ``charpoly``
runs Faddeev–LeVerrier on L·a, L the lcm of the entry denominators.
Eigenvalues come from det(tI - D·a), monic over Z[i] for the least such D,
so its Q(i)-roots are Gaussian integers dividing its lowest nonzero
coefficient a₀.  While N(a₀) is within ``_NORM_BUDGET`` the divisors are
enumerated by trial division and tested by exact Horner deflation, which
makes the search complete without sympy; only above the budget is the
polynomial factorised over Q(i) by sympy, imported then.  A factor of
degree two or more with no root means the spectrum leaves Q(i), and is
reported as such rather than approximated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from typing import Iterable, Optional

from .errors import IrrationalSpectrum
from .scalars import ZERO, Scalar, _norm

__all__ = [
    "Echelon", "rref", "kernel", "charpoly", "eigenvalues", "eigen_decomposition",
]

Matrix = list[list[Scalar]]
Vector = list[Scalar]


class Echelon:
    """Sparse echelon form of a growing span, over hashable columns.

    Built from an iterable of rows, inserted in order.  Rows are dicts
    {column: nonzero Scalar}; a row's pivot is its least column under ``key``
    (the column itself by default).  Stored rows keep insertion
    order, with distinct pivots of coefficient one.  ``reduce`` eliminates
    only while the leading column is a pivot, which decides membership.  Each
    row also carries its expression over the inserted generators (generator
    index -> Scalar), for ``express``.
    """

    def __init__(self, rows: Iterable[dict] = (), key=None):
        self.key = key
        self.rows: list[dict] = []
        self.pivots: list = []
        self._row_of: dict = {}  # pivot column -> row index
        self._coords: list[dict] = []
        self.ngens = 0
        for row in rows:
            self.insert(row)

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
    span = Echelon({c: x for c, x in enumerate(row) if x} for row in a)
    rows = [[r.get(c, ZERO) for c in range(ncols)] for r in span.reduced_rows()]
    rows += [[ZERO] * ncols for _ in range(len(a) - len(rows))]
    return rows, sorted(span.pivots)


def kernel(columns: list[dict]) -> list[dict]:
    """The relations among sparse columns inserted in order: for each column j
    that depends on the earlier ones, e_j − (its coordinates over them)."""
    dens = [lcm(*{x.d for x in col.values()}) for col in columns]
    out = []
    # from Σ c_g·D_g·column_g = 0, with each column cleared over its own D_g
    for j, coords in _int_relations([{k: (x.a * (d // x.d), x.b * (d // x.d))
                                      for k, x in col.items()} for col, d in zip(columns, dens)]):
        (cr, ci), n = coords[j], (coords[j][0] ** 2 + coords[j][1] ** 2) * dens[j]
        out.append({g: _norm((a * cr + b * ci) * dens[g], (b * cr - a * ci) * dens[g], n)
                    for g, (a, b) in coords.items()})
    return out


def _int_relations(columns: list[dict]):
    """Fraction-free elimination of Gaussian-integer columns {key: (re, im)}:
    v ← p·v − c·row jointly on entries and coordinates, integer content divided
    out after each step.  Yields (j, c) for each column that reduces to zero,
    c the primitive relation Σ c_g·columns[g] = 0 over g ≤ j, c_j ≠ 0."""
    rows: dict = {}  # pivot key -> (pivot value, row, coordinates)
    for j, col in enumerate(columns):
        v, coords = dict(col), {j: (1, 0)}
        while v and (hit := rows.get(lead := min(v))) is not None:
            (pr, pi), row, row_coords = hit
            cr, ci = v[lead]
            for w, u in ((v, row), (coords, row_coords)):
                for k, (a, b) in w.items():
                    w[k] = (pr * a - pi * b, pr * b + pi * a)
                for k, (a, b) in u.items():
                    x, y = w.get(k, (0, 0))
                    x, y = x - cr * a + ci * b, y - cr * b - ci * a
                    if x or y:
                        w[k] = (x, y)
                    else:
                        del w[k]
            g = 0
            for a, b in chain(v.values(), coords.values()):
                if (g := gcd(g, a, b)) == 1:
                    break
            else:
                for w in (v, coords):
                    for k, (a, b) in w.items():
                        w[k] = (a // g, b // g)
        if v:
            rows[lead] = (v[lead], v, coords)
        else:
            yield j, coords


def charpoly(a: Matrix) -> list[Scalar]:
    """Coefficients c with det(tI - a) = Σ c[k] t^k, c[n] = 1, as b_k / L^(n-k)
    from Faddeev–LeVerrier on L·a over Z[i], where division by k is exact."""
    n = len(a)
    den = lcm(*{x.d for row in a for x in row})
    # the nonzero entries (column, re, im) of each row of L·a
    rows = [[(j, x.a * (den // x.d), x.b * (den // x.d)) for j, x in enumerate(row) if x]
            for row in a]
    coeffs = [(0, 0)] * n + [(1, 0)]
    # L·a · M_{k-1} as real and imaginary int matrices: lists of int pairs kept
    # alive between steps fragment the allocator's pools
    mr, mi = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        cr, ci = coeffs[n - k + 1]
        for d in range(n):
            mr[d][d], mi[d][d] = mr[d][d] + cr, mi[d][d] + ci
        out = []
        for row in rows:
            re, im = [0] * n, [0] * n
            for j, xr, xi in row:
                for c, (yr, yi) in enumerate(zip(mr[j], mi[j])):
                    re[c] += xr * yr - xi * yi
                    im[c] += xr * yi + xi * yr
            out.append((re, im))
        mr, mi = map(list, zip(*out))
        coeffs[n - k] = (-sum(mr[d][d] for d in range(n)) // k, -sum(mi[d][d] for d in range(n)) // k)
    return [_norm(re, im, den ** (n - k)) for k, (re, im) in enumerate(coeffs)]


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
