"""Exact linear algebra over the Gaussian-rational scalars.

Every elimination runs on one sparse engine, ``Echelon``, over Z[i].  Rows are
dicts from hashable columns to Gaussian integers (re, im), each standing for
the row over a positive int ``den``, and a row's pivot is its least column
under a sort key.  A row is top-reduced fraction-free (Bareiss) by
v ← p·v − c·row, p the pivot value of the stored row.  The multiples
subtracted and the scale of v follow each step, and the joint integer
content of all three is divided out.  A row is stored as that reduction
left it, in ``rows``, so an append costs no division.  Each row keeps its
own reduction, so ``express`` solves a linear system by back-substitution,
and ``integer_kernel`` reads each relation off that reduction.  Coordinates,
relations and the reduced basis are returned over Z[i] too, as numerators
over one positive int.
Scalars are built only at the edge: ``rref``, which clears its matrix on
entry and remains for the baseline script ``perfbench/baseline.py``,
``charpoly`` and ``eigenvalues``, which read and return Scalars, and the
vectors of ``eigen_decomposition``.
``charpoly`` runs Faddeev–LeVerrier on L·a over Z[i], L the lcm of the entry
denominators.  Eigenvalues come from det(tI - D·a), monic over Z[i] for the
least such D, so its Q(i)-roots are Gaussian integers dividing its lowest
nonzero coefficient a₀.  While N(a₀) is within ``_NORM_BUDGET`` the divisors
are enumerated by trial division and tested by exact Horner deflation, which
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
from .scalars import ZERO, Scalar, _clear, _dense, _divide, _norm

__all__ = [
    "Echelon", "rref", "integer_kernel", "charpoly", "eigenvalues", "eigen_decomposition",
]

Matrix = list[list[Scalar]]
Vector = list[Scalar]
# numerators over Z[i] keyed by index or column, and the positive int they stand over
Coordinates = tuple[dict, int]


class Echelon:
    """Sparse echelon form of a growing span, over hashable columns.

    Built from an iterable of rows, inserted in order.  A row is a dict
    {column: (re, im)} over Z[i], zero entries dropped, standing for the row
    over ``den`` (1 by default; a span does not depend on the scale of its
    rows); its pivot is its least column under ``key`` (the column itself by
    default).  ``rows`` keeps the stored rows in insertion order, over Z[i]
    as reduction left them, with distinct pivots.  Reduction eliminates only
    while the leading column is a pivot, which decides membership.
    Generators are counted in insertion order, whether or not they add a
    row, for ``express``.
    """

    def __init__(self, rows: Iterable[dict] = (), key=None):
        self.key = key
        self.pivots: list = []
        self.ngens = 0
        self._row_of: dict = {}  # pivot column -> row index
        self.rows: list[dict] = []  # the stored rows over Z[i]
        self._history: list[tuple] = []  # (generator g, s, used): s·x_g = row + Σ used[r]·row r
        for row in rows:
            self.insert(row)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: dict, den: int = 1):
        """(rem, used, s, pivot) over Z[i] with s·v = rem + Σ used[r]·row r for
        v over den, rem top-reduced with leading column pivot; the joint
        content of rem, used and s is one.  v is not changed."""
        w, used = dict(v), {}
        sr, si = den, 0
        while w and (r := self._row_of.get(lead := min(w, key=self.key))) is not None:
            row = self.rows[r]
            (pr, pi), (cr, ci) = row[lead], w[lead]
            if pi or pr != 1:
                for t in (w, used):
                    for k, (a, b) in t.items():
                        t[k] = (pr * a - pi * b, pr * b + pi * a)
                sr, si = pr * sr - pi * si, pr * si + pi * sr
            used[r] = (cr, ci)
            for k, (a, b) in row.items():
                x, y = w.get(k, (0, 0))
                x, y = x - cr * a + ci * b, y - cr * b - ci * a
                if x or y:
                    w[k] = (x, y)
                else:
                    del w[k]
            g = gcd(sr, si)
            for a, b in chain(w.values(), used.values()):
                if (g := gcd(g, a, b)) == 1:
                    break
            else:
                sr, si = sr // g, si // g
                for t in (w, used):
                    for k, (a, b) in t.items():
                        t[k] = (a // g, b // g)
        return w, used, (sr, si), lead if w else None

    def _append(self, rem: dict, used: dict, s, pivot) -> bool:
        """Count a generator from its reduction; whether rem, nonzero, became a row."""
        self.ngens += 1
        if not rem:
            return False
        self._row_of[pivot] = len(self.rows)
        self.rows.append(rem)
        self._history.append((self.ngens - 1, s, used))
        self.pivots.append(pivot)
        return True

    def insert(self, v: dict, den: int = 1) -> bool:
        """Add a generator; returns whether it added a row (v is outside the span)."""
        return self._append(*self._reduce(v, den))

    def insert_coordinates(self, v: dict, den: int = 1) -> Coordinates:
        """Add v as ``insert`` does; returns its coordinates over the rows with
        pivot one, counting the row it adds, if any."""
        rem, used, s, pivot = self._reduce(v, den)
        if self._append(rem, used, s, pivot):
            used = {**used, self.dim - 1: (1, 0)}
        return self._over_rows(used, s)

    def _over_rows(self, used: dict, s) -> Coordinates:
        """v's coordinates over the rows with pivot one, from a reduction's
        Σ used[r]·row r = s·v."""
        return _divide({r: _gmul(c, self.rows[r][self.pivots[r]]) for r, c in used.items()}, s)

    def contains(self, v: dict, den: int = 1) -> bool:
        return not self._reduce(v, den)[0]

    def express(self, v: dict, den: int = 1) -> Optional[Coordinates]:
        """Coordinates of v over the inserted generators, or None if outside."""
        rem, used, s, _ = self._reduce(v, den)
        return None if rem else _divide(self._over_generators(used), s)

    def _over_generators(self, used: dict) -> dict:
        """The c_g over Z[i] with Σ used[r]·row r = Σ c_g·x_g over the generators
        x_g: from the last row down, each row is replaced by its own reduction."""
        used, out = dict(used), {}
        for r in range(self.dim - 1, -1, -1):
            if (u := used.pop(r, (0, 0))) != (0, 0):
                g, s_r, used_r = self._history[r]
                out[g] = _gmul(u, s_r)
                for r2, c in used_r.items():
                    (a, b), (x, y) = used.get(r2, (0, 0)), _gmul(u, c)
                    used[r2] = (a - x, b - y)
        return out

    def row_coordinates(self, v: dict, den: int = 1) -> Optional[Coordinates]:
        """Coordinates of v over the rows with pivot one, or None if outside."""
        rem, used, s, _ = self._reduce(v, den)
        return None if rem else self._over_rows(used, s)

    def reduced_rows(self) -> list[Coordinates]:
        """The unique fully reduced basis of the span, pivots ascending, each row
        with pivot one as (num, n), n > 0 the pivot entry of num and the
        content of num one: from the last pivot down, each row's tail is
        top-reduced by the rows already done, under a key that puts every
        pivot before every other column."""
        key = self.key or (lambda col: col)
        pivots = set(self.pivots)
        done = Echelon(key=lambda col: (col not in pivots, key(col)))
        for pivot in sorted(pivots, key=key, reverse=True):
            row = self.rows[self._row_of[pivot]]
            # s·tail = rem + (rows done), so row ≡ (z·e_pivot + rem)/s with z = s·p; it is
            # stored as with pivot one and cleared (times conj(z) over its content), since
            # a row kept at scale z would feed its size into every later row
            rem, _, s, _ = done._reduce({c: x for c, x in row.items() if c != pivot})
            rem, n = _divide(rem, _gmul(s, row[pivot]))
            w = {pivot: (n, 0), **rem}
            g = gcd(*chain.from_iterable(w.values()))
            done.insert({c: (a // g, b // g) for c, (a, b) in w.items()})
        return [(row, row[pivot][0]) for row, pivot in zip(done.rows[::-1], done.pivots[::-1])]


def rref(a: Matrix):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    ncols = len(a[0]) if a else 0
    den = lcm(*{x.d for row in a for x in row})
    span = Echelon(_clear(dict(enumerate(row)), den) for row in a)
    rows = [_dense(num, n, ncols) for num, n in span.reduced_rows()]
    rows += [[ZERO] * ncols for _ in range(len(a) - len(rows))]
    return rows, sorted(span.pivots)


def integer_kernel(columns: list[dict]) -> list[dict]:
    """The relations over Z[i] among columns {key: (re, im)} inserted in order:
    for each column j that depends on the earlier ones, s·e_j − Σ x_g·e_g with
    s ≠ 0 and s·col_j = Σ x_g·col_g, so j is the relation's largest key."""
    span = Echelon()
    out = []
    for j, col in enumerate(columns):
        rem, used, s, pivot = span._reduce(col)
        if not span._append(rem, used, s, pivot):
            xs = span._over_generators(used)
            out.append({j: s, **{g: (-a, -b) for g, (a, b) in xs.items()}})
    return out


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
    reports each eigenspace (geometric) basis: the relations among the
    columns of a - λI, cleared over their lcm, each over its s.
    """
    n = len(a)
    out = []
    for lam, _ in eigenvalues(a):
        shifted = [{r: a[r][c] - lam if r == c else a[r][c] for r in range(n)} for c in range(n)]
        den = lcm(*{x.d for col in shifted for x in col.values()})
        out.append((lam, [_dense(*_divide(rel, rel[max(rel)]), n)
                          for rel in integer_kernel([_clear(col, den) for col in shifted])]))
    return out
