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
``rref`` and ``charpoly`` alone take a Scalar matrix, cleared on entry by
``scalars._scalar_rows``; both remain for the baseline script ``perfbench/baseline.py``.
``eigenvalues`` and ``eigen_decomposition`` take a square matrix in the form
``integer_kernel`` takes, its columns {row: (re, im)} over one positive int,
build Scalars only for the eigenvalues they return and return each
eigenspace as ``integer_kernel`` relations.  A triangular matrix's
eigenvalues are its diagonal entries.  For any other, Faddeev–LeVerrier runs
on the Gaussian-integer matrix, and eigenvalues come from det(tI - D·a), monic
over Z[i] for the least such D, so its Q(i)-roots are Gaussian integers
dividing its lowest nonzero coefficient a₀.  While N(a₀) is within
``_NORM_BUDGET`` the divisors are enumerated by trial division and tested by
exact Horner deflation, which makes the search complete without sympy; only
above the budget is the same polynomial factorised by sympy, imported then.
A factor of degree two or more with no root means the spectrum leaves Q(i),
and is reported as such rather than approximated.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd, isqrt
from typing import Iterable, Optional

from .errors import BadParams, IrrationalSpectrum, _check_count, _is_count
from .scalars import ZERO, Scalar, _dense, _divide, _mk, _norm, _scalar_rows

__all__ = [
    "Echelon", "rref", "integer_kernel", "charpoly", "eigenvalues", "eigen_decomposition",
]

Matrix = list[list[Scalar]]
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
    span = Echelon(_scalar_rows(a)[0])
    ncols = len(a[0]) if a else 0
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


def _charpoly(columns: list[dict]) -> list[tuple[int, int]]:
    """The b_k over Z[i] with det(tI - a) = Σ b_k t^k for a over Z[i] with columns
    {row: (re, im)}: Faddeev–LeVerrier on the transpose, whose rows those are,
    where division by k is exact."""
    n = len(columns)
    coeffs = [(0, 0)] * n + [(1, 0)]
    # aᵀ · M_{k-1} as real and imaginary int matrices: lists of int pairs kept
    # alive between steps fragment the allocator's pools
    mr, mi = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        cr, ci = coeffs[n - k + 1]
        for d in range(n):
            mr[d][d], mi[d][d] = mr[d][d] + cr, mi[d][d] + ci
        out = []
        for row in columns:
            re, im = [0] * n, [0] * n
            for j, (xr, xi) in row.items():
                for c, (yr, yi) in enumerate(zip(mr[j], mi[j])):
                    re[c] += xr * yr - xi * yi
                    im[c] += xr * yi + xi * yr
            out.append((re, im))
        mr, mi = map(list, zip(*out))
        coeffs[n - k] = (-sum(mr[d][d] for d in range(n)) // k, -sum(mi[d][d] for d in range(n)) // k)
    return coeffs


def charpoly(a: Matrix) -> list[Scalar]:
    """Coefficients c with det(tI - a) = Σ c[k] t^k, c[n] = 1, as b_k / L^(n-k) from
    ``_charpoly`` on the rows of L·a, the columns of L·aᵀ, L the lcm of the entry
    denominators."""
    rows, den = _scalar_rows(a, square=True)
    return [_norm(re, im, den ** (len(a) - k)) for k, (re, im) in enumerate(_charpoly(rows))]


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


def _factor_roots(poly: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """The roots, with multiplicities, of a monic polynomial over Z[i] (highest
    coefficient first) by sympy's factorisation over QQ_I: Gaussian integers."""
    import sympy
    poly = sympy.Poly([_to_sympy(_mk(*z, 1)) for z in poly], sympy.Symbol("x"), domain="QQ_I")
    roots, rest = {}, 0
    for f, mult in poly.factor_list()[1]:
        if f.degree() > 1:
            rest += f.degree() * mult
        else:
            re, im = (-f.TC() / f.LC()).as_real_imag()
            roots[(int(re), int(im))] = mult
    if rest:
        raise _root_free(rest)
    return roots


def _root_scale(den: int, coeffs: list[tuple[int, int]]) -> int:
    """The least D > 0 with D^(n-k)·b_k / den^(n-k) in Z[i] for every b_k =
    coeffs[k], k < n: den over, for each prime p of den, the largest p^f with
    p^(f(n-k)) dividing every b_k.  den itself is used above the norm budget."""
    n = len(coeffs) - 1
    if den > _NORM_BUDGET:
        return den
    contents = [gcd(*b) for b in coeffs[:n]]
    d = den
    for p in _prime_factors(den):
        f = 0
        while den % p ** (f + 1) == 0 and all(g % p ** ((f + 1) * (n - k)) == 0
                                            for k, g in enumerate(contents)):
            f += 1
        d //= p ** f
    return d


def eigenvalues(columns: list[dict], den: int = 1) -> list[tuple[Scalar, int]]:
    """Eigenvalues in Q(i) with algebraic multiplicities, deterministic order, of
    the matrix a with columns {row: (re, im)} over Z[i] over den > 0.

    den is first cut to the least common denominator of the entries.  If a is
    upper or lower triangular, its eigenvalues are its diagonal entries,
    counted with multiplicity, and no charpoly is formed.  Otherwise, with D
    from ``_root_scale``, det(tI - D·a) is monic over Z[i], and Z[i] is
    integrally closed, so its Q(i)-roots are Gaussian integers.  Past the zero
    roots, each divides the lowest nonzero coefficient a₀.  While N(a₀) ≤
    _NORM_BUDGET every divisor of a₀ is tried, and each root found is counted
    and deflated by exact Horner division; above it sympy factorises the same
    polynomial.  Each root is divided by D.

    Raises IrrationalSpectrum if a factor of degree at least two (not
    necessarily irreducible) has no root in Q(i).
    """
    n = len(columns)
    _check_count(den, 1, "a denominator is a positive int, got {!r}")
    if any(not isinstance(col, dict) or not all(_is_count(r) and r < n for r in col)
           for col in columns):
        raise BadParams(f"the {n} columns of a square matrix are dicts keyed by rows below {n}")
    g = gcd(den, *(t for col in columns for z in col.values() for t in z))
    columns, den = [{r: (x // g, y // g) for r, (x, y) in col.items()} for col in columns], den // g
    if (all(max(col, default=c) <= c for c, col in enumerate(columns))
            or all(min(col, default=c) >= c for c, col in enumerate(columns))):
        roots, d = Counter(col.get(c, (0, 0)) for c, col in enumerate(columns)), den
    else:
        roots = Counter()
        coeffs = _charpoly(columns)
        # det(tI - D·a) = Σ b_k / (den/D)^(n-k) t^k over Z[i], highest coefficient first
        s = den // (d := _root_scale(den, coeffs))
        poly = [(x // s ** (n - k), y // s ** (n - k)) for k, (x, y) in enumerate(coeffs)][::-1]
        while poly[-1] == (0, 0):
            poly.pop()
            roots[(0, 0)] += 1
        if len(poly) > 1:
            candidates = _gaussian_divisors(poly[-1])
            if candidates is None:
                roots.update(_factor_roots(poly))
            else:
                for z in candidates:
                    while len(poly) > 1 and (rest := _deflate(poly, z)) is not None:
                        poly = rest
                        roots[z] += 1
                if len(poly) > 1:
                    raise _root_free(len(poly) - 1)
    return [(_norm(x, y, d), m) for (x, y), m in sorted(roots.items())]


def eigen_decomposition(columns: list[dict], den: int = 1) -> list[tuple[Scalar, list[dict]]]:
    """All Q(i)-eigenvalues λ of the matrix with columns {row: (re, im)} over den,
    each with its eigenspace (geometric) basis: the ``integer_kernel`` relations
    among the columns of den·(a - λI), the diagonal shifted by the Gaussian
    integer den·λ (λ's denominator divides D, which divides den).  The caller
    decides what a defective operator means for it."""
    out = []
    for lam, _ in eigenvalues(columns, den):
        x, y = lam.a * (den // lam.d), lam.b * (den // lam.d)
        shifted = [dict(col) for col in columns]
        for c, col in enumerate(shifted):
            re, im = col.pop(c, (0, 0))
            if (re, im) != (x, y):
                col[c] = (re - x, im - y)
        out.append((lam, integer_kernel(shifted)))
    return out
