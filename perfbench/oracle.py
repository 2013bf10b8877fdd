"""Independent checks of the library's answers, in plain ``Fraction`` code.

Nothing here imports the library.  An element is a dict mapping (i, j) to a
Gaussian rational (re, im) for the monomial p^i q^j, normal-ordered with p on
the left.  The checks use the faithful representation of the Weyl algebra on
polynomials in x, p = d/dx and q = x, so that p^i q^j x^k = (k+j)!/(k+j-i)!
x^(k+j-i).  An operator of total degree at most n that kills x^0, ..., x^n is
zero (write it as a sum of x^a d^b and apply it to x^b for the least b), so
identities are decided exactly on finitely many test polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = (0, 0)
ONE = (1, 0)


class CheckFailed(AssertionError):
    """An answer of the program disagrees with an independent computation."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# -- Gaussian rationals --------------------------------------------------------------


def gq(v) -> tuple[Fraction, Fraction]:
    """A Gaussian rational from an int, a Fraction, a pair or anything with
    ``re``/``im`` attributes."""
    if isinstance(v, tuple):
        return (Fraction(v[0]), Fraction(v[1]))
    if hasattr(v, "re"):
        return (Fraction(v.re), Fraction(v.im))
    return (Fraction(v), Fraction(0))


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return (Fraction(a[0] * b[0] + a[1] * b[1], n), Fraction(a[1] * b[0] - a[0] * b[1], n))


def is_zero(a) -> bool:
    return not a[0] and not a[1]


# -- elements ------------------------------------------------------------------------


def element(terms) -> dict:
    """Normalise a mapping (i, j) -> coefficient, dropping zeros."""
    out = {}
    for m, c in terms.items():
        c = gq(c)
        if not is_zero(c):
            out[(int(m[0]), int(m[1]))] = c
    return out


def from_library(x) -> dict:
    """The terms of a library element, read through its ``terms`` dict."""
    return element(x.terms)


def from_records(records) -> dict:
    """The terms of an element from its JSON records."""
    return element({(r["i"], r["j"]): (Fraction(r["re_num"], r["re_den"]),
                                       Fraction(r["im_num"], r["im_den"]))
                    for r in records})


def degree(x: dict) -> int:
    return max((i + j for i, j in x), default=0)


def scaled(x: dict, c) -> dict:
    c = gq(c)
    return element({m: g_mul(v, c) for m, v in x.items()})


def to_text(x: dict) -> str:
    """The element in the library's expression grammar."""
    parts = []
    for (i, j), (re, im) in sorted(x.items()):
        coeff = f"({re}{'-' if im < 0 else '+'}{abs(im)}i)" if im else f"({re})"
        body = "*".join(([f"p^{i}"] if i else []) + ([f"q^{j}"] if j else []))
        parts.append(f"{coeff}*{body}" if body else coeff)
    return " + ".join(parts) if parts else "0"


# -- the differential-operator representation -----------------------------------------


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


def act(x: dict, poly: dict) -> dict:
    """Apply the operator x to a polynomial {power of x: coefficient}."""
    out: dict[int, tuple] = {}
    for (i, j), c in x.items():
        for k, a in poly.items():
            n = k + j
            if i > n:
                continue
            v = g_mul(c, a)
            f = _falling(n, i)
            term = (v[0] * f, v[1] * f)
            out[n - i] = g_add(out.get(n - i, ZERO), term)
    return {k: v for k, v in out.items() if not is_zero(v)}


def _poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = g_sub(out.get(k, ZERO), v)
    return {k: v for k, v in out.items() if not is_zero(v)}


def _test_polys(n: int):
    return [{k: ONE} for k in range(n + 1)]


def _denominator(x: dict) -> int:
    return math.lcm(1, *(Fraction(v).denominator for c in x.values() for v in c))


def _integral(x: dict, d: int):
    """d·x with int coefficients (exact and much faster than Fractions), or
    None if d·x is not integral."""
    out = {}
    for m, (re, im) in x.items():
        re, im = Fraction(re) * d, Fraction(im) * d
        if re.denominator != 1 or im.denominator != 1:
            return None
        out[m] = (re.numerator, im.numerator)
    return out


def product_holds(a: dict, b: dict, c: dict) -> bool:
    """a·b = c as operators on polynomials."""
    da, db = _denominator(a), _denominator(b)
    a, b, c = _integral(a, da), _integral(b, db), _integral(c, da * db)
    if c is None:
        return False
    n = max(degree(a) + degree(b), degree(c))
    return all(act(a, act(b, f)) == act(c, f) for f in _test_polys(n))


def bracket_holds(a: dict, b: dict, c: dict) -> bool:
    """a·b - b·a = c as operators on polynomials."""
    da, db = _denominator(a), _denominator(b)
    a, b, c = _integral(a, da), _integral(b, db), _integral(c, da * db)
    if c is None:
        return False
    n = max(degree(a) + degree(b), degree(c))
    return all(_poly_sub(act(a, act(b, f)), act(b, act(a, f))) == act(c, f)
               for f in _test_polys(n))


def eigen_holds(h: dict, v: dict, lam) -> bool:
    """[h, v] = λ·v."""
    return bracket_holds(h, v, scaled(v, lam))


def triplet_holds(x: dict, y: dict, h: dict) -> bool:
    """[H,X] = 2X, [H,Y] = -2Y, [X,Y] = H, with all three nonzero."""
    return (bool(x) and bool(y) and bool(h)
            and bracket_holds(h, x, scaled(x, 2))
            and bracket_holds(h, y, scaled(y, -2))
            and bracket_holds(x, y, h))


def casimir_value(x: dict, y: dict, h: dict):
    """The scalar by which H²/2 + XY + YX acts, or None if it is not one."""
    value = None
    n = max(degree(x) + degree(y), 2 * degree(h))
    for f in _test_polys(n):
        (k, _), = f.items()
        hh = act(h, act(h, f))
        out = {e: (Fraction(v[0], 2), Fraction(v[1], 2)) for e, v in hh.items()}
        for part in (act(x, act(y, f)), act(y, act(x, f))):
            for e, v in part.items():
                out[e] = g_add(out.get(e, ZERO), v)
        out = {e: v for e, v in out.items() if not is_zero(v)}
        c = out.pop(k, ZERO)
        if out or (value is not None and c != value):
            return None
        value = c
    return value


# -- linear algebra ------------------------------------------------------------------


def rank(vectors) -> int:
    """Rank of a list of elements (dicts over monomials)."""
    rows: list[tuple[object, dict]] = []
    for v in vectors:
        v = dict(v)
        for pivot, row in rows:
            c = v.get(pivot)
            if c is not None:
                for m, r in row.items():
                    v[m] = g_sub(v.get(m, ZERO), g_mul(c, r))
                v = {m: w for m, w in v.items() if not is_zero(w)}
        if v:
            pivot = min(v)
            inv = g_div(ONE, v[pivot])
            rows.append((pivot, {m: g_mul(w, inv) for m, w in v.items()}))
    return len(rows)


# -- closed forms --------------------------------------------------------------------


def eigenspace_dim(c: int, lam: int, d: int) -> int:
    """dim of {v : [H, v] = λv, deg v ≤ d} when ad(H) multiplies p^i q^j by
    c·(j - i): the quadratic triplet has c = 1, the cubic family c = 2."""
    return sum(1 for i in range(d + 1) for j in range(d + 1 - i)
               if c * (j - i) == lam)


def f2_casimir(b):
    """casimir(f_II(b)) = b(b/2 + 1)."""
    b = gq(b)
    return g_mul(b, g_add((Fraction(b[0], 2), Fraction(b[1], 2)), ONE))


# -- substitutions -------------------------------------------------------------------


class Operator:
    """A linear map of polynomials, known through (and caching) its values
    on the monomials x^k."""

    def __init__(self, on_monomial):
        self._on_monomial = on_monomial
        self._images: dict[int, dict] = {}

    def __call__(self, poly: dict) -> dict:
        out: dict[int, tuple] = {}
        for k, a in poly.items():
            image = self._images.get(k)
            if image is None:
                image = self._images[k] = self._on_monomial(k)
            for e, v in image.items():
                out[e] = g_add(out.get(e, ZERO), g_mul(a, v))
        return {e: v for e, v in out.items() if not is_zero(v)}


def _operator(x: dict) -> Operator:
    return Operator(lambda k: act(x, {k: ONE}))


def _substituted(x: dict, p_op, q_op) -> Operator:
    """The operator x(P, Q) = Σ c·P^i Q^j for operators P and Q."""
    def on_monomial(k):
        out: dict[int, tuple] = {}
        for (i, j), c in x.items():
            g = {k: ONE}
            for _ in range(j):
                g = q_op(g)
            for _ in range(i):
                g = p_op(g)
            for e, v in g.items():
                out[e] = g_add(out.get(e, ZERO), g_mul(c, v))
        return {e: v for e, v in out.items() if not is_zero(v)}
    return Operator(on_monomial)


def substitution_holds(chain, x: dict, result: dict) -> bool:
    """result = m(x) for the morphism m that applies the substitutions of
    ``chain`` in order; each is a pair (image of p, image of q) with
    Gaussian-integer coefficients."""
    chain = [(_integral(u, 1), _integral(v, 1)) for u, v in chain]
    d = _denominator(x)
    x, result = _integral(x, d), _integral(result, d)
    if result is None:
        return False
    p_op, q_op = _operator(chain[-1][0]), _operator(chain[-1][1])
    for image_p, image_q in reversed(chain[:-1]):
        p_op, q_op = _substituted(image_p, p_op, q_op), _substituted(image_q, p_op, q_op)
    image = _substituted(x, p_op, q_op)
    n = degree(x)
    for image_p, image_q in chain:
        n *= max(degree(image_p), degree(image_q), 1)
    n = max(n, degree(result))
    return all(act(result, f) == image(f) for f in _test_polys(n))


P = {(1, 0): ONE}
Q = {(0, 1): ONE}


def phi_images(n: int, lam) -> tuple[dict, dict]:
    """p ↦ p, q ↦ q + λpⁿ."""
    return P, element({(0, 1): ONE, (n, 0): lam})


def phi_prime_images(n: int, lam) -> tuple[dict, dict]:
    """p ↦ p + λqⁿ, q ↦ q."""
    return element({(1, 0): ONE, (0, n): lam}), Q


def _vector(op, n: int) -> dict:
    """An operator of degree ≤ n as the list of its values on x^0, ..., x^n;
    on such operators this map is linear and injective."""
    return {(k, e): v for k in range(n + 1) for e, v in op({k: ONE}).items()}


def span_is_closed(basis) -> bool:
    """Every bracket of two basis elements lies in the span of the basis."""
    n = 2 * max(degree(x) for x in basis)
    vectors = [_vector(_operator(x), n) for x in basis]
    r = rank(vectors)
    for u, a in enumerate(basis):
        for b in basis[u + 1:]:
            def br(f, a=a, b=b):
                return _poly_sub(act(a, act(b, f)), act(b, act(a, f)))
            if rank(vectors + [_vector(br, n)]) != r:
                return False
    return True
