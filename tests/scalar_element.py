"""The Scalar-term element as it was before elements moved to Gaussian-integer
numerators over one denominator, frozen (reference for the differential tests).

An element here is a sparse map {(i, j): nonzero Scalar}.  Products clear both
operands to Gaussian integers over a shared denominator, accumulate plain ints
and reduce each output coefficient by its own gcd; sums and scaling run
Scalar by Scalar.  ``ScalarSpan`` is the adapter over ``linalg.Echelon``'s
Scalar rows, and ``apply_images`` the morphism application, both as they
were.  The row caches are this module's own, so the library's bounded caches
play no part in the reference.
"""

import math
from functools import lru_cache
from typing import Optional

from weylkit.linalg import Echelon
from weylkit.scalars import ZERO, Scalar, _norm, as_scalar, format_scalar


def _term_order(m):
    return (-(m[0] + m[1]), -m[0])


@lru_cache(maxsize=None)
def _swap_row(j: int, k: int) -> tuple:
    row = [(0, 1)]
    for m in range(min(j, k)):
        row.append((m + 1, -row[-1][1] * (j - m) * (k - m) // (m + 1)))
    return tuple(row)


@lru_cache(maxsize=None)
def _signed_row(b: int, c: int, d: int, a: int, sign: int) -> tuple:
    ks = dict(_swap_row(b, c))
    for m, k in _swap_row(d, a):
        ks[m] = ks.get(m, 0) + sign * k
    return tuple((m, k) for m, k in ks.items() if k)


def _cleared(terms: dict) -> tuple[list, int]:
    den = 1
    for c in terms.values():
        if c.d != 1:
            den = math.lcm(den, c.d)
    return [(m, c.a * (den // c.d), c.b * (den // c.d)) for m, c in terms.items()], den


def _collect(re_acc: dict, im_acc: dict, den: int) -> dict:
    out = {}
    for key, re in re_acc.items():
        im = im_acc.get(key, 0)
        if re or im:
            out[key] = _norm(re, im, den)
    return out


def _kernel(x_terms: dict, y_terms: dict, sign: int) -> dict:
    xs, dx = _cleared(x_terms)
    ys, dy = _cleared(y_terms)
    re_acc: dict = {}
    im_acc: dict = {}
    for (a, b), xr, xi in xs:
        for (c, d), yr, yi in ys:
            re = xr * yr - xi * yi
            im = xr * yi + xi * yr
            i, j = a + c, b + d
            for m, k in _signed_row(b, c, d, a, sign) if sign else _swap_row(b, c):
                key = (i - m, j - m)
                re_acc[key] = re_acc.get(key, 0) + re * k
                im_acc[key] = im_acc.get(key, 0) + im * k
    return _collect(re_acc, im_acc, dx * dy)


def _wrap(terms: dict) -> "ScalarElement":
    res = ScalarElement.__new__(ScalarElement)
    res.terms = terms
    return res


def linear_combination(pairs) -> "ScalarElement":
    parts = []
    den = 1
    for c, x in pairs:
        c = as_scalar(c)
        if c:
            xs, dx = _cleared(x.terms)
            parts.append((c, c.d * dx, xs))
            den = math.lcm(den, c.d * dx)
    re_acc: dict = {}
    im_acc: dict = {}
    for c, e, xs in parts:
        ca, cb = c.a * (den // e), c.b * (den // e)
        for key, xr, xi in xs:
            re_acc[key] = re_acc.get(key, 0) + ca * xr - cb * xi
            if im := ca * xi + cb * xr:
                im_acc[key] = im_acc.get(key, 0) + im
    return _wrap(_collect(re_acc, im_acc, den))


class ScalarElement:
    """A finite Scalar combination of normal-ordered monomials p^i q^j."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        clean = {}
        for (i, j), c in (terms or {}).items():
            c = as_scalar(c)
            if c:
                clean[(i, j)] = c
        self.terms = clean

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _wrap(out)

    def __neg__(self):
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ScalarElement":
        c = as_scalar(c)
        if not c:
            return _wrap({})
        return _wrap({m: c * v for m, v in self.terms.items()})

    def __truediv__(self, c):
        return self.scale(as_scalar(c).inverse())

    def __mul__(self, other):
        return _wrap(_kernel(self.terms, other.terms, 0))

    def __eq__(self, other):
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def as_records(self) -> list[dict]:
        out = []
        for (i, j) in sorted(self.terms, key=_term_order):
            c = self.terms[(i, j)]
            out.append({"i": i, "j": j,
                        "re_num": c.re.numerator, "re_den": c.re.denominator,
                        "im_num": c.im.numerator, "im_den": c.im.denominator})
        return out


def bracket(x: ScalarElement, y: ScalarElement) -> ScalarElement:
    return _wrap(_kernel(x.terms, y.terms, -1))


def anticommutator(x: ScalarElement, y: ScalarElement) -> ScalarElement:
    return _wrap(_kernel(x.terms, y.terms, 1))


def apply_images(image_p: ScalarElement, image_q: ScalarElement,
                 x: ScalarElement) -> ScalarElement:
    if not x.terms:
        return _wrap({})
    one = ScalarElement({(0, 0): 1})
    max_i = max(i for (i, _) in x.terms)
    max_j = max(j for (_, j) in x.terms)
    powers_p = [one, image_p]
    for _ in range(max_i - 1):
        powers_p.append(powers_p[-1] * image_p)
    powers_q = [one, image_q]
    for _ in range(max_j - 1):
        powers_q.append(powers_q[-1] * image_q)
    return linear_combination((c, powers_p[i] * powers_q[j] if i and j else
                               powers_p[i] if i else powers_q[j])
                              for (i, j), c in x.terms.items())


class ScalarSpan:
    """The ElementSpan adapter over the Scalar rows of linalg.Echelon."""

    def __init__(self):
        self._echelon = Echelon(key=_term_order)
        self.rows: list[ScalarElement] = []

    def insert(self, x: ScalarElement) -> Optional[ScalarElement]:
        if not self._echelon.insert(x.terms):
            return None
        self.rows.append(_wrap(self._echelon.rows[-1]))
        return self.rows[-1]

    def insert_coordinates(self, x: ScalarElement) -> dict:
        coords = self._echelon.insert_coordinates(x.terms)
        if self._echelon.dim > len(self.rows):
            self.rows.append(_wrap(self._echelon.rows[-1]))
        return coords

    def contains(self, x: ScalarElement) -> bool:
        return self._echelon.contains(x.terms)

    def express(self, x: ScalarElement):
        return self._echelon.express(x.terms)

    def row_coordinates(self, x: ScalarElement):
        return self._echelon.row_coordinates(x.terms)

    def reduced_basis(self) -> list[ScalarElement]:
        return [_wrap(row) for row in self._echelon.reduced_rows()]


def _format_body(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("p" if i == 1 else f"p^{i}")
    if j:
        parts.append("q" if j == 1 else f"q^{j}")
    return "*".join(parts)


def format_element(x: ScalarElement) -> str:
    if not x.terms:
        return "0"
    pieces = []
    for (i, j) in sorted(x.terms, key=_term_order):
        c = x.terms[(i, j)]
        body = _format_body(i, j)
        if c.re and c.im:
            neg = False
            coeff = f"({format_scalar(c)})" if body or pieces else format_scalar(c)
        else:
            if c.im:
                neg = c.im < 0
                mag = Scalar(0, abs(c.im))
            else:
                neg = c.re < 0
                mag = Scalar(abs(c.re))
            coeff = format_scalar(mag)
        if body and coeff == "1":
            text = body
        elif body:
            text = f"{coeff}*{body}"
        else:
            text = coeff
        pieces.append((neg, text))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, text in pieces[1:]:
        out += (" - " if neg else " + ") + text
    return out
