"""Normal-ordered arithmetic in the first Weyl algebra.

The algebra has two generators p, q with pq - qp = 1, and the monomials
p^i q^j form a basis.  An element is Gaussian-integer numerators ``num``
{(i, j): (re, im)} over one denominator ``den`` (the content/primitive-part
split), kept canonical: den > 0, no zero numerator, gcd(numerators, den) = 1,
zero as ({}, 1); so equal values have equal (num, den).  Every operation runs
on the numerators and divides out one content gcd per result.  Scalars are
built only at the edge: ``terms``, ``coeff``, ``constant_term``,
``as_records`` and the text form.  Products normal-order via

    q^j p^k = sum_m (-1)^m C(j,m) C(k,m) m! p^{k-m} q^{j-m},

accumulating plain ints over D_x·D_y, one swap row per term pair.  Since
p^a q^b · p^c q^d and p^c q^d · p^a q^b put swap term m on the same monomial,
x·y + sign·y·x has one signed row per pair: sign 0 is the product x·y, sign
-1 the bracket [x, y] (whose m = 0 terms cancel) and sign +1 the
anticommutator xy + yx.  Sums add numerators over the lcm of the denominators.

Also here: the symmetrisation map onto the grading subspaces W_n (the image
of the n-th symmetric power of span{p, q}), as the Weyl ordering

    δ(p^⊙i ⊙ q^⊙j) = sum_k (-1/2)^k k! C(i,k) C(j,k) p^{i-k} q^{j-k}

of the commutative product of the factors; the decomposition of an element
along that grading, the weight decomposition under ad(pq), and exact linear
spans over the monomial basis.

Printing convention: terms in descending total degree, ties broken by
descending p-exponent; the same order is used for echelon pivots.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (BadParams, BudgetExceeded, ExprSyntaxError, NotInjective, _check_count,
                     _is_count)
from .linalg import Echelon
from .scalars import _SCALAR, Scalar, _dense, _divide, _norm, _ScalarScanner, format_scalar

__all__ = [
    "WeylElement", "SymTensor", "WeightComponent", "ElementSpan",
    "bracket", "anticommutator", "ad_pow", "linear_combination", "symmetrize",
    "weight_decompose", "wn_components", "linear_span_dim", "coordinates", "parse_element",
    "format_element",
    "p", "q", "one", "zero",
]

Monomial = tuple[int, int]
ScalarLike = Union[Scalar, int, Fraction]

_new = object.__new__


def _term_order(m: Monomial):
    """Sort key for printing order: descending total degree, then descending i."""
    return (-(m[0] + m[1]), -m[0])


def _triple(c: ScalarLike) -> tuple[int, int, int]:
    """(a, b, d) in lowest terms with c = (a + b·i)/d and d > 0."""
    if isinstance(c, Scalar):
        return c.a, c.b, c.d
    if not isinstance(c, (int, Fraction)):
        raise BadParams(f"coefficients are ints, Fractions or Scalars: got {c!r}")
    c = Fraction(c)
    return c.numerator, 0, c.denominator


def _make(num: dict, den: int) -> "WeylElement":
    """The element num/den, for numerators with no zero entry and den > 0,
    after one content gcd; its loop stops at the first 1."""
    g = den
    for a, b in num.values():
        if (g := gcd(g, a, b)) == 1:
            break
    if g != 1:
        num = {m: (a // g, b // g) for m, (a, b) in num.items()}
    x = _new(WeylElement)
    x.num, x.den = num, den // g
    return x


# The perfbench workloads use at most 65 swap rows and 828 signed rows, but one
# lie_closure([q^30, p^30]) asks for 10,120 and 61,053: kept whole, past 300 MB.
# It walks them cyclically, where an LRU almost never hits, so a signed row past
# _SHORT_ROW + 1 terms is built afresh (the workloads' rows have at most 5).
_SWAP_CACHE = 8192
_SIGNED_CACHE = 2048
_SHORT_ROW = 8


@lru_cache(maxsize=_SWAP_CACHE)
def _swap_row(j: int, k: int) -> tuple:
    """The pairs (m, (-1)^m C(j,m) C(k,m) m!) for m = 0..min(j, k), each entry
    from the last by k_{m+1} = −k_m·(j − m)(k − m)/(m + 1), an exact division."""
    row = [(0, 1)]
    for m in range(min(j, k)):
        row.append((m + 1, -row[-1][1] * (j - m) * (k - m) // (m + 1)))
    return tuple(row)


@lru_cache(maxsize=_SIGNED_CACHE)
def _signed_row(b: int, c: int, d: int, a: int, sign: int) -> tuple:
    """The nonzero pairs (m, k) of the (b, c) swap row plus sign × the (d, a) row.

    Both rows open with 1 at m = 0, so a commutator row (sign -1) starts at m = 1.
    """
    ks = dict(_swap_row(b, c))
    for m, k in _swap_row(d, a):
        ks[m] = ks.get(m, 0) + sign * k
    return tuple((m, k) for m, k in ks.items() if k)


def _long_term_signed_row(b: int, c: int, d: int, a: int, sign: int) -> tuple:
    """``_signed_row``, built afresh when min(b, c) or min(d, a) passes _SHORT_ROW."""
    if min(b, c) > _SHORT_ROW or min(d, a) > _SHORT_ROW:
        return _signed_row.__wrapped__(b, c, d, a, sign)
    return _signed_row(b, c, d, a, sign)


def _collect(re_acc: dict, im_acc: dict, den: int) -> "WeylElement":
    """The element from integer sums (keys of im_acc within re_acc's) over den."""
    return _make({k: (re, im) for k, re in re_acc.items() if (im := im_acc.get(k, 0)) or re},
                 den)


# swap-row entries times (output degree + 1); the largest accepted product,
# q^2400·p^2400, takes 0.05 s on a 2-vCPU x86 host with Python 3.11
_PRODUCT_BUDGET = 2401 * 4801


def _check_product(x: "WeylElement", y: "WeylElement", commutator: bool):
    """Refuse x·y, or [x, y] if commutator, before any product work when the
    swap-row entries of the term pairs times the output degree pass the budget."""
    entries = sum(max(min(b, c), min(d, a) if commutator else 0) + 1
                  for a, b in x.num for c, d in y.num)
    if entries * (x.degree() + y.degree() + 1) > _PRODUCT_BUDGET:
        raise BudgetExceeded(f"{entries} swap terms up to degree {x.degree() + y.degree()} "
                             f"pass the product budget of {_PRODUCT_BUDGET}")


def _kernel(x: "WeylElement", y: "WeylElement", sign: int) -> "WeylElement":
    """x·y + sign·y·x (sign 0: x·y alone) over D_x·D_y."""
    return _collect(*_accumulate(x.num.items(), y.num.items(), sign), x.den * y.den)


def _accumulate(xs: Iterable, ys: Iterable, sign: int) -> tuple[dict, dict]:
    """The integer sums (real, imaginary; keys of the second within the first) of
    x·y + sign·y·x (sign 0: x·y) over re-iterable pairs (monomial, (re, im))."""
    re_acc: dict = {}
    im_acc: dict = {}
    for (a, b), (xr, xi) in xs:
        # only a term with an exponent past _SHORT_ROW can pair into a long row
        signed_row = _signed_row if a <= _SHORT_ROW and b <= _SHORT_ROW else _long_term_signed_row
        for (c, d), (yr, yi) in ys:
            re = xr * yr - xi * yi
            im = xr * yi + xi * yr
            i, j = a + c, b + d
            row = signed_row(b, c, d, a, sign) if sign else _swap_row(b, c)
            if im:
                for m, k in row:
                    key = (i - m, j - m)
                    re_acc[key] = re_acc.get(key, 0) + re * k
                    im_acc[key] = im_acc.get(key, 0) + im * k
            else:
                for m, k in row:
                    key = (i - m, j - m)
                    re_acc[key] = re_acc.get(key, 0) + re * k
    return re_acc, im_acc


def _sum(parts: Sequence[tuple]) -> "WeylElement":
    """Σ (cr + ci·i)/cd · x over parts (cr, ci, cd, x) with cd > 0, as Gaussian
    integers over the lcm of the cd·D_x."""
    den = lcm(*(cd * x.den for _, _, cd, x in parts))
    re_acc: dict = {}
    im_acc: dict = {}
    for cr, ci, cd, x in parts:
        f = den // (cd * x.den)
        cr, ci = cr * f, ci * f
        for key, (a, b) in x.num.items():
            re_acc[key] = re_acc.get(key, 0) + cr * a - ci * b
            if im := cr * b + ci * a:
                im_acc[key] = im_acc.get(key, 0) + im
    return _collect(re_acc, im_acc, den)


def _scaled(x: "WeylElement", a: int, b: int, d: int) -> "WeylElement":
    """(a + b·i)/d · x, for d > 0."""
    if not (a or b):
        return zero
    return _make({m: (a * xr - b * xi, a * xi + b * xr) for m, (xr, xi) in x.num.items()},
                 x.den * d)


def linear_combination(pairs: Iterable[tuple[ScalarLike, "WeylElement"]]) -> "WeylElement":
    """Σ c·x over (c, x) pairs, as Gaussian integers over the lcm of the c.d·D_x."""
    return _sum([(*_triple(c), x) for c, x in pairs])


class WeylElement:
    """A finite Q(i)-combination of normal-ordered monomials p^i q^j, as
    Gaussian-integer numerators ``num`` over one denominator ``den``."""

    __slots__ = ("num", "den")

    def __init__(self, terms: Optional[dict] = None):
        """The element Σ c·p^i q^j of a dict {(i, j): Scalar, int or Fraction}."""
        cs = {(i, j): _triple(c) for (i, j), c in (terms or {}).items()}
        for i, j in cs:
            if not (_is_count(i) and _is_count(j)):
                raise BadParams(f"monomial exponents must be nonnegative, got p^{i} q^{j}")
        # each triple is in lowest terms, so over the lcm of the d the content is one
        self.den = den = lcm(*{d for _, _, d in cs.values()})
        self.num = {m: (a * (den // d), b * (den // d)) for m, (a, b, d) in cs.items() if a or b}

    @staticmethod
    def monomial(i: int, j: int, coeff: ScalarLike = 1) -> "WeylElement":
        return WeylElement({(i, j): coeff})

    # -- structure queries ----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        """The nonzero coefficients {monomial: Scalar}, built on each call."""
        return {m: _norm(a, b, self.den) for m, (a, b) in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def is_scalar(self) -> bool:
        return all(m == (0, 0) for m in self.num)

    def constant_term(self) -> Scalar:
        return self.coeff(0, 0)

    def is_poly_in_p(self) -> bool:
        return all(j == 0 for (_, j) in self.num)

    def is_poly_in_q(self) -> bool:
        return all(i == 0 for (i, _) in self.num)

    def degree(self) -> int:
        """Total degree; the zero element has degree -1."""
        return max((i + j for (i, j) in self.num), default=-1)

    def leading_monomial(self) -> Monomial:
        if not self.num:
            raise BadParams("zero element has no leading monomial")
        return min(self.num, key=_term_order)

    def coeff(self, i: int, j: int) -> Scalar:
        return _norm(*self.num.get((i, j), (0, 0)), self.den)

    # -- linear structure ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> Optional["WeylElement"]:
        if isinstance(x, WeylElement):
            return x
        if isinstance(x, (Scalar, int, Fraction)):
            return WeylElement({(0, 0): x})
        return None

    def __add__(self, other):
        other = WeylElement._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(((1, 0, 1, self), (1, 0, 1, other)))

    __radd__ = __add__

    def __neg__(self):
        return _make({m: (-a, -b) for m, (a, b) in self.num.items()}, self.den)

    def __sub__(self, other):
        other = WeylElement._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(((1, 0, 1, self), (-1, 0, 1, other)))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: ScalarLike) -> "WeylElement":
        return _scaled(self, *_triple(c))

    def __truediv__(self, c):
        if not isinstance(c, (Scalar, int, Fraction)):
            return NotImplemented
        # x / ((a + b·i)/d) = d·(a − b·i)/(a² + b²) · x
        a, b, d = _triple(c)
        if not (a or b):
            raise ZeroDivisionError("scalar division by zero")
        return _scaled(self, d * a, -d * b, a * a + b * b)

    # -- the product -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        return _kernel(self, other, 0)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        _check_count(n, 0, "element powers need a nonnegative integer exponent, got {!r}")
        if n == 0:
            return one
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other):
        other = WeylElement._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # a scalar element equals the number of its value, so it hashes like it
        if self.is_scalar():
            return hash(self.constant_term())
        return hash((frozenset(self.num.items()), self.den))

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<Weyl {format_element(self)}>"

    def as_records(self) -> list[dict]:
        """Machine form: one record per term, in printing order."""
        out = []
        for (i, j), c in sorted(self.terms.items(), key=lambda t: _term_order(t[0])):
            out.append({"i": i, "j": j,
                        "re_num": c.re.numerator, "re_den": c.re.denominator,
                        "im_num": c.im.numerator, "im_den": c.im.denominator})
        return out


p = WeylElement.monomial(1, 0)
q = WeylElement.monomial(0, 1)
one = WeylElement.monomial(0, 0)
zero = WeylElement({})


def _as_element(x, message: str) -> WeylElement:
    """x as an element, a scalar as its constant; else BadParams(message), {} the type of x."""
    element = WeylElement._coerce(x)
    if element is None:
        raise BadParams(message.format(type(x).__name__))
    return element


def bracket(x: WeylElement, y: WeylElement) -> WeylElement:
    """The commutator xy - yx, one signed swap row per term pair."""
    return _kernel(x, y, -1)


def anticommutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """xy + yx, one signed swap row per term pair."""
    return _kernel(x, y, 1)


def ad_pow(x: WeylElement, y: WeylElement, n: int) -> WeylElement:
    """The n-fold iterated bracket ad(x)^n(y); n = 0 returns y."""
    _check_count(n, 0, "ad_pow needs a nonnegative iteration count, got {!r}")
    for _ in range(n):
        y = bracket(x, y)
    return y


# -- symmetrisation and the W_n grading ---------------------------------------


class SymTensor:
    """A symmetric word v1 ⊙ … ⊙ vn of elements of span{p, q}.

    Each factor (a, b) stands for a*p + b*q and is kept as two integer triples
    (re, im, den) in lowest terms; the order of factors is irrelevant to the
    image under symmetrize.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable):
        self.factors = tuple((_triple(a), _triple(b)) for a, b in factors)
        if not self.factors:
            raise BadParams("symmetric tensor needs at least one factor")

    def __len__(self):
        return len(self.factors)


def _weyl_ordered(terms: Iterable, den: int) -> WeylElement:
    """Σ c·δ(p^⊙i ⊙ q^⊙j) over pairs ((i, j), c), c Gaussian-integer numerators over den."""
    return _sum([(a, b, den, _delta_monomial(i, j)) for (i, j), (a, b) in terms])


def symmetrize(t) -> WeylElement:
    """The symmetrised product (1/n!) Σ_σ v_{σ(1)} … v_{σ(n)}; lands in W_n.

    It is linear in the symmetric word, so it is the Weyl ordering of the
    commutative product of the factors, expanded into monomials p^i q^j.
    """
    factors = t.factors if isinstance(t, SymTensor) else SymTensor(t).factors
    (a, b), *rest = factors
    poly = _sum([(*a, p), (*b, q)])
    # p·p^i q^j and p^i q^j·q are normal-ordered already: the commutative products
    for a, b in rest:
        poly = _sum([(*a, p * poly), (*b, poly * q)])
    return _weyl_ordered(poly.num.items(), poly.den)


@lru_cache(maxsize=None)
def _delta_monomial(i: int, j: int) -> WeylElement:
    """δ(p^⊙i ⊙ q^⊙j): the swap row of (i, j), its k-th entry over 2^k."""
    top = min(i, j)
    return _make({(i - k, j - k): (c << (top - k), 0) for k, c in _swap_row(i, j)}, 1 << top)


def wn_components(x: WeylElement) -> dict[int, WeylElement]:
    """Decompose x along A₁ = ⊕ W_n; keys in decreasing n, values nonzero.

    Works down from the top total degree: the degree-d part of the remainder
    fixes the W_d component via δ images of the matching monomial tensors.
    """
    out: dict[int, WeylElement] = {}
    rem = x
    while not rem.is_zero():
        d = rem.degree()
        comp = _weyl_ordered(((m, c) for m, c in rem.num.items() if sum(m) == d), rem.den)
        out[d] = comp
        rem = rem - comp
    return out


class WeightComponent(NamedTuple):
    weight: int
    value: WeylElement


def weight_decompose(x: WeylElement) -> list[WeightComponent]:
    """Partition the terms of x by weight j - i (the ad(pq) eigenvalue)."""
    buckets: dict[int, dict] = {}
    for (i, j), c in x.num.items():
        buckets.setdefault(j - i, {})[(i, j)] = c
    return [WeightComponent(w, _make(t, x.den)) for w, t in sorted(buckets.items())]


# -- exact spans over the monomial basis ---------------------------------------


class ElementSpan:
    """Incremental echelon form of the span of ``xs`` (a linalg.Echelon over
    the elements' numerators).

    Pivots are leading monomials in printing order, normalised to
    coefficient one; ``rows`` keeps the pivot rows in insertion order, and
    each carries its expression over the inserted generators, so membership
    queries can report exact coordinates.
    """

    def __init__(self, xs: Iterable[WeylElement] = ()):
        self._echelon = Echelon(key=_term_order)
        self.rows: list[WeylElement] = []
        for x in xs:
            self.insert(x)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _new_row(self) -> WeylElement:
        """Appends the engine's last row over its pivot value to ``rows``."""
        row = self._echelon.rows[-1]
        self.rows.append(_make(*_divide(row, row[self._echelon.pivots[-1]])))
        return self.rows[-1]

    def insert(self, x: WeylElement) -> Optional[WeylElement]:
        """Add a generator; returns the new pivot row if the span grew."""
        return self._new_row() if self._echelon.insert(x.num, x.den) else None

    def insert_coordinates(self, x: WeylElement) -> tuple[dict, int]:
        """Add x as ``insert`` does; returns its coordinates over the pivot rows,
        counting the row it adds, if any, as (num, n): num[r]/n over Z[i]."""
        coords = self._echelon.insert_coordinates(x.num, x.den)
        if self._echelon.dim > len(self.rows):
            self._new_row()
        return coords

    def contains(self, x: WeylElement) -> bool:
        return self._echelon.contains(x.num, x.den)

    def express(self, x: WeylElement) -> Optional[list[Scalar]]:
        """Coordinates of x over the inserted generators, or None if outside."""
        coords = self._echelon.express(x.num, x.den)
        return None if coords is None else _dense(*coords, self._echelon.ngens)

    def row_coordinates(self, x: WeylElement) -> Optional[list[Scalar]]:
        """Coordinates of x over the pivot rows, or None if outside."""
        coords = self._echelon.row_coordinates(x.num, x.den)
        return None if coords is None else _dense(*coords, self.dim)

    def reduced_basis(self) -> list[WeylElement]:
        """Canonical fully-reduced basis, pivots in printing order."""
        return [_make(num, n) for num, n in self._echelon.reduced_rows()]


def linear_span_dim(xs: Sequence[WeylElement]):
    """Dimension of the span of xs, plus a canonical echelonised basis."""
    span = ElementSpan(xs)
    return span.dim, span.reduced_basis()


def _independent_span(xs: Sequence[WeylElement], message: str) -> ElementSpan:
    """The span of xs; raises NotInjective(message) if xs are linearly dependent."""
    span = ElementSpan(xs)
    if span.dim != len(xs):
        raise NotInjective(message)
    return span


def coordinates(x: WeylElement, basis: Sequence[WeylElement]) -> Optional[list[Scalar]]:
    """Coordinates of x in the given (independent) basis; None if outside."""
    return _independent_span(basis, "basis elements are linearly dependent").express(x)


# -- text forms -----------------------------------------------------------------
#
#   expr   := [('+'|'-')] term (('+'|'-') term)*
#   term   := atom ('*' atom)*
#   atom   := '(' scalar ')' | scalar | ('p'|'q') ['^' nat]
#
# An unparenthesised scalar is scanned greedily, so a coefficient with both a
# real and an imaginary part must be parenthesised ("(1+2i)*p"); formatting
# always does this, and parse_element ∘ format_element is the identity.


def _format_body(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("p" if i == 1 else f"p^{i}")
    if j:
        parts.append("q" if j == 1 else f"q^{j}")
    return "*".join(parts)


def format_element(x: WeylElement) -> str:
    if x.is_zero():
        return "0"
    pieces = []
    for (i, j), c in sorted(x.terms.items(), key=lambda t: _term_order(t[0])):
        body = _format_body(i, j)
        coeff = format_scalar(c)
        neg = False
        if c.re and c.im:
            coeff = f"({coeff})" if body or pieces else coeff
        elif coeff[0] == "-":
            neg, coeff = True, coeff[1:]
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


class _ElementParser(_ScalarScanner):
    def error(self, message: str):
        raise ExprSyntaxError(message, self.pos)

    def atom(self) -> WeylElement:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.take_scalar()
            self.skip_ws()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return one.scale(value)
        if ch in ("p", "q"):
            self.pos += 1
            n = 1
            if self.peek() == "^":
                self.pos += 1
                n = self.take_nat()
            return WeylElement.monomial(n, 0) if ch == "p" else WeylElement.monomial(0, n)
        if not ch:
            self.error("unexpected end of input")
        return one.scale(self.take_scalar())

    def term(self) -> WeylElement:
        value = self.atom()
        while True:
            self.skip_ws()
            if self.peek() != "*":
                return value
            self.pos += 1
            factor = self.atom()
            _check_product(value, factor, False)
            value = value * factor

    def expr(self) -> WeylElement:
        self.skip_ws()
        if self.pos == len(self.text):
            self.error("empty element expression")
        sign = 1
        # a leading sign belongs to the term unless it starts a scalar
        if self.peek() in "+-" and not _SCALAR.match(self.text, self.pos):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        terms = [(sign, self.term())]
        while True:
            self.skip_ws()
            if self.pos == len(self.text):
                return linear_combination(terms)
            op = self.peek()
            if op not in "+-":
                self.error("expected '+' or '-'")
            self.pos += 1
            terms.append((-1 if op == "-" else 1, self.term()))


def parse_element(text: str) -> WeylElement:
    return _ElementParser(text).expr()
