"""Normal-ordered arithmetic in the first Weyl algebra.

The algebra has two generators p, q with pq - qp = 1, and the monomials
p^i q^j form a basis.  An element is stored as a sparse map from exponent
pairs (i, j) to nonzero Scalar coefficients, so equality of values is
equality of maps.  Multiplication normal-orders on the fly via the closed
form

    q^j p^k = sum_m (-1)^m C(j,m) C(k,m) m! p^{k-m} q^{j-m}.

Products, brackets, anticommutators and ``linear_combination`` share one
integer kernel: operands are cleared to Gaussian integers over a shared
denominator (the content/primitive-part split), sums accumulate in place as
plain ints, and each output coefficient is reduced once by ``_norm``.  Each
term pair walks one swap row.  Since p^a q^b · p^c q^d and p^c q^d · p^a q^b
put swap term m on the same monomial, x·y + sign·y·x has one signed row per
pair: sign 0 is the product x·y, sign -1 the bracket [x, y] (whose m = 0
terms cancel) and sign +1 the anticommutator xy + yx.

Also here: the symmetrisation map onto the grading subspaces W_n (the image
of the n-th symmetric power of span{p, q}), the decomposition of an element
along that grading, the weight decomposition under ad(pq), and exact linear
spans over the monomial basis.

Printing convention: terms in descending total degree, ties broken by
descending p-exponent; the same order is used for echelon pivots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import BadParams, BudgetExceeded, ExprSyntaxError, NotInjective
from .linalg import Echelon
from .scalars import ONE, ZERO, Scalar, _norm, _ScalarScanner, as_scalar, format_scalar

__all__ = [
    "WeylElement", "SymTensor", "WeightComponent", "ElementSpan",
    "bracket", "anticommutator", "ad_pow", "linear_combination", "symmetrize",
    "weight_decompose", "wn_components", "linear_span_dim", "coordinates", "parse_element",
    "format_element",
    "p", "q", "one", "zero",
]

Monomial = tuple[int, int]
ScalarLike = Union[Scalar, int, Fraction]


def _term_order(m: Monomial):
    """Sort key for printing order: descending total degree, then descending i."""
    return (-(m[0] + m[1]), -m[0])


def _wrap(terms: dict) -> "WeylElement":
    """An element on a term dict that is already clean (no zero coefficients)."""
    res = WeylElement.__new__(WeylElement)
    res.terms = terms
    return res


@lru_cache(maxsize=None)
def _swap_row(j: int, k: int) -> tuple:
    """The pairs (m, (-1)^m C(j,m) C(k,m) m!) for m = 0..min(j, k), each entry
    from the last by k_{m+1} = −k_m·(j − m)(k − m)/(m + 1), an exact division."""
    row = [(0, 1)]
    for m in range(min(j, k)):
        row.append((m + 1, -row[-1][1] * (j - m) * (k - m) // (m + 1)))
    return tuple(row)


_SIGNED_ROWS: dict = {}


def _signed_row(b: int, c: int, d: int, a: int, sign: int) -> tuple:
    """The nonzero pairs (m, k) of the (b, c) swap row plus sign × the (d, a) row.

    Both rows open with 1 at m = 0, so a commutator row (sign -1) starts at m = 1.
    """
    key = (b, c, d, a, sign)
    row = _SIGNED_ROWS.get(key)
    if row is None:
        ks = dict(_swap_row(b, c))
        for m, k in _swap_row(d, a):
            ks[m] = ks.get(m, 0) + sign * k
        row = _SIGNED_ROWS[key] = tuple((m, k) for m, k in ks.items() if k)
    return row


def _cleared(terms: dict) -> tuple[list, int]:
    """Terms as Gaussian-integer triples (monomial, re, im) over one denominator D."""
    den = 1
    for c in terms.values():
        if c.d != 1:
            den = math.lcm(den, c.d)
    return [(m, c.a * (den // c.d), c.b * (den // c.d)) for m, c in terms.items()], den


def _collect(re_acc: dict, im_acc: dict, den: int) -> dict:
    """Canonical Scalar terms from integer sums over den: one gcd per surviving term."""
    out = {}
    for key, re in re_acc.items():
        im = im_acc.get(key, 0)
        if re or im:
            out[key] = _norm(re, im, den)
    return out


# swap-row entries times (output degree + 1); the largest accepted product,
# q^2400·p^2400, takes 0.05 s on a 2-vCPU x86 host with Python 3.11
_PRODUCT_BUDGET = 2401 * 4801


def _check_product(x: "WeylElement", y: "WeylElement", commutator: bool):
    """Refuse x·y, or [x, y] if commutator, before any product work when the
    swap-row entries of the term pairs times the output degree pass the budget."""
    entries = sum(max(min(b, c), min(d, a) if commutator else 0) + 1
                  for a, b in x.terms for c, d in y.terms)
    if entries * (x.degree() + y.degree() + 1) > _PRODUCT_BUDGET:
        raise BudgetExceeded(f"{entries} swap terms up to degree {x.degree() + y.degree()} "
                             f"pass the product budget of {_PRODUCT_BUDGET}")


def _kernel(x_terms: dict, y_terms: dict, sign: int) -> dict:
    """The terms of x·y + sign·y·x (sign 0: x·y alone) over D_x·D_y."""
    xs, dx = _cleared(x_terms)
    ys, dy = _cleared(y_terms)
    return _collect(*_accumulate(xs, ys, sign), dx * dy)


def _accumulate(xs: list, ys: list, sign: int) -> tuple[dict, dict]:
    """The integer sums (real, imaginary; keys of the second within the first)
    of x·y + sign·y·x over cleared triples; sign 0 is x·y alone."""
    re_acc: dict = {}
    im_acc: dict = {}
    for (a, b), xr, xi in xs:
        for (c, d), yr, yi in ys:
            re = xr * yr - xi * yi
            im = xr * yi + xi * yr
            i, j = a + c, b + d
            row = _signed_row(b, c, d, a, sign) if sign else _swap_row(b, c)
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


def linear_combination(pairs: Iterable[tuple[ScalarLike, "WeylElement"]]) -> "WeylElement":
    """Σ c·x over (c, x) pairs, as Gaussian integers over the lcm of the c.d·D_x."""
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


class WeylElement:
    """A finite Scalar combination of normal-ordered monomials p^i q^j."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        clean: dict[Monomial, Scalar] = {}
        for (i, j), c in (terms or {}).items():
            c = as_scalar(c)
            if c:
                clean[(i, j)] = c
        self.terms = clean

    @staticmethod
    def monomial(i: int, j: int, coeff: ScalarLike = ONE) -> "WeylElement":
        if i < 0 or j < 0:
            raise BadParams(f"monomial exponents must be nonnegative, got p^{i} q^{j}")
        return WeylElement({(i, j): coeff})

    # -- structure queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(m == (0, 0) for m in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((0, 0), ZERO)

    def is_poly_in_p(self) -> bool:
        return all(j == 0 for (_, j) in self.terms)

    def is_poly_in_q(self) -> bool:
        return all(i == 0 for (i, _) in self.terms)

    def degree(self) -> int:
        """Total degree; the zero element has degree -1."""
        return max((i + j for (i, j) in self.terms), default=-1)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise BadParams("zero element has no leading monomial")
        return min(self.terms, key=_term_order)

    def coeff(self, i: int, j: int) -> Scalar:
        return self.terms.get((i, j), ZERO)

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
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = WeylElement._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: ScalarLike) -> "WeylElement":
        c = as_scalar(c)
        if not c:
            return zero
        return _wrap({m: c * v for m, v in self.terms.items()})

    def __truediv__(self, c):
        if isinstance(c, (Scalar, int, Fraction)):
            return self.scale(as_scalar(c).inverse())
        return NotImplemented

    # -- the product -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        return _wrap(_kernel(self.terms, other.terms, 0))

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise BadParams(f"element powers need a nonnegative integer exponent, got {n!r}")
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
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<Weyl {format_element(self)}>"

    def as_records(self) -> list[dict]:
        """Machine form: one record per term, in printing order."""
        out = []
        for (i, j) in sorted(self.terms, key=_term_order):
            c = self.terms[(i, j)]
            out.append({"i": i, "j": j,
                        "re_num": c.re.numerator, "re_den": c.re.denominator,
                        "im_num": c.im.numerator, "im_den": c.im.denominator})
        return out


p = WeylElement.monomial(1, 0)
q = WeylElement.monomial(0, 1)
one = WeylElement.monomial(0, 0)
zero = WeylElement({})


def bracket(x: WeylElement, y: WeylElement) -> WeylElement:
    """The commutator xy - yx, one signed swap row per term pair."""
    return _wrap(_kernel(x.terms, y.terms, -1))


def anticommutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """xy + yx, one signed swap row per term pair."""
    return _wrap(_kernel(x.terms, y.terms, 1))


def ad_pow(x: WeylElement, y: WeylElement, n: int) -> WeylElement:
    """The n-fold iterated bracket ad(x)^n(y); n = 0 returns y."""
    if n < 0:
        raise BadParams(f"ad_pow needs a nonnegative iteration count, got {n}")
    for _ in range(n):
        y = bracket(x, y)
    return y


# -- symmetrisation and the W_n grading ---------------------------------------


class SymTensor:
    """A symmetric word v1 ⊙ … ⊙ vn of elements of span{p, q}.

    Each factor is a pair (a, b) of Scalars standing for a*p + b*q; the order
    of factors is irrelevant to the image under symmetrize.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable):
        fs = []
        for f in factors:
            a, b = f
            fs.append((as_scalar(a), as_scalar(b)))
        if not fs:
            raise BadParams("symmetric tensor needs at least one factor")
        self.factors = tuple(fs)

    def __len__(self):
        return len(self.factors)


def _distinct_orderings(word: Sequence[int]):
    """Each distinct ordering of word exactly once, in lexicographic order."""
    if not word:
        yield ()
    for first in sorted(set(word)):
        rest = list(word)
        rest.remove(first)
        for tail in _distinct_orderings(rest):
            yield (first,) + tail


def symmetrize(t) -> WeylElement:
    """The symmetrised product (1/n!) Σ_σ v_{σ(1)} … v_{σ(n)}; lands in W_n."""
    factors = t.factors if isinstance(t, SymTensor) else SymTensor(t).factors
    n = len(factors)
    index: dict[tuple[Scalar, Scalar], int] = {}
    distinct: list[WeylElement] = []
    word = []
    for f in factors:
        if f not in index:
            index[f] = len(distinct)
            distinct.append(f[0] * p + f[1] * q)
        word.append(index[f])
    counts: dict[int, int] = {}
    for k in word:
        counts[k] = counts.get(k, 0) + 1
    # each distinct ordering stands for prod(mult!) identical permutations
    weight = Scalar(Fraction(math.prod(math.factorial(c) for c in counts.values()),
                             math.factorial(n)))
    # SymTensor has at least one factor, so every ordering is a nonempty word
    return linear_combination((weight, reduce(lambda acc, k: acc * distinct[k], perm[1:],
                                              distinct[perm[0]]))
                              for perm in _distinct_orderings(word))


@lru_cache(maxsize=None)
def _delta_monomial(i: int, j: int) -> WeylElement:
    """δ(p^⊙i ⊙ q^⊙j): leading monomial p^i q^j with coefficient 1."""
    if i == 0 and j == 0:
        return one
    return symmetrize([(ONE, ZERO)] * i + [(ZERO, ONE)] * j)


def wn_components(x: WeylElement) -> dict[int, WeylElement]:
    """Decompose x along A₁ = ⊕ W_n; keys in decreasing n, values nonzero.

    Works down from the top total degree: the degree-d part of the remainder
    fixes the W_d component via δ images of the matching monomial tensors.
    """
    out: dict[int, WeylElement] = {}
    rem = x
    while not rem.is_zero():
        d = rem.degree()
        comp = linear_combination((c, _delta_monomial(i, j))
                                  for (i, j), c in rem.terms.items() if i + j == d)
        out[d] = comp
        rem = rem - comp
    return out


class WeightComponent(NamedTuple):
    weight: int
    value: WeylElement


def weight_decompose(x: WeylElement) -> list[WeightComponent]:
    """Partition the terms of x by weight j - i (the ad(pq) eigenvalue)."""
    buckets: dict[int, dict[Monomial, Scalar]] = {}
    for (i, j), c in x.terms.items():
        buckets.setdefault(j - i, {})[(i, j)] = c
    return [WeightComponent(w, WeylElement(t)) for w, t in sorted(buckets.items())]


# -- exact spans over the monomial basis ---------------------------------------


class ElementSpan:
    """Incremental echelon form of the span of ``xs`` (a linalg.Echelon).

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

    def insert(self, x: WeylElement) -> Optional[WeylElement]:
        """Add a generator; returns the new pivot row if the span grew."""
        row = self._echelon.insert(x.terms)
        if row is None:
            return None
        self.rows.append(_wrap(row))
        return self.rows[-1]

    def insert_coordinates(self, x: WeylElement) -> dict[int, Scalar]:
        """Add x as ``insert`` does; returns its coordinates {row index: Scalar}
        over the pivot rows, counting the row it adds, if any."""
        coords = self._echelon.insert_coordinates(x.terms)
        if self._echelon.dim > len(self.rows):
            self.rows.append(_wrap(self._echelon.rows[-1]))
        return coords

    def contains(self, x: WeylElement) -> bool:
        return self._echelon.contains(x.terms)

    def express(self, x: WeylElement) -> Optional[list[Scalar]]:
        """Coordinates of x over the inserted generators, or None if outside."""
        return self._echelon.express(x.terms)

    def row_coordinates(self, x: WeylElement) -> Optional[list[Scalar]]:
        """Coordinates of x over the pivot rows, or None if outside."""
        return self._echelon.row_coordinates(x.terms)

    def reduced_basis(self) -> list[WeylElement]:
        """Canonical fully-reduced basis, pivots in printing order."""
        return [_wrap(row) for row in self._echelon.reduced_rows()]


def linear_span_dim(xs: Sequence[WeylElement]):
    """Dimension of the span of xs, plus a canonical echelonised basis."""
    span = ElementSpan(xs)
    return span.dim, span.reduced_basis()


def coordinates(x: WeylElement, basis: Sequence[WeylElement]) -> Optional[list[Scalar]]:
    """Coordinates of x in the given (independent) basis; None if outside."""
    span = ElementSpan(basis)
    if span.dim != len(basis):
        raise NotInjective("basis elements are linearly dependent")
    return span.express(x)


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
    for (i, j) in sorted(x.terms, key=_term_order):
        c = x.terms[(i, j)]
        body = _format_body(i, j)
        if c.re and c.im:
            neg = False
            coeff = f"({format_scalar(c)})" if body else format_scalar(c)
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
        if self.peek() in "+-":
            # a leading sign belongs to the term unless it starts a scalar
            if self.peek() == "-" and self.text[self.pos + 1:self.pos + 2] not in ("i",) + tuple("0123456789"):
                sign = -1
                self.pos += 1
            elif self.peek() == "+":
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
