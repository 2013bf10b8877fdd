"""Exact Gaussian-rational arithmetic: the coefficient field Q(i).

Every coefficient in the library is a Scalar, a complex number stored as one
integer triple (a, b, d) standing for (a + b*i)/d.  The triple is kept in
canonical form: d > 0 and gcd(a, b, d) = 1, with zero stored as (0, 0, 1).
Each operation computes the unreduced triple with integer arithmetic and
divides out a single three-argument gcd, so equality is equality of the
three integers and all downstream identity checks are decidable with
literal equality.  The real and imaginary parts are available as
Fractions.  A Scalar is built from int or Fraction parts only: a float or
complex is refused, not read as the binary fraction it stores, and so is a
string (text goes through ``parse_scalar``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import BadParams, ExprSyntaxError

__all__ = ["Scalar", "ZERO", "ONE", "I", "parse_scalar", "format_scalar", "ScalarSyntaxError"]

_new = object.__new__


def _mk(a: int, b: int, d: int) -> "Scalar":
    """A Scalar from a triple already in canonical form; skips __init__."""
    s = _new(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _norm(a: int, b: int, d: int) -> "Scalar":
    """A Scalar from any triple with d > 0, by dividing out one gcd.

    Every caller's d is a product of canonical denominators and of
    c² + e² > 0, so d is never negative and the sign needs no fixing.
    """
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _mk(a, b, d)


def _coerce(x):
    if isinstance(x, int):
        return _mk(x, 0, 1)
    if isinstance(x, Fraction):
        return _mk(x.numerator, 0, x.denominator)
    return NotImplemented


class Scalar:
    """The Gaussian rational (a + b*i)/d, d > 0, gcd(a, b, d) = 1; immutable by convention."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise BadParams(f"scalar parts are ints or Fractions: got {re!r}, {im!r}")
        re = Fraction(re)
        im = Fraction(im)
        # re and im are reduced, so their least common denominator leaves
        # no factor common to a, b and d
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_real(self) -> bool:
        return not self.b

    def is_integer(self) -> bool:
        """True for rational integers (im = 0, denominator 1)."""
        return not self.b and self.d == 1

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        d, e = self.d, other.d
        return _norm(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _mk(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        d, e = self.d, other.d
        return _norm(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _norm(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        # (a + bi)/d ÷ (c + ei)/f = f·(a + bi)(c - ei) / (d·(c² + e²))
        f = other.d
        return _norm((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (ONE / self) ** (-n)
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "Scalar":
        return _mk(self.a, -self.b, self.d)

    def inverse(self) -> "Scalar":
        return ONE / self

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar and (other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # a real Scalar equals the int or Fraction of the same value, so it
        # must hash like it
        if not self.b:
            return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def sort_key(self):
        """A total order on Q(i) (lexicographic); used only for determinism."""
        return (self.re, self.im)

    # -- text and machine forms ----------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})" if self.b else f"Scalar({self.re!r})"

    def as_tuple(self):
        """Machine form (re_num, re_den, im_num, im_den)."""
        re, im = self.re, self.im
        return (re.numerator, re.denominator, im.numerator, im.denominator)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def as_scalar(x) -> Scalar:
    """x as a Scalar: x itself if it is one, else Scalar(x)."""
    return x if isinstance(x, Scalar) else Scalar(x)


def _clear(v: dict, den: int) -> dict:
    """den·v over Z[i], zero entries dropped, for a dict v of Scalars whose
    denominators divide den."""
    return {k: (x.a * (den // x.d), x.b * (den // x.d)) for k, x in v.items() if x}


def _divide(v: dict, s: tuple[int, int]) -> tuple[dict, int]:
    """v/s as (conj(s)·v, N(s)), for a dict v over Z[i] and a Gaussian integer s ≠ 0."""
    sr, si = s
    return {k: (a * sr + b * si, b * sr - a * si) for k, (a, b) in v.items()}, sr * sr + si * si


def _dense(num: dict, n: int, size: int) -> list[Scalar]:
    """The Scalars num[k]/n for k in range(size), ZERO where num has no entry,
    for numerators over Z[i] and n > 0."""
    return [_norm(*num[k], n) if k in num else ZERO for k in range(size)]


# -- text grammar -----------------------------------------------------------
#
#   scalar := sign? ratio? 'i' | sign? ratio (sign ratio? 'i')?
#   ratio  := nat ('/' nat)?          a denominator is not 0
#   nat    := [0-9]+                  ASCII digits only
#   call   := name | name '(' scalar (',' scalar)* ')'
#
# A missing ratio before 'i' stands for 1, so "i", "-i", "2-i" and "1/2+3i"
# are scalars, and a scalar ends where the pattern stops: "1+2*p" reads 1 and
# leaves "+2*p".  Blanks and tabs may surround a scalar; any whitespace may
# surround a call's name and its parentheses.  format_scalar produces the
# shortest scalar form; parse_scalar(format_scalar(s)) = s.

# a '/' always starts a denominator, so "1/p" is refused at the 'p'; not `\d`,
# which admits every Unicode digit
_RATIO = "[0-9]+(?:/[0-9]*)?"
_SCALAR = re.compile(rf"(?P<im>[+-]?(?:{_RATIO})?)i|(?P<re>[+-]?{_RATIO})"
                     rf"(?:(?P<tail>[+-](?:{_RATIO})?)i)?")
_BAD_DENOMINATOR = re.compile("/0*(?![0-9])")
_SPACE = re.compile(r"\s*")
_NAME = re.compile("[A-Za-z0-9]*")


def _coefficient(text: str) -> Fraction:
    """The rational that sign and digits spell before 'i'; a bare sign or nothing is 1."""
    return Fraction(text + "1" if text in ("", "+", "-") else text)


class ScalarSyntaxError(ExprSyntaxError):
    """A literal the shared scanner rejects: a scalar, a call or what trails
    them; carries the offending position."""


def _fmt_rational(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def format_scalar(s: Scalar) -> str:
    if not s.im:
        return _fmt_rational(s.re)
    if s.im == 1:
        im = "i"
    elif s.im == -1:
        im = "-i"
    else:
        im = _fmt_rational(s.im) + "i"
    if not s.re:
        return im
    sign = "+" if s.im > 0 else "-"
    mag = im.lstrip("+-")
    return f"{_fmt_rational(s.re)}{sign}{mag}"


class _ScalarScanner:
    """A cursor over text; the element parser extends it with its own rules."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.peek() in (" ", "\t"):
            self.pos += 1

    def skip_space(self):
        """Skips any whitespace, as str.strip would."""
        self.pos = _SPACE.match(self.text, self.pos).end()

    def take_nat(self) -> int:
        start = self.pos
        while "0" <= self.peek() <= "9":
            self.pos += 1
        if self.pos == start:
            raise ScalarSyntaxError("expected a digit", start)
        return int(self.text[start:self.pos])

    def take_scalar(self) -> Scalar:
        """The longest scalar at the cursor, by one anchored match of ``_SCALAR``."""
        self.skip_ws()
        m = _SCALAR.match(self.text, self.pos)
        if not m:
            raise ScalarSyntaxError("expected a scalar", self.pos)
        if bad := _BAD_DENOMINATOR.search(self.text, m.start(), m.end()):
            raise ScalarSyntaxError("zero or missing denominator", bad.end())
        self.pos = m.end()
        if m["re"] is None:
            return Scalar(0, _coefficient(m["im"]))
        return Scalar(Fraction(m["re"]), _coefficient(m["tail"]) if m["tail"] else 0)

    def take_call(self, calls: dict, kind: str):
        """`name` or `name(scalar, …)` for calls = {name: (arity, build)}:
        build(*scalars), once the arity is checked."""
        self.skip_space()
        start = self.pos
        name = _NAME.match(self.text, start)[0]
        if name not in calls:
            raise ScalarSyntaxError(f"unknown {kind} literal {name!r}", start)
        self.pos += len(name)
        self.skip_space()
        args = []
        if self.peek() == "(":
            sep = ","
            while sep == ",":
                self.pos += 1
                args.append(self.take_scalar())
                self.skip_ws()
                sep = self.peek()
            if sep != ")":
                raise ScalarSyntaxError("expected ',' or ')'", self.pos)
            self.pos += 1
            self.skip_space()
        arity, build = calls[name]
        if len(args) != arity:
            raise ScalarSyntaxError(f"{name} takes {arity} argument(s), got {len(args)}", start)
        return build(*args)

    def end(self, what: str):
        """Refuses any input after `what` but blanks and tabs."""
        self.skip_ws()
        if self.pos < len(self.text):
            raise ScalarSyntaxError(f"trailing input after {what}", self.pos)


def parse_scalar(text: str) -> Scalar:
    """The scalar literal text; error positions index it."""
    sc = _ScalarScanner(text)
    value = sc.take_scalar()
    sc.end("scalar")
    return value
