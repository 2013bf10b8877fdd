"""The literal parsers as they were before every literal went through one
scanner, frozen (reference for the differential tests).

The scalar scanner reads rationals by hand and backtracks with try/except;
the element parser extends it; `parse_morphism` splits its text on ';' and
',' and hands each argument to `parse_scalar(text, start, end)`; and
`parse_realization` is the CLI's realisation reader, which slices ``fII(…)``.
The objects they build come from the library (`phi`, `f_II`, element
arithmetic), since only the reading of text is frozen here.
"""

from fractions import Fraction

from weylkit.elements import WeylElement, _check_product, linear_combination, one, parse_element
from weylkit.errors import ExprSyntaxError
from weylkit.morphisms import (SL2Element, alpha1_hat, beta_hat, compose, identity_morphism,
                               phi, phi_prime, scale, translation)
from weylkit.scalars import Scalar, ScalarSyntaxError
from weylkit.sl2orbits import Sl2Realization, exotic_g, f_I, f_II


class ScalarScanner:
    def __init__(self, text, pos=0):
        self.text = text
        self.pos = pos

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.peek() in (" ", "\t"):
            self.pos += 1

    def take_nat(self):
        start = self.pos
        while "0" <= self.peek() <= "9":
            self.pos += 1
        if self.pos == start:
            raise ScalarSyntaxError("expected a digit", start)
        return int(self.text[start:self.pos])

    def take_rational(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        num = self.take_nat()
        if self.peek() == "/":
            self.pos += 1
            den = self.take_nat()
            if den == 0:
                raise ScalarSyntaxError("zero denominator", self.pos)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def take_scalar(self):
        self.skip_ws()
        start = self.pos
        if self.peek() in ("+", "-") and self.text[self.pos + 1:self.pos + 2] == "i":
            self.pos += 2
            return Scalar(0, 1 if self.text[start] == "+" else -1)
        if self.peek() == "i":
            self.pos += 1
            return Scalar(0, 1)
        first = self.take_rational()
        if self.peek() == "i":
            self.pos += 1
            return Scalar(0, first)
        if self.peek() in ("+", "-"):
            mark = self.pos
            try:
                second = self.take_rational()
            except ScalarSyntaxError:
                if self.text[mark + 1:mark + 2] == "i":
                    self.pos = mark + 2
                    return Scalar(first, 1 if self.text[mark] == "+" else -1)
                self.pos = mark
                return Scalar(first)
            if self.peek() != "i":
                self.pos = mark
                return Scalar(first)
            self.pos += 1
            return Scalar(first, second)
        return Scalar(first)


def parse_scalar(text, start=0, end=None):
    sc = ScalarScanner(text, start)
    value = sc.take_scalar()
    sc.skip_ws()
    if sc.pos != (len(text) if end is None else end):
        raise ScalarSyntaxError("trailing input after scalar", sc.pos)
    return value


class ElementParser(ScalarScanner):
    def error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def atom(self):
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

    def term(self):
        value = self.atom()
        while True:
            self.skip_ws()
            if self.peek() != "*":
                return value
            self.pos += 1
            factor = self.atom()
            _check_product(value, factor, False)
            value = value * factor

    def expr(self):
        self.skip_ws()
        if self.pos == len(self.text):
            self.error("empty element expression")
        sign = 1
        if self.peek() in "+-":
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


def parse_element_frozen(text):
    return ElementParser(text).expr()


def _arity(args, n, name):
    if len(args) != n:
        raise ExprSyntaxError(f"{name} takes {n} argument(s), got {len(args)}")
    return args


def _nat_arg(args, k, name):
    v = args[k]
    if not v.is_integer() or v.re < 0:
        raise ExprSyntaxError(f"{name} needs a natural number in position {k + 1}")
    return int(v.re)


def _literal_phi(args):
    _arity(args, 2, "phi")
    return phi(_nat_arg(args, 0, "phi"), args[1])


def _literal_phi_prime(args):
    _arity(args, 2, "phiP")
    return phi_prime(_nat_arg(args, 0, "phiP"), args[1])


def _literal_beta(args):
    a1, a3 = _arity(args, 2, "beta")
    if not a1:
        raise ExprSyntaxError("beta requires a1 != 0")
    return beta_hat(SL2Element(a1, 0, a3, a1.inverse()))


LITERALS = {
    "phi": _literal_phi,
    "phiP": _literal_phi_prime,
    "scale": lambda args: scale(*_arity(args, 1, "scale")),
    "translate": lambda args: translation(*_arity(args, 2, "translate")),
    "alpha1": lambda args: alpha1_hat(SL2Element(*_arity(args, 4, "alpha1"))),
    "beta": _literal_beta,
}


def parse_morphism(text):
    total = None
    offset = 0
    for piece in text.split(";"):
        if piece.strip() == "id":
            m = identity_morphism()
        else:
            head, sep, rest = piece.partition("(")
            name = head.strip()
            if name not in LITERALS:
                raise ExprSyntaxError(f"unknown morphism literal {name!r}")
            if not sep or not rest.rstrip().endswith(")"):
                raise ExprSyntaxError(f"expected {name}(...)")
            body = rest.rstrip()[:-1]
            args, start = [], offset + len(head) + 1
            for chunk in body.split(",") if body.strip() else []:
                args.append(parse_scalar(text, start, start + len(chunk)))
                start += len(chunk) + 1
            m = LITERALS[name](args)
        total = m if total is None else compose(m, total)
        offset += len(piece) + 1
    if total is None:
        raise ExprSyntaxError("empty morphism expression")
    return total


def parse_realization(texts):
    if len(texts) == 3:
        return Sl2Realization(*(parse_element(t) for t in texts))
    if len(texts) != 1:
        raise ExprSyntaxError(
            "a realisation is fI, fII(b), exotic, or three elements X Y H")
    text = texts[0].strip()
    if text == "fI":
        return f_I()
    if text == "exotic":
        return exotic_g()
    if text.startswith("fII(") and text.endswith(")"):
        return f_II(parse_scalar(text[4:-1]))
    raise ExprSyntaxError(f"unknown realisation literal {text!r}")
