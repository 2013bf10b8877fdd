"""Arithmetic, formatting and parsing of the Gaussian-rational coefficients."""

import operator
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylkit.elements import WeylElement, linear_combination, p
from weylkit.errors import BadParams
from weylkit.liestruct import CatalogTag, LieAlgebraStruct, catalog, change_basis
from weylkit.linalg import charpoly, rref
from weylkit.morphisms import SL2Element, phi
from weylkit.scalars import (ONE, ZERO, Scalar, ScalarSyntaxError,
                             _divide, _ScalarScanner, as_scalar, format_scalar, parse_scalar)

from .strategies import scalar_st, nonzero_scalar_st


def test_exact_arithmetic():
    s = Scalar(Fraction(1, 2), 1)
    t = Scalar(Fraction(1, 2), -1)
    assert s * t == Scalar(Fraction(5, 4))
    assert s + t == Scalar(1)
    assert s - s == ZERO
    assert (s / t) * t == s


def test_inverse_and_powers():
    s = Scalar(Fraction(1, 2), Fraction(-3, 4))
    assert s * s.inverse() == ONE
    assert s ** -2 == (s * s).inverse()
    assert s ** 0 == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    # True is no exponent, as for elements, though it multiplies like 1
    for bad in (True, 0.5):
        with pytest.raises(TypeError):
            s ** bad


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=lambda op: op.__name__)
def test_scalars_leave_other_operands_to_python(op):
    assert getattr(Scalar(1), f"__{op.__name__}__")("x") is NotImplemented
    for args in ((Scalar(1), "x"), ("x", Scalar(1))):
        with pytest.raises(TypeError):
            op(*args)
    assert (Scalar(1) == "x") is False and Scalar(1) != "x"


def test_is_integer():
    assert Scalar(-7).is_integer()
    assert not Scalar(Fraction(1, 2)).is_integer()
    assert not Scalar(1, 1).is_integer()


def test_sort_key_orders_re_then_im():
    values = [Scalar(1), Scalar(0, 1), Scalar(-2), Scalar(0, -1), ZERO]
    ordered = sorted(values, key=lambda s: s.sort_key())
    assert ordered == [Scalar(-2), Scalar(0, -1), ZERO, Scalar(0, 1), Scalar(1)]


def test_as_tuple_round_trip():
    s = Scalar(Fraction(-3, 7), Fraction(5, 2))
    re_num, re_den, im_num, im_den = s.as_tuple()
    assert Scalar(Fraction(re_num, re_den), Fraction(im_num, im_den)) == s


FORMAT_GOLDEN = [
    (ZERO, "0"),
    (ONE, "1"),
    (Scalar(-1), "-1"),
    (Scalar(0, 1), "i"),
    (Scalar(0, -1), "-i"),
    (Scalar(Fraction(1, 2)), "1/2"),
    (Scalar(0, Fraction(-2, 3)), "-2/3i"),
    (Scalar(3, 2), "3+2i"),
    (Scalar(Fraction(1, 2), -3), "1/2-3i"),
]


@pytest.mark.parametrize("value,text", FORMAT_GOLDEN)
def test_format_golden(value, text):
    assert format_scalar(value) == text


@pytest.mark.parametrize("value,text", FORMAT_GOLDEN)
def test_parse_inverts_format(value, text):
    assert parse_scalar(text) == value


def scan_scalar(text):
    sc = _ScalarScanner(text)
    return sc.take_scalar(), sc.pos


def test_scan_stops_before_trailing_input():
    value, pos = scan_scalar("3/4*q")
    assert value == Scalar(Fraction(3, 4)) and pos == 3
    value, pos = scan_scalar("2i*p")
    assert value == Scalar(0, 2) and pos == 2


def test_scan_backtracks_over_partial_sum():
    # "1/2+i" is one literal; the following "+q" is not, and must be left.
    value, pos = scan_scalar("1/2+i+q")
    assert value == Scalar(Fraction(1, 2), 1) and pos == 5


@pytest.mark.parametrize("bad", ["", "+", "1/0", "i i", "2.5"])
def test_rejects_malformed_literals(bad):
    with pytest.raises(ScalarSyntaxError):
        parse_scalar(bad)


@given(scalar_st, scalar_st, scalar_st)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(nonzero_scalar_st)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == ONE


@given(scalar_st)
def test_parse_format_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


# -- differential test against a plain (Fraction, Fraction) reference ----------------
#
# The reference keeps a Gaussian rational as its real and imaginary parts and
# does textbook complex arithmetic on them; Scalar must agree with it on every
# operation, and must always hold its canonical integer form.

def _ref(s):
    return (Fraction(s.re), Fraction(s.im))


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _ref_pow(x, n):
    if n < 0:
        x, n = _ref_inv(x), -n
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _ref_mul(out, x)
    return out


def _canonical(s):
    assert s.d > 0 and gcd(s.a, s.b, s.d) == 1
    if not s.a and not s.b:
        assert (s.a, s.b, s.d) == (0, 0, 1)
    assert _ref(s) == (Fraction(s.a, s.d), Fraction(s.b, s.d))
    return _ref(s)


big_fraction_st = st.builds(Fraction, st.integers(-10**40, 10**40),
                            st.integers(1, 10**30))
big_scalar_st = st.one_of(
    st.builds(Scalar, big_fraction_st, big_fraction_st),
    st.builds(Scalar, big_fraction_st),
    st.builds(Scalar, st.integers(-10**40, 10**40), st.integers(-10**40, 10**40)),
    scalar_st)
rat_st = st.one_of(st.integers(-10**40, 10**40), big_fraction_st)


@given(big_scalar_st, big_scalar_st)
def test_arithmetic_matches_the_fraction_pair_reference(x, y):
    rx, ry = _canonical(x), _canonical(y)
    assert _canonical(x + y) == (rx[0] + ry[0], rx[1] + ry[1])
    assert _canonical(x - y) == (rx[0] - ry[0], rx[1] - ry[1])
    assert _canonical(x * y) == _ref_mul(rx, ry)
    assert _canonical(-x) == (-rx[0], -rx[1])
    assert _canonical(x.conjugate()) == (rx[0], -rx[1])
    if y:
        assert _canonical(x / y) == _ref_mul(rx, _ref_inv(ry))
        assert _canonical(y.inverse()) == _ref_inv(ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(big_scalar_st, rat_st)
def test_mixed_arithmetic_with_rationals(x, r):
    rx = _canonical(x)
    rr = Fraction(r)
    assert _canonical(x + r) == _canonical(r + x) == (rx[0] + rr, rx[1])
    assert _canonical(x - r) == (rx[0] - rr, rx[1])
    assert _canonical(r - x) == (rr - rx[0], -rx[1])
    assert _canonical(x * r) == _canonical(r * x) == (rx[0] * rr, rx[1] * rr)
    if r:
        assert _canonical(x / r) == (rx[0] / rr, rx[1] / rr)
    if x:
        assert _canonical(r / x) == _ref_mul((rr, Fraction(0)), _ref_inv(rx))
    assert (x == r) == (rx == (rr, 0))
    assert (x == r) == (r == x)
    assert Scalar(r) == r and Scalar(r).is_real()


@given(scalar_st, st.integers(-6, 6))
def test_powers_match_the_reference(x, n):
    if not x and n < 0:
        with pytest.raises(ZeroDivisionError):
            x ** n
        return
    assert _canonical(x ** n) == _ref_pow(_ref(x), n)


@given(big_scalar_st, big_scalar_st)
def test_identity_order_and_machine_forms(x, y):
    rx, ry = _canonical(x), _canonical(y)
    assert (x == y) == (rx == ry)
    if x == y:
        assert hash(x) == hash(y)
    assert Scalar(*rx) == x and hash(Scalar(*rx)) == hash(x)
    assert bool(x) == (rx != (0, 0))
    assert x.is_zero() == (rx == (0, 0))
    assert x.is_real() == (rx[1] == 0)
    assert x.is_integer() == (rx[1] == 0 and rx[0].denominator == 1)
    assert x.sort_key() == rx
    assert (x.sort_key() < y.sort_key()) == (rx < ry)
    assert x.as_tuple() == (rx[0].numerator, rx[0].denominator,
                            rx[1].numerator, rx[1].denominator)
    assert repr(x) == (f"Scalar({rx[0]!r}, {rx[1]!r})" if rx[1] else f"Scalar({rx[0]!r})")
    assert parse_scalar(format_scalar(x)) == x


def test_zero_is_canonical():
    for z in (ZERO, Scalar(), Scalar(0, 0), Scalar(Fraction(0, 7)), ONE - ONE,
              Scalar(Fraction(1, 3), 2) - Scalar(Fraction(1, 3), 2), ZERO * Scalar(5, 7)):
        assert (z.a, z.b, z.d) == (0, 0, 1) and not z and z == 0


@given(st.one_of(st.integers(), st.fractions()))
def test_real_scalars_hash_like_the_equal_rational(x):
    assert Scalar(x) == x and hash(Scalar(x)) == hash(x)


def test_real_scalars_mix_with_ints_and_fractions_as_keys():
    assert {Scalar(1): "x"}.get(1) == "x"
    assert {1: "x"}.get(Scalar(1)) == "x"
    assert {Fraction(-3, 4): "x"}.get(Scalar(Fraction(-3, 4))) == "x"
    assert len({Scalar(1), 1, Fraction(1)}) == 1
    assert len({Scalar(Fraction(1, 2)), Fraction(1, 2), Scalar(Fraction(1, 2), 1)}) == 2


@pytest.mark.parametrize("re, im", [(0.1, 0), (1.0, 0), (0, 0.5), (1j, 0), (0, 2 + 0j)])
def test_floats_and_complex_numbers_are_refused(re, im):
    # a float is a binary fraction: Scalar(0.1) would be 3602879701896397/2**55
    with pytest.raises(BadParams):
        Scalar(re, im)


@pytest.mark.parametrize("re, im", [("1/2", 0), ("x", 0), (0, "1"), (None, 0), (0, None),
                                    ([1], 0)])
def test_strings_and_other_non_numbers_are_refused(re, im):
    # parts are ints or Fractions; text is read by parse_scalar, never by the constructor
    with pytest.raises(BadParams):
        Scalar(re, im)


@pytest.mark.parametrize("bad", [0.5, 1j, "1/2"], ids=repr)
@pytest.mark.parametrize("build", [
    lambda c: WeylElement({(1, 0): c}), lambda c: linear_combination([(c, p)]),
    lambda c: p.scale(c), as_scalar,
    lambda c: LieAlgebraStruct(3, ["X", "Y", "H"], {(0, 1): {2: c}}),
    lambda c: change_basis(catalog(CatalogTag("Sl2")).algebra, [[c, 0, 0], [0, 1, 0], [0, 0, 1]]),
    lambda c: rref([[c, 1]]), lambda c: charpoly([[c]]), lambda c: phi(1, c),
    lambda c: SL2Element(c, 0, 0, 1),
], ids=["WeylElement", "linear_combination", "scale", "as_scalar", "LieAlgebraStruct",
        "change_basis", "rref", "charpoly", "phi", "SL2Element"])
def test_every_coefficient_goes_through_the_one_reader(build, bad):
    # elements, tables, matrices and group coordinates read a coefficient in one
    # place, so a float, a complex or a string is refused with one message
    with pytest.raises(BadParams, match=re.escape(f"coefficients are ints, Fractions or Scalars: "
                                                  f"got {bad!r}")):
        build(bad)


_gaussian_st = st.tuples(st.integers(-10 ** 20, 10 ** 20), st.integers(-10 ** 20, 10 ** 20))


@given(st.dictionaries(st.integers(0, 5), _gaussian_st, max_size=6),
       _gaussian_st.filter(lambda z: z != (0, 0)))
def test_divide_returns_the_quotient_over_a_positive_norm(v, s):
    num, n = _divide(v, s)
    assert n > 0 and num.keys() == v.keys()
    for k, (a, b) in v.items():
        assert Scalar(Fraction(num[k][0], n), Fraction(num[k][1], n)) == Scalar(a, b) / Scalar(*s)
