"""Normal-ordered arithmetic, spans, gradings and the expression language."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weylkit
from weylkit import Scalar, WeylElement, bracket, ad_pow, symmetrize
from weylkit.elements import (ElementSpan, SymTensor, _signed_row,
                              _swap_row, anticommutator, coordinates, format_element,
                              linear_combination, linear_span_dim, one, parse_element, p, q,
                              weight_decompose, wn_components, zero)
from weylkit.errors import BadParams, ExprSyntaxError
from weylkit.morphisms import phi
from weylkit.sl2orbits import casimir, exotic_g, f_I, f_II

from . import enumerated
from .oracles import oracle_product, swap_product
from .strategies import big_fraction_st, big_scalar_st, element_st, scalar_st


def _monomial_product(i: int, j: int, k: int, l: int) -> WeylElement:
    return WeylElement.monomial(i, j) * WeylElement.monomial(k, l)


def test_defining_relation():
    assert p * q - q * p == one
    assert bracket(p, q) == one


def test_product_against_word_oracle_small():
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    expected = oracle_product(i, j, k, l)
                    assert _monomial_product(i, j, k, l) == expected
                    # the memoised swap oracle of acceptance check 1, against whole words
                    assert swap_product(i, j, k, l) == expected


def test_known_products():
    assert parse_element("q^2*p^2") == parse_element("p^2*q^2 - 4*p*q + 2")
    assert parse_element("q*p") == parse_element("p*q - 1")
    assert (q ** 3) * (p ** 3) == parse_element(
        "p^3*q^3 - 9*p^2*q^2 + 18*p*q - 6")


def test_power_matches_repeated_product():
    x = parse_element("p + q^2")
    assert x ** 3 == x * x * x
    assert x ** 0 == one


def test_scale_and_negation():
    x = parse_element("p*q - 1/2")
    assert x.scale(Scalar(0, 2)) == parse_element("2i*p*q - i")
    assert x + (-x) == zero


def test_degree_and_leading_monomial():
    x = parse_element("3*p^2*q - q^4 + 1")
    assert x.degree() == 4
    assert x.leading_monomial() == (0, 4)
    assert x.coeff(2, 1) == Scalar(3)
    assert x.coeff(5, 5) == Scalar(0)


def test_ad_pow():
    h = parse_element("p*q")
    assert ad_pow(h, q, 3) == q
    assert ad_pow(h, p, 2) == p
    assert ad_pow(p ** 2, q, 2) == zero


def test_wn_components_follow_symmetrized_grading():
    # p²q = (p ⊙ p ⊙ q) + p, so a W₁ shadow appears alongside W₃.
    x = parse_element("p^2*q - p*q + 3")
    comps = wn_components(x)
    assert sorted(comps) == [0, 1, 2, 3]
    assert comps[3] == symmetrize(SymTensor([(1, 0), (1, 0), (0, 1)]))
    assert comps[2] == -symmetrize(SymTensor([(1, 0), (0, 1)]))
    assert comps[1] == p
    total = zero
    for c in comps.values():
        total = total + c
    assert total == x


def test_weight_decompose():
    x = parse_element("p^2*q - p*q + q^3")
    parts = weight_decompose(x)
    assert sorted(w for w, _ in parts) == [-1, 0, 3]
    total = zero
    for _, c in parts:
        total = total + c
    assert total == x


def test_symmetrize_pq():
    # p ⊙ q = (pq + qp)/2 = pq - 1/2
    assert symmetrize(SymTensor([(1, 0), (0, 1)])) == parse_element("p*q - 1/2")


def test_symmetrize_repeated_factor():
    v = SymTensor([(1, 1), (1, 1), (1, 1)])
    assert symmetrize(v) == parse_element("p + q") ** 3


def test_symmetrize_lands_in_single_degree():
    x = symmetrize(SymTensor([(1, 2), (0, 1), (3, 0)]))
    assert set(wn_components(x)) == {3}


# a few distinct Gaussian-rational factors, each drawn again and again
_word_st = st.lists(st.tuples(scalar_st, scalar_st), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@given(_word_st)
def test_symmetrize_matches_the_enumerated_orderings(word):
    got = symmetrize(SymTensor(word))
    expected = enumerated.symmetrize(SymTensor(word))
    assert (got.num, got.den) == (expected.num, expected.den)


def test_weyl_ordered_monomials_match_the_enumerated_orderings():
    for i, j in itertools.product(range(7), repeat=2):
        if i + j <= 8:
            x = WeylElement.monomial(i, j)
            assert wn_components(x) == enumerated.wn_components(x)


@given(element_st(max_degree=4, max_terms=5))
def test_wn_components_match_the_enumerated_orderings(x):
    got = wn_components(x)
    expected = enumerated.wn_components(x)
    assert list(got) == list(expected)
    assert [(c.num, c.den) for c in got.values()] == [(c.num, c.den) for c in expected.values()]


# -- spans ----------------------------------------------------------------------------


def test_span_insert_and_membership():
    span = ElementSpan()
    assert span.insert(parse_element("p + q")) is not None
    assert span.insert(parse_element("p - q")) is not None
    assert span.insert(p) is None
    assert span.dim == 2
    assert span.contains(q)
    assert not span.contains(one)


def test_span_express_counts_every_generator():
    span = ElementSpan()
    span.insert(p)
    span.insert(p.scale(3))       # dependent: still occupies a coordinate
    span.insert(q)
    coords = span.express(parse_element("2*p + 5*q"))
    assert coords == [Scalar(2), Scalar(0), Scalar(5)]
    assert span.express(one) is None


def test_span_row_coordinates_are_over_pivot_rows():
    span = ElementSpan()
    span.insert(p)
    span.insert(p.scale(3))
    span.insert(q)
    assert span.row_coordinates(parse_element("2*p + 5*q")) == [Scalar(2), Scalar(5)]
    assert span.row_coordinates(one) is None


def test_reduced_basis_is_canonical():
    a = ElementSpan()
    for t in ("p + q", "p - q"):
        a.insert(parse_element(t))
    b = ElementSpan()
    for t in ("q", "3*p + q"):
        b.insert(parse_element(t))
    assert a.reduced_basis() == b.reduced_basis()


# -- ElementSpan against the elimination it replaced -----------------------------


def _leading(x):
    return min(x.terms, key=lambda m: (-(m[0] + m[1]), -m[0]))


class _ReferenceSpan:
    """The element-level echelon span ElementSpan was before it became an
    adapter over linalg.Echelon (reference): whole-element subtraction,
    leading monomial recomputed at every step."""

    def __init__(self):
        self.rows = []
        self._by_lead = {}
        self.ngens = 0

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, x):
        used = {}
        while not x.is_zero():
            lead = _leading(x)
            ridx = self._by_lead.get(lead)
            if ridx is None:
                break
            c = x.coeff(*lead)
            x = x - self.rows[ridx][1].scale(c)
            used[ridx] = used.get(ridx, Scalar(0)) + c
        return x, used

    def insert(self, x):
        gen = self.ngens
        self.ngens += 1
        rem, used = self._reduce(x)
        if rem.is_zero():
            return None
        c = rem.coeff(*_leading(rem))
        row = rem.scale(c.inverse())
        coords = {gen: c.inverse()}
        for ridx, d in used.items():
            for g, v in self.rows[ridx][2].items():
                s = coords.get(g, Scalar(0)) - d * v / c
                if s:
                    coords[g] = s
                else:
                    coords.pop(g, None)
        self._by_lead[_leading(row)] = len(self.rows)
        self.rows.append((_leading(row), row, coords))
        return row

    def contains(self, x):
        return self._reduce(x)[0].is_zero()

    def express(self, x):
        rem, used = self._reduce(x)
        if not rem.is_zero():
            return None
        out = [Scalar(0)] * self.ngens
        for ridx, d in used.items():
            for g, v in self.rows[ridx][2].items():
                out[g] = out[g] + d * v
        return out

    def row_coordinates(self, x):
        rem, used = self._reduce(x)
        if not rem.is_zero():
            return None
        return [used.get(r, Scalar(0)) for r in range(len(self.rows))]

    def reduced_basis(self):
        order = sorted(range(len(self.rows)),
                       key=lambda r: (-sum(self.rows[r][0]), -self.rows[r][0][0]))
        basis = [self.rows[r][1] for r in order]
        leads = [self.rows[r][0] for r in order]
        for a in range(len(basis)):
            for b in range(len(basis)):
                if a != b:
                    c = basis[a].coeff(*leads[b])
                    if c:
                        basis[a] = basis[a] - basis[b].scale(c)
        return basis


@given(st.lists(element_st(max_degree=2, max_terms=4), max_size=8), st.data())
def test_span_matches_the_reference_elimination(gens, data):
    new, ref = ElementSpan(), _ReferenceSpan()
    for x in gens:
        got, want = new.insert(x), ref.insert(x)
        assert (got is None) == (want is None) and got == want
        assert new.dim == ref.dim
    # probes inside the span (combinations of the generators) and outside it
    probes = data.draw(st.lists(element_st(max_degree=2, max_terms=3), max_size=3))
    for coeffs in data.draw(st.lists(st.lists(scalar_st, min_size=len(gens),
                                              max_size=len(gens)), max_size=3)):
        probes.append(sum((x.scale(c) for x, c in zip(gens, coeffs)), zero))
    for x in probes:
        assert new.contains(x) == ref.contains(x)
        assert new.express(x) == ref.express(x)
        assert new.row_coordinates(x) == ref.row_coordinates(x)
    assert new.reduced_basis() == ref.reduced_basis()


def test_linear_span_dim_and_coordinates():
    dim, basis = linear_span_dim([p, q, parse_element("p + q"), zero])
    assert dim == 2 and len(basis) == 2
    assert coordinates(parse_element("p - 2*q"), [p, q]) == [Scalar(1), Scalar(-2)]
    assert coordinates(one, [p, q]) is None


# -- the expression language ----------------------------------------------------------


PARSE_GOLDEN = [
    ("-1/2*q^2", WeylElement.monomial(0, 2, coeff=Scalar(Fraction(-1, 2)))),
    ("p*q - q*p", one),
    ("(1/2+i)*p", p.scale(Scalar(Fraction(1, 2), 1))),
    ("i", one.scale(Scalar(0, 1))),
    ("p^3*q - 2", parse_element("p^3*q") - one - one),
]


@pytest.mark.parametrize("text,value", PARSE_GOLDEN)
def test_parse_golden(text, value):
    assert parse_element(text) == value


def test_format_orders_terms_canonically():
    x = parse_element("1 + q^2 + p*q + p^2")
    assert format_element(x) == "p^2 + p*q + q^2 + 1"
    assert format_element(zero) == "0"
    assert format_element(-p) == "-p"


@pytest.mark.parametrize("bad", ["", "p q", "p^", "p**q", "(p+q)", "2.5*p", "x"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ExprSyntaxError):
        parse_element(bad)


@given(element_st())
def test_parse_format_round_trip(x):
    assert parse_element(format_element(x)) == x


@given(element_st(max_degree=2, max_terms=3), element_st(max_degree=2, max_terms=3),
       element_st(max_degree=2, max_terms=3))
def test_product_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(element_st(max_degree=2, max_terms=3), element_st(max_degree=2, max_terms=3),
       element_st(max_degree=2, max_terms=3))
def test_jacobi_identity(x, y, z):
    total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
             + bracket(z, bracket(x, y)))
    assert total == zero


@given(element_st(), element_st())
def test_bracket_lowers_total_degree_by_two(x, y):
    b = bracket(x, y)
    if not (b.is_zero() or x.is_zero() or y.is_zero()):
        assert b.degree() <= x.degree() + y.degree() - 2


@given(element_st(), scalar_st)
def test_scaling_distributes_over_terms(x, c):
    assert x.scale(c) + x.scale(Scalar(1) - c) == x


# -- the integer kernel against the Scalar loop it replaced ----------------------------


def _reference_product(x: WeylElement, y: WeylElement) -> WeylElement:
    """The Scalar-by-Scalar normal-ordering loop the integer kernel replaced, frozen."""
    out = {}
    for (a, b), cx in x.terms.items():
        for (c, d), cy in y.terms.items():
            cc = cx * cy
            for m in range(min(b, c) + 1):
                key = (a + c - m, b + d - m)
                swap = (-1) ** m * math.comb(b, m) * math.comb(c, m) * math.factorial(m)
                v = out.get(key, Scalar(0)) + cc * swap
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
    return WeylElement(out)


kernel_scalar_st = big_scalar_st.filter(bool)
real_kernel_scalar_st = big_fraction_st.filter(bool).map(Scalar)


def kernel_element_st(coeff_st):
    return st.one_of(
        st.just(zero),
        coeff_st.map(lambda c: WeylElement({(0, 0): c})),
        st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), coeff_st,
                        max_size=4).map(WeylElement))


# real-only and complex operands, so each of xi, yi may be zero alone
any_kernel_element_st = st.one_of(kernel_element_st(real_kernel_scalar_st),
                                  kernel_element_st(kernel_scalar_st))


@st.composite
def kernel_pair_st(draw):
    """Two operands; the second often commutes with the first, so the bracket
    cancels, or is mirrored: on x's monomials, so each pair p^a q^b, p^a q^b
    has (b, c) = (d, a) and its commutator row cancels whole."""
    x = draw(any_kernel_element_st)
    mirrored = st.lists(kernel_scalar_st, min_size=len(x.terms), max_size=len(x.terms)).map(
        lambda cs: WeylElement(dict(zip(x.terms, cs))))
    y = draw(st.one_of(any_kernel_element_st, st.just(x), mirrored,
                       kernel_scalar_st.map(x.scale), st.just(x * x + p * q)))
    return x, y


def _assert_canonical(x: WeylElement):
    for c in x.terms.values():
        assert c and c.d > 0 and math.gcd(c.a, c.b, c.d) == 1


@given(kernel_pair_st())
def test_kernel_matches_the_scalar_loop(pair):
    x, y = pair
    prod, rev, br, anti = x * y, y * x, bracket(x, y), anticommutator(x, y)
    xy, yx = _reference_product(x, y), _reference_product(y, x)
    assert prod == xy
    assert rev == yx
    assert br == xy - yx
    assert anti == xy + yx
    for value in (prod, rev, br, anti):
        _assert_canonical(value)


def test_swap_rows_by_the_ratio_match_the_binomial_form():
    for j, k in itertools.product(range(41), repeat=2):
        assert _swap_row(j, k) == tuple(
            (m, (-1) ** m * math.comb(j, m) * math.comb(k, m) * math.factorial(m))
            for m in range(min(j, k) + 1))


def test_signed_rows_are_the_termwise_sum_and_difference_of_swap_rows():
    for b, c, d, a in itertools.product(range(7), repeat=4):
        first, second = dict(_swap_row(b, c)), dict(_swap_row(d, a))
        for sign in (1, -1):
            want = [(m, k) for m in range(max(min(b, c), min(d, a)) + 1)
                    if (k := first.get(m, 0) + sign * second.get(m, 0))]
            assert list(_signed_row(b, c, d, a, sign)) == want
        # the m = 0 terms of a commutator cancel, and a mirrored pair cancels whole
        assert all(m for m, _ in _signed_row(b, c, d, a, -1))
        assert (b, c) != (d, a) or not _signed_row(b, c, d, a, -1)


@given(any_kernel_element_st, kernel_scalar_st)
def test_kernel_with_a_scalar_operand(x, c):
    assert x * c == c * x == _reference_product(x, WeylElement({(0, 0): c}))
    assert bracket(x, WeylElement({(0, 0): c})).is_zero()


@given(st.lists(st.tuples(st.one_of(st.just(0), kernel_scalar_st), any_kernel_element_st),
                max_size=5))
def test_linear_combination_matches_repeated_addition(pairs):
    got = linear_combination(pairs)
    assert got == sum((x.scale(c) for c, x in pairs), zero)
    _assert_canonical(got)


def test_scalar_elements_hash_like_the_equal_number():
    # equal values must hash equal, or sets and dict lookups split them
    half = Fraction(1, 2)
    for x, c in ((one, 1), (zero, 0), (one.scale(half), half),
                 (one.scale(Scalar(0, 1)), Scalar(0, 1)), (one.scale(Scalar(2, 3)), Scalar(2, 3))):
        assert x == c and hash(x) == hash(c)
        assert len({x, c}) == 1 and {x: "x"}.get(c) == "x"


def test_exponent_guards_raise_under_python_O():
    # the checks must not be asserts, which -O strips
    script = """
from fractions import Fraction
from weylkit.elements import WeylElement, ad_pow, p, q, zero
from weylkit.errors import BadParams
from weylkit.liestruct import LieAlgebraStruct
from weylkit.morphisms import apply, phi
for call in (lambda: p ** -1, lambda: WeylElement.monomial(-1, 0),
             lambda: WeylElement.monomial(0, -2), lambda: ad_pow(p, q, -1),
             lambda: WeylElement({(-1, 0): 1}), lambda: WeylElement({(1.5, 0): 1}),
             lambda: zero.leading_monomial(),
             lambda: LieAlgebraStruct(2, ["a"], {}),
             lambda: phi(1, 2)("p"), lambda: apply(phi(1, 2), None)):
    try:
        call()
    except BadParams:
        continue
    raise SystemExit("no BadParams")
if phi(1, 2)(3) != 3 or apply(phi(1, 2), Fraction(1, 2)) != Fraction(1, 2):
    raise SystemExit("a scalar did not map to itself")
"""
    src = str(Path(weylkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr + done.stdout


def test_powers_images_and_words_never_multiply_by_the_unit(monkeypatch):
    x = parse_element("p^2*q + 3*p - q^3 + 7")
    tensor = SymTensor([(1, 0), (0, 1), (1, 1)])
    morphism = phi(2, Scalar(3))
    triplets = [f_I(), f_II(Scalar(2))]

    def run():
        return ([x ** n for n in range(4)], symmetrize(tensor), morphism(x),
                [casimir(r) for r in triplets], exotic_g())

    expected = run()
    unit_operands = []
    mul = WeylElement.__mul__

    def checked_mul(a, b):
        if isinstance(b, WeylElement) and one in (a, b):
            unit_operands.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(WeylElement, "__mul__", checked_mul)
    assert run() == expected
    assert unit_operands == []


@pytest.mark.parametrize("build", [
    lambda: WeylElement({(1, 0): 0.1}), lambda: WeylElement.monomial(1, 0, 1j),
    lambda: p.scale(0.5), lambda: linear_combination([(0.5, p)]),
    lambda: SymTensor([(1.0, 0)]),
])
def test_elements_refuse_float_and_complex_coefficients(build):
    with pytest.raises(BadParams):
        build()


def test_ad_pow_refuses_a_non_integer_count():
    with pytest.raises(BadParams):
        ad_pow(p, q, 1.5)
