"""Elements as Gaussian-integer numerators over one denominator: the canonical
form, the bounded row caches, and a differential check against the frozen
Scalar-term element (``tests/scalar_element.py``)."""

import itertools
import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from weylkit import Scalar, WeylElement
from weylkit.elements import (_SIGNED_CACHE, _SWAP_CACHE, ElementSpan, _signed_row, _swap_row,
                              anticommutator, bracket, format_element, linear_combination,
                              one, p, q, weight_decompose, wn_components, zero)
from weylkit.morphisms import compose, phi, phi_prime, scale, translation

from . import scalar_element as frozen
from .strategies import big_scalar_st, element_st, nonzero_scalar_st, scalar_st

# small exponents, small or 30-digit coefficients
coeff_st = st.one_of(nonzero_scalar_st, big_scalar_st.filter(bool))
form_element_st = st.one_of(
    element_st(),
    st.just(zero),
    coeff_st.map(lambda c: WeylElement({(0, 0): c})),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), coeff_st,
                    max_size=4).map(WeylElement))
any_scalar_st = st.one_of(scalar_st, big_scalar_st, st.integers(-5, 5),
                          st.fractions(max_denominator=9))


def _old(x: WeylElement) -> frozen.ScalarElement:
    return frozen.ScalarElement(x.terms)


def assert_same(new: WeylElement, old: frozen.ScalarElement):
    assert new.terms == old.terms
    assert new.as_records() == old.as_records()
    assert format_element(new) == frozen.format_element(old)


def assert_canonical(x: WeylElement):
    assert isinstance(x.den, int) and x.den > 0
    assert all(type(a) is int and type(b) is int and (a or b) for a, b in x.num.values())
    assert math.gcd(x.den, *(v for pair in x.num.values() for v in pair)) == 1
    if x.is_zero():
        assert (x.num, x.den) == ({}, 1)


# -- against the frozen Scalar-term element ----------------------------------------------


@given(form_element_st, form_element_st, any_scalar_st)
def test_arithmetic_matches_the_scalar_element(x, y, c):
    ox, oy = _old(x), _old(y)
    assert_same(x, ox)
    assert_same(x + y, ox + oy)
    assert_same(x - y, ox - oy)
    assert_same(-x, -ox)
    assert_same(x.scale(c), ox.scale(c))
    if c:
        assert_same(x / c, ox / c)
    assert_same(x * y, ox * oy)
    assert_same(bracket(x, y), frozen.bracket(ox, oy))
    assert_same(anticommutator(x, y), frozen.anticommutator(ox, oy))


@given(st.lists(st.tuples(st.one_of(st.just(0), any_scalar_st), form_element_st), max_size=5))
def test_linear_combination_matches_the_scalar_element(pairs):
    assert_same(linear_combination(pairs),
                frozen.linear_combination((c, _old(x)) for c, x in pairs))


@given(st.lists(element_st(max_degree=2, max_terms=4), max_size=7), st.data())
def test_span_matches_the_scalar_element(gens, data):
    new, old = ElementSpan(), frozen.ScalarSpan()
    for x in gens:
        got, want = new.insert(x), old.insert(_old(x))
        assert (got is None) == (want is None)
        if got is not None:
            assert_same(got, want)
    probes = data.draw(st.lists(element_st(max_degree=2, max_terms=3), max_size=3))
    for coeffs in data.draw(st.lists(st.lists(coeff_st, min_size=len(gens),
                                              max_size=len(gens)), max_size=2)):
        probes.append(linear_combination(zip(coeffs, gens)))
    for x in probes:
        assert new.contains(x) == old.contains(_old(x))
        assert new.express(x) == old.express(_old(x))
        assert new.row_coordinates(x) == old.row_coordinates(_old(x))
    for x in probes:
        assert new.insert_coordinates(x) == old.insert_coordinates(_old(x))
    assert len(new.rows) == len(old.rows)
    for got, want in zip(new.rows + new.reduced_basis(), old.rows + old.reduced_basis()):
        assert_same(got, want)


unit_st = st.sampled_from([Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(Fraction(1, 2), 1),
                           Scalar(Fraction(-3, 7))])


@st.composite
def morphism_st(draw):
    """A short chain of triangular, scaling and translation automorphisms."""
    makers = [lambda c: phi(draw(st.integers(1, 3)), c),
              lambda c: phi_prime(draw(st.integers(1, 3)), c),
              lambda c: scale(c),
              lambda c: translation(c, draw(unit_st))]
    m = None
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from(makers))(draw(unit_st))
        m = g if m is None else compose(g, m)
    return m


@given(morphism_st(), element_st(max_degree=3, max_terms=3))
def test_morphism_application_matches_the_scalar_element(m, x):
    assert_same(m(x), frozen.apply_images(_old(m.image_p), _old(m.image_q), _old(x)))


# -- the canonical form -----------------------------------------------------------------


@given(form_element_st, form_element_st, any_scalar_st)
def test_every_result_is_canonical(x, y, c):
    results = [x, y, x + y, x - y, -x, x.scale(c), x * y, bracket(x, y),
               anticommutator(x, y), linear_combination([(c, x), (1, y)]),
               *wn_components(x).values(), *(w.value for w in weight_decompose(x))]
    if c:
        results.append(x / c)
    span = ElementSpan([x, y])
    results += span.rows + span.reduced_basis()
    for value in results:
        assert_canonical(value)


def test_zero_has_one_form():
    for z in (zero, p - p, WeylElement({(2, 1): 0}), p.scale(0), bracket(p, p),
              WeylElement({(0, 0): Scalar(0)}), linear_combination([])):
        assert (z.num, z.den) == ({}, 1) and z == zero and hash(z) == hash(zero)


def test_equal_values_by_different_routes_are_equal_and_hash_equal():
    third = Scalar(Fraction(1, 3))
    pairs = [
        (p.scale(third) * 3, p),
        ((p + q) - q, p),
        (p / third, p.scale(3)),
        (p.scale(Scalar(0, 1)).scale(Scalar(0, -1)), p),
        (linear_combination([(Fraction(1, 2), p), (Fraction(1, 2), p)]), p),
        (bracket(p, q) * 6, one.scale(6)),
        (WeylElement({(1, 0): Fraction(2, 4)}), p.scale(Fraction(1, 2))),
        (q.scale(Scalar(Fraction(1, 6), Fraction(1, 4))) * 12, q.scale(Scalar(2, 3))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert (a.num, a.den) == (b.num, b.den)
    assert (p.scale(third) * 3).den == 1


# -- the bounded row caches -------------------------------------------------------------


def test_the_row_caches_stay_under_their_bounds():
    # more distinct rows than either cache holds, through the kernel and directly
    _swap_row.cache_clear()
    _signed_row.cache_clear()
    for a, b, c, d in itertools.product(range(7), repeat=4):
        bracket(WeylElement.monomial(a, b), WeylElement.monomial(c, d))
    for j, k in itertools.product(range(92), repeat=2):
        _swap_row(j, k)
    swap, signed = _swap_row.cache_info(), _signed_row.cache_info()
    assert swap.maxsize == _SWAP_CACHE and signed.maxsize == _SIGNED_CACHE
    assert swap.currsize <= _SWAP_CACHE < swap.misses
    assert signed.currsize <= _SIGNED_CACHE < signed.misses
