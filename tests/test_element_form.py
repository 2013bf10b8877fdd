"""Elements as Gaussian-integer numerators over one denominator: the canonical
form, the bounded row caches, and a differential check against the frozen
Scalar-term element (``tests/scalar_element.py``), batched morphism application
and the group action included."""

import itertools
import math
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from weylkit import Scalar, WeylElement, elements
from weylkit.elements import (_SHORT_ROW, _SIGNED_CACHE, _SWAP_CACHE, ElementSpan, _signed_row,
                              _swap_row, anticommutator, bracket, format_element,
                              linear_combination, one, p, q, weight_decompose, wn_components,
                              zero)
from weylkit.morphisms import (_apply_images, compose, invert, phi, phi_prime, scale,
                               translation)
from weylkit.scalars import _norm
from weylkit.sl2orbits import SL2Element, _ad_rows, exotic_g, f_I, f_II, group_act

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
        # the library returns them over Z[i], as numerators over one int
        num, n = new.insert_coordinates(x)
        assert {r: _norm(a, b, n) for r, (a, b) in num.items()} == old.insert_coordinates(_old(x))
    assert len(new.rows) == len(old.rows)
    for got, want in zip(new.rows + new.reduced_basis(), old.rows + old.reduced_basis()):
        assert_same(got, want)


unit_st = st.sampled_from([Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(Fraction(1, 2), 1),
                           Scalar(Fraction(-3, 7))])


@st.composite
def morphism_st(draw, max_n=3, max_links=3):
    """A short chain of triangular, scaling and translation automorphisms."""
    makers = [lambda c: phi(draw(st.integers(1, max_n)), c),
              lambda c: phi_prime(draw(st.integers(1, max_n)), c),
              lambda c: scale(c),
              lambda c: translation(c, draw(unit_st))]
    m = None
    for _ in range(draw(st.integers(1, max_links))):
        g = draw(st.sampled_from(makers))(draw(unit_st))
        m = g if m is None else compose(g, m)
    return m


@st.composite
def batch_st(draw):
    """0 to 4 elements, zero and scalars among them, sometimes one repeated."""
    member = st.one_of(element_st(max_degree=3, max_terms=3), st.just(zero),
                       coeff_st.map(lambda c: WeylElement({(0, 0): c})))
    xs = draw(st.lists(member, max_size=3))
    if xs and draw(st.booleans()):
        xs.insert(draw(st.integers(0, len(xs))), draw(st.sampled_from(xs)))
    return xs


def _frozen_images(m, xs):
    return [frozen.apply_images(_old(m.image_p), _old(m.image_q), _old(x)) for x in xs]


@given(morphism_st(), batch_st())
@example(phi(2, 1), [])
@example(phi(2, 1), [zero, one.scale(3), zero])
@example(compose(phi_prime(2, 1), phi(1, 2)), [p ** 3, q ** 2, p ** 3])  # no common monomial
def test_morphism_application_matches_the_scalar_element(m, xs):
    want = _frozen_images(m, xs)
    got = _apply_images(m.image_p, m.image_q, xs)
    for x, batched, w in zip(xs, got, want, strict=True):
        assert_same(batched, w)
        assert_same(m(x), w)
        assert_canonical(batched)


@given(morphism_st(max_links=2), morphism_st(max_links=2))
def test_compose_matches_per_element_application(m1, m2):
    m = compose(m1, m2)
    want = _frozen_images(m1, (m2.image_p, m2.image_q)) + _frozen_images(invert(m2), m1.inverse)
    for got, w in zip((m.image_p, m.image_q, *m.inverse), want, strict=True):
        assert_same(got, w)


def _frozen_group_act(alpha, g, r):
    """group_act as it was: α applied to each Ad(g)⁻¹ combination of X, Y and H."""
    old = [_old(v) for v in r]
    return [frozen.apply_images(_old(alpha.image_p), _old(alpha.image_q),
                                frozen.linear_combination(zip(row, old)))
            for row in _ad_rows(g.inverse())]


def _sl2(a1, a2, a3) -> SL2Element:
    """The unimodular matrix with first row (a1, a2) and a3 below a1, for a1 != 0."""
    return SL2Element(a1, a2, a3, (1 + a2 * a3) / a1)


@given(st.one_of(st.just(f_I()), unit_st.map(f_II)), morphism_st(max_n=2),
       st.builds(_sl2, unit_st, st.one_of(st.just(Scalar(0)), unit_st), unit_st))
@example(exotic_g(), compose(phi(2, Scalar(0, 1)), scale(Scalar(1, 1))), _sl2(Scalar(1, 1), 2, -1))
@example(exotic_g(), compose(translation(1, Fraction(1, 2)), phi_prime(1, 3)),
         _sl2(1, 0, Scalar(0, 1)))
def test_group_act_matches_the_per_combination_action(r, alpha, g):
    for got, w in zip(group_act(alpha, g, r), _frozen_group_act(alpha, g, r), strict=True):
        assert_same(got, w)


def test_one_group_act_forms_each_power_and_monomial_image_once(monkeypatch):
    r, g = exotic_g(), _sl2(Scalar(1, 1), 2, Scalar(0, -1))
    alpha = compose(phi(2, Scalar(0, 1)), phi_prime(1, 3))
    products = []
    kernel = elements._kernel

    def counted(x, y, sign):
        products.append((x, y, sign))
        return kernel(x, y, sign)

    monkeypatch.setattr(elements, "_kernel", counted)
    group_act(alpha, g, r)
    monomials = {m for v in r for m in v.num}
    max_i, max_j = max(i for i, _ in monomials), max(j for _, j in monomials)
    mixed = sum(1 for i, j in monomials if i and j)
    # the ladders P², …, P^max_i and Q², …, Q^max_j, then one P^i·Q^j per mixed monomial
    assert len(products) == (max_i - 1) + (max_j - 1) + mixed
    assert all(sign == 0 for _, _, sign in products)
    assert len({(x, y) for x, y, _ in products}) == len(products)


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


def test_long_signed_rows_are_built_afresh():
    # two of the six term pairs have a swap row past _SHORT_ROW + 1 terms; the
    # first term of x is in both, and in one short pair, with p
    x = WeylElement({(_SHORT_ROW + 4, _SHORT_ROW + 2): 3, (2, 1): Scalar(0, 1)})
    y = WeylElement({(_SHORT_ROW + 3, _SHORT_ROW + 5): Fraction(1, 2), (0, _SHORT_ROW + 1): 1,
                     (1, 0): -2})
    _signed_row.cache_clear()
    assert_same(bracket(x, y), frozen.bracket(_old(x), _old(y)))
    assert_same(anticommutator(x, y), frozen.anticommutator(_old(x), _old(y)))
    assert _signed_row.cache_info().currsize == 8  # the four short pairs, once per sign
