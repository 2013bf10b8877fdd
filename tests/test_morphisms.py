"""Automorphism generators, group families and the morphism expressions."""

import copy
import pickle
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import Scalar, WeylElement, bracket, morphisms, parse_scalar
from weylkit.cli import _parse_realization
from weylkit.elements import one, p, parse_element, q
from weylkit.errors import (BadParams, BudgetExceeded, ExprSyntaxError, IndexMismatch,
                            NotInvertible, NotLocallyNilpotent, NotUnimodular,
                            PreconditionFailed, SizeMismatch, ZeroScale)
from weylkit.morphisms import (LTildeGroupElement, RGroupElement, SL2Element, WeylMorphism,
                               _apply_images, alpha1_hat, beta_hat, compose, exp_ad,
                               identity_morphism, invert, ltilde_group_identity,
                               ltilde_group_inv, ltilde_group_mul, ltilde_to_aut,
                               parse_morphism, phi, phi_prime, r_group_identity,
                               r_group_inv, r_group_mul, r_to_aut, scale,
                               sl2_semidirect_aut, translation)
from weylkit.sl2orbits import f_I, f_II, group_act

from . import frozen_parsers as frozen
from .strategies import element_st, nonzero_scalar_st, scalar_st


def test_images_must_satisfy_the_relation():
    with pytest.raises(PreconditionFailed):
        WeylMorphism(p, p)


def test_public_constructor_builds_an_endomorphism_without_inverse():
    m = WeylMorphism(p, q + p ** 2)
    assert m.inverse is None
    assert compose(m, phi(1, 2)).inverse is None
    assert compose(phi(1, 2), m).inverse is None
    assert compose(m, m).image_q == parse_element("q + 2*p^2")


def test_generator_images():
    assert phi(2, 1)(q) == parse_element("q + p^2")
    assert phi(2, 1)(p) == p
    assert phi_prime(3, Scalar(0, 1))(p) == parse_element("p + i*q^3")
    assert scale(2)(parse_element("p*q")) == parse_element("p*q")
    assert scale(2)(p ** 2) == parse_element("1/4*p^2")
    assert translation(1, 2)(p) == parse_element("p - 1")
    assert translation(1, 2)(q) == parse_element("q + 2")


def test_compose_applies_left_then_right():
    m = compose(scale(3), phi(2, 1))  # phi is the inner map
    assert m(q) == scale(3)(phi(2, 1)(q))


def test_invert_round_trips():
    m = compose(phi(2, 1), phi_prime(1, -2))
    inv = invert(m)
    for x in (p, q, parse_element("p^2*q - 3")):
        assert inv(m(x)) == x
    forgetful = WeylMorphism(p, q + p ** 2)
    with pytest.raises(NotInvertible):
        invert(forgetful)


def test_a_composite_inverse_is_mapped_on_its_first_read_only(monkeypatch):
    calls = []

    def counted(image_p, image_q, xs):
        calls.append(len(xs))
        return _apply_images(image_p, image_q, xs)

    monkeypatch.setattr(morphisms, "_apply_images", counted)
    m = compose(phi(2, Scalar(0, 1)), phi_prime(1, 3))
    assert calls == [2]
    first = m.inverse
    assert calls == [2, 2] and m.inverse is first and calls == [2, 2]
    assert invert(m).inverse == (m.image_p, m.image_q) and calls == [2, 2]


def test_composing_a_shared_factor_maps_each_compose_at_most_twice(monkeypatch):
    # compose reads its factors' inverses, so the work grows with the compose calls,
    # not with the leaves of the unfolded compose tree, even when a factor is shared
    calls = []

    def counted(image_p, image_q, xs):
        calls.append(len(xs))
        return _apply_images(image_p, image_q, xs)

    monkeypatch.setattr(morphisms, "_apply_images", counted)
    m = parse_morphism("phi(1,2); phiP(2,i); scale(3); translate(1,2)")
    assert calls == [2] * 5  # 3 forward, 2 for the inner composites' inverses
    first = m.inverse
    assert calls == [2] * 6 and m.inverse is first and calls == [2] * 6
    calls.clear()
    m = phi(1, 1)
    for _ in range(40):
        m = compose(m, m)
    assert len(calls) <= 2 * 40
    big = p.scale(2 ** 40)
    assert m.image_q == q + big and m.inverse == (p, q - big) and len(calls) <= 2 * 40 + 1


def test_a_composite_copies_and_pickles_with_its_inverse():
    def make():
        return compose(translation(1, Scalar(0, 2)), compose(phi(2, 3), scale(Scalar(1, 1))))

    want = make().inverse
    for read in (False, True):
        m = make()
        if read:
            assert m.inverse == want
        for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert twin == m and twin.inverse == want


def test_a_long_chain_reads_its_inverse_without_recursion():
    # 2000 factors, past the default recursion limit; i has order 4, so the chain is
    # the identity
    links = [scale(Scalar(0, 1)), scale(-1)] * 1000
    for m in (reduce(compose, links), reduce(lambda a, b: compose(b, a), links)):
        assert m.is_identity() and m.inverse == (p, q) and invert(m).is_identity()


def test_morphisms_preserve_the_relation_on_random_inputs():
    m = compose(phi(3, Scalar(1, 1)), scale(Scalar(0, 1)))
    assert bracket(m(p), m(q)) == one


@given(element_st(max_degree=2, max_terms=3), element_st(max_degree=2, max_terms=3))
def test_morphism_is_multiplicative(x, y):
    m = compose(phi(2, 1), phi_prime(1, -1))
    assert m(x * y) == m(x) * m(y)
    assert m(x + y) == m(x) + m(y)


def test_a_scalar_maps_to_itself_and_other_input_is_refused():
    m = compose(phi(1, 2), scale(Scalar(0, 1)))
    for c in (3, Fraction(1, 2), Scalar(1, -2), 0):
        assert m(c) == c
        assert isinstance(m(c), WeylElement)
    for bad in ("p", None, 1.5, [p]):
        with pytest.raises(BadParams):
            m(bad)


def test_bad_generator_parameters():
    with pytest.raises(BadParams):
        phi(-1, 1)
    with pytest.raises(ZeroScale):
        scale(0)
    with pytest.raises(NotUnimodular):
        alpha1_hat(SL2Element(1, 1, 1, 1))


def test_alpha1_images_and_inverse():
    m = alpha1_hat(SL2Element(0, 1, -1, 0))
    assert m(p) == q
    assert m(q) == -p
    assert invert(m)(m(p ** 2 * q)) == p ** 2 * q


def test_translation_is_the_ad_exponential():
    b1, b2 = Scalar(3), Scalar(0, -2)
    z = q.scale(b1) + p.scale(b2)
    m = translation(b1, b2)
    assert m(p) == exp_ad(z, p)
    assert m(q) == exp_ad(z, q)


def test_exp_ad_of_phi_generator():
    # exp(ad(λpⁿ⁺¹/(n+1))) realises q ↦ q + λpⁿ
    lam = Scalar(1, 1)
    z = WeylElement.monomial(3, 0).scale(lam / Scalar(3))
    assert exp_ad(z, q) == phi(2, lam)(q)
    assert exp_ad(z, p) == p


def test_exp_ad_reports_non_nilpotent_action():
    with pytest.raises(NotLocallyNilpotent):
        exp_ad(parse_element("p*q"), p, max_iter=16)
    with pytest.raises(BadParams):
        exp_ad(q, p, max_iter=0)


# -- the solvable group families ------------------------------------------------------


def _r_elem(a, s):
    return RGroupElement((1, 3), a, s)


def test_r_group_laws():
    g = _r_elem([1, -2], Scalar(2))
    h = _r_elem([Scalar(0, 1), 3], Scalar(1, 1))
    e = r_group_identity((1, 3))
    assert r_group_mul(g, e) == g and r_group_mul(e, g) == g
    assert r_group_mul(g, r_group_inv(g)) == e
    with pytest.raises(IndexMismatch):
        r_group_mul(g, r_group_identity((1, 2)))


def test_r_to_aut_is_a_homomorphism():
    g = _r_elem([1, -2], Scalar(2))
    h = _r_elem([Scalar(0, 1), 3], Scalar(1, 1))
    lhs = r_to_aut(r_group_mul(g, h))
    rhs = compose(r_to_aut(g), r_to_aut(h))
    assert lhs.image_p == rhs.image_p and lhs.image_q == rhs.image_q


def test_ltilde_group_laws():
    g = LTildeGroupElement([1, 2, -1], Scalar(1), Scalar(2))
    h = LTildeGroupElement([Scalar(0, 1), 0, 3], Scalar(-2), Scalar(0, 1))
    e = ltilde_group_identity(3)
    assert ltilde_group_mul(g, e) == g and ltilde_group_mul(e, g) == g
    assert ltilde_group_mul(g, ltilde_group_inv(g)) == e
    assert ltilde_group_mul(ltilde_group_inv(g), g) == e


def test_ltilde_to_aut_is_a_homomorphism():
    g = LTildeGroupElement([1, 2, -1], Scalar(1), Scalar(2))
    h = LTildeGroupElement([Scalar(0, 1), 0, 3], Scalar(-2), Scalar(0, 1))
    lhs = ltilde_to_aut(ltilde_group_mul(g, h))
    rhs = compose(ltilde_to_aut(g), ltilde_to_aut(h))
    assert lhs.image_p == rhs.image_p and lhs.image_q == rhs.image_q


def test_group_products_refuse_foreign_operands():
    # `*` leaves an operand of another type to Python, which raises TypeError, and
    # the product functions refuse one with BadParams, not AttributeError
    g, r, lt = SL2Element.identity(), RGroupElement((1,), [1], 1), LTildeGroupElement([1], 0, 1)
    for x, other in ((g, "x"), (g, r), (r, "x"), (r, lt), (lt, "x"), (lt, g)):
        assert type(x).__mul__(x, other) is NotImplemented
        with pytest.raises(TypeError):
            x * other
    for mul, family in ((r_group_mul, "RGroupElement"), (ltilde_group_mul, "LTildeGroupElement")):
        for x, other in ((r, lt), (lt, r), (r, g), (lt, "x")):
            with pytest.raises(BadParams, match=f"^{family} products take {family}s, not"):
                mul(x, other)
    assert r * r == r_group_mul(r, r) and lt * lt == ltilde_group_mul(lt, lt)


_G, _R, _LT = SL2Element.identity(), RGroupElement((1,), [1], 1), LTildeGroupElement([1], 0, 1)


@pytest.mark.parametrize("call, args, at", [
    pytest.param(call, args, at, id=f"{call.__name__}-{at}")
    for call, args, ats in ((r_group_inv, (_R,), [0]), (r_to_aut, (_R,), [0]),
                            (ltilde_group_inv, (_LT,), [0]), (ltilde_to_aut, (_LT,), [0]),
                            (alpha1_hat, (_G,), [0]), (beta_hat, (_G,), [0]),
                            (sl2_semidirect_aut, (_G, (1, 2)), [0, 1]),
                            (compose, (phi(1, 2), scale(2)), [0, 1]), (invert, (phi(1, 2),), [0]),
                            (group_act, (phi(1, 2), _G, f_I()), [0, 1, 2]))
    for at in ats])
@pytest.mark.parametrize("foreign", ["x", 5])
def test_group_functions_refuse_foreign_arguments(call, args, at, foreign):
    call(*args)
    args = [*args[:at], foreign, *args[at + 1:]]
    with pytest.raises(BadParams, match=f"^{call.__name__} takes "):
        call(*args)


def test_sl2_semidirect_aut_takes_any_pair_and_refuses_non_scalars():
    g = SL2Element.identity()
    assert sl2_semidirect_aut(g, [1, 2]) == sl2_semidirect_aut(g, iter((1, 2))) == translation(1, 2)
    with pytest.raises(BadParams, match="^coefficients are ints"):
        sl2_semidirect_aut(g, "12")


def test_ltilde_last_coordinate_acts_trivially():
    g = LTildeGroupElement([0, 0, 5], Scalar(0), Scalar(1))
    m = ltilde_to_aut(g)
    assert m.image_p == p and m.image_q == q


def test_group_elements_read_their_coordinates_once():
    # an iterator is read once, before the checks: an empty one was accepted as
    # having coordinates and built an element with none
    with pytest.raises(BadParams, match="at least one"):
        LTildeGroupElement(iter([]), 0, 1)
    assert LTildeGroupElement(iter([1, 2]), 0, 1) == LTildeGroupElement([1, 2], 0, 1)
    assert RGroupElement((1, 3), iter([1, -2]), 2) == _r_elem([1, -2], Scalar(2))
    with pytest.raises(IndexMismatch):
        RGroupElement((1, 3), iter([1]), 2)


@pytest.mark.parametrize("make", [lambda: RGroupElement([1], 5, 1),
                                  lambda: LTildeGroupElement(5, 0, 1),
                                  lambda: RGroupElement([1], [0.5], 1)],
                         ids=["R int", "LTilde int", "R float"])
def test_group_coordinates_that_are_no_scalars_raise_bad_params(make):
    # an int where the coordinate list goes raised TypeError
    with pytest.raises(BadParams):
        make()


def test_group_elements_multiply_compare_and_hash_by_their_coordinates():
    g, h = _r_elem([1, -2], Scalar(2)), _r_elem([Scalar(0, 1), 3], Scalar(1, 1))
    u = LTildeGroupElement([1, 2, -1], Scalar(1), Scalar(2))
    v = LTildeGroupElement([Scalar(0, 1), 0, 3], Scalar(-2), Scalar(0, 1))
    assert g * h == r_group_mul(g, h) and h * g == r_group_mul(h, g)
    assert u * v == ltilde_group_mul(u, v) and v * u == ltilde_group_mul(v, u)
    for x, same, other in ((g, _r_elem([Fraction(2, 2), -2], 2), h),
                           (u, LTildeGroupElement([1, 2, -1], 1, 2), v)):
        assert x == same and hash(x) == hash(same) and len({x, same}) == 1
        assert x != other and x != "g" and x.__eq__(1) is NotImplemented
    assert g != _r_elem([1, -2], Scalar(-2)) and g != RGroupElement((1, 4), [1, -2], 2)
    assert u != LTildeGroupElement([1, 2, -1], 0, 2)


def test_group_elements_print_their_coordinates():
    assert repr(_r_elem([1, Scalar(0, 1)], 2)) == (
        "RGroupElement((1, 3), (Scalar(Fraction(1, 1)), "
        "Scalar(Fraction(0, 1), Fraction(1, 1))), Scalar(Fraction(2, 1)))")
    assert repr(LTildeGroupElement([1, 2], Scalar(1, -1), 3)) == (
        "LTildeGroupElement((Scalar(Fraction(1, 1)), Scalar(Fraction(2, 1))), "
        "Scalar(Fraction(1, 1), Fraction(-1, 1)), Scalar(Fraction(3, 1)))")


@pytest.mark.parametrize("make", [
    lambda: SL2Element(Scalar(1, 1), 2, Scalar(Fraction(1, 2)), Scalar(1, -1)),
    lambda: _r_elem([1, Scalar(0, 1)], Fraction(2, 3)),
    lambda: LTildeGroupElement([1, 2], Scalar(1, -1), 3),
], ids=["SL2Element", "RGroupElement", "LTildeGroupElement"])
def test_values_read_back_from_their_text_and_hash_by_value(make):
    # the families printed t and s as text, which no constructor call reads back,
    # and SL2Element defined __eq__ without __hash__
    g = make()
    cls = type(g)
    assert eval(repr(g), {"Scalar": Scalar, "Fraction": Fraction, cls.__name__: cls}) == g
    assert make() == g and hash(make()) == hash(g) and len({g, make()}) == 1
    assert g != 3 and g.__eq__(3) is NotImplemented


def test_morphisms_compare_and_hash_by_their_images():
    m = WeylMorphism(p, q)
    assert m == identity_morphism() and hash(m) == hash(identity_morphism())
    assert m.inverse is None and identity_morphism().inverse == (p, q)
    assert identity_morphism() != 3 and (identity_morphism() == 3) is False
    assert phi(1, 2) != identity_morphism() and len({m, identity_morphism(), phi(1, 2)}) == 2


def test_group_elements_refuse_bad_indices_zero_scales_and_mixed_sizes():
    for indices in ((3, 1), (1, 1)):
        with pytest.raises(BadParams, match="strictly increasing"):
            RGroupElement(indices, [1, 2], 2)
    with pytest.raises(ZeroScale):
        _r_elem([1, 2], 0)
    with pytest.raises(ZeroScale):
        LTildeGroupElement([1, 2], 1, Scalar(0))
    with pytest.raises(SizeMismatch):
        ltilde_group_mul(ltilde_group_identity(2), ltilde_group_identity(3))
    with pytest.raises(SizeMismatch):
        LTildeGroupElement([1], 0, 1) * LTildeGroupElement([1, 2], 0, 1)


def test_sl2_semidirect_aut_composes_the_two_parts():
    m = sl2_semidirect_aut(SL2Element(0, 1, -1, 0), (1, 1))
    expected = compose(alpha1_hat(SL2Element(0, 1, -1, 0)), translation(1, 1))
    assert m.image_p == expected.image_p and m.image_q == expected.image_q


@given(st.lists(scalar_st, min_size=2, max_size=2), nonzero_scalar_st,
       st.lists(scalar_st, min_size=2, max_size=2), nonzero_scalar_st)
def test_r_homomorphism_property(a1, s1, a2, s2):
    g = RGroupElement((2, 5), a1, s1)
    h = RGroupElement((2, 5), a2, s2)
    lhs = r_to_aut(r_group_mul(g, h))
    rhs = compose(r_to_aut(g), r_to_aut(h))
    assert lhs.image_p == rhs.image_p and lhs.image_q == rhs.image_q


# -- morphism expressions -------------------------------------------------------------


def test_parse_morphism_identity_and_chain():
    m = parse_morphism("id")
    assert m.image_p == p and m.image_q == q
    chained = parse_morphism("phi(2,1); scale(3)")
    by_hand = compose(scale(3), phi(2, 1))
    assert chained.image_p == by_hand.image_p
    assert chained.image_q == by_hand.image_q


def test_parse_morphism_all_literals():
    for text in ("phi(2,1)", "phiP(1,-i)", "scale(1/2)", "translate(1,2)",
                 "alpha1(0,1,-1,0)", "beta(2,1/3)"):
        m = parse_morphism(text)
        assert bracket(m.image_p, m.image_q) == one


@pytest.mark.parametrize("bad", ["", "phi", "phi(1)", "phi(1,2,3)", "nope(1)",
                                 "scale(0)", "phi(1,2);;scale(1)",
                                 "alpha1(1,1,1,1)", "phi(-1,2)", "beta(0,1)",
                                 "beta(1)"])
def test_parse_morphism_rejects_malformed(bad):
    with pytest.raises((ExprSyntaxError, BadParams)):
        parse_morphism(bad)


@given(element_st(max_degree=2, max_terms=3))
def test_parsed_chain_acts_as_composition(x):
    m = parse_morphism("phiP(2,i); scale(2); phi(1,-1)")
    by_hand = compose(phi(1, -1), compose(scale(2), phi_prime(2, Scalar(0, 1))))
    assert m(x) == by_hand(x)


_TOKENS = ["p", "q", "i", "0", "1", "2", "/", "+", "-", "*", "^", "(", ")", ",", ";", " ",
           "\u00b2", "x", "id", "phi", "phiP", "scale", "translate", "alpha1", "beta",
           "fI", "fII", "exotic", "\n", "\u0663"]
_text_st = st.one_of(st.text(max_size=12),
                     st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join))


@pytest.mark.parametrize("parse", [parse_scalar, parse_element, parse_morphism])
@given(_text_st)
def test_parsers_reject_bad_text_with_a_syntax_error_inside_it(parse, text):
    try:
        parse(text)
    except ExprSyntaxError as exc:
        assert exc.pos is None or 0 <= exc.pos <= len(text)
    except BadParams:
        # a well-formed literal whose parameters leave the domain, e.g. scale(0)
        assert parse is parse_morphism


def _realization(text):
    return _parse_realization([text])


def _frozen_realization(text):
    # the one widening: like a morphism literal, fII may be padded before its '('
    return frozen.parse_realization([re.sub(r"fII\s+\(", "fII(", text, count=1)])


@pytest.mark.parametrize("new, old", [
    (parse_scalar, frozen.parse_scalar),
    (parse_element, frozen.parse_element_frozen),
    (parse_morphism, frozen.parse_morphism),
    (_realization, _frozen_realization),
], ids=["scalar", "element", "morphism", "realization"])
@settings(max_examples=300)
@given(_text_st)
@example("-1+i*p + 1/2-3/4i - -i")
@example("(+2i)*q - 1+2*p")
@example("\u0663")
@example("1+2/0i")
@example("1+2/0")
@example("+2*p - -i*q")
@example("1/2+i+q")
@example("fII (1)")
@example("\nid ;\u2003phi\n(1, 2)\n")
@example(" fII(\t2/0\t)")
@example("beta(0,1)")
@example("phi(1/2,1)")
@example("phi(1,2)x")
def test_the_shared_scanner_reads_what_the_frozen_parsers_read(new, old, text):
    try:
        expected = old(text)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            new(text)
        return
    except (ExprSyntaxError, BadParams):
        # a syntax error anywhere in the whole text, or a literal outside its domain
        try:
            new(text)
        except ExprSyntaxError as exc:
            assert exc.pos is not None and 0 <= exc.pos <= len(text)
        except BadParams:
            pass
        else:
            pytest.fail(f"{text!r} is refused by the frozen parser only")
        return
    got = new(text)
    assert got == expected
    if isinstance(got, WeylMorphism):
        assert got.inverse == expected.inverse


@pytest.mark.parametrize("parse, text, pos", [
    (parse_morphism, "phi( 1 , x)", 9),
    (parse_morphism, "id ;\tphi(1, 2) ;  nope(1)", 18),
    (_realization, " fII( 2/0 )", 9),
    (_realization, "fII(1+x)", 5),
    (_realization, "  fII(1, 2)", 2),
])
def test_literal_errors_point_into_the_whole_argument(parse, text, pos):
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    assert info.value.pos == pos


def test_a_realisation_literal_is_padded_like_a_morphism_literal():
    assert _realization("fII (2)") == _realization(" fII(2) ") == f_II(2)
    assert parse_morphism("phi (1, 2)") == phi(1, 2)


# -- every automorphism constructor carries a correct inverse -------------------------


def _unimodular(a, b, c):
    """SL2Element(a, b, c, d) with d chosen so that the determinant is 1; a ≠ 0."""
    return SL2Element(a, b, c, (1 + b * c) / a)


_unimodular_st = st.builds(_unimodular, nonzero_scalar_st, scalar_st, scalar_st)
_pair_st = st.lists(scalar_st, min_size=2, max_size=2)


def _literal(name, args):
    return f"{name}({','.join(map(str, args))})"


_literal_st = st.one_of(
    st.builds(lambda n, lam: _literal("phi", (n, lam)), st.integers(0, 2), scalar_st),
    st.builds(lambda n, lam: _literal("phiP", (n, lam)), st.integers(0, 2), scalar_st),
    st.builds(lambda u: _literal("scale", (u,)), nonzero_scalar_st),
    st.builds(lambda b: _literal("translate", b), _pair_st),
    st.builds(lambda g: _literal("alpha1", (g.a1, g.a2, g.a3, g.a4)), _unimodular_st),
    st.just("id"),
)

# Each link is a degree ≤ 2 automorphism; the chain strategy below bounds the
# product of the link degrees, which bounds the degree of the composite.
_link_st = st.one_of(
    st.just(identity_morphism()),
    st.builds(phi, st.integers(0, 2), scalar_st),
    st.builds(phi_prime, st.integers(0, 2), scalar_st),
    st.builds(scale, nonzero_scalar_st),
    st.builds(translation, scalar_st, scalar_st),
    st.builds(alpha1_hat, _unimodular_st),
    st.builds(sl2_semidirect_aut, _unimodular_st, _pair_st),
    st.sampled_from([(1,), (2,), (3,), (1, 3), (2, 3)]).flatmap(
        lambda idx: st.builds(lambda a, s: r_to_aut(RGroupElement(idx, a, s)),
                              st.lists(scalar_st, min_size=len(idx), max_size=len(idx)),
                              nonzero_scalar_st)),
    st.builds(lambda a, t, s: ltilde_to_aut(LTildeGroupElement(a, t, s)),
              st.lists(scalar_st, min_size=1, max_size=4), scalar_st, nonzero_scalar_st),
    st.builds(lambda a1, a3: beta_hat(SL2Element(a1, 0, a3, a1.inverse())),
              nonzero_scalar_st, scalar_st),
    st.lists(_literal_st, min_size=1, max_size=2).map(lambda ts: parse_morphism("; ".join(ts))),
)


def _degree(m):
    return max(m.image_p.degree(), m.image_q.degree())


_chain_st = st.lists(_link_st, min_size=1, max_size=4).filter(
    lambda links: reduce(lambda d, m: d * _degree(m), links, 1) <= 4)


@given(_chain_st, st.booleans())
def test_automorphism_chains_carry_their_inverse(links, outer):
    # the last link composed outside or inside the rest; the inverse, mapped on its
    # first read, is the one compose formed at once: (m1 ∘ m2)⁻¹ = m2⁻¹ ∘ m1⁻¹
    *rest, last = links
    chain = reduce(compose, rest, identity_morphism())
    m1, m2 = (last, chain) if outer else (chain, last)
    m = compose(m1, m2)
    assert m.inverse == tuple(_apply_images(*m2.inverse, m1.inverse))
    assert bracket(m.image_p, m.image_q) == one
    inv = invert(m)
    assert compose(m, inv).is_identity()
    assert compose(inv, m).is_identity()


def test_sl2_element_refuses_float_entries():
    with pytest.raises(BadParams):
        SL2Element(1.0, 0, 0, 1)


def test_exp_ad_refuses_a_non_integer_budget():
    with pytest.raises(BadParams):
        exp_ad(p, q, 2.5)
