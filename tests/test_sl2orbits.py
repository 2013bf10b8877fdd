"""Canonical triplets, the Casimir, the group action, and the weight pattern."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import Scalar, bracket, sl2orbits
from weylkit.elements import linear_combination, one, p, parse_element, q
from weylkit.errors import (BadParams, NonScalarCasimir, NotInBorel, NotInvertible,
                            NotUnimodular, RelationFailed)
from weylkit.morphisms import compose, phi, phi_prime, scale, translation
from weylkit.sl2orbits import (SL2Element, Sl2Realization, _sl2, alpha1_hat, beta_hat,
                               casimir, exotic_g, exotic_report, f_I, f_II,
                               f_II_variant, group_act, isotropy_check, s11_test)

from .strategies import element_st, nonzero_scalar_st, scalar_st

S = Scalar


# -- triplets -------------------------------------------------------------------------


def test_triplet_check_passes_the_canonical_families():
    for r in (f_I(), f_II(0), f_II(1), f_II(-3), f_II(Fraction(5, 2)),
              f_II(S(0, 1)), f_II_variant(1)):
        assert bracket(r.H, r.X) == r.X.scale(S(2))
        assert bracket(r.H, r.Y) == r.Y.scale(S(-2))
        assert bracket(r.X, r.Y) == r.H


def test_triplet_check_reports_the_failing_relation():
    with pytest.raises(RelationFailed, match=r"\[H,X\]"):
        Sl2Realization(q, p, one)
    with pytest.raises(RelationFailed, match="nonzero"):
        Sl2Realization(0, p, q)
    with pytest.raises(RelationFailed, match=r"\[X,Y\]"):
        Sl2Realization(parse_element("-1/2*q^2"), parse_element("1/2*p^2"),
                       parse_element("p*q + 1/2"))


def test_f_I_images():
    r = f_I()
    assert r.X == parse_element("-1/2*q^2")
    assert r.Y == parse_element("1/2*p^2")
    assert r.H == parse_element("p*q - 1/2")


def test_f_II_images():
    r = f_II(1)
    assert r.X == parse_element("p*q^2 + q")
    assert r.Y == -p
    assert r.H == parse_element("2*p*q + 1")


def test_f_II_variant_is_the_transposed_form():
    r = f_II_variant(1)
    assert r.X == -q
    assert r.Y == parse_element("p^2*q + p")   # p(1 + pq) normal-ordered
    assert r.H == parse_element("2*p*q + 1")


# -- the Casimir ----------------------------------------------------------------------


CASIMIR_GOLDEN = [
    (S(0), S(0)),
    (S(1), S(Fraction(3, 2))),
    (S(-3), S(Fraction(3, 2))),
    (S(Fraction(5, 2)), S(Fraction(45, 8))),
    (S(0, 1), S(Fraction(-1, 2), 1)),
]


@pytest.mark.parametrize("b,value", CASIMIR_GOLDEN, ids=str)
def test_casimir_of_the_diagonal_family(b, value):
    assert casimir(f_II(b)) == value
    assert value == b * (b * S(Fraction(1, 2)) + S(1))


def test_casimir_of_f_I_is_minus_three_eighths():
    assert casimir(f_I()) == S(Fraction(-3, 8))


def test_casimir_of_a_non_triplet_is_refused():
    # H²/2 + XY + YX with X = p, Y = q, H = pq is not scalar
    with pytest.raises(NonScalarCasimir):
        casimir(_sl2(p, q, p * q))


def _three_product_casimir(r: Sl2Realization) -> Scalar:
    """The Casimir from the products H·H, X·Y and Y·X, as formed before the
    anticommutator, frozen."""
    v = linear_combination(((Fraction(1, 2), r.H * r.H), (1, r.X * r.Y), (1, r.Y * r.X)))
    if not v.is_scalar():
        raise NonScalarCasimir("the Casimir image is not scalar")
    return v.constant_term()


casimir_input_st = st.one_of(
    st.builds(f_II, scalar_st), st.builds(f_II_variant, scalar_st), st.just(f_I()),
    # not triplets, built past the check: mostly a non-scalar image, a scalar one
    # when all three are constants
    st.builds(_sl2, element_st(), element_st(), element_st()),
    st.builds(_sl2, element_st(0), element_st(0), element_st(0)),
    st.builds(lambda r, c: _sl2(r.X, r.Y, r.H + c), st.builds(f_II, scalar_st), scalar_st),
    # the orbits traffic: triplets moved by a tame chain and an SL2Element over Q(i)
    st.deferred(lambda: _action_st.map(lambda action: group_act(*action))))


@settings(max_examples=100)
@given(casimir_input_st)
# H²/2 = -2p² and XY + YX = 2q²: cells coded too narrow for X·Y would cancel them
@example(_sl2(q, q, p.scale(S(0, 2))))
def test_casimir_matches_the_three_product_form(r):
    try:
        want = _three_product_casimir(r)
    except NonScalarCasimir:
        with pytest.raises(NonScalarCasimir):
            casimir(r)
    else:
        assert casimir(r) == want


def test_casimir_is_an_orbit_invariant():
    m = compose(phi(2, S(1, 1)), compose(scale(S(3)), phi_prime(1, -2)))
    for r in (f_I(), f_II(1), f_II(S(0, 1))):
        moved = Sl2Realization(m(r.X), m(r.Y), m(r.H))
        assert casimir(moved) == casimir(r)


# -- the group and its action ----------------------------------------------------------


def test_sl2_element_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        SL2Element(1, 1, 1, 1)


def test_sl2_element_group_laws():
    g = SL2Element(1, 2, 1, 3)
    h = SL2Element(0, 1, -1, 2)
    e = SL2Element.identity()
    assert g * g.inverse() == e
    assert (g * h).inverse() == h.inverse() * g.inverse()
    assert g * e == g and e * g == g


def _unimodular(a1, a2, a3):
    return SL2Element(a1, a2, a3, (1 + a2 * a3) / a1)


sl2_st = st.builds(_unimodular, nonzero_scalar_st, scalar_st, scalar_st)
_small_st = st.integers(-2, 2).map(Scalar)
small_sl2_st = st.builds(_unimodular, _small_st.filter(bool), _small_st, _small_st)


@given(sl2_st, sl2_st)
def test_products_inverses_and_negatives_stay_unimodular(g, h):
    for m in (g * h, g.inverse(), -g, h.inverse() * -g):
        assert m.a1 * m.a4 - m.a2 * m.a3 == 1


# α chains of affine and triangular links, of degree at most 2 overall; the
# exotic triplet (degree 9) meets one affine link and a small g, to keep its
# products small
_link_st = st.one_of(
    st.builds(phi, st.integers(0, 2), scalar_st),
    st.builds(phi_prime, st.integers(0, 2), scalar_st),
    st.builds(scale, nonzero_scalar_st),
    st.builds(translation, scalar_st, scalar_st),
    st.builds(alpha1_hat, sl2_st),
)


def _alpha_st(max_degree, max_links):
    return st.lists(_link_st, min_size=1, max_size=max_links).map(
        lambda links: reduce(compose, links)).filter(
        lambda m: max(m.image_p.degree(), m.image_q.degree()) <= max_degree)


_action_st = st.one_of(
    st.tuples(_alpha_st(2, 2), sl2_st, st.just(f_I())),
    st.tuples(_alpha_st(2, 2), sl2_st, st.builds(f_II, scalar_st)),
    st.tuples(_alpha_st(1, 1), small_sl2_st, st.just(exotic_g())),
)


@given(_action_st)
def test_group_act_needs_no_check(action):
    alpha, g, r = action
    acted = group_act(alpha, g, r)
    assert Sl2Realization(*acted) == acted
    assert casimir(acted) == casimir(r)


def test_group_act_by_identity_fixes():
    r = f_I()
    out = group_act(alpha1_hat(SL2Element.identity()), SL2Element.identity(), r)
    assert (out.X, out.Y, out.H) == (r.X, r.Y, r.H)


def test_group_act_requires_invertible_morphism():
    forgetful_images = (p, q + p ** 2)
    from weylkit.morphisms import WeylMorphism
    m = WeylMorphism(*forgetful_images)
    for alpha in (m, compose(m, phi(1, 2)), compose(phi(1, 2), m)):
        with pytest.raises(NotInvertible):
            group_act(alpha, SL2Element.identity(), f_I())


def test_scalar_members_are_read_as_their_constants():
    # the constructor reads a Scalar or int member as its constant element, which
    # no triplet has, and refuses anything else with BadParams
    with pytest.raises(RelationFailed, match="^triplet members must be nonzero$"):
        Sl2Realization(S(0), S(0), S(2))
    for members in ((S(2), p, 3), (one.scale(2), p, one.scale(3))):
        with pytest.raises(RelationFailed, match=r"^\[H,X\] = 2X$"):
            Sl2Realization(*members)
    for k in range(3):
        members = [*f_I()]
        members[k] = "p"
        with pytest.raises(BadParams, match="^Sl2Realization takes elements and scalars"):
            Sl2Realization(*members)


def test_the_type_checks_where_outside_input_builds_it():
    # the library's own triplets pass the constructor unchanged, as do a copy and a
    # pickle; _make and _replace skip the check, as _sl2 does
    r = f_I()
    assert type(r) is Sl2Realization and Sl2Realization(*r) == r
    assert copy.copy(r) == r == pickle.loads(pickle.dumps(r))
    assert repr(r).startswith("Sl2Realization(X=")
    wrong = r._replace(X=r.Y)
    assert type(wrong) is Sl2Realization and wrong.X == r.Y
    assert type(Sl2Realization._make([q, p, one])) is Sl2Realization
    with pytest.raises(RelationFailed, match=r"^\[H,X\] = 2X$"):
        copy.copy(wrong)
    with pytest.raises(RelationFailed, match=r"^\[H,X\] = 2X$"):
        pickle.loads(pickle.dumps(wrong))


def test_alpha1_hat_intertwines_on_f_I():
    # moving f_I by any (α̂₁(g), g) lands back on f_I
    for g in (SL2Element(1, 1, 0, 1), SL2Element(0, 1, -1, 0),
              SL2Element(2, 0, 1, S(Fraction(1, 2)))):
        out = group_act(alpha1_hat(g), g, f_I())
        r = f_I()
        assert (out.X, out.Y, out.H) == (r.X, r.Y, r.H)


def test_group_act_off_isotropy_moves_f_I():
    g = SL2Element(1, 1, 0, 1)
    out = group_act(alpha1_hat(SL2Element.identity()), g, f_I())
    assert (out.X, out.Y, out.H) != (f_I().X, f_I().Y, f_I().H)
    assert not isotropy_check(f_I(), alpha1_hat(SL2Element.identity()), g)


def test_beta_hat_requires_borel():
    with pytest.raises(NotInBorel):
        beta_hat(SL2Element(0, 1, -1, 0))


def test_beta_hat_intertwines_on_the_diagonal_family():
    for b in (S(1), S(-3)):
        for g in (SL2Element(2, 0, 0, S(Fraction(1, 2))),
                  SL2Element(1, 0, 5, 1),
                  SL2Element(S(0, 1), 0, S(2, -1), S(0, -1))):
            assert isotropy_check(f_II(b), beta_hat(g), g)


def test_beta_hat_is_even():
    g = SL2Element(3, 0, 1, S(Fraction(1, 3)))
    m1, m2 = beta_hat(g), beta_hat(-g)
    assert m1.image_p == m2.image_p and m1.image_q == m2.image_q


def test_transposition_swaps_the_variant_family():
    # The antidiagonal substitution exchanges the raising and lowering
    # directions and sends the parameter b to -b-2 (same Casimir): moving
    # f_II(-3) lands exactly on the transposed variant at parameter 1.
    g = SL2Element(0, -1, 1, 0)
    out = group_act(alpha1_hat(g), g, f_II(-3))
    var = f_II_variant(1)
    assert (out.X, out.Y, out.H) == (var.X, var.Y, var.H)
    assert casimir(f_II(-3)) == casimir(f_II(1))


# -- the substituted triplet -----------------------------------------------------------


def test_exotic_triplet_closed_forms():
    r = exotic_g()
    assert r.X == parse_element("q + p*q^2")
    assert r.Y == parse_element("-p + 4*p^2*q^3 - 4*p^3*q^6 + 12*p^2*q^5")
    assert r.H == parse_element("2*p*q - 4*p^2*q^4 + 1")


def test_exotic_report_adjudicates_the_h_display():
    report = exotic_report()
    assert report.x_matches and report.y_matches
    assert report.h_matches == (True, False)


def test_exotic_shares_the_casimir_of_its_base():
    assert casimir(exotic_g()) == casimir(f_II(1))


# -- the weight ±2 pattern -------------------------------------------------------------


def test_s11_f_I_matches_both_sides():
    report = s11_test(f_I(), 6)
    assert report.in_pattern
    assert report.plus.eigen_dim == report.plus.pattern_dim == 3
    assert report.minus.eigen_dim == report.minus.pattern_dim == 3


def test_s11_diagonal_family_fails_on_the_plus_side():
    report = s11_test(f_II(1), 8)
    assert not report.plus.matches
    assert (report.plus.eigen_dim, report.plus.pattern_dim) == (4, 3)
    assert report.plus.witness == parse_element("p*q^2")
    assert report.minus.matches
    assert (report.minus.eigen_dim, report.minus.pattern_dim) == (4, 4)
    assert not report.in_pattern


def test_s11_exotic_is_in_pattern():
    report = s11_test(exotic_g(), 8)
    assert report.in_pattern
    assert (report.plus.eigen_dim, report.plus.pattern_dim) == (1, 1)
    assert (report.minus.eigen_dim, report.minus.pattern_dim) == (0, 0)


@given(scalar_st)
def test_casimir_formula_for_all_parameters(b):
    assert casimir(f_II(b)) == b * (b * S(Fraction(1, 2)) + S(1))


# a scalar H raises no degree, and a zero X or Y stays zero times every power of H, so
# the pattern X·ℂ[H] must end at the first step that raises no degree, or it never
# passes the truncation degree.  H = 1 keeps the integers small should that loop
# return, and the address space is capped, as its list of powers would still grow
_S11_DEGREE_FREE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from weylkit.elements import one, q, zero
from weylkit.sl2orbits import _sl2, s11_test
report = s11_test(_sl2(q, zero, one), 2)
want = ((False, 0, 1, q), (True, 0, 0, None))
raise SystemExit(0 if report == want else repr(report))
"""


def test_s11_ends_when_h_raises_no_degree():
    src = str(Path(sl2orbits.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", _S11_DEGREE_FREE],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=10)
    assert done.returncode == 0, done.stderr + done.stdout
