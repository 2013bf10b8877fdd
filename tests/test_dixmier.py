"""Partition verdicts, ad-orbit probes, truncated eigenspaces, power relations."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import Scalar, WeylElement, bracket, dixmier
from weylkit.dixmier import (classify_low_degree, eigenvectors_truncated,
                             f_test, is_exponentiable, power_relation)
from weylkit.elements import ElementSpan, ad_pow, one, p, parse_element, q, zero
from weylkit.errors import (BadParams, BudgetExceeded, DegreeTooHigh, NoProportionality,
                            PreconditionFailed, ZeroElement)
from weylkit.liestruct import CatalogTag, LieAlgebraStruct, catalog, lie_closure
from weylkit.morphisms import (RGroupElement, SL2Element, alpha1_hat, exp_ad, phi,
                               phi_prime)
from weylkit.sl2orbits import exotic_g, f_I, f_II, s11_test

from . import enumerated, frozen_eigen
from .strategies import element_st, scalar_st


CLASSIFY_GOLDEN = [
    ("p", "Delta1"),
    ("q^2", "Delta1"),
    ("p + q^2 - 3", "Delta1"),
    ("p^2 + 2*p*q + q^2", "Delta1"),   # a perfect square acts nilpotently
    ("p*q + 7", "Delta3"),
    ("p^2 - q^2", "Delta3"),           # distinct non-commuting linear factors
    ("p^2 + q^2", "Delta3"),
    ("p^2 - 1/4*q^2", "Delta3"),
    ("5", "Scalar"),
    ("i", "Scalar"),
]


@pytest.mark.parametrize("text,tag", CLASSIFY_GOLDEN)
def test_classify_low_degree_golden(text, tag):
    assert classify_low_degree(parse_element(text)).tag == tag


def test_classify_certificate_matches_det():
    verdict = classify_low_degree(parse_element("p*q"))
    cert = verdict.certificate
    m = cert["matrix"]
    assert cert["det"] == m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert m[0][0] + m[1][1] == Scalar(0)


def test_classify_rejects_high_degree():
    with pytest.raises(DegreeTooHigh):
        classify_low_degree(parse_element("p^3"))


_QUADRATIC = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]


@settings(max_examples=200)
@given(st.dictionaries(st.sampled_from(_QUADRATIC), scalar_st).map(WeylElement))
def test_classify_matches_the_bracket_certificate(x):
    got = classify_low_degree(x)
    expected = enumerated.classify_low_degree(x)
    assert got.tag == expected.tag
    assert repr(got.certificate) == repr(expected.certificate)


def test_classify_is_invariant_under_linear_substitution():
    m = alpha1_hat(SL2Element(1, 2, 1, 3))
    for text, tag in CLASSIFY_GOLDEN:
        x = parse_element(text)
        assert classify_low_degree(m(x)).tag == tag


def test_f_test_eigenvector_stabilises_immediately():
    r = f_test(parse_element("p*q"), parse_element("p^3*q^7"))
    assert r.stabilized and r.dim == 1


def test_f_test_nilpotent_orbit():
    # [p², q] = 2p, then zero: the span closes at dimension 2
    r = f_test(p ** 2, q)
    assert r.stabilized and r.dim == 2


def test_f_test_unbounded_orbit_exhausts_budget():
    r = f_test(parse_element("p*q^2 + q"), q, max_iter=12)
    assert not r.stabilized
    assert r.iterations == 12
    assert r.dim == 13          # strictly growing: one new direction per step


def test_eigenvectors_truncated_weight_minus_two():
    basis = eigenvectors_truncated(parse_element("p*q"), -2, 4)
    expected = [parse_element("p^3*q"), p ** 2]
    assert ElementSpan(basis + expected).dim == 2
    assert len(basis) == 2


def test_eigenvectors_satisfy_the_equation_exactly():
    x = parse_element("2*p*q + 1")
    for lam in (-2, 0, 2, 4):
        for v in eigenvectors_truncated(x, lam, 5):
            assert bracket(x, v) == v.scale(Scalar(lam))


def test_eigenvectors_empty_for_odd_weight_of_even_spectrum():
    assert eigenvectors_truncated(parse_element("2*p*q + 1"), 3, 7) == []


def _exact(basis):
    """Each element's numerators, in their order, and its denominator."""
    return [(list(v.num.items()), v.den) for v in basis]


@given(element_st(max_degree=4, max_terms=5),
       st.one_of(scalar_st, st.integers(-3, 3)), st.integers(0, 8))
@example(zero, Scalar(Fraction(1, 2), 1), 4)  # a zero x has degree -1
@example(zero, 0, 3)
@example(p * q + q ** 4, 3, 8)
def test_eigenvectors_truncated_match_the_per_monomial_loop(x, lam, degree):
    assert _exact(eigenvectors_truncated(x, lam, degree)) == _exact(
        frozen_eigen.eigenvectors_truncated(x, lam, degree))


@pytest.mark.parametrize("triplet", [f_I(), f_II(1), f_II(Fraction(-3, 2)), exotic_g()],
                         ids=["f_I", "f_II(1)", "f_II(-3/2)", "exotic_g"])
def test_sl2_weight_vectors_match_the_per_monomial_loop(triplet):
    for lam in range(-6, 7):
        assert _exact(eigenvectors_truncated(triplet.H, lam, 10)) == _exact(
            frozen_eigen.eigenvectors_truncated(triplet.H, lam, 10))


def test_eigenvector_windows_past_the_budget_are_refused_before_any_column(monkeypatch):
    class ColumnBuilt(Exception):
        pass

    def no_columns(*args):
        raise ColumnBuilt

    monkeypatch.setattr(dixmier, "_accumulate", no_columns)
    x = parse_element("2*p*q + 1")
    assert (60 + 1) * (60 + 2) // 2 == dixmier._WINDOW_BUDGET
    with pytest.raises(ColumnBuilt):  # the largest accepted window
        eigenvectors_truncated(x, 2, 60)
    for degree in (61, 10 ** 12):
        with pytest.raises(BudgetExceeded):
            eigenvectors_truncated(x, 2, degree)
        with pytest.raises(BudgetExceeded):
            s11_test(f_I(), degree)


def test_power_relation_basic():
    h = parse_element("p*q")
    n1, n2, a = power_relation(h, p ** 2, p ** 3)
    assert (n1, n2, a) == (-2, -3, Scalar(1))
    assert (p ** 2) ** 3 == ((p ** 3) ** 2).scale(a)


def test_power_relation_with_coefficients():
    h = parse_element("p*q")
    x1 = (q ** 2).scale(Scalar(3))
    x2 = (q ** 3).scale(Scalar(0, 1))
    n1, n2, a = power_relation(h, x1, x2)
    assert (n1, n2) == (2, 3)
    assert x1 ** abs(n2) == (x2 ** abs(n1)).scale(a)


def test_the_zero_element_has_no_partition_class():
    with pytest.raises(ZeroElement, match="no partition class"):
        is_exponentiable(zero)


def test_power_relation_preconditions():
    h = parse_element("p*q")
    with pytest.raises(ZeroElement):
        power_relation(h, zero, p)
    with pytest.raises(PreconditionFailed):
        power_relation(h, p ** 2, q ** 3)     # opposite signs
    with pytest.raises(PreconditionFailed):
        power_relation(h, p + one, p ** 2)    # not an eigenvector
    with pytest.raises(PreconditionFailed, match="eigenvalue -1/2 is not a rational integer"):
        power_relation(h / 2, p, p ** 2)


def test_power_relation_reports_powers_that_are_not_proportional(monkeypatch):
    # genuine commuting eigenvectors always give proportional powers, so ad(h)
    # is forced to fix both: q^1 against q + q^2 (another leading monomial)
    # and against q + 1 (the same one) are both "not proportional"
    h = parse_element("p*q")
    monkeypatch.setattr(dixmier, "bracket", lambda u, v: v if u is h else bracket(u, v))
    for x2 in (q + q * q, q + one):
        with pytest.raises(NoProportionality, match="not proportional"):
            power_relation(h, q, x2)


def test_is_exponentiable_low_degree_cases():
    assert is_exponentiable(p ** 2).verdict == "yes"
    assert is_exponentiable(parse_element("p*q")).verdict == "yes"


def test_is_exponentiable_polynomial_in_one_generator():
    report = is_exponentiable(p ** 3)
    assert report.verdict == "yes"
    assert report.dixmier is not None and report.dixmier.tag == "Delta1"
    assert is_exponentiable(q ** 4 + q).verdict == "yes"


def test_is_exponentiable_leaves_a_cubic_undetermined():
    # every default probe's ad-orbit span stabilises, so there is no evidence either way
    report = is_exponentiable(q ** 3 + p)
    assert report.verdict == "undetermined" and report.dixmier is None and report.witness is None


def test_is_exponentiable_negative_evidence():
    report = is_exponentiable(parse_element("p*q^2 + q"), max_iter=12)
    assert report.verdict == "no_evidence"
    assert report.witness is not None
    probe = f_test(parse_element("p*q^2 + q"), report.witness, max_iter=12)
    assert not probe.stabilized


@given(st.integers(1, 4), st.integers(1, 4), scalar_st.filter(bool))
def test_power_relation_on_constructed_eigenvectors(k1, k2, c):
    h = parse_element("p*q")
    x1 = (p ** k1).scale(c)
    x2 = p ** k2
    n1, n2, a = power_relation(h, x1, x2)
    assert (n1, n2) == (-k1, -k2)
    assert x1 ** k2 == (x2 ** k1).scale(a)


def test_f_test_refuses_a_non_integer_budget():
    with pytest.raises(BadParams):
        f_test(p * q, p, 2.5)


def test_is_exponentiable_refuses_a_non_integer_budget():
    with pytest.raises(BadParams):
        is_exponentiable(p * p * q, max_iter=2.5)


def test_eigenvectors_truncated_refuses_a_non_integer_degree():
    with pytest.raises(BadParams):
        eigenvectors_truncated(p * q, 0, 2.5)


@pytest.mark.parametrize("n", [True, 1.0, Fraction(2)])
@pytest.mark.parametrize("call", [
    lambda n: f_test(p * q, p, n),
    lambda n: is_exponentiable(p * p * q, max_iter=n),
    lambda n: eigenvectors_truncated(p * q, 0, n),
    lambda n: p ** n,
    lambda n: ad_pow(p, q, n),
    lambda n: phi(n, 1),
    lambda n: phi_prime(n, 1),
    lambda n: exp_ad(p, q, n),
    lambda n: catalog(CatalogTag("Abelian", n)),
    lambda n: lie_closure([p], max_dim=n),
    lambda n: LieAlgebraStruct(n, ["a"], {}),
    # index and exponent positions
    lambda n: WeylElement.monomial(n, 0),
    lambda n: WeylElement({(0, n): 1}),
    lambda n: RGroupElement([n], [1], 1),
    lambda n: catalog(CatalogTag("R", (n,))),
    lambda n: LieAlgebraStruct(2, ["a", "b"], {(0, 1): {n: 1}}),
    lambda n: LieAlgebraStruct(2, ["a", "b"], {(0, n): {0: 1}}),
])
def test_every_count_argument_refuses_bools_and_non_ints(call, n):
    # a bool is an int to isinstance, so True used to pass as the count 1, and
    # as the index or exponent 1, stored as given: an element's record gave "i": true
    with pytest.raises(BadParams):
        call(n)


def test_eigenvectors_are_normalised_over_a_complex_relation_scale():
    # the one relation has the Gaussian scale s = 5 + 12i: over s its pivot
    # coefficient is one, while s·relation over N(s) would leave s/conj(s)
    x = parse_element("(3+2i)*p*q - i*p + i")
    lam = Scalar(6, 4)
    vs = eigenvectors_truncated(x, lam, 2)
    assert vs == [parse_element("q^2 + (-4/13-6/13i)*q + (-5/169+12/169i)")]
    assert bracket(x, vs[0]) == vs[0].scale(lam)
