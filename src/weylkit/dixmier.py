"""Partition tests for Weyl-algebra elements.

Dixmier sorts the non-scalar elements of the algebra into five classes by
the behaviour of the inner derivation ad(x); only the first and third — the
locally nilpotent-ish and semisimple-ish ones — exponentiate to one-parameter
automorphism groups.  Full classification of an arbitrary element is out of
reach, so this module provides exactly what is decidable:

* a complete decision for elements of total degree at most two, through the
  determinant of ad of the quadratic part acting on span{p, q}, read off the
  coefficients of p², pq and q²;
* a certified semi-decision for everything else, by watching whether the
  iterated ad-orbit of probe elements spans a finite-dimensional space;
* exact eigenvector searches [x, v] = λv in a bounded truncated degree window,
  by ``linalg.integer_kernel`` on the bracket columns; and
* the commuting-eigenvector power relation X₁^{|λ₂|} = a·X₂^{|λ₁|}.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .elements import ElementSpan, WeylElement, _accumulate, _make, _term_order, bracket, p, q
from .errors import (BadParams, BudgetExceeded, DegreeTooHigh, NoProportionality,
                     PreconditionFailed, ZeroElement)
from .linalg import integer_kernel
from .scalars import ZERO, Scalar, as_scalar

__all__ = [
    "DixmierClass", "classify_low_degree",
    "FTestResult", "f_test",
    "eigenvectors_truncated",
    "ExponentiabilityReport", "is_exponentiable", "DEFAULT_PROBES",
    "power_relation",
]


class DixmierClass(NamedTuple):
    """A partition verdict with the evidence that produced it."""

    tag: str  # Delta1 | Delta3 | Scalar | Undetermined (Delta2/4/5 reserved)
    certificate: Optional[dict] = None


def classify_low_degree(x: WeylElement) -> DixmierClass:
    """Decide the partition class of an element of total degree ≤ 2.

    The quadratic part a·p² + b·pq + c·q² acts on span{p, q} by the
    traceless 2×2 matrix [[−b, 2a], [−2c, b]], so the action is nilpotent
    exactly when det = 4ac − b² vanishes (first class), and
    invertible-semisimple otherwise (third).
    Scalars sit outside the partition and are tagged as such.
    """
    if x.degree() > 2:
        raise DegreeTooHigh("no decision procedure above total degree 2")
    if x.is_scalar():
        return DixmierClass("Scalar")
    a, b, c = x.coeff(2, 0), x.coeff(1, 1), x.coeff(0, 2)
    # the W₂ component is a·p² + b·δ(p ⊙ q) + c·q², with δ(p ⊙ q) = pq − 1/2;
    # its ad sends p to −b·p − 2c·q and q to 2a·p + b·q
    matrix = [[-b, 2 * a], [-2 * c, b]]
    det = 4 * a * c - b * b
    cert = {"matrix": matrix, "det": det}
    return DixmierClass("Delta1" if not det else "Delta3", cert)


class FTestResult(NamedTuple):
    """Outcome of the ad-orbit span test."""

    stabilized: bool
    dim: int
    iterations: int


def f_test(z: WeylElement, a: WeylElement, max_iter: int = 64) -> FTestResult:
    """Grow span{ad(z)^k(a) : k ≤ m} until it closes or the budget runs out.

    The span is ad(z)-stable as soon as one iterate fails to enlarge it, so
    a single non-growing step certifies stabilisation; conversely max_iter
    strictly growing steps certify that a is outside the finite-orbit part
    of ad(z) up to that bound.
    """
    if not isinstance(max_iter, int) or max_iter < 1:
        raise BadParams(f"the iteration budget must be at least 1, got {max_iter!r}")
    span = ElementSpan([a])
    cur = a
    for k in range(1, max_iter + 1):
        cur = bracket(z, cur)
        # a span that stops growing is ad(z)-stable, so no further check is needed
        if span.insert(cur) is None:
            return FTestResult(True, span.dim, k)
    return FTestResult(False, span.dim, max_iter)


# (d + 1)(d + 2)/2 unknowns at d = 60: `weyl s11 exotic --degree 60` takes about 2 s
# on a 2-vCPU x86 host with Python 3.11.
_WINDOW_BUDGET = 1891


def eigenvectors_truncated(x: WeylElement, lam, max_degree: int) -> list[WeylElement]:
    """All v of total degree ≤ max_degree with [x, v] = λ·v, exactly.

    The unknowns are the coefficients in the truncation window but the
    bracket equations are written untruncated, so every returned element
    satisfies the eigen-equation in the full algebra, not just modulo high
    degree.  Returns a canonical echelon basis (possibly empty).
    """
    if not isinstance(max_degree, int) or max_degree < 0:
        raise BadParams(f"the truncation degree must be natural, got {max_degree!r}")
    if (max_degree + 1) * (max_degree + 2) // 2 > _WINDOW_BUDGET:
        raise BudgetExceeded(f"degree {max_degree} has over {_WINDOW_BUDGET} unknowns")
    lam = as_scalar(lam)
    # in reverse printing order each relation is s·e_j minus independent columns
    # only, so, reversed and over s, the relations are already the canonical
    # echelon basis; a relation over s is conj(s)·relation over N(s)
    unknowns = sorted(((i, j) for i in range(max_degree + 1) for j in range(max_degree + 1 - i)),
                      key=_term_order, reverse=True)
    # the columns D·([x, m] − λm) over Z[i], D = D_x·λ.d, keyed so that each
    # pivot is a column's top-degree term
    dx = x.den
    xs = [(m, (re * lam.d, im * lam.d)) for m, (re, im) in x.num.items()]
    columns = []
    for m in unknowns:
        re_acc, im_acc = _accumulate(xs, ((m, (1, 0)),), -1)
        re_acc[m] = re_acc.get(m, 0) - lam.a * dx
        im_acc[m] = im_acc.get(m, 0) - lam.b * dx
        columns.append({_term_order(k): (re, im) for k, re in re_acc.items()
                        if (im := im_acc.get(k, 0)) or re})
    return [_make({unknowns[g]: (a * sr + b * si, b * sr - a * si) for g, (a, b) in rel.items()},
                  sr * sr + si * si)
            for rel in reversed(integer_kernel(columns)) for sr, si in [rel[max(rel)]]]


class ExponentiabilityReport(NamedTuple):
    """Verdict of the exponentiability probe battery."""

    verdict: str  # yes | no_evidence | undetermined
    dixmier: Optional[DixmierClass] = None
    witness: Optional[WeylElement] = None
    max_iter: int = 0


DEFAULT_PROBES = (p, q, p * q, p * p, q * q)


def is_exponentiable(x: WeylElement, probes: Sequence[WeylElement] = DEFAULT_PROBES,
                     max_iter: int = 64) -> ExponentiabilityReport:
    """Decide or gather evidence on whether ad(x) exponentiates.

    Positive answers come from the low-degree decision procedure or from
    recognising a polynomial in p alone (or q alone), which acts locally
    nilpotently.  Negative evidence is a probe whose ad-orbit span keeps
    growing: such an element lies outside both exponentiable classes.
    """
    if not isinstance(max_iter, int) or max_iter < 1:
        raise BadParams(f"the iteration budget must be at least 1, got {max_iter!r}")
    if x.is_zero():
        raise ZeroElement("the zero element has no partition class")
    if x.is_scalar():
        return ExponentiabilityReport("yes", DixmierClass("Scalar"), max_iter=max_iter)
    if x.is_poly_in_p() or x.is_poly_in_q():
        return ExponentiabilityReport(
            "yes", DixmierClass("Delta1", {"reason": "polynomial in a single generator"}),
            max_iter=max_iter)
    if x.degree() <= 2:
        return ExponentiabilityReport("yes", classify_low_degree(x), max_iter=max_iter)
    for probe in probes:
        if not f_test(x, probe, max_iter).stabilized:
            return ExponentiabilityReport("no_evidence", witness=probe, max_iter=max_iter)
    return ExponentiabilityReport("undetermined", max_iter=max_iter)


def _eigenvalue_of(h: WeylElement, x: WeylElement) -> Scalar:
    """The λ with [h, x] = λ·x; errors if x is not an exact eigenvector."""
    b = bracket(h, x)
    if b.is_zero():
        return ZERO
    lead = x.leading_monomial()
    lam = b.coeff(*lead) / x.coeff(*lead)
    if b != x.scale(lam):
        raise PreconditionFailed("input is not an ad-eigenvector of h")
    return lam


def power_relation(h: WeylElement, x1: WeylElement, x2: WeylElement):
    """For commuting ad(h)-eigenvectors, the forced relation X₁^{|λ₂|} = a·X₂^{|λ₁|}.

    Requires integer eigenvalues of the same sign (their product positive);
    returns (λ₁, λ₂, a) with the identity re-verified by exact expansion.
    A failure of proportionality cannot happen for genuine inputs and is
    reported as its own error.
    """
    if x1.is_zero() or x2.is_zero():
        raise ZeroElement("eigenvectors must be nonzero")
    lam1 = _eigenvalue_of(h, x1)
    lam2 = _eigenvalue_of(h, x2)
    for lam in (lam1, lam2):
        if not lam.is_integer():
            raise PreconditionFailed(f"eigenvalue {lam} is not a rational integer")
    if not bracket(x1, x2).is_zero():
        raise PreconditionFailed("the two eigenvectors do not commute")
    n1 = int(lam1.re)
    n2 = int(lam2.re)
    if n1 * n2 <= 0:
        raise PreconditionFailed("eigenvalues must be nonzero and of equal sign")
    p1 = x1 ** abs(n2)
    p2 = x2 ** abs(n1)
    lead = p2.leading_monomial()
    if p1.leading_monomial() != lead:
        raise NoProportionality("the two powers have different leading monomials")
    a = p1.coeff(*lead) / p2.coeff(*lead)
    if p1 != p2.scale(a):
        raise NoProportionality("the two powers are not proportional")
    return n1, n2, a
