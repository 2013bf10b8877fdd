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

from typing import NamedTuple, Optional

from .elements import (ElementSpan, WeylElement, _accumulate, _as_element, _coded, _make,
                       bracket, p, q)
from .errors import (BudgetExceeded, DegreeTooHigh, NoProportionality, PreconditionFailed,
                     ZeroElement, _check_count)
from .linalg import integer_kernel
from .scalars import Scalar, _divide, as_scalar

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
    x = _as_element(x, "classify_low_degree")
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
    _check_count(max_iter, 1, "the iteration budget must be at least 1, got {!r}")
    z, a = (_as_element(x, "f_test") for x in (z, a))
    span = ElementSpan([a])
    cur = a
    for k in range(1, max_iter + 1):
        cur = bracket(z, cur)
        # a span that stops growing is ad(z)-stable, so no further check is needed
        if span.insert(cur) is None:
            return FTestResult(True, span.dim, k)
    return FTestResult(False, span.dim, max_iter)


# (d + 1)(d + 2)/2 unknowns at d = 60: `s11_test(exotic_g(), 60)` takes 0.12–0.25 s and
# `weyl s11 exotic --degree 60` 0.23–0.33 s on a 2-vCPU x86 host with Python 3.11.
_WINDOW_BUDGET = 1891


def eigenvectors_truncated(x: WeylElement, lam, max_degree: int) -> list[WeylElement]:
    """All v of total degree ≤ max_degree with [x, v] = λ·v, exactly.

    The unknowns are the coefficients in the truncation window but the
    bracket equations are written untruncated, so every returned element
    satisfies the eigen-equation in the full algebra, not just modulo high
    degree.  Returns a canonical echelon basis (possibly empty).
    """
    _check_count(max_degree, 0, "the truncation degree must be natural, got {!r}")
    x = _as_element(x, "eigenvectors_truncated")
    if (max_degree + 1) * (max_degree + 2) // 2 > _WINDOW_BUDGET:
        raise BudgetExceeded(f"degree {max_degree} has over {_WINDOW_BUDGET} unknowns")
    lam = as_scalar(lam)
    # in reverse printing order each relation is s·e_j minus independent columns
    # only, so, reversed and over s, the relations are already the canonical
    # echelon basis
    unknowns = [(i, t - i) for t in range(max_degree + 1) for i in range(t + 1)]
    # the columns D·([x, m] − λm) over Z[i], D = D_x·λ.d, with p^i q^j coded in
    # printing order as −(w·(i + j) + i), w past its p-exponent, so that each
    # column's pivot, its least code, is its top-degree term; offset by k·span,
    # span past every code's size, one accumulation builds every column k
    w = 1 + max((i for i, _ in x.num), default=0) + max_degree
    u, v, span = -(w + 1), -w, w * (max(x.degree(), 0) + max_degree + 1)
    xs = [(i, j, code, re * lam.d, im * lam.d) for i, j, code, re, im in _coded(x.num, u, v)]
    ys = [(i, j, u * i + v * j + k * span, 1, 0) for k, (i, j) in enumerate(unknowns)]
    acc = {code: [-lam.a * x.den, -lam.b * x.den] for _, _, code, _, _ in ys}
    _accumulate(acc, xs, ys, -1, u + v)
    columns = [{} for _ in unknowns]
    for key, cell in acc.items():
        if cell[0] or cell[1]:
            k, code = divmod(key + span - 1, span)
            columns[k][code] = cell
    return [_make(*_divide({unknowns[g]: x for g, x in rel.items()}, rel[max(rel)]))
            for rel in reversed(integer_kernel(columns))]


class ExponentiabilityReport(NamedTuple):
    """Verdict of the exponentiability probe battery."""

    verdict: str  # yes | no_evidence | undetermined
    dixmier: Optional[DixmierClass] = None
    witness: Optional[WeylElement] = None
    max_iter: int = 0


DEFAULT_PROBES = (p, q, p * q, p * p, q * q)


def is_exponentiable(x: WeylElement, max_iter: int = 64) -> ExponentiabilityReport:
    """Decide or gather evidence on whether ad(x) exponentiates.

    Positive answers come from the low-degree decision procedure or from
    recognising a polynomial in p alone (or q alone), which acts locally
    nilpotently.  Negative evidence is a default probe whose ad-orbit span
    keeps growing: such an element lies outside both exponentiable classes.
    """
    _check_count(max_iter, 1, "the iteration budget must be at least 1, got {!r}")
    x = _as_element(x, "is_exponentiable")
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
    for probe in DEFAULT_PROBES:
        if not f_test(x, probe, max_iter).stabilized:
            return ExponentiabilityReport("no_evidence", witness=probe, max_iter=max_iter)
    return ExponentiabilityReport("undetermined", max_iter=max_iter)


def _ratio(u: WeylElement, v: WeylElement) -> Optional[Scalar]:
    """The a with u = a·v, read at v's leading monomial for v ≠ 0; None if there is none."""
    lead = v.leading_monomial()
    a = u.coeff(*lead) / v.coeff(*lead)
    return a if u == v.scale(a) else None


def power_relation(h: WeylElement, x1: WeylElement, x2: WeylElement):
    """For commuting ad(h)-eigenvectors, the forced relation X₁^{|λ₂|} = a·X₂^{|λ₁|}.

    Requires integer eigenvalues of the same sign (their product positive);
    returns (λ₁, λ₂, a) with the identity re-verified by exact expansion.
    A failure of proportionality cannot happen for genuine inputs and is
    reported as its own error.
    """
    h, x1, x2 = (_as_element(x, "power_relation") for x in (h, x1, x2))
    if x1.is_zero() or x2.is_zero():
        raise ZeroElement("eigenvectors must be nonzero")
    lams = [_ratio(bracket(h, x), x) for x in (x1, x2)]
    if any(lam is None for lam in lams):
        raise PreconditionFailed("input is not an ad-eigenvector of h")
    for lam in lams:
        if not lam.is_integer():
            raise PreconditionFailed(f"eigenvalue {lam} is not a rational integer")
    if not bracket(x1, x2).is_zero():
        raise PreconditionFailed("the two eigenvectors do not commute")
    n1, n2 = (int(lam.re) for lam in lams)
    if n1 * n2 <= 0:
        raise PreconditionFailed("eigenvalues must be nonzero and of equal sign")
    if (a := _ratio(x1 ** abs(n2), x2 ** abs(n1))) is None:
        raise NoProportionality("the two powers are not proportional")
    return n1, n2, a
