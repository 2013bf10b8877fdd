"""sl(2) triplets in the Weyl algebra and the group actions moving them.

The two basic families are the quadratic triplet (X = -q²/2, Y = p²/2,
H = pq - 1/2) and the one-parameter family X = (b+pq)q, Y = -p, H = 2pq+b,
together with a variant obtained by swapping the roles of the generators.
On top of them:

* the Casimir scalar of a triplet, h²/2 + xy + yx evaluated by multiplying
  its images, an orbit invariant;
* the two-sided group action (α, g)·f = α ∘ f ∘ Ad(g)⁻¹ with the adjoint
  matrices written out over the basis (e₊, e₋, e₀);
* a pointwise isotropy check, for the isotropy morphisms α̂₁ and β̂ of both
  families, which live in morphisms with SL2Element and are re-exported here;
* the exotic triplet, the images of x, y+hx+xh-4x³, h-4x² under f_II(1),
  with a report adjudicating between the two transposed expansions of its H
  that circulate in print;
* a truncated test for the weight ±2 eigenspace pattern D(H, ±2) = X·ℂ[H],
  Y·ℂ[H] characterising the orbit of the one-parameter family.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .dixmier import eigenvectors_truncated
from .elements import (ElementSpan, WeylElement, bracket, format_element,
                       linear_combination, one, p, parse_element, q)
from .errors import NonScalarCasimir, NotInvertible, RelationFailed
from .morphisms import SL2Element, WeylMorphism, alpha1_hat, beta_hat
from .scalars import Scalar

__all__ = [
    "Sl2Realization", "SL2Element", "ExoticReport", "S11Side", "S11Report",
    "triplet_check", "f_I", "f_II", "f_II_variant", "casimir", "group_act",
    "alpha1_hat", "beta_hat", "isotropy_check", "exotic_g", "exotic_report",
    "s11_test",
]


class Sl2Realization(NamedTuple):
    """Images of e₊, e₋, e₀ forming a triplet: checked by triplet_check for outside
    input, true by construction in f_I, f_II, f_II_variant, exotic_g, group_act."""

    X: WeylElement
    Y: WeylElement
    H: WeylElement


def triplet_check(X: WeylElement, Y: WeylElement, H: WeylElement) -> Sl2Realization:
    """Verify [H,X] = 2X, [H,Y] = -2Y, [X,Y] = H exactly."""
    if X.is_zero() or Y.is_zero() or H.is_zero():
        raise RelationFailed("triplet members must be nonzero")
    if bracket(H, X) != X.scale(2):
        raise RelationFailed("[H,X] = 2X")
    if bracket(H, Y) != Y.scale(-2):
        raise RelationFailed("[H,Y] = -2Y")
    if bracket(X, Y) != H:
        raise RelationFailed("[X,Y] = H")
    return Sl2Realization(X, Y, H)


def f_I() -> Sl2Realization:
    """The quadratic triplet: X = -q²/2, Y = p²/2, H = pq - 1/2."""
    return Sl2Realization((q * q).scale(Fraction(-1, 2)),
                          (p * p).scale(Fraction(1, 2)),
                          p * q - one.scale(Fraction(1, 2)))


def f_II(b) -> Sl2Realization:
    """The one-parameter family: X = (b+pq)q, Y = -p, H = 2pq + b."""
    return Sl2Realization((one.scale(b) + p * q) * q, -p,
                          (p * q).scale(2) + one.scale(b))


def f_II_variant(b) -> Sl2Realization:
    """The swapped variant: X = -q, Y = p(b+pq), H = 2pq + b."""
    return Sl2Realization(-q, p * (one.scale(b) + p * q),
                          (p * q).scale(2) + one.scale(b))


def casimir(r: Sl2Realization) -> Scalar:
    """The scalar the Casimir h²/2 + xy + yx maps to, an orbit invariant; all
    three products are formed, since H²/2 + H + 2YX equals it only where the
    relations hold, and the check below is for inputs where they do not."""
    v = linear_combination(((Fraction(1, 2), r.H * r.H), (1, r.X * r.Y), (1, r.Y * r.X)))
    if not v.is_scalar():
        raise NonScalarCasimir(
            "the Casimir image is not scalar; the input is not a triplet")
    return v.constant_term()


# -- the adjoint action --------------------------------------------------------------


def _ad_rows(g: SL2Element) -> list[tuple[Scalar, Scalar, Scalar]]:
    """Coefficients of Ad(g)(e₊), Ad(g)(e₋), Ad(g)(e₀) over (e₊, e₋, e₀)."""
    a1, a2, a3, a4 = g.a1, g.a2, g.a3, g.a4
    return [
        (a1 * a1, -(a3 * a3), -(a1 * a3)),
        (-(a2 * a2), a4 * a4, a2 * a4),
        (a1 * a2 * Scalar(-2), a3 * a4 * Scalar(2), a1 * a4 + a2 * a3),
    ]


def group_act(alpha: WeylMorphism, g: SL2Element, r: Sl2Realization) -> Sl2Realization:
    """(α, g)·f = α ∘ f ∘ Ad(g)⁻¹, a triplet with no re-check: Ad(g)⁻¹ is an
    automorphism of sl(2), and α, an endomorphism of the simple algebra A₁,
    is injective and preserves brackets."""
    if alpha.inverse is None:
        raise NotInvertible("the action needs an invertible substitution")
    return Sl2Realization(*(alpha(r.X.scale(cx) + r.Y.scale(cy) + r.H.scale(ch))
                            for cx, cy, ch in _ad_rows(g.inverse())))


def isotropy_check(r: Sl2Realization, alpha: WeylMorphism, g: SL2Element) -> bool:
    """True iff (α, g) fixes the triplet componentwise."""
    acted = group_act(alpha, g, r)
    return acted.X == r.X and acted.Y == r.Y and acted.H == r.H


# -- the exotic triplet --------------------------------------------------------------


def exotic_g() -> Sl2Realization:
    """The substituted triplet f_II(1) ∘ (x, y+hx+xh-4x³, h-4x²); the
    substitution keeps the sl(2) relations in U(sl(2)), so it is a triplet."""
    x, y, h = f_II(1)
    xx = x * x
    return Sl2Realization(x, linear_combination(((1, y), (1, h * x), (1, x * h), (-4, xx * x))),
                          linear_combination(((1, h), (-4, xx))))


class ExoticReport(NamedTuple):
    """Computed exotic triplet versus the printed closed forms.

    The X and Y expansions have a single printed form each; H circulates
    in two transposed variants, and exactly one of them should match the
    computed product — which one is recorded here.
    """

    realization: Sl2Realization
    x_matches: bool
    y_matches: bool
    h_candidates: tuple[WeylElement, WeylElement]
    h_matches: tuple[bool, bool]


def exotic_report() -> ExoticReport:
    r = exotic_g()
    x_ref = parse_element("q + p*q^2")
    y_ref = parse_element("-p + 4*p^2*q^3 - 4*p^3*q^6 + 12*p^2*q^5")
    h_a = parse_element("2*p*q - 4*p^2*q^4 + 1")
    h_b = parse_element("2*p*q + 1 - 4*p^4*q^2")
    return ExoticReport(r, r.X == x_ref, r.Y == y_ref, (h_a, h_b),
                        (r.H == h_a, r.H == h_b))


# -- the weight ±2 pattern -----------------------------------------------------------


class S11Side(NamedTuple):
    matches: bool
    eigen_dim: int
    pattern_dim: int
    witness: Optional[WeylElement]


class S11Report(NamedTuple):
    plus: S11Side
    minus: S11Side

    @property
    def in_pattern(self) -> bool:
        return self.plus.matches and self.minus.matches


def _pattern_span(factor: WeylElement, h: WeylElement, max_degree: int) -> list[WeylElement]:
    out = []
    t = factor
    while t.degree() <= max_degree:
        out.append(t)
        t = t * h
    return out


def _compare_side(h: WeylElement, lam: int, factor: WeylElement,
                  max_degree: int) -> S11Side:
    eig = eigenvectors_truncated(h, lam, max_degree)
    pattern = _pattern_span(factor, h, max_degree)
    eig_span = ElementSpan(eig)
    pat_span = ElementSpan(pattern)
    witness = next((v for v in eig if not pat_span.contains(v)), None)
    if witness is None:
        witness = next((v for v in pattern if not eig_span.contains(v)), None)
    return S11Side(witness is None, eig_span.dim, pat_span.dim, witness)


def s11_test(r: Sl2Realization, max_degree: int) -> S11Report:
    """Compare the truncated ±2 eigenspaces of ad(H) against X·ℂ[H], Y·ℂ[H].

    Equality up to the truncation degree is pattern evidence, not proof;
    a witness element is returned for whichever side fails.
    """
    return S11Report(_compare_side(r.H, 2, r.X, max_degree),
                     _compare_side(r.H, -2, r.Y, max_degree))
