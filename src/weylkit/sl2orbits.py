"""sl(2) triplets in the Weyl algebra and the group actions moving them.

A triplet is an Sl2Realization, which checks the relations where outside input
builds it, so every function here trusts its members.  The two basic families are
the quadratic triplet (X = -q²/2, Y = p²/2, H = pq - 1/2) and the one-parameter
family X = (b+pq)q, Y = -p, H = 2pq+b, together with a variant obtained by
swapping the roles of the generators.  On top of them:

* the Casimir scalar of a triplet, h²/2 + xy + yx evaluated on its images as
  one sum of H·H and the anticommutator XY + YX, an orbit invariant;
* the two-sided group action (α, g)·f = α ∘ f ∘ Ad(g)⁻¹ with the adjoint
  matrices written out over the basis (e₊, e₋, e₀);
* a pointwise isotropy check, for the isotropy morphisms α̂₁ and β̂ of both
  families, which live in morphisms with SL2Element and are re-exported here:
  the module ``__getattr__`` reads each of the three names from morphisms on
  its first access and binds it here, so ``from weylkit.sl2orbits import
  SL2Element`` works while a command that never touches a morphism does not
  load that module;
* the exotic triplet, the images of x, y+hx+xh-4x³, h-4x² under f_II(1),
  with a report adjudicating between the two transposed expansions of its H
  that circulate in print;
* a truncated test for the weight ±2 eigenspace pattern D(H, ±2) = X·ℂ[H],
  Y·ℂ[H] characterising the orbit of the one-parameter family.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .elements import (ElementSpan, WeylElement, _accumulate, _as_element, _coded, _decoded,
                       anticommutator, bracket, linear_combination, one, p, parse_element, q)
from .errors import NonScalarCasimir, NotInvertible, RelationFailed
from .scalars import Scalar

if TYPE_CHECKING:
    from .morphisms import SL2Element, WeylMorphism

__all__ = [
    "Sl2Realization", "SL2Element", "ExoticReport", "S11Side", "S11Report", "f_I",
    "f_II", "f_II_variant", "casimir", "group_act", "alpha1_hat", "beta_hat",
    "isotropy_check", "exotic_g", "exotic_report", "s11_test",
]


def __getattr__(name: str):
    """The re-exports of morphisms, read from it and bound here on first access."""
    if name not in ("SL2Element", "alpha1_hat", "beta_hat"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import weylkit.morphisms as morphisms
    value = globals()[name] = getattr(morphisms, name)
    return value


class Sl2Realization(NamedTuple("_Triplet", [("X", WeylElement), ("Y", WeylElement),
                                               ("H", WeylElement)])):
    """Images of e₊, e₋, e₀ forming a triplet, checked by the constructor: each member
    read as an element (a scalar as its constant), nonzero, the three relations exact.
    _sl2, _make and _replace skip the check, the last since the benchmark selftest builds
    a wrong triplet by _replace; copy and pickle re-run it."""

    __slots__ = ()

    def __new__(cls, X: WeylElement, Y: WeylElement, H: WeylElement):
        X, Y, H = (_as_element(v, "Sl2Realization") for v in (X, Y, H))
        if X.is_zero() or Y.is_zero() or H.is_zero():
            raise RelationFailed("triplet members must be nonzero")
        for a, b, rhs, message in ((H, X, X.scale(2), "[H,X] = 2X"),
                                   (H, Y, Y.scale(-2), "[H,Y] = -2Y"), (X, Y, H, "[X,Y] = H")):
            if bracket(a, b) != rhs:
                raise RelationFailed(message)
        return _sl2(X, Y, H)


def _sl2(X: WeylElement, Y: WeylElement, H: WeylElement) -> Sl2Realization:
    """A triplet the library built, true by construction: skips __new__."""
    return tuple.__new__(Sl2Realization, (X, Y, H))


def f_I() -> Sl2Realization:
    """The quadratic triplet: X = -q²/2, Y = p²/2, H = pq - 1/2."""
    return _sl2((q * q).scale(Fraction(-1, 2)),
                (p * p).scale(Fraction(1, 2)),
                p * q - one.scale(Fraction(1, 2)))


def f_II(b) -> Sl2Realization:
    """The one-parameter family: X = (b+pq)q, Y = -p, H = 2pq + b."""
    return _sl2((one.scale(b) + p * q) * q, -p,
                (p * q).scale(2) + one.scale(b))


def f_II_variant(b) -> Sl2Realization:
    """The swapped variant: X = -q, Y = p(b+pq), H = 2pq + b."""
    return _sl2(-q, p * (one.scale(b) + p * q),
                (p * q).scale(2) + one.scale(b))


def casimir(r: Sl2Realization) -> Scalar:
    """The scalar the Casimir h²/2 + xy + yx maps to, an orbit invariant.

    H·H/2 and XY + YX (an anticommutator, = X·Y + Y·X for any X, Y) go into one
    cell map over 2·D_H²·D_X·D_Y; the shortcut H²/2 + H + 2YX equals the Casimir
    only where the relations hold, and the check below is for triplets built past the
    constructor by _make or _replace, where they may not."""
    X, Y, H = r
    den = 2 * H.den * H.den * X.den * Y.den
    # cells coded as in the product kernel, w past every q-exponent of H·H and X·Y
    w = 1 + 2 * max((j for v in (X, Y, H) for _, j in v.num), default=0)
    acc: dict = {}
    for x, y, sign, f in ((H, H, 0, X.den * Y.den), (X, Y, 1, 2 * H.den * H.den)):
        xs = [(i, j, c, f * re, f * im) for i, j, c, re, im in _coded(x.num, w, 1)]
        _accumulate(acc, xs, _coded(y.num, w, 1), sign, w + 1)
    v = _decoded(acc, w, den)
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
    is injective and preserves brackets.

    α is linear, α(Σ c·r) = Σ c·α(r), so it maps X, Y and H in one batch and
    the Ad(g)⁻¹ combinations are taken of their images."""
    if alpha._inverse is None:  # the slot, so that a composite's inverse is not built
        raise NotInvertible("the action needs an invertible substitution")
    import weylkit.morphisms as morphisms  # loaded on call, as in ElementSpan
    X, Y, H = morphisms._apply_images(alpha.image_p, alpha.image_q, r)
    return _sl2(*(linear_combination(((cx, X), (cy, Y), (ch, H)))
                  for cx, cy, ch in _ad_rows(g.inverse())))


def isotropy_check(r: Sl2Realization, alpha: WeylMorphism, g: SL2Element) -> bool:
    """True iff (α, g) fixes the triplet, the moved members equal to r's one by one."""
    return group_act(alpha, g, r) == r


# -- the exotic triplet --------------------------------------------------------------


def exotic_g() -> Sl2Realization:
    """The substituted triplet f_II(1) ∘ (x, y+hx+xh-4x³, h-4x²); the
    substitution keeps the sl(2) relations in U(sl(2)), so it is a triplet."""
    x, y, h = f_II(1)
    xx = x * x
    y = linear_combination(((1, y), (1, anticommutator(h, x)), (-4, xx * x)))
    return _sl2(x, y, linear_combination(((1, h), (-4, xx))))


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
    """factor·h^k up to max_degree; a scalar h raises no degree, so it gives [factor]."""
    out, t = [], factor
    while 0 <= t.degree() <= max_degree:
        out.append(t)
        t = t * h
        if t.degree() <= out[-1].degree():
            break
    return out


def _compare_side(h: WeylElement, lam: int, factor: WeylElement,
                  max_degree: int) -> S11Side:
    import weylkit.dixmier as dixmier  # loaded on call, as in ElementSpan
    eig = dixmier.eigenvectors_truncated(h, lam, max_degree)
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
