"""Endomorphisms and automorphisms of the Weyl algebra.

A morphism is determined by where p and q go, provided the images keep the
canonical commutation relation [P, Q] = 1; application then expands each
monomial as P^i Q^j.  `WeylMorphism(P, Q)` checks that relation and builds
an endomorphism with no inverse.  Inverses are never *computed* from forward
images (deciding invertibility of an arbitrary endomorphism is exactly the
open Dixmier problem): an automorphism, carrying the images of p and q under
its inverse, comes only from a generator below, whose inverse is known in
closed form, from the two group families, or from `compose` and `invert` of
such.  None of these re-checks the relation or the inverse; the tests pin
each closed form once.  A composite maps its inverse images on the first read
of `inverse`, from its factors' pairs: the orbit action only asks if it has one.

One pass maps a batch of elements (`compose`'s two images, a composite's two
inverse images, a triplet in `sl2orbits.group_act`), forming each power of P
and Q and each P^i·Q^j once for all of them.  A scalar maps to itself: morphisms
are unital.

Implemented generators: the triangular automorphisms fixing p (resp. q),
weight scaling, ad-exponentials of locally nilpotent elements, the
unimodular linear substitutions α̂₁(g) of an SL2Element g with their
translation part, the isotropy substitutions β̂(g) of lower-triangular g,
and the two explicit solvable automorphism-group families in exponential
coordinates (the unit s plays e^v, which quotients away their discrete
kernels).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .elements import (WeylElement, _as_element, _sum, bracket, format_element,
                       linear_combination, one, p, q)
from .errors import (BadParams, IndexMismatch, NotInBorel, NotInvertible,
                     NotLocallyNilpotent, NotUnimodular, PreconditionFailed,
                     SizeMismatch, ZeroScale, _check_count)
from .scalars import ONE, Scalar, _ScalarScanner, as_scalar

__all__ = [
    "WeylMorphism", "identity_morphism", "phi", "phi_prime", "scale",
    "translation", "SL2Element", "alpha1_hat", "beta_hat", "sl2_semidirect_aut",
    "compose", "invert", "exp_ad",
    "RGroupElement", "r_group_identity", "r_group_mul", "r_group_inv", "r_to_aut",
    "LTildeGroupElement", "ltilde_group_identity", "ltilde_group_mul",
    "ltilde_group_inv", "ltilde_to_aut",
    "parse_morphism",
]


def _apply_images(image_p: WeylElement, image_q: WeylElement,
                  xs: Sequence[WeylElement]) -> list[WeylElement]:
    """The images of xs under p ↦ image_p, q ↦ image_q, in one pass: the powers
    of P and Q up to the largest exponents in xs, one P^i·Q^j per distinct
    monomial of xs, then each image as one sum over that element's numerators."""
    monomials = {m for x in xs for m in x.num}
    max_i = max((i for i, _ in monomials), default=0)
    max_j = max((j for _, j in monomials), default=0)
    powers_p = [one, image_p]
    for _ in range(max_i - 1):
        powers_p.append(powers_p[-1] * image_p)
    powers_q = [one, image_q]
    for _ in range(max_j - 1):
        powers_q.append(powers_q[-1] * image_q)
    images = {(i, j): powers_p[i] * powers_q[j] if i and j else powers_p[i] if i else powers_q[j]
              for i, j in monomials}
    return [_sum([(a, b, x.den, images[m]) for m, (a, b) in x.num.items()]) for x in xs]


class _Value:
    """Equality, hashing and the text `Name(field!r, …)`, read off the fields
    (by default the `__slots__`); values of different types never compare equal."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"


class WeylMorphism(_Value):
    """An algebra endomorphism given by the images of p and q.

    `WeylMorphism(P, Q)` checks [P, Q] = 1 and carries no inverse.
    `inverse`, on an automorphism from the generators, `compose` or
    `invert`, is the pair (image of p, image of q) under the inverse.  The slot
    ``_inverse`` holds it, None, or, for a composite m1 ∘ m2 not yet read, the
    list [*m2⁻¹, m1⁻¹] of the arguments of ``_apply_images`` that map it.
    """

    __slots__ = ("image_p", "image_q", "_inverse")

    def __init__(self, image_p: WeylElement, image_q: WeylElement):
        image_p, image_q = (_as_element(x, "WeylMorphism") for x in (image_p, image_q))
        if bracket(image_p, image_q) != one:
            raise PreconditionFailed(
                "images do not satisfy the canonical commutation relation [P, Q] = 1")
        self.image_p = image_p
        self.image_q = image_q
        self._inverse = None

    @property
    def inverse(self) -> Optional[tuple[WeylElement, WeylElement]]:
        """The inverse pair or None; a composite maps it on the first read and keeps it."""
        if type(self._inverse) is list:
            self._inverse = tuple(_apply_images(*self._inverse))
        return self._inverse

    def __call__(self, x) -> WeylElement:
        """The image of x; a scalar maps to itself, since a morphism is unital."""
        return _apply_images(self.image_p, self.image_q, (_as_element(x, "a morphism"),))[0]

    def is_identity(self) -> bool:
        return self.image_p == p and self.image_q == q

    def _fields(self) -> tuple:
        return self.image_p, self.image_q

    def __repr__(self):
        return f"<WeylMorphism p -> {format_element(self.image_p)}, q -> {format_element(self.image_q)}>"


def _mk(image_p: WeylElement, image_q: WeylElement, inverse: Optional[Sequence]) -> WeylMorphism:
    """A morphism whose images are known to keep [P, Q] = 1 and whose
    inverse, if given (as ``_inverse`` holds it), is known to be right; skips __init__."""
    m = object.__new__(WeylMorphism)
    m.image_p = image_p
    m.image_q = image_q
    m._inverse = inverse
    return m


def identity_morphism() -> WeylMorphism:
    return _mk(p, q, (p, q))


def compose(m1: WeylMorphism, m2: WeylMorphism) -> WeylMorphism:
    """The morphism applying m2 first, then m1; invertible if both are.

    m1 maps m2's two images in one batch, and m2⁻¹ maps m1⁻¹'s on the first read of
    the inverse; the factors' inverses are read here, so no deferral nests."""
    both = m1._inverse is not None and m2._inverse is not None
    return _mk(*_apply_images(m1.image_p, m1.image_q, (m2.image_p, m2.image_q)),
               [*m2.inverse, m1.inverse] if both else None)


def invert(m: WeylMorphism) -> WeylMorphism:
    if m.inverse is None:
        raise NotInvertible("morphism carries no inverse images")
    return _mk(*m.inverse, (m.image_p, m.image_q))


def phi(n: int, lam) -> WeylMorphism:
    """The automorphism fixing p with q ↦ q + λpⁿ; inverse has -λ."""
    _check_count(n, 0, "exponent must be a natural number")
    pn = WeylElement.monomial(n, 0).scale(lam)
    return _mk(p, q + pn, (p, q - pn))


def phi_prime(n: int, lam) -> WeylMorphism:
    """The automorphism fixing q with p ↦ p + λqⁿ; inverse has -λ."""
    _check_count(n, 0, "exponent must be a natural number")
    qn = WeylElement.monomial(0, n).scale(lam)
    return _mk(p + qn, q, (p - qn, q))


def scale(u) -> WeylMorphism:
    """p ↦ u⁻¹p, q ↦ uq; multiplies a monomial p^i q^j by u^{j-i}."""
    u = as_scalar(u)
    if not u:
        raise ZeroScale("scaling unit must be nonzero")
    v = u.inverse()
    return _mk(p.scale(v), q.scale(u), (p.scale(u), q.scale(v)))


def translation(b1, b2) -> WeylMorphism:
    """p ↦ p - b₁, q ↦ q + b₂ — the ad-exponential of b₁q + b₂p."""
    c1, c2 = one.scale(b1), one.scale(b2)
    return _mk(p - c1, q + c2, (p + c1, q - c2))


class SL2Element(_Value):
    """A unimodular 2×2 matrix of scalars, rows (a₁, a₂) and (a₃, a₄)."""

    __slots__ = ("a1", "a2", "a3", "a4")

    def __init__(self, a1, a2, a3, a4):
        self.a1, self.a2, self.a3, self.a4 = (as_scalar(v) for v in (a1, a2, a3, a4))
        if self.a1 * self.a4 - self.a2 * self.a3 != ONE:
            raise NotUnimodular("matrix must have determinant 1")

    @staticmethod
    def identity() -> "SL2Element":
        return SL2Element(1, 0, 0, 1)

    def inverse(self) -> "SL2Element":
        return _sl2(self.a4, -self.a2, -self.a3, self.a1)

    def __neg__(self) -> "SL2Element":
        return _sl2(-self.a1, -self.a2, -self.a3, -self.a4)

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        if not isinstance(other, SL2Element):
            return NotImplemented
        return _sl2(self.a1 * other.a1 + self.a2 * other.a3,
                    self.a1 * other.a2 + self.a2 * other.a4,
                    self.a3 * other.a1 + self.a4 * other.a3,
                    self.a3 * other.a2 + self.a4 * other.a4)


def _sl2(a1: Scalar, a2: Scalar, a3: Scalar, a4: Scalar) -> SL2Element:
    """An SL2Element on entries known to have determinant one; skips __init__."""
    g = object.__new__(SL2Element)
    g.a1, g.a2, g.a3, g.a4 = a1, a2, a3, a4
    return g


def alpha1_hat(g: SL2Element) -> WeylMorphism:
    """The linear substitution p ↦ a₂q + a₄p, q ↦ a₁q + a₃p, which
    intertwines the quadratic triplet with Ad(g)."""
    a1, a2, a3, a4 = g.a1, g.a2, g.a3, g.a4
    return _mk(q.scale(a2) + p.scale(a4), q.scale(a1) + p.scale(a3),
               (q.scale(-a2) + p.scale(a1), q.scale(a4) + p.scale(-a3)))


def beta_hat(g: SL2Element) -> WeylMorphism:
    """p ↦ p/a₁², q ↦ a₁²q - a₁a₃ for lower-triangular g: the isotropy
    substitution of f_II."""
    if g.a2:
        raise NotInBorel("the matrix must be lower triangular")
    return compose(translation(0, -g.a3 / g.a1), scale(g.a1 * g.a1))


def sl2_semidirect_aut(g: SL2Element, b: Sequence) -> WeylMorphism:
    """The automorphism α̂₁(g)∘translation(b₁, b₂) of the unimodular-affine family."""
    return compose(alpha1_hat(g), translation(b[0], b[1]))


def exp_ad(z: WeylElement, x: WeylElement, max_iter: int = 64) -> WeylElement:
    """Σ ad(z)^k(x)/k!, summed until the iterated bracket vanishes.

    Division by k! is exact; if no power of ad(z) kills x within max_iter
    steps the element is reported as (locally) non-nilpotent on x.
    """
    _check_count(max_iter, 1, "the iteration budget must be at least 1, got {!r}")
    z, x = (_as_element(y, "exp_ad") for y in (z, x))
    terms = [x]
    for k in range(1, max_iter + 1):
        term = bracket(z, terms[-1]) / k
        if term.is_zero():
            return linear_combination((ONE, t) for t in terms)
        terms.append(term)
    raise NotLocallyNilpotent(format_element(z), max_iter)


# -- the solvable automorphism group families, in exponential coordinates -----


class _GroupPoint(_Value):
    """A point of a solvable family, read in one order: its a-coordinates, once,
    before any check (so an iterator is checked as stored), its own parameter, then s."""

    __slots__ = ()

    def __init__(self, a: Iterable, s, param):
        if not isinstance(a, Iterable):
            raise BadParams(f"the a-coordinates are an iterable of scalars, got {a!r}")
        self.a = tuple(map(as_scalar, a))
        self._read(param)
        self.s = as_scalar(s)
        if not self.s:
            raise ZeroScale("exponential coordinate must be a unit")


def _check_family(cls: type, *points) -> None:
    """BadParams unless each point is a cls: a product stays within one family."""
    for x in points:
        if not isinstance(x, cls):
            raise BadParams(f"{cls.__name__} products take {cls.__name__}s, "
                            f"not {type(x).__name__}")


class RGroupElement(_GroupPoint):
    """A point (a₁,…,a_n, s) of the diagonal-times-unipotent family.

    The indices i₁<…<i_n are fixed positive integers attached to the group;
    s is the exponential coordinate (a unit standing for e^v).
    """

    __slots__ = ("indices", "a", "s")

    def __init__(self, indices: Sequence[int], a: Iterable, s):
        super().__init__(a, s, indices)

    def _read(self, indices: Sequence[int]) -> None:
        idx = tuple(indices)
        for i in idx:
            _check_count(i, 1, "indices must be positive integers")
        if any(x >= y for x, y in zip(idx, idx[1:])):
            raise BadParams("indices must be strictly increasing")
        if len(self.a) != len(idx):
            raise IndexMismatch("one coordinate per index required")
        self.indices = idx

    def __mul__(self, other):
        if not isinstance(other, RGroupElement):
            return NotImplemented
        return r_group_mul(self, other)


def r_group_identity(indices: Sequence[int]) -> RGroupElement:
    return RGroupElement(indices, [Scalar(0)] * len(tuple(indices)), ONE)


def r_group_mul(g: RGroupElement, h: RGroupElement) -> RGroupElement:
    _check_family(RGroupElement, g, h)
    if g.indices != h.indices:
        raise IndexMismatch("group elements carry different index lists")
    a = [ga + ha * g.s ** (-ik) for ga, ha, ik in zip(g.a, h.a, g.indices)]
    return RGroupElement(g.indices, a, g.s * h.s)


def r_group_inv(g: RGroupElement) -> RGroupElement:
    a = [-ga * g.s ** ik for ga, ik in zip(g.a, g.indices)]
    return RGroupElement(g.indices, a, g.s.inverse())


def _r_images(g: RGroupElement) -> tuple[WeylElement, WeylElement]:
    shift = linear_combination((ak / math.factorial(ik - 1), WeylElement.monomial(ik - 1, 0))
                               for ak, ik in zip(g.a, g.indices))
    return p.scale(g.s.inverse()), (q + shift).scale(g.s)


def r_to_aut(g: RGroupElement) -> WeylMorphism:
    """p ↦ s⁻¹p, q ↦ s(q + Σ a_k/(i_k-1)!·p^{i_k-1}); a group homomorphism."""
    return _mk(*_r_images(g), _r_images(r_group_inv(g)))


class LTildeGroupElement(_GroupPoint):
    """A point (a₁,…,a_n, t, s) of the extended family, s the unit for e^v."""

    __slots__ = ("a", "t", "s")

    def __init__(self, a: Iterable, t, s):
        super().__init__(a, s, t)

    def _read(self, t) -> None:
        if not self.a:
            raise BadParams("at least one a-coordinate required")
        self.t = as_scalar(t)

    def __mul__(self, other):
        if not isinstance(other, LTildeGroupElement):
            return NotImplemented
        return ltilde_group_mul(self, other)


def ltilde_group_identity(n: int) -> LTildeGroupElement:
    return LTildeGroupElement([Scalar(0)] * n, Scalar(0), ONE)


def ltilde_group_mul(g: LTildeGroupElement, h: LTildeGroupElement) -> LTildeGroupElement:
    _check_family(LTildeGroupElement, g, h)
    if len(g.a) != len(h.a):
        raise SizeMismatch("group elements have different sizes")
    n = len(g.a)
    a = []
    for k in range(1, n + 1):
        total = g.a[k - 1] * h.s ** (n - k) + h.a[k - 1]
        for j in range(1, k):
            total = total + (g.t ** (k - j) / math.factorial(k - j)) * h.a[j - 1] * h.s ** (-(k - j))
        a.append(total)
    return LTildeGroupElement(a, h.t + g.t * h.s.inverse(), g.s * h.s)


def ltilde_group_inv(g: LTildeGroupElement) -> LTildeGroupElement:
    n = len(g.a)
    s_inv = g.s.inverse()
    a: list[Scalar] = []
    for k in range(1, n + 1):
        total = -g.a[k - 1] * s_inv ** (n - k)
        for j in range(1, k):
            total = total - (g.t ** (k - j) / math.factorial(k - j)) * a[j - 1] * g.s ** (k - j)
        a.append(total)
    return LTildeGroupElement(a, -g.t * g.s, s_inv)


def _ltilde_images(g: LTildeGroupElement) -> tuple[WeylElement, WeylElement]:
    n = len(g.a)
    shift = linear_combination((g.a[k - 1] * g.s ** (k - n) / math.factorial(n - k - 1),
                                WeylElement.monomial(n - k - 1, 0)) for k in range(1, n))
    return p.scale(g.s.inverse()) + one.scale(g.t), (q + shift).scale(g.s)


def ltilde_to_aut(g: LTildeGroupElement) -> WeylMorphism:
    """p ↦ s⁻¹p + t, q ↦ s(q + Σ_{k<n} a_k s^{k-n}/(n-k-1)!·p^{n-k-1}).

    The last coordinate a_n acts trivially — it spans the connected part of
    the kernel, so the map factors through the quotient as expected.
    """
    return _mk(*_ltilde_images(g), _ltilde_images(ltilde_group_inv(g)))


# -- morphism literals ---------------------------------------------------------
#
#   chain := call (';' call)*          applied left to right
#
# with the calls of scalars.py named id, phi, phiP, scale, translate, alpha1
# and beta.  "phi(2,1); scale(i)" means: apply phi(2,1) first, then scale(i).


def _exponent(n: Scalar):
    """The int an integer literal spells; any other scalar goes on for phi to refuse."""
    return n.a if n.is_integer() else n


_LITERALS = {
    "id": (0, identity_morphism),
    "phi": (2, lambda n, lam: phi(_exponent(n), lam)),
    "phiP": (2, lambda n, lam: phi_prime(_exponent(n), lam)),
    "scale": (1, scale),
    "translate": (2, translation),
    "alpha1": (4, lambda *a: alpha1_hat(SL2Element(*a))),
    # a1 = 0 leaves a matrix of determinant 0, which SL2Element refuses
    "beta": (2, lambda a1, a3: beta_hat(SL2Element(a1, 0, a3, a1 and a1.inverse()))),
}


def parse_morphism(text: str) -> WeylMorphism:
    """Parse a ';'-chain of named generators, composed left to right."""
    sc = _ScalarScanner(text)
    total = sc.take_call(_LITERALS, "morphism")
    while sc.peek() == ";":
        sc.pos += 1
        total = compose(sc.take_call(_LITERALS, "morphism"), total)
    sc.end("morphism")
    return total
