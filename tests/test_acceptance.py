"""End-to-end acceptance checks, one per headline guarantee of the library.

Every check works at exact arithmetic — "close enough" never passes — and
draws any randomness from a fixed seed so reruns are byte-identical.  Each
check prints a single PASS line with its headline once its assertions have
all gone through; a failure surfaces as an ordinary assertion error naming
the offending case.
"""

from __future__ import annotations

import random
from fractions import Fraction

from weylkit.dixmier import (classify_low_degree, eigenvectors_truncated, f_test,
                             power_relation)
from weylkit.elements import WeylElement, bracket, format_element, p, q, zero
from weylkit.errors import DimensionExceeded
from weylkit.liestruct import (CatalogTag, catalog, filiform_normal_basis,
                               invariants, lie_closure, normalize_tag, recognize)
from weylkit.morphisms import (LTildeGroupElement, RGroupElement, compose, exp_ad,
                               ltilde_group_mul, ltilde_to_aut, phi, phi_prime,
                               r_group_mul, r_to_aut, scale, translation)
from weylkit.scalars import ONE, ZERO, Scalar
from weylkit.sl2orbits import (SL2Element, Sl2Realization, alpha1_hat, beta_hat, casimir,
                               exotic_g, exotic_report, f_I, f_II, f_II_variant,
                               isotropy_check, s11_test)

from .oracles import swap_product


def _passed(number: int, headline: str) -> None:
    print(f"acceptance {number:02d} PASS  {headline}")


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def _gaussian(rng: random.Random) -> Scalar:
    return Scalar(_fraction(rng), _fraction(rng))


def _nonzero(rng: random.Random) -> Scalar:
    while True:
        s = _gaussian(rng)
        if s:
            return s


def _tame_morphism(rng: random.Random, length: int = 3, with_scale: bool = False):
    """A random composition of triangular generators (optionally scalings)."""
    makers = [phi, phi_prime] + ([scale] if with_scale else [])
    out = None
    for _ in range(length):
        maker = rng.choice(makers)
        m = maker(_nonzero(rng)) if maker is scale else maker(rng.choice([1, 2]),
                                                              _nonzero(rng))
        out = m if out is None else compose(m, out)
    return out


def _unimodular(rng: random.Random) -> SL2Element:
    a1 = _nonzero(rng)
    a2, a3 = _gaussian(rng), _gaussian(rng)
    return SL2Element(a1, a2, a3, (ONE + a2 * a3) / a1)


def _borel(rng: random.Random) -> SL2Element:
    a1 = _nonzero(rng)
    return SL2Element(a1, ZERO, _gaussian(rng), a1.inverse())


# -- 1: products agree with an independent rewriting oracle --------------------------


def test_a01_products_match_the_rewriting_oracle():
    for i in range(7):
        for j in range(7):
            for k in range(7):
                for l in range(7):
                    x, y = WeylElement.monomial(i, j), WeylElement.monomial(k, l)
                    assert x * y == swap_product(i, j, k, l), (i, j, k, l)
                    assert bracket(x, y) == (swap_product(i, j, k, l)
                                             - swap_product(k, l, i, j)), (i, j, k, l)
    _passed(1, "2401 monomial products and brackets equal the single-swap rewriting oracle")


# -- 2: the standard triplets satisfy the defining relations -------------------------


def test_a02_standard_triplets_satisfy_the_relations():
    triplets = [f_I(), f_II(0), f_II(1), f_II(-3), f_II(Fraction(5, 2)),
                f_II(Scalar(0, 1)), f_II_variant(1), exotic_g()]
    for r in triplets:
        checked = Sl2Realization(r.X, r.Y, r.H)
        assert checked == r
    _passed(2, f"{len(triplets)} triplets pass the bracket relations exactly")


# -- 3: the Casimir closed form and its automorphism invariance ----------------------


def test_a03_casimir_closed_form_and_invariance():
    rng = random.Random(3)
    half = Scalar(Fraction(1, 2))
    bs = [Scalar(_fraction(rng)) for _ in range(10)] + [_gaussian(rng) for _ in range(10)]
    for b in bs:
        assert casimir(f_II(b)) == b * (half * b + ONE), b
    for k in range(10):
        base = f_II(bs[k])
        m = _tame_morphism(rng, length=rng.randint(1, 3), with_scale=True)
        moved = Sl2Realization(m(base.X), m(base.Y), m(base.H))
        assert casimir(moved) == casimir(base), bs[k]
    _passed(3, "casimir(f_II(b)) = b(b/2+1) on 20 parameters, invariant under 10 maps")


# -- 4: weight spectra — every integer for f_I, only even integers for f_II ----------


def test_a04_weight_spectrum_dichotomy():
    h_one = f_I().H
    for lam in range(-6, 7):
        assert eigenvectors_truncated(h_one, lam, 8), lam
    h_two = f_II(1).H
    for lam in range(-6, 7, 2):
        assert eigenvectors_truncated(h_two, lam, 8), lam
    for lam in (-7, -5, -3, -1, 1, 3, 5, 7):
        assert eigenvectors_truncated(h_two, lam, 8) == [], lam
    _passed(4, "ad-weight spectrum is all integers for f_I, even integers for f_II(1)")


# -- 5: catalog -> conjugate -> closure -> recognize is the identity on tags ---------


def test_a05_catalog_recognition_round_trip_under_conjugation():
    rng = random.Random(5)
    tags = ([CatalogTag("L", n) for n in range(2, 7)]
            + [CatalogTag("LTilde", n) for n in range(2, 7)]
            + [CatalogTag("R", t) for t in [(1,), (1, 3), (2, 4), (0, 1, 3), (1, 2, 5)]]
            + [CatalogTag("Heisenberg3"), CatalogTag("Sl2"), CatalogTag("Sl2xC"),
               CatalogTag("Sl2SemidirectH3")])
    for tag in tags:
        real = catalog(tag).realization
        assert real is not None
        m = _tame_morphism(rng, length=3)
        closed = lie_closure([m(x) for x in real.images])
        assert recognize(closed.algebra) == normalize_tag(tag), str(tag)
    _passed(5, f"{len(tags)} catalog classes recognized after random conjugation")


# -- 6: filiform lower-central profile and normal basis ------------------------------


def test_a06_filiform_profile_and_normal_basis():
    for n in range(2, 7):
        entry = catalog(CatalogTag("L", n))
        inv = invariants(entry.algebra)
        assert inv.lower_central_dims == [n + 1] + list(range(n - 1, -1, -1)), n
        ys = filiform_normal_basis(entry.realization)
        assert len(ys) == n + 1
        for i in range(1, n):
            assert bracket(ys[0], ys[i]) == ys[i + 1], (n, i)
        assert bracket(ys[0], ys[n]).is_zero(), n
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert bracket(ys[i], ys[j]).is_zero(), (n, i, j)
    _passed(6, "L(n), n <= 6: lower-central profile and normal-basis bracket table")


# -- 7: the low-degree classifier against the explicit 2x2 ad-matrix -----------------


def test_a07_low_degree_classifier_against_ad_matrix():
    rng = random.Random(7)
    monomials = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    samples = []
    for _ in range(100):
        x = zero
        for (i, j) in monomials:
            if rng.random() < 0.5:
                x = x + WeylElement.monomial(i, j).scale(_gaussian(rng))
        samples.append(x)
    for x in samples:
        got = classify_low_degree(x)
        a, b, c = x.coeff(2, 0), x.coeff(1, 1), x.coeff(0, 2)
        det = Scalar(4) * a * c - b * b
        if x.is_scalar():
            assert got.tag == "Scalar"
        else:
            assert got.tag == ("Delta1" if det == ZERO else "Delta3"), format_element(x)
            assert got.certificate["det"] == det
    moved = 0
    for x in samples:
        if x.is_scalar() or moved == 10:
            continue
        aut = alpha1_hat(_unimodular(rng))
        assert classify_low_degree(aut(x)).tag == classify_low_degree(x).tag
        moved += 1
    assert moved == 10
    _passed(7, "100 low-degree classifications match the ad-matrix determinant test")


# -- 8: the orbit-span dichotomy inside the degree-three family ----------------------


def test_a08_orbit_span_dichotomy():
    rng = random.Random(8)
    base = f_II(1)
    for _ in range(10):
        lam = _nonzero(rng)
        z = base.X.scale(lam) + base.Y.scale(_gaussian(rng)) + base.H.scale(_gaussian(rng))
        assert not f_test(z, q, 12).stabilized, lam
    for _ in range(10):
        mu, nu = _gaussian(rng), _gaussian(rng)
        while not mu and not nu:
            mu, nu = _gaussian(rng), _gaussian(rng)
        z = base.Y.scale(mu) + base.H.scale(nu)
        assert f_test(z, q, 12).stabilized, (mu, nu)
    _passed(8, "ad-orbit of q is unbounded iff the X coordinate is nonzero (20 draws)")


# -- 9: forced power relations between commuting eigenvectors ------------------------


def test_a09_power_relation_on_constructed_triples():
    rng = random.Random(9)
    for case in range(10):
        m, n = rng.sample([1, 2, 3], 2)
        t = rng.choice([1, 2])
        letter = q if case % 2 == 0 else p
        sign = 1 if case % 2 == 0 else -1
        c1, c2 = _nonzero(rng), _nonzero(rng)
        h = (p * q).scale(t)
        x1, x2 = (letter ** m).scale(c1), (letter ** n).scale(c2)
        if case >= 5:
            u = _tame_morphism(rng, length=2)
            h, x1, x2 = u(h), u(x1), u(x2)
        lam1, lam2, a = power_relation(h, x1, x2)
        assert (lam1, lam2) == (sign * t * m, sign * t * n)
        assert a == c1 ** (t * n) / c2 ** (t * m)
        assert x1 ** abs(lam2) == (x2 ** abs(lam1)).scale(a)
    _passed(9, "10 constructed eigenvector pairs satisfy X1^|l2| = a X2^|l1| exactly")


# -- 10: group parametrisations are homomorphisms into the automorphisms -------------


def test_a10_group_parametrisations_are_homomorphisms():
    rng = random.Random(10)
    indices = (1, 3)
    for _ in range(25):
        g = RGroupElement(indices, [_gaussian(rng), _gaussian(rng)], _nonzero(rng))
        h = RGroupElement(indices, [_gaussian(rng), _gaussian(rng)], _nonzero(rng))
        lhs = r_to_aut(r_group_mul(g, h))
        rhs = compose(r_to_aut(g), r_to_aut(h))
        assert lhs.image_p == rhs.image_p and lhs.image_q == rhs.image_q
    for _ in range(25):
        g = LTildeGroupElement([_gaussian(rng) for _ in range(3)], _gaussian(rng),
                               _nonzero(rng))
        h = LTildeGroupElement([_gaussian(rng) for _ in range(3)], _gaussian(rng),
                               _nonzero(rng))
        lhs = ltilde_to_aut(ltilde_group_mul(g, h))
        rhs = compose(ltilde_to_aut(g), ltilde_to_aut(h))
        assert lhs.image_p == rhs.image_p and lhs.image_q == rhs.image_q
    for _ in range(10):
        b1, b2 = _gaussian(rng), _gaussian(rng)
        z = q.scale(b1) + p.scale(b2)
        t = translation(b1, b2)
        assert t.image_p == exp_ad(z, p) and t.image_q == exp_ad(z, q)
    _passed(10, "group laws carry to automorphisms (25+25 pairs); shifts exponentiate")


# -- 11: the stabiliser subgroups really stabilise ------------------------------------


def test_a11_isotropy_of_the_stabiliser_subgroups():
    rng = random.Random(11)
    quad = f_I()
    for _ in range(20):
        g = _unimodular(rng)
        assert isotropy_check(quad, alpha1_hat(g), g), g
    for b in (1, -3):
        cubic = f_II(b)
        for _ in range(10):
            g = _borel(rng)
            assert isotropy_check(cubic, beta_hat(g), g), (b, g)
    for _ in range(5):
        g = _borel(rng)
        assert beta_hat(g) == beta_hat(-g)
    _passed(11, "40 stabiliser elements fix their triplets; the Borel map is even")


# -- 12: the substituted triplet against its printed closed forms --------------------


def test_a12_exotic_triplet_matches_its_printed_forms():
    rep = exotic_report()
    assert rep.x_matches and rep.y_matches
    assert sum(rep.h_matches) == 1
    assert rep.h_matches == (True, False)
    other = rep.h_candidates[1]
    _passed(12, "exotic X and Y match; H matches the first printed form "
               f"and differs from the transposed variant ({other!s:.40s}...)")


# -- 13: the weight +2 space is a polynomial multiple of X ---------------------------


def test_a13_weight_two_space_is_polynomial_multiples_of_x():
    rep = s11_test(exotic_g(), 8)
    assert rep.plus.matches
    assert rep.plus.eigen_dim == rep.plus.pattern_dim
    assert rep.in_pattern
    _passed(13, "weight +2 eigenspace equals X times polynomials in H up to degree 8")


# -- 14: the closure census of low-degree monomial pairs -----------------------------


_PAPER_NON_SOLVABLE = {"Sl2", "Sl2xC", "Sl2SemidirectH3"}


def test_a14_closure_census_of_low_degree_monomial_pairs():
    # (x, y) and (x, y + pq) for the distinct monomials of total degree 1-3,
    # listed by degree and then by p-exponent, with x before y
    monos = [WeylElement.monomial(i, d - i) for d in (1, 2, 3) for i in range(d + 1)]
    census: dict[str, int] = {}
    exceeded = 0
    for a, x in enumerate(monos):
        for y in monos[a + 1:]:
            for gens in ([x, y], [x, y + p * q]):
                try:
                    real = lie_closure(gens, max_dim=10)
                except DimensionExceeded:
                    exceeded += 1
                    continue
                tag = recognize(real.algebra)
                assert tag.kind != "Unknown", gens
                if not invariants(real.algebra).solvable:
                    assert tag.kind in _PAPER_NON_SOLVABLE, (gens, tag)
                assert catalog(tag).algebra.dim == real.algebra.dim, (gens, tag)
                census[str(tag)] = census.get(str(tag), 0) + 1
    assert exceeded == 28
    assert census == {"R(1)": 22, "Abelian(2)": 6, "Sl2": 5, "L(3)": 2, "L(4)": 2,
                      "LTilde(2)": 2, "LTilde(3)": 2, "Heisenberg3": 1, "R(0,1)": 1,
                      "Sl2xC": 1}
    _passed(14, "72 monomial pairs: 28 exceed dimension 10, 44 close onto catalog "
               "classes, the non-solvable ones among sl2, sl2xC and sl2⋉H3")
