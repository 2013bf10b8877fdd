"""Structure constants, catalog families, closure, recognition, normal chains."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weylkit.liestruct as liestruct
from weylkit import Scalar, bracket, linalg
from weylkit.elements import (ElementSpan, WeylElement, linear_combination, one, p,
                              parse_element, q, zero)
from weylkit.errors import (BadParams, DimensionExceeded, IrrationalSpectrum, NotDiagonalisable,
                            NotHomomorphism, NotInA1Form, NotInjective, NotNilpotent,
                            PreconditionFailed)
from weylkit.liestruct import (CatalogTag, LieAlgebraStruct, Realization, catalog, change_basis,
                               filiform_normal_basis, invariants, lie_closure,
                               normalize_tag, quotient_by_center, recognize, weight_spaces)
from weylkit.morphisms import compose, phi, phi_prime
from weylkit.scalars import ONE, ZERO, _clear, _norm

from . import scalar_struct as frozen
from .frozen_echelon import ScalarEchelon
from .frozen_echelon import eigen_decomposition as frozen_eigen_decomposition

S = Scalar


def test_struct_checks_jacobi():
    # [e0,e1]=e2, [e0,e2]=e0 leaves J(e0,e1,e2) = e2 ≠ 0
    with pytest.raises(PreconditionFailed):
        LieAlgebraStruct(3, ["a", "b", "c"],
                         {(0, 1): {2: S(1)}, (0, 2): {0: S(1)}})


@pytest.mark.parametrize("k", [5, 2, -1])
def test_struct_refuses_an_output_index_outside_the_basis(k):
    with pytest.raises(BadParams):
        LieAlgebraStruct(2, ["a", "b"], {(0, 1): {k: S(1)}})


def _sl2_change_basis(matrix):
    return change_basis(catalog(CatalogTag("Sl2")).algebra, matrix)


@pytest.mark.parametrize("build, args", [
    *((LieAlgebraStruct, (dim, ["a", "b"], c)) for dim, c in [
        (2.0, {}), (True, {}), (2, {0: {0: 1}}), (2, {(0, 1): 5}), (2, {(0, 1): {0: "x"}}),
        (2, {("a", "b"): {0: 1}}), (2, {(0, 1, 2): {0: 1}}), (2, [((0, 1), {0: 1})])]),
    # labels and basis-change rows must be sequences
    (LieAlgebraStruct, (2, 5, {})),
    (_sl2_change_basis, ([1, 2, 3],)), (_sl2_change_basis, (3,)),
], ids=lambda v: getattr(v, "__name__", None))
def test_struct_refuses_a_malformed_table_with_bad_params(build, args):
    with pytest.raises(BadParams):
        build(*args)


def _tables():
    sl2 = LieAlgebraStruct(3, ["X", "Y", "H"], SL2)
    # [a, b] = c/2, [a, c] = d/3: nilpotent with centre span{d}
    chain = LieAlgebraStruct(4, ["a", "b", "c", "d"],
                             {(0, 1): {2: Fraction(1, 2)}, (0, 2): {3: Fraction(1, 3)}})
    return {
        "constructor": chain,
        "lie_closure": lie_closure([p * p + p, q * q]).algebra,
        "catalog": catalog(CatalogTag("LTilde", 3)).algebra,
        "change_basis": change_basis(sl2, [[2, 0, 0], [0, Fraction(1, 3), 0], [0, 0, S(0, 1)]]),
        "quotient_by_center": quotient_by_center(chain),
    }


@pytest.mark.parametrize("source", ["constructor", "lie_closure", "catalog", "change_basis",
                                    "quotient_by_center"])
def test_a_table_is_stored_once_over_its_least_denominator(source):
    algebra = _tables()[source]
    n = algebra.dim
    rows = {(i, j): algebra.basis_bracket(i, j) for i in range(n) for j in range(n)}
    # c is read off the integer table, not kept beside it
    assert "c" not in vars(algebra)
    assert algebra.c == {(i, j): row for (i, j), row in rows.items() if i < j and row}
    assert algebra._den == math.lcm(*(x.d for row in rows.values() for x in row.values()))
    assert any(rows.values())


def test_struct_and_change_basis_store_int_and_fraction_entries_as_scalars():
    sl2 = LieAlgebraStruct(3, ["X", "Y", "H"], SL2)
    coerced = LieAlgebraStruct(3, ["X", "Y", "H"],
                               {(0, 1): {2: 1}, (0, 2): {0: Fraction(-2)}, (1, 2): {1: 2}})
    assert coerced.c == sl2.c
    assert all(type(x) is Scalar for row in coerced.c.values() for x in row.values())
    assert quotient_by_center(coerced).c == sl2.c
    assert recognize(coerced) == CatalogTag("Sl2")
    assert change_basis(sl2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).c == sl2.c
    # f = (2X, Y/2, H): [f0, f1] = f2, [f0, f2] = -2 f0, [f1, f2] = 2 f1
    assert change_basis(sl2, [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]]).c == sl2.c


def _dense_bracket(dim, c, u, v):
    """[u, v] on dense coordinate vectors straight from the i < j table (reference)."""
    out = [ZERO] * dim
    for (i, j), row in c.items():
        coef = u[i] * v[j] - u[j] * v[i]
        for k, s in row.items():
            out[k] = out[k] + coef * s
    return out


def _sparse(v):
    return {k: x for k, x in enumerate(v) if x}


def _sparse_bracket(algebra, u, v):
    """[u, v] for sparse Scalar rows {basis index: Scalar}, through the table's
    integer bracket: u and v cleared over their own lcm, the result over all three."""
    ((cu,), du), ((cv,), dv) = _clear(u), _clear(v)
    return {k: _norm(a, b, du * dv * algebra._den)
            for k, (a, b) in algebra._bracket(cu, cv).items()}


def _dense_jacobiator_vanishes(dim, c):
    e = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]

    def br(u, v):
        return _dense_bracket(dim, c, u, v)

    for i, j, k in itertools.combinations(range(dim), 3):
        terms = (br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i]),
                 br(br(e[k], e[i]), e[j]))
        if any(x + y + z for x, y, z in zip(*terms)):
            return False
    return True


@st.composite
def struct_table_st(draw):
    """Random sparse antisymmetric tables of dimension at most 5."""
    dim = draw(st.integers(1, 5))
    entry = st.sampled_from([S(1), S(-1), S(2), S(0, 1)])
    c = {}
    for i, j in itertools.combinations(range(dim), 2):
        if draw(st.integers(0, 2)) == 0:
            ks = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=2, unique=True))
            c[(i, j)] = {k: draw(entry) for k in ks}
    return dim, c


@given(struct_table_st(), st.data())
def test_jacobi_check_matches_a_dense_jacobiator(table, data):
    dim, c = table
    labels = [f"e{k}" for k in range(dim)]
    if not _dense_jacobiator_vanishes(dim, c):
        with pytest.raises(PreconditionFailed):
            LieAlgebraStruct(dim, labels, c)
        return
    algebra = LieAlgebraStruct(dim, labels, c)
    vec = st.lists(st.sampled_from([ZERO, S(1), S(-2), S(1, 3)]), min_size=dim, max_size=dim)
    u, v = data.draw(vec), data.draw(vec)

    def via_sparse(u, v):
        w = _sparse_bracket(algebra, _sparse(u), _sparse(v))
        return [w.get(k, ZERO) for k in range(dim)]

    assert via_sparse(u, v) == _dense_bracket(dim, c, u, v)
    # the columns of ad(u)
    for j in range(dim):
        e_j = [ONE if k == j else ZERO for k in range(dim)]
        assert via_sparse(u, e_j) == _dense_bracket(dim, c, u, e_j)


def test_struct_prints_its_dimension_and_labels():
    assert repr(catalog(CatalogTag("Sl2")).algebra) == (
        "<LieAlgebraStruct dim=3 labels=['X', 'Y', 'H']>")


def test_struct_bracket_and_ad():
    entry = catalog(CatalogTag("Sl2"))
    sl2 = entry.algebra
    x, y, h = ({i: ONE} for i in range(3))
    assert _sparse_bracket(sl2, h, x) == {0: S(2)}
    assert _sparse_bracket(sl2, h, y) == {1: S(-2)}
    assert _sparse_bracket(sl2, x, y) == h
    assert _sparse_bracket(sl2, h, h) == {}
    # ad(h) is diagonal with weights 2, -2, 0 on X, Y, H
    images = entry.realization.images
    spaces = weight_spaces(entry.realization, 2)
    assert spaces == {S(2): [images[0]], S(-2): [images[1]], S(0): [images[2]]}


REALISED_TAGS = [
    CatalogTag("Abelian", 3),
    CatalogTag("Heisenberg3"),
    CatalogTag("Sl2"),
    CatalogTag("Sl2xC"),
    CatalogTag("Sl2SemidirectH3"),
    CatalogTag("L", 3),
    CatalogTag("L", 5),
    CatalogTag("LTilde", 2),
    CatalogTag("LTilde", 4),
    CatalogTag("R", (1, 2)),
    CatalogTag("R", (2, 3, 7)),
    CatalogTag("R", (0, 1, 4)),
]


@pytest.mark.parametrize("tag", REALISED_TAGS, ids=str)
def test_catalog_realisations_verify(tag):
    entry = catalog(tag)
    assert entry.realization is not None
    Realization(entry.algebra, entry.realization.images)


def test_catalog_structure_only_families():
    for tag in (CatalogTag("Sl2SemidirectC2"), CatalogTag("LTildeModC", 3)):
        entry = catalog(tag)
        assert entry.realization is None
        assert entry.algebra.dim > 0        # Jacobi ran at construction


def test_catalog_rejects_bad_parameters():
    for tag in (CatalogTag("L", 1), CatalogTag("LTilde", 0),
                CatalogTag("Abelian", 0), CatalogTag("R", (2, 2)),
                CatalogTag("R", ()), CatalogTag("NoSuchFamily"),
                CatalogTag("R", (0, 0, 1))):
        with pytest.raises(BadParams):
            catalog(tag)


@pytest.mark.parametrize("param", [5, None, "12"])
def test_catalog_refuses_diagonal_indices_that_are_not_a_sequence(param):
    with pytest.raises(BadParams):
        catalog(CatalogTag("R", param))


NORMALIZE_GOLDEN = [
    (CatalogTag("L", 2), CatalogTag("Heisenberg3")),
    (CatalogTag("L", 4), CatalogTag("L", 4)),
    (CatalogTag("R", (4, 2)), CatalogTag("R", (1, 2))),
    (CatalogTag("R", (-3, -6)), CatalogTag("R", (1, 2))),   # flip -h
    (CatalogTag("R", (0, 5)), CatalogTag("R", (0, 1))),
    (CatalogTag("R", (0, 0, 5)), CatalogTag("R", (0, 0, 5))),  # not a family member
    (CatalogTag("R", (0, 0, 0)), CatalogTag("Abelian", 4)),
    (CatalogTag("Sl2"), CatalogTag("Sl2")),
]


@pytest.mark.parametrize("tag,expected", NORMALIZE_GOLDEN, ids=str)
def test_normalize_tag(tag, expected):
    assert normalize_tag(tag) == expected


def test_tag_strings():
    assert str(CatalogTag("R", (1, 2))) == "R(1,2)"
    assert str(CatalogTag("LTilde", 3)) == "LTilde(3)"
    assert str(CatalogTag("Sl2")) == "Sl2"


# -- closure --------------------------------------------------------------------------


def test_lie_closure_keeps_generators_first():
    real = lie_closure([parse_element("p*q"), p ** 2])
    assert real.images[0] == parse_element("p*q")
    assert real.algebra.dim == 2
    Realization(real.algebra, real.images)


def test_lie_closure_generates_sl2():
    # [p², q²] = 4pq - 2 is one new direction; the span then closes
    real = lie_closure([p ** 2, q ** 2])
    assert real.algebra.dim == 3
    assert real.images[2] == parse_element("p*q - 1/2")
    assert recognize(real.algebra) == CatalogTag("Sl2")
    Realization(real.algebra, real.images)


def test_lie_closure_respects_max_dim():
    with pytest.raises(DimensionExceeded):
        lie_closure([p ** 3, q ** 2], max_dim=8)


def test_lie_closure_refuses_more_generators_than_the_cap():
    with pytest.raises(DimensionExceeded):
        lie_closure([p, q, p * q], max_dim=2)


def test_lie_closure_rejects_empty_input():
    # all-zero generators would close to the zero algebra, which has no tag
    for gens in ([], [zero], [zero, zero]):
        with pytest.raises(BadParams):
            lie_closure(gens)


def _reference_closure(gens, max_dim):
    """A two-pass closure (reference): close the span, then bracket every
    pair of rows again and read its coordinates for the structure constants."""
    span = ElementSpan()
    for g in gens:
        span.insert(g)
    rows = span.rows
    if len(rows) > max_dim:
        raise DimensionExceeded(max_dim)
    i = 0
    while i < len(rows):
        for j in range(i):
            if span.insert(bracket(rows[i], rows[j])) is not None and len(rows) > max_dim:
                raise DimensionExceeded(max_dim)
        i += 1
    c = {}
    for a, b in itertools.combinations(range(len(rows)), 2):
        c[(a, b)] = dict(enumerate(span.row_coordinates(bracket(rows[a], rows[b]))))
    return LieAlgebraStruct(len(rows), [f"b{k}" for k in range(len(rows))], c), rows


# sums of one or two monomials of total degree at most 3: about half of the
# pairs and triples close within dimension 10, the rest exceed it
_unit_sum_st = st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
    lambda m: sum(m) <= 3), min_size=1, max_size=2).map(
    lambda monos: WeylElement({m: 1 for m in monos}))


@given(st.lists(_unit_sum_st, min_size=2, max_size=3))
def test_lie_closure_matches_the_two_pass_reference(gens):
    try:
        expected, rows = _reference_closure(gens, 10)
    except DimensionExceeded:
        with pytest.raises(DimensionExceeded):
            lie_closure(gens, max_dim=10)
        return
    real = lie_closure(gens, max_dim=10)
    assert real.images == rows
    assert real.algebra.c == expected.c


@pytest.mark.parametrize("gens", [["p^2", "q^2"], ["p^3", "q"], ["p*q", "p^3", "p"],
                                  ["p*q", "q^2", "q^3"], ["p", "p^2", "p^3"],
                                  ["p^2", "q^2", "p*q", "1", "p"]])
def test_lie_closure_brackets_each_pair_once(monkeypatch, gens):
    calls = []

    def counting_bracket(x, y):
        calls.append((x, y))
        return bracket(x, y)

    monkeypatch.setattr(liestruct, "bracket", counting_bracket)
    n = lie_closure([parse_element(g) for g in gens]).algebra.dim
    assert len(calls) == n * (n - 1) // 2


def test_realization_refuses_wrong_constants():
    sl2 = catalog(CatalogTag("Sl2")).algebra
    with pytest.raises(NotHomomorphism):
        Realization(sl2, [p, q, one + p ** 2])
    with pytest.raises(NotInjective):
        Realization(sl2, [p, p.scale(S(2)), q])
    with pytest.raises(BadParams, match="one image per basis vector"):
        Realization(sl2, [p, q])


def test_realization_refuses_images_that_do_not_realise_the_table():
    # h = 1 has ad zero, so weight_spaces would read weights ±2 off the table
    # for images that have none: the constructor refuses them
    with pytest.raises(NotHomomorphism, match="^bracket of X and H does not match"):
        Realization(catalog(CatalogTag("Sl2")).algebra, [p, q, one])


def test_realization_is_a_pair_with_no_unchecked_public_path():
    # it unpacks and reads by name as a tuple, and has no namedtuple _make or
    # _replace that would build one past the check
    real = catalog(CatalogTag("Sl2")).realization
    algebra, images = real
    assert isinstance(real, tuple) and (algebra, images) == (real.algebra, real.images)
    assert not hasattr(real, "_make") and not hasattr(real, "_replace")
    assert Realization(algebra, images) == real


# -- invariants and derived constructions ---------------------------------------------


def test_invariants_of_heisenberg():
    inv = invariants(catalog(CatalogTag("Heisenberg3")).algebra)
    assert inv.derived_series_dims == [3, 1, 0]
    assert inv.lower_central_dims == [3, 1, 0]
    assert inv.center_dim == 1
    assert inv.solvable and inv.nilpotent


def test_invariants_of_sl2():
    inv = invariants(catalog(CatalogTag("Sl2")).algebra)
    assert inv.derived_series_dims == [3, 3]
    assert inv.center_dim == 0
    assert not inv.solvable and not inv.nilpotent


def test_invariants_of_ltilde():
    inv = invariants(catalog(CatalogTag("LTilde", 3)).algebra)
    assert inv.solvable and not inv.nilpotent
    assert inv.center_dim == 1


def test_filiform_lower_central_profile():
    for n in range(2, 7):
        inv = invariants(catalog(CatalogTag("L", n)).algebra)
        assert inv.lower_central_dims == [n + 1] + list(range(n - 1, -1, -1))
        assert inv.nilpotent


def test_quotient_by_center():
    h3 = catalog(CatalogTag("Heisenberg3")).algebra
    quotient = quotient_by_center(h3)
    assert quotient.dim == 2
    assert invariants(quotient).derived_series_dims == [2, 0]
    sl2 = catalog(CatalogTag("Sl2")).algebra
    assert quotient_by_center(sl2).dim == 3


def test_change_basis_preserves_recognition():
    algebra = catalog(CatalogTag("LTilde", 3)).algebra
    n = algebra.dim
    rng = random.Random(7)
    while True:
        mat = [[S(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            moved = change_basis(algebra, mat)
            break
        except BadParams:
            continue
    assert recognize(moved) == CatalogTag("LTilde", 3)


def test_change_basis_rejects_singular_matrix():
    algebra = catalog(CatalogTag("Heisenberg3")).algebra
    with pytest.raises(BadParams):
        change_basis(algebra, [[S(1), S(1), S(0)], [S(1), S(1), S(0)],
                               [S(0), S(0), S(1)]])


def test_change_basis_rejects_a_matrix_of_the_wrong_size():
    with pytest.raises(BadParams, match="must be 3x3"):
        change_basis(catalog(CatalogTag("Sl2")).algebra, [[S(1), S(0)], [S(0), S(1)]])


# -- recognition ----------------------------------------------------------------------


RECOGNIZE_GOLDEN = [
    (CatalogTag("Abelian", 4), CatalogTag("Abelian", 4)),
    (CatalogTag("Heisenberg3"), CatalogTag("Heisenberg3")),
    (CatalogTag("L", 2), CatalogTag("Heisenberg3")),
    (CatalogTag("L", 4), CatalogTag("L", 4)),
    (CatalogTag("LTilde", 2), CatalogTag("LTilde", 2)),
    (CatalogTag("LTilde", 5), CatalogTag("LTilde", 5)),
    (CatalogTag("LTildeModC", 3), CatalogTag("LTildeModC", 3)),
    (CatalogTag("R", (1, 3)), CatalogTag("R", (1, 3))),
    (CatalogTag("R", (2, 4)), CatalogTag("R", (1, 2))),
    (CatalogTag("R", (0, 2, 5)), CatalogTag("R", (0, 2, 5))),
    (CatalogTag("Sl2"), CatalogTag("Sl2")),
    (CatalogTag("Sl2xC"), CatalogTag("Sl2xC")),
    (CatalogTag("Sl2SemidirectC2"), CatalogTag("Sl2SemidirectC2")),
    (CatalogTag("Sl2SemidirectH3"), CatalogTag("Sl2SemidirectH3")),
]


@pytest.mark.parametrize("tag,expected", RECOGNIZE_GOLDEN, ids=str)
def test_recognize_catalog_structures(tag, expected):
    assert recognize(catalog(tag).algebra) == expected


def test_recognize_is_basis_independent():
    rng = random.Random(21)
    filiform = [CatalogTag("L", m) for m in range(3, 8)]
    filiform += [CatalogTag("LTilde", m) for m in range(2, 7)]
    filiform += [CatalogTag("LTildeModC", m) for m in range(2, 8)]
    for tag, expected in RECOGNIZE_GOLDEN[:8] + [(t, t) for t in filiform]:
        algebra = catalog(tag).algebra
        n = algebra.dim
        while True:
            mat = [[S(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
            try:
                moved = change_basis(algebra, mat)
                break
            except BadParams:
                continue
        assert recognize(moved) == expected


def test_recognize_after_conjugated_closure():
    m = compose(phi_prime(2, S(1, 1)), phi(1, -2))
    entry = catalog(CatalogTag("LTilde", 3))
    gens = [m(x) for x in entry.realization.images]
    real = lie_closure(gens)
    assert recognize(real.algebra) == CatalogTag("LTilde", 3)


# phi(1, 7/3), phi'(2, 5/2 - 2i), phi(1, -3/5 + 11i/7): on the closures of the
# R families the ad(h) charpoly's lowest coefficient passes the norm budget, so
# this is the one library path that reaches the factoriser
_NON_UNIT_CHAIN = [(phi, 1, S(Fraction(7, 3))), (phi_prime, 2, S(Fraction(5, 2), -2)),
                   (phi, 1, S(Fraction(-3, 5), Fraction(11, 7)))]


def _frozen_weight_spaces(real, h):
    """``weight_spaces`` as it was: the dense Scalar ad(e_h) through the frozen
    eigenspaces, each vector with one at its last nonzero entry (reference)."""
    algebra = real.algebra
    n = algebra.dim
    mat = [[algebra.basis_bracket(h, j).get(k, ZERO) for j in range(n)] for k in range(n)]
    decomp = frozen_eigen_decomposition(mat)
    if sum(len(vecs) for _, vecs in decomp) != n:
        return NotDiagonalisable
    return {lam: [linear_combination(zip(v, real.images)) for v in vecs] for lam, vecs in decomp}


def _weights(real, h):
    """``weight_spaces``, or NotDiagonalisable if it raised that."""
    try:
        return weight_spaces(real, h)
    except NotDiagonalisable:
        return NotDiagonalisable


@pytest.mark.parametrize("index", [(0, 1, 3), (1, 3), (2, 4)])
def test_recognize_after_a_non_unit_chain_matches_the_scalar_table(index, monkeypatch):
    tag = CatalogTag("R", index)
    m = None
    for make, n, lam in _NON_UNIT_CHAIN:
        m = make(n, lam) if m is None else compose(make(n, lam), m)
    real = lie_closure([m(x) for x in catalog(tag).realization.images])
    algebra = real.algebra
    calls = []
    factor = linalg._factor_roots
    monkeypatch.setattr(linalg, "_factor_roots", lambda poly: calls.append(1) or factor(poly))
    assert recognize(algebra) == normalize_tag(tag)
    assert calls
    reference = frozen.ScalarStruct(algebra.dim, algebra.labels, algebra.c)
    assert frozen.recognize(reference) == normalize_tag(tag)
    for h in range(algebra.dim):
        assert _weights(real, h) == _frozen_weight_spaces(real, h)


def test_recognize_unknown_for_mixed_spectrum():
    # ad(h) with weights +1 and -2 on an abelian derived part sits in no family
    c = {(0, 1): {1: S(1)}, (0, 2): {2: S(-2)}}
    algebra = LieAlgebraStruct(3, ["h", "a", "b"], c)
    assert recognize(algebra) == CatalogTag("Unknown")


def _scalar_profile(eigs):
    """The profile as Scalar ratios to the first eigenvalue, the earlier form."""
    ratios = [e / eigs[0] for e in eigs]
    if any(r.im for r in ratios):
        raise IrrationalSpectrum("eigenvalue ratios leave the rationals")
    scale = math.lcm(*(r.re.denominator for r in ratios))
    return [int(r.re * scale) for r in ratios]


_profile_fraction_st = st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool)
_profile_scalar_st = st.builds(S, _profile_fraction_st, st.one_of(st.just(0),
                                                                  _profile_fraction_st))


@settings(deadline=None)
@given(_profile_scalar_st,
       st.lists(st.tuples(_profile_fraction_st, st.one_of(st.none(), _profile_scalar_st)),
                max_size=5))
def test_integer_profile_matches_the_scalar_ratios(first, rest):
    # each later eigenvalue is a rational multiple of the first, or, where the
    # draw says so, an independent one whose ratio is mostly non-real
    eigs = [first] + [other if other is not None else first * r for r, other in rest]
    try:
        expected = _scalar_profile(eigs)
    except IrrationalSpectrum:
        with pytest.raises(IrrationalSpectrum):
            liestruct._integer_profile(eigs)
    else:
        assert liestruct._integer_profile(eigs) == expected


SL2 = {(0, 1): {2: ONE}, (0, 2): {0: S(-2)}, (1, 2): {1: S(2)}}


def _filiform_model(n):
    """[e0, ek] = e(k+1) for 1 ≤ k < n, the table of L(n)."""
    return {(0, k): {k + 1: ONE} for k in range(1, n)}


# sl₂ × H₃ and (sl₂ ⋉ ℂ²) × ℂ share n = 6, a 3-dimensional radical and a
# 1-dimensional centre with sl₂ ⋉ H₃ but are not perfect; sl₂ ⋉ ℂ³ is sl₂
# (e0, e1, e2) acting on a copy (e3, e4, e5) of itself, and sl₂ × sl₂ is
# perfect of dimension 6 with no centre.  sl₂ × ℂ² and sl₂ × aff(1) share
# n = 5 and a 2-dimensional radical with sl₂ ⋉ ℂ² but are not perfect.
# Vergne's Q₆ and the model L(4) plus [e1, e2] = e4 have the lower-central
# profile of L(5) and L(4), but no abelian ideal of codimension 1; Q₆
# extended by its grading derivation e6 (weights 1, 1, 2, 3, 4, 5) has no
# centre and the derived profile of LTildeModC(6).
Q6 = {**_filiform_model(5), (1, 4): {5: ONE}, (2, 3): {5: S(-1)}}
NEAR_MISSES = {
    "sl2 x H3": (6, {**SL2, (4, 5): {3: ONE}}),
    "(sl2 x| C2) x C": (6, {**SL2, (0, 4): {3: ONE}, (1, 3): {4: ONE},
                            (2, 3): {3: ONE}, (2, 4): {4: S(-1)}}),
    "sl2 x| C3": (6, {**SL2, (0, 4): {5: ONE}, (0, 5): {3: S(-2)}, (1, 3): {5: S(-1)},
                      (1, 5): {4: S(2)}, (2, 3): {3: S(2)}, (2, 4): {4: S(-2)}}),
    "sl2 x sl2": (6, {**SL2, (3, 4): {5: ONE}, (3, 5): {3: S(-2)}, (4, 5): {4: S(2)}}),
    "sl2 x C2": (5, SL2),
    "sl2 x aff(1)": (5, {**SL2, (3, 4): {4: ONE}}),
    "Q6": (6, Q6),
    "L(4) + [e1,e2]=e4": (5, {**_filiform_model(4), (1, 2): {4: ONE}}),
    "Q6 x| <e6>": (7, {**Q6, **{(k, 6): {k: S(-w)} for k, w in enumerate((1, 1, 2, 3, 4, 5))}}),
}


@pytest.mark.parametrize("name", NEAR_MISSES)
def test_recognize_near_misses_of_sl2_semidirect_h3_are_unknown(name):
    dim, c = NEAR_MISSES[name]
    algebra = LieAlgebraStruct(dim, [f"e{k}" for k in range(dim)], c)
    assert recognize(algebra) == CatalogTag("Unknown")


def _full_sum_radical(algebra, derived_rows) -> int:
    """The radical dimension, the Killing-orthogonal of the derived algebra,
    with every structure constant in the Killing sum (absent ones as ZERO), frozen."""
    n, br = algebra.dim, algebra.basis_bracket
    rows = []
    for d in derived_rows:
        ad_d = [_sparse_bracket(algebra, d, {l: ONE}) for l in range(n)]
        rows.append({i: s for i in range(n)
                     if (s := sum((x * br(i, k).get(l, ZERO) for l, col in enumerate(ad_d)
                                   for k, x in col.items()), ZERO))})
    return n - ScalarEchelon(rows).dim


def _radical_rule(algebra) -> CatalogTag:
    """The non-solvable branch of recognize as it was, by dimension, Killing
    radical, centre and perfectness, frozen."""
    n = algebra.dim
    derived = ScalarEchelon(algebra.basis_bracket(i, j) for i in range(n) for j in range(n)).rows
    rad = _full_sum_radical(algebra, derived)
    zc = invariants(algebra).center_dim
    perfect = len(derived) == n
    if n == 3 and rad == 0 and perfect:
        return CatalogTag("Sl2")
    if n == 4 and rad == 1 and zc == 1:
        return CatalogTag("Sl2xC")
    if n == 5 and rad == 2 and zc == 0 and perfect:
        return CatalogTag("Sl2SemidirectC2")
    if n == 6 and rad == 3 and zc == 1 and perfect:
        return CatalogTag("Sl2SemidirectH3")
    return CatalogTag("Unknown")


def test_recognize_matches_the_radical_rule_on_non_solvable_algebras():
    rng = random.Random(11)
    kinds = ("Sl2", "Sl2xC", "Sl2SemidirectC2", "Sl2SemidirectH3")
    algebras = [catalog(CatalogTag(kind)).algebra for kind in kinds]
    algebras += [LieAlgebraStruct(dim, [f"e{k}" for k in range(dim)], c)
                 for dim, c in NEAR_MISSES.values()]
    for algebra in list(algebras):
        n = algebra.dim
        while True:
            try:
                algebras.append(change_basis(algebra, [[S(rng.randint(-2, 2)) for _ in range(n)]
                                                       for _ in range(n)]))
                break
            except BadParams:
                continue
    non_solvable = [a for a in algebras if not invariants(a).solvable]
    expected = [_radical_rule(a) for a in non_solvable]
    assert [recognize(a) for a in non_solvable] == expected
    assert len(expected) == 2 * (4 + 6) and expected[:4] == [CatalogTag(k) for k in kinds]


# -- filiform chains ------------------------------------------------------------------


def test_filiform_normal_basis_of_catalog_families():
    for n in range(2, 6):
        entry = catalog(CatalogTag("L", n))
        chain = filiform_normal_basis(entry.realization)
        assert len(chain) == n + 1
        for k in range(1, n):
            assert bracket(chain[0], chain[k]) == chain[k + 1]
        assert bracket(chain[0], chain[n]).is_zero()
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                assert bracket(chain[a], chain[b]).is_zero()


def test_filiform_normal_basis_survives_conjugation():
    conjugations = (compose(phi(2, S(1, 1)), phi_prime(1, -2)),
                    compose(phi_prime(3, S(0, 1)), phi(1, S(2, -1))))
    for n, m in itertools.product(range(2, 7), conjugations):
        images = catalog(CatalogTag("L", n)).realization.images
        chain = filiform_normal_basis(lie_closure([m(x) for x in images]))
        assert len(chain) == n + 1
        for k in range(1, n):
            assert bracket(chain[0], chain[k]) == chain[k + 1]
        assert bracket(chain[0], chain[n]).is_zero()
        for a, b in itertools.combinations(chain[1:], 2):
            assert bracket(a, b).is_zero()


def test_filiform_normal_basis_of_a_basis_mixing_denominators():
    # the seed of the chain combines two images whose columns stand over
    # different denominators, so each column must enter over its own
    for n in range(3, 6):
        entry = catalog(CatalogTag("L", n))
        m = [[Fraction(1, i + 2) if i == j else Fraction(1, 3 + i + j) if j == i + 1 else 0
              for j in range(n + 1)] for i in range(n + 1)]
        m[2][1] = Fraction(2, 7)
        images = [linear_combination((m[i][j], x) for i, x in enumerate(entry.realization.images))
                  for j in range(n + 1)]
        chain = filiform_normal_basis(Realization(change_basis(entry.algebra, m), images))
        assert len(chain) == n + 1
        for k in range(1, n):
            assert bracket(chain[0], chain[k]) == chain[k + 1]
        assert bracket(chain[0], chain[n]).is_zero()


def test_filiform_normal_basis_preconditions():
    with pytest.raises(NotNilpotent):
        filiform_normal_basis(lie_closure([parse_element("p*q"), p]))
    with pytest.raises(PreconditionFailed):
        filiform_normal_basis(lie_closure([p, p ** 2]))


_NOT_NILPOTENT_IMAGES = """
from weylkit.elements import one, p, q
from weylkit.errors import NotNilpotent
from weylkit.liestruct import CatalogTag, _realization, catalog, filiform_normal_basis
real = _realization(catalog(CatalogTag("Heisenberg3")).algebra, [p * q, p, one])
try:
    filiform_normal_basis(real)
except NotNilpotent:
    raise SystemExit(0)
raise SystemExit("no NotNilpotent")
"""


def test_filiform_normal_basis_reads_the_images_not_the_table():
    # images that do not realise the Heisenberg table: the constructor refuses
    # each, and past it (through the library's unchecked builder) the chain is
    # decided on the images alone, and images that are not nilpotent end the
    # series at once
    table = catalog(CatalogTag("Heisenberg3")).algebra
    for images in ([p, p ** 2, p ** 3], [q, p, p ** 2], [p * q, p, one]):
        with pytest.raises(NotHomomorphism):
            Realization(table, images)
    with pytest.raises(PreconditionFailed, match="^abelian") as info:
        filiform_normal_basis(liestruct._realization(table, [p, p ** 2, p ** 3]))
    assert type(info.value) is PreconditionFailed
    with pytest.raises(NotInA1Form, match="lower-central series"):
        filiform_normal_basis(liestruct._realization(table, [q, p, p ** 2]))
    src = str(Path(liestruct.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", _NOT_NILPOTENT_IMAGES],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=10)
    assert done.returncode == 0, done.stderr + done.stdout


# -- weight spaces --------------------------------------------------------------------


def test_weight_spaces_of_sl2():
    real = lie_closure([parse_element("p*q"), p ** 2, q ** 2])
    spaces = weight_spaces(real, 0)
    flat = {}
    for lam, vecs in spaces.items():
        flat[lam] = vecs
    assert set(flat) == {S(-2), S(0), S(2)}
    assert flat[S(-2)] == [p ** 2]
    assert flat[S(2)] == [q ** 2]
    for lam, vecs in flat.items():
        for v in vecs:
            assert bracket(real.images[0], v) == v.scale(lam)


def test_weight_spaces_requires_valid_index():
    real = lie_closure([p, q])
    with pytest.raises(BadParams):
        weight_spaces(real, 9)


@given(st.integers(2, 5))
def test_catalog_round_trip_for_filiform(n):
    entry = catalog(CatalogTag("L", n))
    real = lie_closure(entry.realization.images)
    assert recognize(real.algebra) == normalize_tag(CatalogTag("L", n))


# -- the integer table against the frozen Scalar table ---------------------------------


CATALOG_CLASSES = ([CatalogTag("Abelian", n) for n in (1, 3)]
                   + [CatalogTag(k) for k in ("Heisenberg3", "Sl2", "Sl2xC", "Sl2SemidirectH3",
                                              "Sl2SemidirectC2")]
                   + [CatalogTag("L", n) for n in range(2, 7)]
                   + [CatalogTag("LTilde", n) for n in range(2, 6)]
                   + [CatalogTag("LTildeModC", n) for n in range(2, 7)]
                   + [CatalogTag("R", idx) for idx in ((1,), (1, 3), (2, 4), (0, 1, 3),
                                                       (2, 3, 7), (0, 2, 5))])
# one hand table per exit of recognize that no catalog class or near miss
# reaches, with its outcome: two one-generator pieces (codimension 2 over
# derived + centre), a Jordan block on the abelian derived algebra, a repeated
# weight, LTilde(3) with a second central vector, weights ±i (the real form of
# LTildeModC(2)), weights ±√2, outside Q(i), Vergne's Q5, which has L(5)'s
# lower-central profile, but the centraliser of its derived algebra has codimension 4,
# and two lower-central profiles that are no L(n)'s: H₃ ⊕ ℂ, nilpotent, and a diagonal
# h acting on it, the extended-family branch
HAND_TABLES = {
    "R(1) + R(1)": (4, {(0, 1): {1: 1}, (2, 3): {3: 1}}, CatalogTag("Unknown")),
    "Jordan block on D": (3, {(0, 1): {1: 1}, (0, 2): {1: 1, 2: 1}}, CatalogTag("Unknown")),
    "repeated weight": (3, {(0, 1): {1: 1}, (0, 2): {2: 1}}, CatalogTag("Unknown")),
    "LTilde(3) + C": (6, {(0, 1): {1: 1}, (0, 2): {2: -2}, (0, 3): {3: -1}, (1, 2): {3: 1},
                          (1, 3): {4: 1}}, CatalogTag("Unknown")),
    "weights +-i": (3, {(0, 1): {2: 1}, (0, 2): {1: -1}}, CatalogTag("LTildeModC", 2)),
    "weights +-sqrt2": (3, {(0, 1): {2: 1}, (0, 2): {1: 2}}, IrrationalSpectrum),
    "R(1) + C^2": (4, {(0, 1): {1: 1}}, CatalogTag("Unknown")),
    "Q5": (6, {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}, (0, 4): {5: 1}, (1, 4): {5: -1},
               (2, 3): {5: 1}}, CatalogTag("Unknown")),
    "H3 + C": (4, {(1, 2): {0: 1}}, CatalogTag("Unknown")),
    "h on H3 + C": (5, {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 2}, (0, 4): {4: 1},
                        (1, 2): {3: 1}}, CatalogTag("Unknown")),
}
TABLES = {**{str(tag): (lambda tag=tag: catalog(tag).algebra) for tag in CATALOG_CLASSES},
          **{name: (lambda dim=dim, c=c: LieAlgebraStruct(dim, [f"e{k}" for k in range(dim)], c))
             for name, (dim, c, *_) in {**NEAR_MISSES, **HAND_TABLES}.items()}}
_QI = st.sampled_from([S(0), S(1), S(-1), S(2), S(0, 1), S(1, -1), S(Fraction(1, 2)),
                       S(Fraction(-1, 3), 1)])


def _outcome(f, *args):
    """f(*args), or the type of the library error it raised."""
    try:
        return f(*args)
    except (BadParams, PreconditionFailed, IrrationalSpectrum) as exc:
        return type(exc)


def _assert_agrees(algebra, reference):
    """The library's table and its invariants, recognition and quotient by the
    centre equal the frozen Scalar table's."""
    assert algebra.c == reference.c
    assert tuple(invariants(algebra)) == tuple(frozen.invariants(reference))
    assert _outcome(recognize, algebra) == _outcome(frozen.recognize, reference)
    assert quotient_by_center(algebra).c == frozen.quotient_by_center(reference).c


def _assert_basis_change_agrees(algebra, reference, data):
    n = algebra.dim
    matrix = data.draw(st.lists(st.lists(_QI, min_size=n, max_size=n), min_size=n, max_size=n))
    moved = _outcome(change_basis, algebra, matrix)
    expected = _outcome(frozen.change_basis, reference, matrix)
    if isinstance(moved, type) or isinstance(expected, type):
        assert moved == expected
    else:
        _assert_agrees(moved, expected)


@pytest.mark.parametrize("name", TABLES)
@settings(max_examples=4)
@given(st.data())
def test_integer_table_matches_the_scalar_table_on_the_catalog_and_near_misses(name, data):
    algebra = TABLES[name]()
    reference = frozen.ScalarStruct(algebra.dim, algebra.labels, algebra.c)
    _assert_agrees(algebra, reference)
    _assert_basis_change_agrees(algebra, reference, data)


@pytest.mark.parametrize("name", HAND_TABLES)
def test_recognize_reaches_each_exit_of_the_hand_tables(name, monkeypatch):
    # a Jordan block leaves before the weights are read; counting algebraic
    # multiplicities instead of eigenvectors would read them as a repeated weight
    algebra = TABLES[name]()
    profiles = []
    read = liestruct._integer_profile
    monkeypatch.setattr(liestruct, "_integer_profile",
                        lambda eigs: profiles.append(read(eigs)) or profiles[-1])
    assert _outcome(recognize, algebra) == HAND_TABLES[name][2]
    expected = {"repeated weight": [[1, 1]], "weights +-i": [[1, -1]], "R(1) + C^2": [[1]]}
    assert profiles == expected.get(name, [])


@given(struct_table_st(), st.data())
def test_integer_table_matches_the_scalar_table_on_random_tables(table, data):
    dim, c = table
    labels = [f"e{k}" for k in range(dim)]
    if not _dense_jacobiator_vanishes(dim, c):
        return
    algebra, reference = LieAlgebraStruct(dim, labels, c), frozen.ScalarStruct(dim, labels, c)
    _assert_agrees(algebra, reference)
    _assert_basis_change_agrees(algebra, reference, data)


def test_library_tables_skip_the_jacobi_check(monkeypatch):
    # closures and catalog realisations are read off brackets in A1, basis
    # changes and quotients off a checked table: none of them runs the check,
    # and each passes it when the check is run on it here as an oracle
    check = LieAlgebraStruct._check_jacobi
    outside = [catalog(CatalogTag("Sl2SemidirectC2")).algebra,
               catalog(CatalogTag("LTildeModC", 4)).algebra]

    def refuse(self):
        raise AssertionError("the Jacobi check ran on a table the library built")

    monkeypatch.setattr(LieAlgebraStruct, "_check_jacobi", refuse)
    m = compose(phi_prime(2, S(1, 1)), phi(1, -2))
    built = [catalog(tag).algebra for tag in REALISED_TAGS]
    built += [lie_closure([parse_element(g) for g in gens]).algebra
              for gens in (["p^2", "q^2"], ["p*q", "p^3", "p"], ["p", "q", "p*q"])]
    built.append(lie_closure([m(x) for x in
                              catalog(CatalogTag("LTilde", 3)).realization.images]).algebra)
    rng = random.Random(5)
    for algebra in built[:] + outside:
        n = algebra.dim
        built.append(quotient_by_center(algebra))
        matrix = [[S(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
        try:
            built.append(change_basis(algebra, matrix))
        except BadParams:  # a singular draw
            pass
    assert len(built) > 2 * len(REALISED_TAGS)
    for algebra in built:
        check(algebra)


def test_struct_refuses_float_constants():
    with pytest.raises(BadParams):
        LieAlgebraStruct(2, ["a", "b"], {(0, 1): {0: 0.5}})


@pytest.mark.parametrize("max_dim", [2.5, True])
def test_lie_closure_refuses_a_non_integer_dimension_cap(max_dim):
    with pytest.raises(BadParams):
        lie_closure([p, q], max_dim=max_dim)


@pytest.mark.parametrize("h_index", [1.0, True, -1])
def test_weight_spaces_refuses_an_index_that_is_not_a_natural_int(h_index):
    # 1.0 and True hash like 1, so unchecked they would read as basis vector 1
    real = catalog(CatalogTag("Sl2")).realization
    with pytest.raises(BadParams):
        weight_spaces(real, h_index)


def test_lie_closure_reads_a_scalar_generator_as_its_element():
    assert lie_closure([1]).images == [one]
    assert lie_closure([p, Fraction(1, 2)]).images == [p, one]
    for bad in (["p"], [p, 1.5], [None]):
        with pytest.raises(BadParams, match="^lie_closure takes"):
            lie_closure(bad)


def test_realization_reads_the_table_over_its_denominator():
    # on f = (X/2, Y, H), [f0, f1] = f2/2: a table over the denominator 2
    sl2 = catalog(CatalogTag("Sl2"))
    half = change_basis(sl2.algebra, [[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])
    assert half.c[(0, 1)] == {2: S(Fraction(1, 2))}
    X, Y, H = sl2.realization.images
    assert Realization(half, [X.scale(Fraction(1, 2)), Y, H]).algebra is half
    with pytest.raises(NotHomomorphism):
        Realization(half, [X, Y, H])


def _with_one_constant_changed(algebra, i, j, k, delta):
    """The table with c^k_ij moved by delta ≠ 0, built past the Jacobi check,
    which the changed table need not pass."""
    pairs = list(itertools.combinations(range(algebra.dim), 2))
    rows = [algebra.basis_bracket(*ij) for ij in pairs]
    row = rows[pairs.index((i, j))]
    row[k] = row.get(k, ZERO) + delta
    nums, den = _clear(*rows)
    return liestruct._built(algebra.dim, algebra.labels,
                            {ij: (num, den) for ij, num in zip(pairs, nums)})


@pytest.mark.parametrize("tag", REALISED_TAGS, ids=str)
@settings(max_examples=4, deadline=None)
@given(st.data())
def test_realization_follows_a_basis_change_and_refuses_a_changed_constant(tag, data):
    # the catalog images under a Q(i) basis change realise the changed table;
    # with any one of its constants changed, the same images are refused
    entry = catalog(tag)
    n = entry.algebra.dim
    matrix = data.draw(st.lists(st.lists(_QI, min_size=n, max_size=n), min_size=n, max_size=n))
    moved = _outcome(change_basis, entry.algebra, matrix)
    assume(moved is not BadParams)
    images = [linear_combination((matrix[i][j], x) for i, x in enumerate(entry.realization.images))
              for j in range(n)]
    assert Realization(moved, images).images == images
    i, j = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
    k, delta = data.draw(st.integers(0, n - 1)), data.draw(_QI.filter(bool))
    with pytest.raises(NotHomomorphism):
        Realization(_with_one_constant_changed(moved, i, j, k, delta), images)
