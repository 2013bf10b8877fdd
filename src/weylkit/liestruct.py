"""Finite-dimensional Lie algebras inside the Weyl algebra.

A LieAlgebraStruct is a bare structure-constant table, kept over Z[i]
(antisymmetry by storage; Jacobi checked on a table given to the constructor,
holding by construction on the tables the library builds); a Realization
pairs one with an exact embedding, checked alike.  On top of those sit:

* the catalog of isomorphism classes that admit (or are quoted alongside)
  realisations: abelian, the 3-dimensional Heisenberg algebra, sl(2) and its
  three extensions, the filiform chain algebras L(n), their solvable
  extensions LTilde(n) = L(n) ⋊ ⟨pq⟩, the quotients LTilde(n)/centre, and
  the diagonal families R(i₁,…,i_n) spanned by pq and powers of p;
* Lie closure of a generating set by breadth-first bracketing, each pair once;
* derived/lower-central invariants, centre, quotient by centre;
* a recogniser mapping a structure back to its normalised catalog tag; and
* normal bases for the filiform algebras via a commutation pair [P, Q] = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .elements import (ElementSpan, WeylElement, _as_element, _combination, _independent_span,
                       _sum, ad_pow, bracket, one, p, q)
from .errors import (BadParams, DimensionExceeded, IrrationalSpectrum,
                     NotDiagonalisable, NotHomomorphism, NotInA1Form,
                     NotInjective, NotNilpotent, PreconditionFailed, _check_count, _is_count)
from .linalg import Echelon, eigen_decomposition, integer_kernel
from .scalars import Scalar, _clear, _divide, _norm, _scalar_rows

__all__ = [
    "LieAlgebraStruct", "CatalogTag", "Realization", "CatalogEntry",
    "AlgebraInvariants", "catalog", "normalize_tag", "lie_closure",
    "invariants", "recognize", "filiform_normal_basis",
    "weight_spaces", "quotient_by_center", "change_basis",
]


class LieAlgebraStruct:
    """Structure constants c^k_{ij} over a finite basis, stored once: ``_num`` holds
    them for both orders as Z[i] numerators over ``_den``, the least common
    denominator; ``c`` reads i < j as Scalars."""

    def __init__(self, dim: int, labels: Sequence[str],
                 c: dict[tuple[int, int], dict[int, Scalar]]):
        _check_count(dim, 0, "the dimension must be a natural number, got {!r}")
        if not isinstance(labels, Sequence) or len(labels) != dim:
            raise BadParams(f"{dim} basis vectors need a sequence of {dim} labels")
        if not isinstance(c, dict) or any(
                not (isinstance(ij, tuple) and len(ij) == 2 and isinstance(row, dict)
                     and all(map(_is_count, ij)) and ij[0] < ij[1] < dim)
                or any(not _is_count(k) or k >= dim for k in row) for ij, row in c.items()):
            raise BadParams(f"structure constants c^k_ij need 0 <= i < j < {dim}, 0 <= k < {dim}")
        rows, den = _clear(*c.values())
        self._fill(dim, labels, {ij: (row, den) for ij, row in zip(c, rows)})
        self._check_jacobi()

    def _fill(self, dim: int, labels: Sequence[str], rows: dict):
        """Store rows {(i, j): (num, n)}, i < j, [e_i, e_j] = num/n over Z[i] with
        n > 0, over their least common denominator."""
        self.dim, self.labels = dim, list(labels)
        den = math.lcm(*(n for num, n in rows.values() if num))
        rows = {ij: {k: (a * (den // n), b * (den // n)) for k, (a, b) in num.items()}
                for ij, (num, n) in rows.items() if num}
        g = math.gcd(den, *(t for row in rows.values() for z in row.values() for t in z))
        self._den = den // g
        self._num = {}
        for (i, j), row in rows.items():
            self._num[(i, j)] = row = {k: (a // g, b // g) for k, (a, b) in row.items()}
            self._num[(j, i)] = {k: (-a, -b) for k, (a, b) in row.items()}

    @property
    def c(self) -> dict[tuple[int, int], dict[int, Scalar]]:
        """The nonzero rows {k: c^k_{ij}} for i < j, built from ``_num`` on each read."""
        return {(i, j): self.basis_bracket(i, j) for i, j in self._num if i < j}

    def basis_bracket(self, i: int, j: int) -> dict[int, Scalar]:
        """[e_i, e_j] as a sparse row {k: c^k_{ij}}."""
        return {k: _norm(a, b, self._den) for k, (a, b) in self._num.get((i, j), {}).items()}

    def _bracket(self, u: dict, v: dict) -> dict:
        """den·[u, v] for rows u and v over Z[i], den the table's denominator."""
        return _combination((a * c - b * d, a * d + b * c, row)
                            for i, (a, b) in u.items() for j, (c, d) in v.items()
                            if (row := self._num.get((i, j))))

    def _check_jacobi(self):
        for i, j, k in combinations(range(self.dim), 3):
            if _combination((*x, self._num.get((m, c), {}))
                            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                            for m, x in self._num.get((a, b), {}).items()):
                raise PreconditionFailed(f"Jacobi identity fails on basis triple ({i}, {j}, {k})")

    def __repr__(self):
        return f"<LieAlgebraStruct dim={self.dim} labels={self.labels}>"


def _built(dim: int, labels: Sequence[str], rows: dict) -> LieAlgebraStruct:
    """A table read off brackets in A₁ or off a checked one, as ``_fill`` takes
    it: skips __init__'s checks."""
    algebra = object.__new__(LieAlgebraStruct)
    algebra._fill(dim, labels, rows)
    return algebra


class CatalogTag(NamedTuple):
    """A named isomorphism class, with its parameter where the family has one."""

    kind: str  # Abelian | Heisenberg3 | Sl2 | Sl2xC | Sl2SemidirectH3 |
    #            Sl2SemidirectC2 | L | LTilde | LTildeModC | R | Unknown
    param: object = None

    def __str__(self):
        if self.kind == "R":
            return "R(" + ",".join(str(i) for i in self.param) + ")"
        if self.param is None:
            return self.kind
        return f"{self.kind}({self.param})"


class Realization(tuple):
    """A structure with its embedding as Weyl elements, the pair (algebra, images);
    the constructor checks that the images are independent and realise the table."""

    __slots__ = ()
    algebra, images = property(itemgetter(0)), property(itemgetter(1))

    def __new__(cls, algebra: LieAlgebraStruct, images: Sequence[WeylElement]):
        if len(images) != algebra.dim:
            raise BadParams("one image per basis vector required")
        images = [_as_element(x, "Realization") for x in images]
        _independent_span(images, "realisation images are linearly dependent")
        for i, j in combinations(range(algebra.dim), 2):
            expected = _sum([(a, b, algebra._den, images[k])
                             for k, (a, b) in algebra._num.get((i, j), {}).items()])
            if bracket(images[i], images[j]) != expected:
                raise NotHomomorphism(f"bracket of {algebra.labels[i]} and {algebra.labels[j]} "
                                      "does not match the structure constants")
        return _realization(algebra, images)


def _realization(algebra: LieAlgebraStruct, images: list[WeylElement]) -> Realization:
    """A realisation the library built, true by construction: skips __new__."""
    return tuple.__new__(Realization, (algebra, images))


class CatalogEntry(NamedTuple):
    algebra: LieAlgebraStruct
    realization: Optional[Realization]


def normalize_tag(tag: CatalogTag) -> CatalogTag:
    """Canonical form of a tag: collapse known coincidences.

    L(2) is the Heisenberg algebra; R index lists are sorted, made positive,
    divided by their gcd, with at most one zero kept in front as the central
    direct factor; an all-zero R list is plain abelian.
    """
    if tag.kind == "L" and tag.param == 2:
        return CatalogTag("Heisenberg3")
    if tag.kind == "R":
        idx = sorted(tag.param)
        if idx and all(i <= 0 for i in idx) and idx[0] < 0:
            idx = sorted(-i for i in idx)
        nonzero = [i for i in idx if i]
        zeros = len(idx) - len(nonzero)
        if not nonzero:
            return CatalogTag("Abelian", len(idx) + 1)
        if zeros > 1 or any(i < 0 for i in nonzero):
            return tag
        g = math.gcd(*nonzero)
        return CatalogTag("R", tuple([0] * zeros + [i // g for i in nonzero]))
    return tag


# -- the catalog -----------------------------------------------------------------


def _struct_from_images(labels: Sequence[str], images: Sequence[WeylElement]) -> CatalogEntry:
    """The table and realisation of catalog images, which close under brackets."""
    span = _independent_span(images, "realisation images are linearly dependent")._echelon
    c = {(i, j): span.express((x := bracket(images[i], images[j])).num, x.den)
         for i, j in combinations(range(len(images)), 2)}
    algebra = _built(len(images), labels, c)
    return CatalogEntry(algebra, _realization(algebra, list(images)))


def _filiform_images(n: int) -> list[WeylElement]:
    return [-q] + [WeylElement.monomial(k, 0).scale(Fraction(1, math.factorial(k)))
                   for k in range(n - 1, -1, -1)]


def catalog(tag: CatalogTag) -> CatalogEntry:
    """The structure constants of a catalog class, with the standard
    realisation by Weyl elements whenever the class has one."""
    from .sl2orbits import f_I
    kind, param = tag.kind, tag.param
    if kind == "Abelian":
        _check_count(param, 1, "abelian algebras need a positive dimension")
        return _struct_from_images([f"Z{i}" for i in range(1, param + 1)],
                                   [WeylElement.monomial(k, 0) for k in range(1, param + 1)])
    if kind == "Heisenberg3":
        return _struct_from_images(["Z", "P", "Q"], [one, p, q])
    if kind == "Sl2":
        return _struct_from_images(["X", "Y", "H"], list(f_I()))
    if kind == "Sl2xC":
        return _struct_from_images(["Z", "X", "Y", "H"], [one, *f_I()])
    if kind == "Sl2SemidirectH3":
        return _struct_from_images(["Z", "P", "Q", "X", "Y", "H"],
                                   [one, p, q, *f_I()])
    if kind == "L":
        _check_count(param, 2, "the filiform family starts at parameter 2")
        labels = [f"X{k}" for k in range(param + 1)]
        return _struct_from_images(labels, _filiform_images(param))
    if kind == "LTilde":
        _check_count(param, 2, "the extended filiform family starts at parameter 2")
        labels = ["h"] + [f"X{k}" for k in range(param + 1)]
        return _struct_from_images(labels, [p * q] + _filiform_images(param))
    if kind == "R":
        idx = tuple(param) if isinstance(param, (tuple, list)) else ()
        if (not idx or not all(map(_is_count, idx)) or len(set(idx)) != len(idx)
                or not any(idx)):
            raise BadParams("indices must be distinct naturals, not all zero")
        labels = ["h"] + [f"X{k}" for k in range(1, len(idx) + 1)]
        images = [p * q] + [WeylElement.monomial(i, 0) for i in idx]
        return _struct_from_images(labels, images)
    if kind == "Sl2SemidirectC2":
        c = {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}, (0, 4): {3: 1},
             (1, 3): {4: 1}, (2, 3): {3: 1}, (2, 4): {4: -1}}
        return CatalogEntry(LieAlgebraStruct(5, ["X", "Y", "H", "U", "V"], c), None)
    if kind == "LTildeModC":
        n = param
        _check_count(n, 2, "the quotient family starts at parameter 2")
        labels = ["h"] + [f"X{k}" for k in range(n)]
        c = {(0, 1): {1: -1}, **{(0, k + 1): {k + 1: n - k} for k in range(1, n)},
             **{(1, k + 1): {k + 2: 1} for k in range(1, n - 1)}}
        return CatalogEntry(LieAlgebraStruct(n + 1, labels, c), None)
    raise BadParams(f"no catalog entry for kind {kind!r}")


# -- closure ----------------------------------------------------------------------


def lie_closure(gens: Sequence[WeylElement], max_dim: int = 64) -> Realization:
    """Close a generating set under brackets; exact echelon basis.

    Basis rows keep insertion order (generators first), so a distinguished
    first generator stays at index 0.  Each pair of rows is bracketed once:
    reducing [rows[j], rows[i]] (j < i) both closes the span and gives the
    structure constants c^k_{ji}, its coordinates over the rows, which stay
    final since rows are only appended.  Exceeding max_dim suggests the
    closure is infinite-dimensional.
    """
    _check_count(max_dim, 1, "the dimension cap must be at least 1, got {!r}")
    span = ElementSpan(_as_element(x, "lie_closure") for x in gens)
    rows = span.rows  # grows with each insert that enlarges the span
    if not rows:
        raise BadParams("at least one nonzero generator required")
    if len(rows) > max_dim:
        raise DimensionExceeded(max_dim)
    c = {}
    i = 0
    while i < len(rows):
        for j in range(i):
            c[(j, i)] = span.insert_coordinates(bracket(rows[j], rows[i]))
            if len(rows) > max_dim:
                raise DimensionExceeded(max_dim)
        i += 1
    algebra = _built(len(rows), [f"b{k}" for k in range(len(rows))], c)
    return _realization(algebra, rows)


# -- coordinate subspace helpers ----------------------------------------------------


def _derived_span(algebra: LieAlgebraStruct, rows) -> Echelon:
    """[span(rows), span(rows)], one bracket per unordered pair: the reversed
    pairs are negatives and the diagonal is zero."""
    return Echelon(algebra._bracket(u, v) for u, v in combinations(rows, 2))


def _series(algebra: LieAlgebraStruct, rows, first: Echelon, derived: bool) -> list[Echelon]:
    """The derived (or lower-central) series of span(rows) from its first term
    [rows, rows] down to the first term that vanishes or stops shrinking."""
    terms = [first]
    prev = len(rows)
    while terms[-1].dim not in (0, prev):
        prev = terms[-1].dim
        cur = terms[-1].rows
        terms.append(_derived_span(algebra, cur) if derived
                     else Echelon(algebra._bracket(u, v) for u in rows for v in cur))
    return terms


class AlgebraInvariants(NamedTuple):
    derived_series_dims: list[int]
    lower_central_dims: list[int]
    center_dim: int
    solvable: bool
    nilpotent: bool


def _center(algebra: LieAlgebraStruct) -> Echelon:
    """The centre: the relations among the columns ad(e_i) = {(j, k): c^k_{ij}}."""
    n = algebra.dim
    columns = [{(j, k): z for j in range(n) for k, z in algebra._num.get((i, j), {}).items()}
               for i in range(n)]
    return Echelon(integer_kernel(columns))


def _invariants(algebra: LieAlgebraStruct):
    """The invariants, with the derived series [g, g], [D, D], … and the centre."""
    n = algebra.dim
    full = [{i: (1, 0)} for i in range(n)]
    first = _derived_span(algebra, full)
    series = _series(algebra, full, first, derived=True)
    derived = [n] + [t.dim for t in series]
    lower = [n] + [t.dim for t in _series(algebra, full, first, derived=False)]
    center = _center(algebra)
    inv = AlgebraInvariants(derived, lower, center.dim, derived[-1] == 0, lower[-1] == 0)
    return inv, series, center


def invariants(algebra: LieAlgebraStruct) -> AlgebraInvariants:
    """Derived and lower-central dimension profiles, centre, flags."""
    return _invariants(algebra)[0]


def _rebased(algebra: LieAlgebraStruct, span: Echelon, gens, d: int, skip: int, labels):
    """The table on f_k = gens[k]/d, k ≥ skip, modulo the ideal the first ``skip`` span:
    _bracket(d·f_a, d·f_b)/(d·_den) = d·[f_a, f_b] read over span = Echelon(gens)."""
    c = {}
    for a, b in combinations(range(skip, len(gens)), 2):
        num, n = span.express(algebra._bracket(gens[a], gens[b]), d * algebra._den)
        c[(a - skip, b - skip)] = {g - skip: z for g, z in num.items() if g >= skip}, n
    return _built(len(gens) - skip, labels, c)


def quotient_by_center(algebra: LieAlgebraStruct) -> LieAlgebraStruct:
    """The quotient algebra on a complement of the centre: the basis (centre rows,
    kept basis vectors), restricted past the centre."""
    center = _center(algebra)
    keep = [i for i in range(algebra.dim) if i not in center.pivots]
    gens = center.rows + [{i: (1, 0)} for i in keep]
    return _rebased(algebra, Echelon(gens), gens, 1, center.dim, [algebra.labels[i] for i in keep])


def change_basis(algebra: LieAlgebraStruct, matrix: list[list[Scalar]]) -> LieAlgebraStruct:
    """The same algebra on the basis f_j = Σ_i matrix[i][j]·e_i."""
    n = algebra.dim
    rows, d = _scalar_rows(matrix, square=True)
    if len(rows) != n:
        raise BadParams(f"basis-change matrix must be {n}x{n}")
    ints = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(n)]
    if (span := Echelon(ints)).dim != n:
        raise BadParams("basis-change matrix is singular")
    return _rebased(algebra, span, ints, d, 0, [f"f{k}" for k in range(n)])


# -- recognition --------------------------------------------------------------------


def _integer_profile(eigs: list[Scalar]) -> list[int]:
    """The nonzero eigenvalues over the first, as a primitive integer vector
    with a positive first entry, on the parts of e = (a + b·i)/d: e/e₀ is
    (a + b·i)(a₀ - b₀·i)·d₀/(d·(a₀² + b₀²)), real iff b·a₀ = a·b₀, and then
    L·(a₀² + b₀²)/d₀ times it is (a·a₀ + b·b₀)·L/d, for L the lcm of the d."""
    a0, b0 = eigs[0].a, eigs[0].b
    if any(e.b * a0 != e.a * b0 for e in eigs):
        raise IrrationalSpectrum("eigenvalue ratios leave the rationals")
    den = math.lcm(*(e.d for e in eigs))
    profile = [(e.a * a0 + e.b * b0) * (den // e.d) for e in eigs]
    g = math.gcd(*profile)
    return [n // g for n in profile]


def _filiform(algebra: LieAlgebraStruct, lower_dims: list[int], rows,
              derived_rows) -> Optional[int]:
    """n if V = span(rows), independent, is L(n): its lower-central profile is
    (n+1, n-1, n-2, …, 1, 0) with n ≥ 2 and, for n ≥ 3, the centraliser C in V
    of D = span(derived_rows) = [V, V] has codimension 1 (in Vergne's Q_n it
    does not).  C is the relations among the columns ad(u)|D, u in rows; at
    codimension 1, C ∩ D is the centre of D, of codimension at most 1 in D, so
    D is abelian, lies in C and C = D + one vector centralising D."""
    n = lower_dims[0] - 1
    if n < 2 or lower_dims != [n + 1] + list(range(n - 1, -1, -1)):
        return None
    if n == 2:  # the Heisenberg algebra, whose derived algebra is its centre
        return n
    columns = [{(r, k): z for r, d in enumerate(derived_rows)
                for k, z in algebra._bracket(u, d).items()} for u in rows]
    return n if len(integer_kernel(columns)) == len(rows) - 1 else None


def recognize(algebra: LieAlgebraStruct) -> CatalogTag:
    """Map a structure back to its normalised catalog tag.

    The decision tree follows the classification: abelian and nilpotent
    cases by ``_filiform`` on g; solvable non-nilpotent ones by a generator h
    over derived + centre: on an abelian derived algebra D, the diagonal
    families by the weights of ad(h), read off the table's columns as
    ``weight_spaces`` reads them; on a filiform D, by ``_filiform`` on D, the
    extended families, separated by their centres; non-solvable ones by
    Levi's theorem from dimension, perfectness and centre: 3 is sl2, 4 is
    sl2 × C, 5 and perfect is sl2 ⋉ C², 6, perfect with a 1-dimensional
    centre is sl2 ⋉ H3.  Anything else is Unknown.
    """
    inv, series, center = _invariants(algebra)
    n = algebra.dim
    if inv.derived_series_dims[1] == 0:
        return CatalogTag("Abelian", n)
    full = [{i: (1, 0)} for i in range(n)]
    if inv.nilpotent:
        m = _filiform(algebra, inv.lower_central_dims, full, series[0].rows)
        return CatalogTag("Unknown") if m is None else normalize_tag(CatalogTag("L", m))
    derived = series[0]
    if inv.solvable:
        # the catalog solvables are all one generator over derived + centre
        ext = Echelon(derived.rows + center.rows)
        if n - ext.dim != 1:
            return CatalogTag("Unknown")
        h = next(i for i in range(n) if not ext.contains(full[i]))
        if inv.derived_series_dims[2] == 0:
            # abelian derived D = [h, D]: ad(h) maps g onto D, so its eigenvectors
            # of nonzero weight lie in D and span it iff ad(h)|D diagonalises
            decomp = eigen_decomposition([algebra._num.get((h, j), {}) for j in range(n)],
                                         algebra._den)
            eigs = [lam for lam, rels in decomp if lam for _ in rels]
            if len(eigs) != derived.dim:
                return CatalogTag("Unknown")
            profile = _integer_profile(eigs)
            if center.dim > 1:
                return CatalogTag("Unknown")
            # the ratios to the first eigenvalue: a profile of one sign is positive
            if all(i > 0 for i in profile):
                idx = sorted(profile)
                if len(set(idx)) != len(idx):
                    return CatalogTag("Unknown")
                return normalize_tag(CatalogTag("R", tuple([0] * center.dim + idx)))
            if sorted(profile) == [-1, 1] and center.dim == 0:
                return CatalogTag("LTildeModC", 2)
            return CatalogTag("Unknown")
        # non-abelian derived algebra: the extended filiform families
        lower = _series(algebra, derived.rows, series[1], derived=False)
        m = _filiform(algebra, [derived.dim] + [t.dim for t in lower], derived.rows,
                      series[1].rows)
        if m is None:
            return CatalogTag("Unknown")
        if center.dim == 1 and n == m + 2:
            return CatalogTag("LTilde", m)
        if center.dim == 0 and n == m + 2:
            return CatalogTag("LTildeModC", m + 1)
        return CatalogTag("Unknown")
    # non-solvable: by Levi, g = s ⋉ rad with s semisimple; below dimension 6
    # s is a form of sl2 and a 6-dimensional s has no centre, so each entry
    # has a 3-dimensional Levi factor and its radical is n − 3
    perfect = derived.dim == n
    if n == 3:
        return CatalogTag("Sl2")
    if n == 4:
        return CatalogTag("Sl2xC")
    if n == 5 and perfect:
        return CatalogTag("Sl2SemidirectC2")
    if n == 6 and perfect and center.dim == 1:
        return CatalogTag("Sl2SemidirectH3")
    return CatalogTag("Unknown")


# -- filiform normal bases ------------------------------------------------------------


def filiform_normal_basis(realization: Realization) -> list[WeylElement]:
    """An ordered basis X₀, …, X_n with [X₀, X_k] = X_{k+1} the only relations.

    One pass over the images.  Their lower-central series γ₀ ⊃ γ₁ ⊃ … is
    refused when γ₁ = 0 (abelian), when a term does not shrink (not nilpotent)
    and when its profile is not L(n)'s, (n+1, n-1, …, 1), ending in the
    scalars; X_{n-1} is the first row of the term before the scalars outside
    them.  The partner P is the first image with [P, X_{n-1}] ≠ 0, over that
    scalar; one exists, as the centraliser of a non-scalar in A₁ is abelian.
    On L(n), P lies outside the abelian ideal I = span(X₁, …, X_n), so
    ad(P)^(n-2) maps I onto span(X_{n-1}, X_n) and one solve finds the seed
    X₁ = w in I: ad(P)^(n-2)(w) = X_{n-1} and [w, X_{n-1}] = 0 (w = X_{n-1}
    for n = 2).  The chain P, w, [P, w], … is checked against L(n)'s table.
    """
    images = realization.images
    n = len(images) - 1
    terms = [_independent_span(images, "realisation images are linearly dependent")]
    while (nxt := ElementSpan(bracket(x, row) for x in images for row in terms[-1].rows)).dim:
        if nxt.dim >= terms[-1].dim:
            raise NotNilpotent("the realised algebra is not nilpotent")
        terms.append(nxt)
    if len(terms) == 1:
        raise PreconditionFailed("abelian algebras have no filiform chain")
    if [t.dim for t in terms] != [n + 1, *range(n - 1, 0, -1)] or not terms[-1].rows[0].is_scalar():
        raise NotInA1Form(f"the lower-central series is not that of L({n}) in A1")
    x_n1 = next(row for row in terms[-2].rows if not terms[-1].contains(row))
    # [x, X_{n-1}] lies in the last term, the scalars
    x0 = next(x / c for x in images if (c := bracket(x, x_n1).constant_term()))
    # column j holds ad(P)^(n-2)(x_j), keyed (0, monomial), beside [x_j, X_{n-1}],
    # keyed (1, monomial), both over Z[i] over the lcm of their denominators
    cols = Echelon()
    for x in images:
        halves = (ad_pow(x0, x, n - 2), bracket(x, x_n1))
        den = math.lcm(*(y.den for y in halves))
        cols.insert({(half, m): (a * (den // y.den), b * (den // y.den))
                     for half, y in enumerate(halves) for m, (a, b) in y.num.items()}, den)
    if (sol := cols.express({(0, m): z for m, z in x_n1.num.items()}, x_n1.den)) is None:
        raise NotInA1Form("no chain seed lies in the span of the images")
    chain = [x0, _sum([(a, b, sol[1], images[g]) for g, (a, b) in sol[0].items()])]
    for _ in range(n - 1):
        chain.append(bracket(x0, chain[-1]))
    try:
        Realization(catalog(CatalogTag("L", n)).algebra, chain)
    except (NotInjective, NotHomomorphism):
        raise NotInA1Form(f"the chain does not realise L({n})") from None
    return chain


def weight_spaces(realization: Realization, h_index: int) -> dict[Scalar, list[WeylElement]]:
    """Eigenspace decomposition of ad(basis[h_index]) on the realised algebra."""
    algebra = realization.algebra
    _check_count(h_index, 0, "h_index must be a natural number, got {!r}")
    if h_index >= algebra.dim:
        raise BadParams("h_index out of range")
    decomp = eigen_decomposition([algebra._num.get((h_index, j), {}) for j in range(algebra.dim)],
                                 algebra._den)
    total = sum(len(rels) for _, rels in decomp)
    if total != algebra.dim:
        raise NotDiagonalisable(f"eigenspaces span {total} of {algebra.dim} dimensions")
    # each relation over its entry at its largest index: the weight vector with one there
    return {lam: [_sum([(a, b, s, realization.images[k]) for k, (a, b) in num.items()])
                  for num, s in (_divide(rel, rel[max(rel)]) for rel in rels)]
            for lam, rels in decomp}
