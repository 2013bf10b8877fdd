"""Finite-dimensional Lie algebras inside the Weyl algebra.

A LieAlgebraStruct is a bare structure-constant table, kept over Z[i]
(antisymmetry by storage; Jacobi checked on a table given to the constructor,
holding by construction on the tables the library builds); a Realization
pairs one with an exact embedding into the algebra.  On top of those sit:

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
from typing import NamedTuple, Optional, Sequence

from .elements import (ElementSpan, WeylElement, _as_element, _independent_span, _sum, ad_pow,
                       bracket, linear_combination, one, p, q)
from .errors import (BadParams, DimensionExceeded, IrrationalSpectrum,
                     NotDiagonalisable, NotHomomorphism, NotInA1Form,
                     NotInjective, NotNilpotent, PreconditionFailed, _check_count, _is_count)
from .linalg import Echelon, eigen_decomposition, integer_kernel
from .scalars import ZERO, Scalar, _clear, _dense, _norm, as_scalar

__all__ = [
    "LieAlgebraStruct", "CatalogTag", "Realization", "CatalogEntry",
    "AlgebraInvariants", "catalog", "normalize_tag", "lie_closure",
    "invariants", "recognize", "verify_realization", "filiform_normal_basis",
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
        c = {ij: {k: x for k, v in row.items() if (x := as_scalar(v))} for ij, row in c.items()}
        den = math.lcm(*{x.d for row in c.values() for x in row.values()})
        self._fill(dim, labels, {ij: (_clear(row, den), den) for ij, row in c.items()})
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
        return _combination(((a * c - b * d, a * d + b * c), row)
                            for i, (a, b) in u.items() for j, (c, d) in v.items()
                            if (row := self._num.get((i, j))))

    def _check_jacobi(self):
        for i, j, k in combinations(range(self.dim), 3):
            if _combination((x, self._num.get((m, c), {}))
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


def _combination(pairs) -> dict:
    """Σ z·row over pairs (z, row) of a Gaussian integer and a row over Z[i]."""
    out: dict = {}
    for (a, b), row in pairs:
        for k, (x, y) in row.items():
            re, im = out.get(k, (0, 0))
            out[k] = (re + a * x - b * y, im + a * y + b * x)
    return {k: z for k, z in out.items() if z != (0, 0)}


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


class Realization(NamedTuple):
    """A structure together with its embedding as Weyl elements."""

    algebra: LieAlgebraStruct
    images: list[WeylElement]


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
    span = _independent_span(images, "realisation images are linearly dependent")._echelon
    c = {}
    for i, j in combinations(range(len(images)), 2):
        x = bracket(images[i], images[j])
        if (coords := span.express(x.num, x.den)) is None:
            raise PreconditionFailed("images do not span a Lie subalgebra")
        c[(i, j)] = coords
    algebra = _built(len(images), labels, c)
    return CatalogEntry(algebra, Realization(algebra, list(images)))


def _filiform_images(n: int) -> list[WeylElement]:
    out = [-q]
    for k in range(1, n + 1):
        out.append(WeylElement.monomial(n - k, 0).scale(Fraction(1, math.factorial(n - k))))
    return out


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


# -- closure and verification -----------------------------------------------------


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
    span = ElementSpan(_as_element(x, "lie_closure takes elements and scalars, not {}")
                       for x in gens)
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
    return Realization(algebra, rows)


def verify_realization(algebra: LieAlgebraStruct, images: Sequence[WeylElement]) -> Realization:
    """Certify that the images realise the structure constants exactly."""
    if len(images) != algebra.dim:
        raise BadParams("one image per basis vector required")
    _independent_span(images, "realisation images are linearly dependent")
    for i, j in combinations(range(algebra.dim), 2):
        expected = _sum([(a, b, algebra._den, images[k])
                         for k, (a, b) in algebra._num.get((i, j), {}).items()])
        if bracket(images[i], images[j]) != expected:
            raise NotHomomorphism(
                f"bracket of {algebra.labels[i]} and {algebra.labels[j]} "
                f"does not match the structure constants")
    return Realization(algebra, list(images))


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


def quotient_by_center(algebra: LieAlgebraStruct) -> LieAlgebraStruct:
    """The quotient algebra on a complement of the centre."""
    center = _center(algebra)
    keep = [i for i in range(algebra.dim) if i not in center.pivots]
    # brackets are read in the basis (centre rows, kept basis vectors)
    basis = Echelon(center.rows + [{i: (1, 0)} for i in keep])
    c = {}
    for (a, i), (b, j) in combinations(enumerate(keep), 2):
        num, n = basis.express(algebra._num.get((i, j), {}), algebra._den)
        c[(a, b)] = {g - center.dim: z for g, z in num.items() if g >= center.dim}, n
    return _built(len(keep), [algebra.labels[i] for i in keep], c)


def change_basis(algebra: LieAlgebraStruct, matrix: list[list[Scalar]]) -> LieAlgebraStruct:
    """The same algebra on the basis f_j = Σ_i matrix[i][j]·e_i."""
    n = algebra.dim
    if not isinstance(matrix, Sequence) or len(matrix) != n or any(
            not isinstance(r, Sequence) or len(r) != n for r in matrix):
        raise BadParams(f"basis-change matrix must be {n}x{n}")
    cols = [{i: as_scalar(matrix[i][j]) for i in range(n)} for j in range(n)]
    d = math.lcm(*{x.d for col in cols for x in col.values()})
    ints = [_clear(col, d) for col in cols]
    span = Echelon(ints)
    if span.dim != n:
        raise BadParams("basis-change matrix is singular")
    # _bracket(d·f_a, d·f_b)/(d·_den) = d·[f_a, f_b], over the generators d·f_k
    den = d * algebra._den
    c = {(a, b): span.express(algebra._bracket(ints[a], ints[b]), den)
         for a, b in combinations(range(n), 2)}
    return _built(n, [f"f{k}" for k in range(n)], c)


# -- recognition --------------------------------------------------------------------


def _filiform_parameter(lower_dims: list[int]) -> Optional[int]:
    """n if the profile is the filiform one (n+1, n-1, n-2, …, 1, 0)."""
    if len(lower_dims) < 2 or lower_dims[-1] != 0:
        return None
    n = lower_dims[0] - 1
    expected = [n + 1] + list(range(n - 1, -1, -1))
    return n if lower_dims == expected and n >= 2 else None


def _integer_profile(eigs: list[Scalar]) -> list[int]:
    """The nonzero eigenvalues over the first, times the lcm of the ratios'
    denominators: a primitive integer vector, since its first entry is that lcm."""
    ratios = [e / eigs[0] for e in eigs]
    if any(r.im for r in ratios):
        raise IrrationalSpectrum("eigenvalue ratios leave the rationals")
    scale = math.lcm(*(r.re.denominator for r in ratios))
    return [int(r.re * scale) for r in ratios]


def _model_filiform(algebra: LieAlgebraStruct, rows, derived_rows) -> bool:
    """Whether the centraliser C in V = span(rows) of D = span(derived_rows) is
    abelian of codimension 1, for independent rows with D = [V, V] of
    codimension 2: C is the relations among the columns ad(u)|D, u in rows.
    Codimension 1 makes C abelian: C ∩ D is the centre of D, of codimension at
    most 1 in D, so D is abelian, lies in C and C = D + one vector centralising D."""
    columns = [{(r, k): z for r, d in enumerate(derived_rows)
                for k, z in algebra._bracket(u, d).items()} for u in rows]
    return len(integer_kernel(columns)) == len(rows) - 1


def recognize(algebra: LieAlgebraStruct) -> CatalogTag:
    """Map a structure back to its normalised catalog tag.

    The decision tree follows the classification: abelian and nilpotent
    cases by the lower-central profile, a filiform one L(m) with m ≥ 3 only
    when the centraliser of [g, g] is abelian of codimension 1 (in Vergne's
    Q_n it is not); solvable non-nilpotent ones by diagonalising a complement
    generator on the derived algebra (abelian derived: the diagonal
    families; filiform derived D, under the same centraliser test on D and
    [D, D]: the extended families, separated by their centres); non-solvable
    ones by Levi's theorem from dimension, perfectness and centre: 3 is sl2,
    4 is sl2 × C, 5 and perfect is sl2 ⋉ C², 6, perfect with a 1-dimensional
    centre is sl2 ⋉ H3.  Anything else is Unknown.
    """
    inv, series, center = _invariants(algebra)
    n = algebra.dim
    if inv.derived_series_dims[1] == 0:
        return CatalogTag("Abelian", n)
    full = [{i: (1, 0)} for i in range(n)]
    if inv.nilpotent:
        m = _filiform_parameter(inv.lower_central_dims)
        if m is None or (m >= 3 and not _model_filiform(algebra, full, series[0].rows)):
            return CatalogTag("Unknown")
        return normalize_tag(CatalogTag("L", m))
    derived = series[0]
    if inv.solvable:
        # the catalog solvables are all one generator over derived + centre
        ext = Echelon(derived.rows + center.rows)
        if n - ext.dim != 1:
            return CatalogTag("Unknown")
        h = next(i for i in range(n) if not ext.contains(full[i]))
        if inv.derived_series_dims[2] == 0:
            # abelian derived algebra (an ideal): diagonalise ad(h) on its integer rows
            basis = Echelon(derived.rows)
            ad_cols = [_dense(*basis.express(algebra._bracket({h: (1, 0)}, d), algebra._den),
                              derived.dim) for d in derived.rows]
            mat = [[col[k] for col in ad_cols] for k in range(derived.dim)]
            eigs = [lam for lam, vecs in eigen_decomposition(mat) for _ in vecs]
            if len(eigs) != derived.dim or not all(eigs):
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
        m = _filiform_parameter([derived.dim] + [t.dim for t in lower])
        if m is None or (m >= 3 and not _model_filiform(algebra, derived.rows,
                                                         series[1].rows)):
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


def _try_chain(span: ElementSpan, images: Sequence[WeylElement],
               cand_p: WeylElement, cand_q: WeylElement) -> Optional[list[WeylElement]]:
    """Attempt the normal chain for a pair with [P, Q] = 1.  The seed w = Σ sol_j·x_j
    solves ad(P)^(dim-3)(w) = Q and [w, Q] = 0: column j holds ad(P)^(dim-3)(x_j),
    keyed (0, monomial), beside [x_j, Q], keyed (1, monomial), both over Z[i]
    over the lcm of their denominators.  The chain stands only if it realises
    the catalog table of L(dim - 1)."""
    dim = len(images)
    cols = Echelon()
    for x in images:
        x_q = bracket(x, cand_q)
        if not (span.contains(bracket(cand_p, x)) and span.contains(x_q)):
            return None
        halves = (ad_pow(cand_p, x, dim - 3), x_q)
        den = math.lcm(*(y.den for y in halves))
        cols.insert({(half, m): (a * (den // y.den), b * (den // y.den))
                     for half, y in enumerate(halves) for m, (a, b) in y.num.items()}, den)
    sol = cols.express({(0, m): z for m, z in cand_q.num.items()}, cand_q.den)
    if sol is None:
        return None
    num, n = sol
    chain = [cand_p, _sum([(a, b, n, images[g]) for g, (a, b) in num.items()])]
    for _ in range(dim - 2):
        chain.append(bracket(cand_p, chain[-1]))
    try:
        verify_realization(catalog(CatalogTag("L", dim - 1)).algebra, chain)
    except (NotInjective, NotHomomorphism):
        return None
    return chain


def filiform_normal_basis(realization: Realization) -> list[WeylElement]:
    """An ordered basis X₀, …, X_n with [X₀, X_k] = X_{k+1} the only relations.

    The tail of the chain is pinned down first: the last nonzero
    lower-central term must be the scalars, and X_{n-1} is read off the
    term before it.  A commutation partner — a basis row whose bracket
    against X_{n-1} is a nonzero scalar — is normalised to [P, X_{n-1}] = 1,
    the chain seed w is solved from the iterated ad-power of P inside the
    centraliser of X_{n-1}, and the full bracket table of the resulting
    chain is verified.
    """
    inv = invariants(realization.algebra)
    if not inv.nilpotent:
        raise NotNilpotent("the realised algebra is not nilpotent")
    if inv.derived_series_dims[1] == 0:
        raise PreconditionFailed("abelian algebras have no filiform chain")
    images = realization.images
    span = _independent_span(images, "realisation images are linearly dependent")
    # lower-central chain of spans, down to the last nonzero term
    terms = [span]
    while True:
        nxt = ElementSpan(bracket(x, row) for x in images for row in terms[-1].rows)
        if nxt.dim == 0:
            break
        terms.append(nxt)
    last = terms[-1]
    if last.dim != 1 or not last.rows[0].is_scalar():
        raise NotInA1Form("the chain does not terminate in the scalars")
    penultimate = terms[-2]
    target = next((row for row in penultimate.rows if not last.contains(row)),
                  None)
    if target is None:
        raise NotInA1Form("no direction for the next-to-last chain element")
    for x in images:
        br = bracket(x, target)
        if br.is_zero() or not br.is_scalar():
            continue
        chain = _try_chain(span, images, x / br.constant_term(), target)
        if chain is not None:
            return chain
    raise NotInA1Form("no commutation pair leads to a working chain")


def weight_spaces(realization: Realization, h_index: int) -> dict[Scalar, list[WeylElement]]:
    """Eigenspace decomposition of ad(basis[h_index]) on the realised algebra."""
    algebra = realization.algebra
    _check_count(h_index, 0, "h_index must be a natural number, got {!r}")
    if h_index >= algebra.dim:
        raise BadParams("h_index out of range")
    mat = [[algebra.basis_bracket(h_index, j).get(k, ZERO) for j in range(algebra.dim)]
           for k in range(algebra.dim)]
    decomp = eigen_decomposition(mat)
    total = sum(len(vecs) for _, vecs in decomp)
    if total != algebra.dim:
        raise NotDiagonalisable(
            f"eigenspaces span {total} of {algebra.dim} dimensions")
    return {lam: [linear_combination(zip(v, realization.images)) for v in vecs]
            for lam, vecs in decomp}
