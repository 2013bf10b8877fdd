"""Finite-dimensional Lie algebras inside the Weyl algebra.

A LieAlgebraStruct is a bare structure-constant table (antisymmetry by
storage, Jacobi checked on construction); a Realization pairs one with an
exact embedding into the algebra.  On top of those sit:

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

from .elements import ElementSpan, WeylElement, ad_pow, bracket, linear_combination, one, p, q
from .errors import (BadParams, DimensionExceeded, IrrationalSpectrum,
                     NotDiagonalisable, NotHomomorphism, NotInA1Form,
                     NotInjective, NotNilpotent, PreconditionFailed)
from .linalg import Echelon, eigen_decomposition, kernel
from .scalars import ONE, ZERO, Scalar
from .sl2orbits import f_I

__all__ = [
    "LieAlgebraStruct", "CatalogTag", "Realization", "CatalogEntry",
    "AlgebraInvariants", "catalog", "normalize_tag", "lie_closure",
    "invariants", "recognize", "verify_realization", "filiform_normal_basis",
    "weight_spaces", "quotient_by_center", "change_basis",
]

Vector = list[Scalar]


class LieAlgebraStruct:
    """Structure constants c^k_{ij} over a finite basis, stored for i < j."""

    def __init__(self, dim: int, labels: Sequence[str],
                 c: dict[tuple[int, int], dict[int, Scalar]]):
        if len(labels) != dim:
            raise BadParams(f"{dim} basis vectors need {dim} labels, got {len(labels)}")
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        signed: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), row in c.items():
            if not (0 <= i < j < dim):
                raise BadParams("structure constants must be indexed with i < j")
            clean = {k: v for k, v in row.items() if v}
            if clean:
                table[(i, j)] = signed[(i, j)] = clean
                signed[(j, i)] = {k: -v for k, v in clean.items()}
        self.dim = dim
        self.labels = list(labels)
        self.c = table
        self._signed = signed
        self._check_jacobi()

    def basis_bracket(self, i: int, j: int) -> dict[int, Scalar]:
        """[e_i, e_j] as a sparse row {k: c^k_{ij}}, read from c with its sign."""
        return self._signed.get((i, j), {})

    def sparse_bracket(self, u: dict[int, Scalar], v: dict[int, Scalar]) -> dict[int, Scalar]:
        """[u, v] for sparse coordinate rows {basis index: Scalar}."""
        out: dict[int, Scalar] = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, s in self.basis_bracket(i, j).items():
                    out[k] = out.get(k, ZERO) + a * b * s
        return {k: x for k, x in out.items() if x}

    def _check_jacobi(self):
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    total: dict[int, Scalar] = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, s in self.basis_bracket(a, b).items():
                            for t, x in self.basis_bracket(m, c).items():
                                total[t] = total.get(t, ZERO) + s * x
                    if any(total.values()):
                        raise PreconditionFailed(
                            f"Jacobi identity fails on basis triple ({i}, {j}, {k})")

    def __repr__(self):
        return f"<LieAlgebraStruct dim={self.dim} labels={self.labels}>"


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
    span = ElementSpan(images)
    if span.dim != len(images):
        raise NotInjective("realisation images are linearly dependent")
    c: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i, j in combinations(range(len(images)), 2):
        coords = span.express(bracket(images[i], images[j]))
        if coords is None:
            raise PreconditionFailed("images do not span a Lie subalgebra")
        c[(i, j)] = dict(enumerate(coords))
    algebra = LieAlgebraStruct(len(images), labels, c)
    return CatalogEntry(algebra, Realization(algebra, list(images)))


def _filiform_images(n: int) -> list[WeylElement]:
    out = [-q]
    for k in range(1, n + 1):
        out.append(WeylElement.monomial(n - k, 0).scale(Fraction(1, math.factorial(n - k))))
    return out


def catalog(tag: CatalogTag) -> CatalogEntry:
    """The structure constants of a catalog class, with the standard
    realisation by Weyl elements whenever the class has one."""
    kind, param = tag.kind, tag.param
    if kind == "Abelian":
        if not isinstance(param, int) or param < 1:
            raise BadParams("abelian algebras need a positive dimension")
        labels = [f"Z{i}" for i in range(1, param + 1)]
        images = [WeylElement.monomial(k, 0) for k in range(1, param + 1)]
        algebra = LieAlgebraStruct(param, labels, {})
        return CatalogEntry(algebra, Realization(algebra, images))
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
        if not isinstance(param, int) or param < 2:
            raise BadParams("the filiform family starts at parameter 2")
        labels = [f"X{k}" for k in range(param + 1)]
        return _struct_from_images(labels, _filiform_images(param))
    if kind == "LTilde":
        if not isinstance(param, int) or param < 2:
            raise BadParams("the extended filiform family starts at parameter 2")
        labels = ["h"] + [f"X{k}" for k in range(param + 1)]
        return _struct_from_images(labels, [p * q] + _filiform_images(param))
    if kind == "R":
        idx = tuple(param)
        if (not idx or len(set(idx)) != len(idx)
                or any(not isinstance(i, int) or i < 0 for i in idx)
                or not any(idx)):
            raise BadParams("indices must be distinct naturals, not all zero")
        labels = ["h"] + [f"X{k}" for k in range(1, len(idx) + 1)]
        images = [p * q] + [WeylElement.monomial(i, 0) for i in idx]
        return _struct_from_images(labels, images)
    if kind == "Sl2SemidirectC2":
        labels = ["X", "Y", "H", "U", "V"]
        s = Scalar
        c = {(0, 1): {2: ONE}, (0, 2): {0: s(-2)}, (1, 2): {1: s(2)},
             (0, 4): {3: ONE}, (1, 3): {4: ONE},
             (2, 3): {3: ONE}, (2, 4): {4: s(-1)}}
        return CatalogEntry(LieAlgebraStruct(5, labels, c), None)
    if kind == "LTildeModC":
        n = param
        if not isinstance(n, int) or n < 2:
            raise BadParams("the quotient family starts at parameter 2")
        labels = ["h"] + [f"X{k}" for k in range(n)]
        c: dict[tuple[int, int], dict[int, Scalar]] = {(0, 1): {1: Scalar(-1)}}
        for k in range(1, n):
            c[(0, k + 1)] = {k + 1: Scalar(n - k)}
        for k in range(1, n - 1):
            c[(1, k + 1)] = {k + 2: ONE}
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
    if max_dim < 1:
        raise BadParams(f"the dimension cap must be at least 1, got {max_dim}")
    span = ElementSpan(gens)
    rows = span.rows  # grows with each insert that enlarges the span
    if not rows:
        raise BadParams("at least one nonzero generator required")
    if len(rows) > max_dim:
        raise DimensionExceeded(max_dim)
    c: dict[tuple[int, int], dict[int, Scalar]] = {}
    i = 0
    while i < len(rows):
        for j in range(i):
            c[(j, i)] = span.insert_coordinates(bracket(rows[j], rows[i]))
            if len(rows) > max_dim:
                raise DimensionExceeded(max_dim)
        i += 1
    algebra = LieAlgebraStruct(len(rows), [f"b{k}" for k in range(len(rows))], c)
    return Realization(algebra, rows)


def verify_realization(algebra: LieAlgebraStruct, images: Sequence[WeylElement]) -> Realization:
    """Certify that the images realise the structure constants exactly."""
    if len(images) != algebra.dim:
        raise BadParams("one image per basis vector required")
    if ElementSpan(images).dim != len(images):
        raise NotInjective("realisation images are linearly dependent")
    for i, j in combinations(range(algebra.dim), 2):
        expected = linear_combination((s, images[k])
                                      for k, s in algebra.basis_bracket(i, j).items())
        if bracket(images[i], images[j]) != expected:
            raise NotHomomorphism(
                f"bracket of {algebra.labels[i]} and {algebra.labels[j]} "
                f"does not match the structure constants")
    return Realization(algebra, list(images))


# -- coordinate subspace helpers ----------------------------------------------------


def _bracket_span(algebra: LieAlgebraStruct, rows_a, rows_b) -> Echelon:
    return Echelon(algebra.sparse_bracket(u, v) for u in rows_a for v in rows_b)


def _derived_span(algebra: LieAlgebraStruct, rows) -> Echelon:
    """[span(rows), span(rows)], one bracket per unordered pair: the reversed
    pairs are negatives and the diagonal is zero, so the rows are those of
    ``_bracket_span(algebra, rows, rows)``."""
    return Echelon(algebra.sparse_bracket(u, v) for u, v in combinations(rows, 2))


def _series(algebra: LieAlgebraStruct, rows, first: Echelon, derived: bool) -> list[Echelon]:
    """The derived (or lower-central) series of span(rows) from its first term
    [rows, rows] down to the first term that vanishes or stops shrinking."""
    terms = [first]
    prev = len(rows)
    while terms[-1].dim not in (0, prev):
        prev = terms[-1].dim
        cur = terms[-1].rows
        terms.append(_derived_span(algebra, cur) if derived
                     else _bracket_span(algebra, rows, cur))
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
    columns = [{(j, k): s for j in range(n) for k, s in algebra.basis_bracket(i, j).items()}
               for i in range(n)]
    return Echelon(kernel(columns))


def _invariants(algebra: LieAlgebraStruct):
    """The invariants, with the derived series [g, g], [D, D], … and the centre."""
    n = algebra.dim
    full = [{i: ONE} for i in range(n)]
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
    basis = Echelon(center.rows + [{i: ONE} for i in keep])
    c = {(a, b): dict(enumerate(basis.express(algebra.basis_bracket(i, j))[center.dim:]))
         for (a, i), (b, j) in combinations(enumerate(keep), 2)}
    return LieAlgebraStruct(len(keep), [algebra.labels[i] for i in keep], c)


def change_basis(algebra: LieAlgebraStruct, matrix: list[Vector]) -> LieAlgebraStruct:
    """The same algebra on the basis f_j = Σ_i matrix[i][j]·e_i."""
    n = algebra.dim
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise BadParams(f"basis-change matrix must be {n}x{n}")
    cols = [{i: matrix[i][j] for i in range(n) if matrix[i][j]} for j in range(n)]
    span = Echelon(cols)
    if span.dim != n:
        raise BadParams("basis-change matrix is singular")
    c = {(a, b): dict(enumerate(span.express(algebra.sparse_bracket(cols[a], cols[b]))))
         for a, b in combinations(range(n), 2)}
    return LieAlgebraStruct(n, [f"f{k}" for k in range(n)], c)


# -- recognition --------------------------------------------------------------------


def _filiform_parameter(lower_dims: list[int]) -> Optional[int]:
    """n if the profile is the filiform one (n+1, n-1, n-2, …, 1, 0)."""
    if len(lower_dims) < 2 or lower_dims[-1] != 0:
        return None
    n = lower_dims[0] - 1
    expected = [n + 1] + list(range(n - 1, -1, -1))
    return n if lower_dims == expected and n >= 2 else None


def _integer_profile(eigs: list[Scalar]) -> Optional[list[int]]:
    """Scale commensurable eigenvalues to a primitive integer vector."""
    ref = next((e for e in eigs if e), None)
    if ref is None:
        return [0] * len(eigs)
    ratios = []
    for e in eigs:
        r = e / ref
        if r.im:
            raise IrrationalSpectrum("eigenvalue ratios leave the rationals")
        ratios.append(r.re)
    scale = math.lcm(*(f.denominator for f in ratios))
    ints = [int(f * scale) for f in ratios]
    g = math.gcd(*(abs(i) for i in ints if i)) if any(ints) else 1
    return [i // g for i in ints]


def _radical(algebra: LieAlgebraStruct, derived_rows) -> int:
    """Dimension of the radical, the Killing-orthogonal of the derived algebra."""
    n = algebra.dim
    br = algebra.basis_bracket
    rows = []
    for d in derived_rows:
        ad_d = [algebra.sparse_bracket(d, {l: ONE}) for l in range(n)]
        # K(d, e_i) = tr(ad d · ad e_i) = Σ_{k,l} [d, e_l]_k · c^l_{ik}
        rows.append({i: s for i in range(n)
                     if (s := sum((x * c for l, col in enumerate(ad_d) for k, x in col.items()
                                   if (c := br(i, k).get(l))), ZERO))})
    return n - Echelon(rows).dim


def _model_filiform(algebra: LieAlgebraStruct, rows, derived_rows) -> bool:
    """Whether the centraliser in span(rows) of span(derived_rows) is abelian
    of codimension 1, for independent rows: the relations among the columns
    ad(u) restricted to derived_rows, for u in rows."""
    columns = [{(r, k): s for r, d in enumerate(derived_rows)
                for k, s in algebra.sparse_bracket(u, d).items()} for u in rows]
    centraliser = [{k: x for k in {k for i in rel for k in rows[i]}
                    if (x := sum((c * rows[i].get(k, ZERO) for i, c in rel.items()), ZERO))}
                   for rel in kernel(columns)]
    return len(centraliser) == len(rows) - 1 and not any(
        algebra.sparse_bracket(u, v) for u, v in combinations(centraliser, 2))


def recognize(algebra: LieAlgebraStruct) -> CatalogTag:
    """Map a structure back to its normalised catalog tag.

    The decision tree follows the classification: abelian and nilpotent
    cases by the lower-central profile, a filiform one L(m) with m ≥ 3 only
    when the centraliser of [g, g] is abelian of codimension 1 (in Vergne's
    Q_n it is not); solvable non-nilpotent ones by diagonalising a complement
    generator on the derived algebra (abelian derived: the diagonal
    families; filiform derived D, under the same centraliser test on D and
    [D, D]: the extended families, separated by their centres); non-solvable
    ones by dimension, centre and radical.  Anything else is Unknown.
    """
    inv, series, center = _invariants(algebra)
    n = algebra.dim
    if inv.derived_series_dims[1] == 0:
        return CatalogTag("Abelian", n)
    full = [{i: ONE} for i in range(n)]
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
        h = next(e for e in full if not ext.contains(e))
        if inv.derived_series_dims[2] == 0:
            # abelian derived algebra (an ideal): diagonalise ad(h) on it
            ad_cols = [derived.row_coordinates(algebra.sparse_bracket(h, d))
                       for d in derived.rows]
            mat = [[col[k] for col in ad_cols] for k in range(derived.dim)]
            decomp = eigen_decomposition(mat)
            if sum(len(vecs) for _, vecs in decomp) != derived.dim:
                return CatalogTag("Unknown")
            eigs = []
            for lam, vecs in decomp:
                eigs.extend([lam] * len(vecs))
            if any(not e for e in eigs):
                return CatalogTag("Unknown")
            profile = _integer_profile(eigs)
            central_extra = center.dim
            if central_extra > 1:
                return CatalogTag("Unknown")
            if all(i > 0 for i in profile) or all(i < 0 for i in profile):
                idx = sorted(abs(i) for i in profile)
                if len(set(idx)) != len(idx):
                    return CatalogTag("Unknown")
                return normalize_tag(CatalogTag("R", tuple([0] * central_extra + idx)))
            if sorted(profile) == [-1, 1] and central_extra == 0:
                return CatalogTag("LTildeModC", 2)
            return CatalogTag("Unknown")
        # non-abelian derived algebra: the extended filiform families
        lower = _series(algebra, derived.rows, series[1], derived=False)
        m = _filiform_parameter([derived.dim] + [t.dim for t in lower])
        if m is None or (m >= 3 and not _model_filiform(algebra, derived.rows, series[1].rows)):
            return CatalogTag("Unknown")
        if center.dim == 1 and n == m + 2:
            return CatalogTag("LTilde", m)
        if center.dim == 0 and n == m + 2:
            return CatalogTag("LTildeModC", m + 1)
        return CatalogTag("Unknown")
    # non-solvable: separate the four catalog entries by coarse invariants
    rad = _radical(algebra, derived.rows)
    zc = inv.center_dim
    perfect = derived.dim == n
    if n == 3 and rad == 0 and perfect:
        return CatalogTag("Sl2")
    if n == 4 and rad == 1 and zc == 1:
        return CatalogTag("Sl2xC")
    if n == 5 and rad == 2 and zc == 0 and perfect:
        return CatalogTag("Sl2SemidirectC2")
    if n == 6 and rad == 3 and zc == 1 and perfect:
        return CatalogTag("Sl2SemidirectH3")
    return CatalogTag("Unknown")


# -- filiform normal bases ------------------------------------------------------------


def _try_chain(span: ElementSpan, images: Sequence[WeylElement],
               cand_p: WeylElement, cand_q: WeylElement) -> Optional[list[WeylElement]]:
    """Attempt the normal chain for a pair with [P, Q] = 1.  The seed w = Σ sol_j·x_j
    solves ad(P)^(dim-3)(w) = Q and [w, Q] = 0: column j holds ad(P)^(dim-3)(x_j),
    keyed (0, monomial), beside [x_j, Q], keyed (1, monomial).  The chain
    stands only if it realises the catalog table of L(dim - 1)."""
    dim = len(images)
    cols = Echelon()
    for x in images:
        x_q = bracket(x, cand_q)
        if not (span.contains(bracket(cand_p, x)) and span.contains(x_q)):
            return None
        col = {(0, m): c for m, c in ad_pow(cand_p, x, dim - 3).terms.items()}
        col.update(((1, m), c) for m, c in x_q.terms.items())
        cols.insert(col)
    sol = cols.express({(0, m): c for m, c in cand_q.terms.items()})
    if sol is None:
        return None
    chain = [cand_p, linear_combination(zip(sol, images))]
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
    span = ElementSpan(images)
    if span.dim != len(images):
        raise NotInjective("realisation images are linearly dependent")
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
    if not 0 <= h_index < algebra.dim:
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
