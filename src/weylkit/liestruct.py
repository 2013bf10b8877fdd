"""Finite-dimensional Lie algebras inside the Weyl algebra.

A LieAlgebraStruct is a bare structure-constant table (antisymmetry by
storage, Jacobi checked on construction); a Realization pairs one with an
exact embedding into the algebra.  On top of those sit:

* the catalog of isomorphism classes that admit (or are quoted alongside)
  realisations: abelian, the 3-dimensional Heisenberg algebra, sl(2) and its
  three extensions, the filiform chain algebras L(n), their solvable
  extensions LTilde(n) = L(n) ⋊ ⟨pq⟩, the quotients LTilde(n)/centre, and
  the diagonal families R(i₁,…,i_n) spanned by pq and powers of p;
* Lie closure of a generating set by breadth-first bracketing;
* derived/lower-central invariants, centre, quotient by centre;
* a recogniser mapping a structure back to its normalised catalog tag; and
* normal bases for the filiform algebras via a commutation pair [P, Q] = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .elements import (ElementSpan, WeylElement, bracket, format_element,
                       one, p, q, zero)
from .errors import (BadParams, DimensionExceeded, IrrationalSpectrum,
                     NotDiagonalisable, NotHomomorphism, NotInA1Form,
                     NotInjective, NotNilpotent, PreconditionFailed)
from .linalg import eigen_decomposition, mat_mul, nullspace, rank, rref, solve
from .scalars import ONE, ZERO, Scalar

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
        assert len(labels) == dim
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), row in c.items():
            if not (0 <= i < j < dim):
                raise BadParams("structure constants must be indexed with i < j")
            clean = {k: v for k, v in row.items() if v}
            if clean:
                table[(i, j)] = clean
        self.dim = dim
        self.labels = list(labels)
        self.c = table
        self._check_jacobi()

    def basis_vector(self, i: int) -> Vector:
        v = [ZERO] * self.dim
        v[i] = ONE
        return v

    def bracket_vec(self, u: Vector, v: Vector) -> Vector:
        out = [ZERO] * self.dim
        for (i, j), row in self.c.items():
            coef = u[i] * v[j] - u[j] * v[i]
            if coef:
                for k, s in row.items():
                    out[k] = out[k] + coef * s
        return out

    def ad_matrix(self, u: Vector) -> list[Vector]:
        cols = [self.bracket_vec(u, self.basis_vector(j)) for j in range(self.dim)]
        return [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]

    def _check_jacobi(self):
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                bij = self.bracket_vec(self.basis_vector(i), self.basis_vector(j))
                for k in range(j + 1, n):
                    ek = self.basis_vector(k)
                    total = self.bracket_vec(bij, ek)
                    bjk = self.bracket_vec(self.basis_vector(j), ek)
                    for t, x in enumerate(self.bracket_vec(bjk, self.basis_vector(i))):
                        total[t] = total[t] + x
                    bki = self.bracket_vec(ek, self.basis_vector(i))
                    for t, x in enumerate(self.bracket_vec(bki, self.basis_vector(j))):
                        total[t] = total[t] + x
                    if any(total):
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
    span = ElementSpan()
    for x in images:
        if span.insert(x) is None:
            raise NotInjective("realisation images are linearly dependent")
    c: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            coords = span.express(bracket(images[i], images[j]))
            if coords is None:
                raise PreconditionFailed("images do not span a Lie subalgebra")
            row = {k: v for k, v in enumerate(coords) if v}
            if row:
                c[(i, j)] = row
    algebra = LieAlgebraStruct(len(images), labels, c)
    return CatalogEntry(algebra, Realization(algebra, list(images)))


def _sl2_images() -> list[WeylElement]:
    x = (q * q).scale(Fraction(-1, 2))
    y = (p * p).scale(Fraction(1, 2))
    h = p * q - one.scale(Fraction(1, 2))
    return [x, y, h]


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
        return _struct_from_images(["X", "Y", "H"], _sl2_images())
    if kind == "Sl2xC":
        return _struct_from_images(["Z", "X", "Y", "H"], [one] + _sl2_images())
    if kind == "Sl2SemidirectH3":
        return _struct_from_images(["Z", "P", "Q", "X", "Y", "H"],
                                   [one, p, q] + _sl2_images())
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
    first generator stays at index 0.  Exceeding max_dim suggests the
    closure is infinite-dimensional.
    """
    if not gens:
        raise BadParams("at least one generator required")
    span = ElementSpan()
    rows: list[WeylElement] = []
    for g in gens:
        r = span.insert(g)
        if r is not None:
            rows.append(r)
    if len(rows) > max_dim:
        raise DimensionExceeded(max_dim)
    i = 0
    while i < len(rows):
        for j in range(i):
            r = span.insert(bracket(rows[i], rows[j]))
            if r is not None:
                rows.append(r)
                if len(rows) > max_dim:
                    raise DimensionExceeded(max_dim)
        i += 1
    c: dict[tuple[int, int], dict[int, Scalar]] = {}
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            coords = span.row_coordinates(bracket(rows[a], rows[b]))
            assert coords is not None
            row = {k: v for k, v in enumerate(coords) if v}
            if row:
                c[(a, b)] = row
    algebra = LieAlgebraStruct(len(rows), [f"b{k}" for k in range(len(rows))], c)
    return Realization(algebra, rows)


def verify_realization(algebra: LieAlgebraStruct, images: Sequence[WeylElement]) -> Realization:
    """Certify that the images realise the structure constants exactly."""
    if len(images) != algebra.dim:
        raise BadParams("one image per basis vector required")
    span = ElementSpan()
    for x in images:
        if span.insert(x) is None:
            raise NotInjective("realisation images are linearly dependent")
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            expected = zero
            for k, s in algebra.c.get((i, j), {}).items():
                expected = expected + images[k].scale(s)
            if bracket(images[i], images[j]) != expected:
                raise NotHomomorphism(
                    f"bracket of {algebra.labels[i]} and {algebra.labels[j]} "
                    f"does not match the structure constants")
    return Realization(algebra, list(images))


# -- coordinate subspace helpers ----------------------------------------------------


def _vspan(vectors: Sequence[Vector]):
    """RREF span of coordinate vectors; returns (rows, pivots)."""
    if not vectors:
        return [], []
    rows, pivots = rref([list(v) for v in vectors])
    return rows[:len(pivots)], pivots


def _vcontains(v: Vector, rows, pivots) -> bool:
    rem = list(v)
    for r, c in enumerate(pivots):
        if rem[c]:
            f = rem[c]
            rem = [x - f * y for x, y in zip(rem, rows[r])]
    return not any(rem)


def _bracket_span(algebra: LieAlgebraStruct, rows_a, rows_b):
    prods = [algebra.bracket_vec(u, v) for u in rows_a for v in rows_b]
    return _vspan(prods)


class AlgebraInvariants(NamedTuple):
    derived_series_dims: list[int]
    lower_central_dims: list[int]
    center_dim: int
    solvable: bool
    nilpotent: bool


def _center(algebra: LieAlgebraStruct):
    n = algebra.dim
    rows = []
    for j in range(n):
        cols = [algebra.bracket_vec(algebra.basis_vector(i), algebra.basis_vector(j))
                for i in range(n)]
        for k in range(n):
            rows.append([cols[i][k] for i in range(n)])
    return _vspan(nullspace(rows)) if rows else _vspan([])


def invariants(algebra: LieAlgebraStruct) -> AlgebraInvariants:
    """Derived and lower-central dimension profiles, centre, flags."""
    full = _vspan([algebra.basis_vector(i) for i in range(algebra.dim)])
    derived = [algebra.dim]
    cur = full
    while True:
        nxt = _bracket_span(algebra, cur[0], cur[0])
        derived.append(len(nxt[1]))
        if len(nxt[1]) in (0, derived[-2]):
            break
        cur = nxt
    lower = [algebra.dim]
    cur = full
    while True:
        nxt = _bracket_span(algebra, full[0], cur[0])
        lower.append(len(nxt[1]))
        if len(nxt[1]) in (0, lower[-2]):
            break
        cur = nxt
    center_rows, center_pivots = _center(algebra)
    return AlgebraInvariants(
        derived_series_dims=derived,
        lower_central_dims=lower,
        center_dim=len(center_pivots),
        solvable=derived[-1] == 0,
        nilpotent=lower[-1] == 0,
    )


def quotient_by_center(algebra: LieAlgebraStruct) -> LieAlgebraStruct:
    """The quotient algebra on a complement of the centre."""
    z_rows, z_pivots = _center(algebra)
    keep = [i for i in range(algebra.dim) if i not in z_pivots]
    index = {pos: t for t, pos in enumerate(keep)}

    def reduce_mod_center(v: Vector) -> Vector:
        rem = list(v)
        for r, c in enumerate(z_pivots):
            if rem[c]:
                f = rem[c]
                rem = [x - f * y for x, y in zip(rem, z_rows[r])]
        return rem

    c: dict[tuple[int, int], dict[int, Scalar]] = {}
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            w = reduce_mod_center(algebra.bracket_vec(
                algebra.basis_vector(keep[a]), algebra.basis_vector(keep[b])))
            assert all(not w[i] for i in z_pivots)
            row = {index[i]: w[i] for i in range(algebra.dim) if w[i]}
            if row:
                c[(a, b)] = row
    return LieAlgebraStruct(len(keep), [algebra.labels[i] for i in keep], c)


def change_basis(algebra: LieAlgebraStruct, matrix: list[Vector]) -> LieAlgebraStruct:
    """The same algebra on the basis f_j = Σ_i matrix[i][j]·e_i."""
    n = algebra.dim
    if rank([list(r) for r in matrix]) != n:
        raise BadParams("basis-change matrix is singular")
    c: dict[tuple[int, int], dict[int, Scalar]] = {}
    cols = [[matrix[i][j] for i in range(n)] for j in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            w = algebra.bracket_vec(cols[a], cols[b])
            coords = solve([list(r) for r in matrix], w)
            if coords is None:
                raise BadParams("basis-change matrix is singular")
            row = {k: v for k, v in enumerate(coords) if v}
            if row:
                c[(a, b)] = row
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
    """Dimension of the radical, via the Killing-orthogonal of the derived algebra."""
    n = algebra.dim
    ads = [algebra.ad_matrix(algebra.basis_vector(i)) for i in range(n)]
    killing = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = mat_mul(ads[i], ads[j])
            row.append(sum((prod[d][d] for d in range(n)), ZERO))
        killing.append(row)
    if not derived_rows:
        return n
    rows = []
    for d in derived_rows:
        rows.append([sum((killing[i][j] * d[j] for j in range(n) if d[j]), ZERO)
                     for i in range(n)])
    return len(nullspace(rows))


def recognize(algebra: LieAlgebraStruct) -> CatalogTag:
    """Map a structure back to its normalised catalog tag.

    The decision tree follows the classification: abelian and nilpotent
    cases are settled by the lower-central profile; solvable non-nilpotent
    ones by diagonalising a complement generator on the derived algebra
    (abelian derived: the diagonal families; filiform derived: the extended
    families, separated by their centres); non-solvable ones by dimension,
    centre and radical.  Anything else is Unknown.
    """
    inv = invariants(algebra)
    n = algebra.dim
    full_rows = [algebra.basis_vector(i) for i in range(n)]
    if inv.derived_series_dims[1] == 0:
        return CatalogTag("Abelian", n)
    if inv.nilpotent:
        m = _filiform_parameter(inv.lower_central_dims)
        if m is not None:
            return normalize_tag(CatalogTag("L", m))
        return CatalogTag("Unknown")
    if inv.solvable:
        derived_rows, derived_pivots = _bracket_span(algebra, full_rows, full_rows)
        center_rows, center_pivots = _center(algebra)
        # the catalog solvables are all one generator over derived + centre
        ext_rows, ext_pivots = _vspan(derived_rows + center_rows)
        if n - len(ext_pivots) != 1:
            return CatalogTag("Unknown")
        h = next(algebra.basis_vector(i) for i in range(n)
                 if not _vcontains(algebra.basis_vector(i), ext_rows, ext_pivots))
        dd_rows, dd_pivots = _bracket_span(algebra, derived_rows, derived_rows)
        if not dd_pivots:
            # abelian derived algebra: diagonalise ad(h) on it
            ad_cols = []
            for d in derived_rows:
                w = algebra.bracket_vec(h, d)
                coords = [w[c] for c in derived_pivots]
                rem = list(w)
                for r, c in enumerate(derived_pivots):
                    if rem[c]:
                        f = rem[c]
                        rem = [x - f * y for x, y in zip(rem, derived_rows[r])]
                if any(rem):
                    return CatalogTag("Unknown")
                ad_cols.append(coords)
            mat = [[ad_cols[j][k] for j in range(len(ad_cols))]
                   for k in range(len(ad_cols))]
            decomp = eigen_decomposition(mat)
            if sum(len(vecs) for _, vecs in decomp) != len(derived_rows):
                return CatalogTag("Unknown")
            eigs = []
            for lam, vecs in decomp:
                eigs.extend([lam] * len(vecs))
            if any(not e for e in eigs):
                return CatalogTag("Unknown")
            profile = _integer_profile(eigs)
            central_extra = len(center_pivots)
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
        sub_lower = [len(derived_pivots)]
        cur = (derived_rows, derived_pivots)
        while True:
            nxt = _bracket_span(algebra, derived_rows, cur[0])
            sub_lower.append(len(nxt[1]))
            if len(nxt[1]) in (0, sub_lower[-2]):
                break
            cur = nxt
        m = _filiform_parameter(sub_lower)
        if m is None:
            return CatalogTag("Unknown")
        if len(center_pivots) == 1 and n == m + 2:
            return CatalogTag("LTilde", m)
        if len(center_pivots) == 0 and n == m + 2:
            return CatalogTag("LTildeModC", m + 1)
        return CatalogTag("Unknown")
    # non-solvable: separate the four catalog entries by coarse invariants
    derived_rows, derived_pivots = _bracket_span(algebra, full_rows, full_rows)
    rad = _radical(algebra, derived_rows)
    zc = inv.center_dim
    perfect = len(derived_pivots) == n
    if n == 3 and rad == 0 and perfect:
        return CatalogTag("Sl2")
    if n == 4 and rad == 1 and zc == 1:
        return CatalogTag("Sl2xC")
    if n == 5 and rad == 2 and zc == 0 and perfect:
        return CatalogTag("Sl2SemidirectC2")
    if n == 6 and rad == 3 and zc == 1:
        return CatalogTag("Sl2SemidirectH3")
    return CatalogTag("Unknown")


# -- filiform normal bases ------------------------------------------------------------


def _try_chain(span: ElementSpan, images: Sequence[WeylElement],
               cand_p: WeylElement, cand_q: WeylElement) -> Optional[list[WeylElement]]:
    """Attempt the normal chain for a pair with [P, Q] = 1."""
    dim = len(images)
    ad_p = []
    for x in images:
        coords = span.express(bracket(cand_p, x))
        if coords is None:
            return None
        ad_p.append(coords[:dim])
    mat = [[ad_p[j][k] for j in range(dim)] for k in range(dim)]
    power = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]
    for _ in range(dim - 3):
        power = mat_mul(mat, power)
    q_coords = span.express(cand_q)
    ad_q = []
    for x in images:
        coords = span.express(bracket(x, cand_q))
        if coords is None:
            return None
        ad_q.append(coords[:dim])
    ad_q_mat = [[ad_q[j][k] for j in range(dim)] for k in range(dim)]
    stacked = power + ad_q_mat
    rhs = q_coords[:dim] + [ZERO] * dim
    sol = solve(stacked, rhs)
    if sol is None:
        return None
    w = zero
    for k, v in enumerate(sol):
        if v:
            w = w + images[k].scale(v)
    chain = [cand_p, w]
    for _ in range(dim - 2):
        chain.append(bracket(cand_p, chain[-1]))
    check = ElementSpan()
    if any(check.insert(x) is None for x in chain):
        return None
    for a in range(1, dim):
        for b in range(a + 1, dim):
            if not bracket(chain[a], chain[b]).is_zero():
                return None
    if not bracket(chain[0], chain[-1]).is_zero():
        return None
    for a in range(1, dim - 1):
        if bracket(chain[0], chain[a]) != chain[a + 1]:
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
    span = ElementSpan()
    for x in images:
        if span.insert(x) is None:
            raise NotInjective("realisation images are linearly dependent")
    # lower-central chain of spans, down to the last nonzero term
    terms = [span]
    while True:
        nxt = ElementSpan()
        for x in images:
            for _, row, _ in terms[-1].rows:
                nxt.insert(bracket(x, row))
        if nxt.dim == 0:
            break
        terms.append(nxt)
    last = terms[-1]
    if last.dim != 1 or not last.rows[0][1].is_scalar():
        raise NotInA1Form("the chain does not terminate in the scalars")
    penultimate = terms[-2]
    target = next((row for _, row, _ in penultimate.rows if not last.contains(row)),
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
    mat = algebra.ad_matrix(algebra.basis_vector(h_index))
    decomp = eigen_decomposition(mat)
    total = sum(len(vecs) for _, vecs in decomp)
    if total != algebra.dim:
        raise NotDiagonalisable(
            f"eigenspaces span {total} of {algebra.dim} dimensions")
    out: dict[Scalar, list[WeylElement]] = {}
    for lam, vecs in decomp:
        elems = []
        for v in vecs:
            x = zero
            for k, s in enumerate(v):
                if s:
                    x = x + realization.images[k].scale(s)
            elems.append(x)
        out[lam] = elems
    return out
