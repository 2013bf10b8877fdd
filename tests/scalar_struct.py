"""The Scalar structure table as it was before ``LieAlgebraStruct`` moved onto
Gaussian-integer numerators over one denominator, frozen (reference for the
differential tests).

``ScalarStruct`` keeps c^k_{ij} as Scalars in both orientations and checks
Jacobi on every table it builds.  ``invariants``, ``recognize``,
``change_basis`` and ``quotient_by_center`` bracket Scalar rows and feed
``linalg.Echelon`` and ``linalg.kernel`` Scalars, as they did.
"""

import math
from itertools import combinations
from typing import NamedTuple, Optional

from weylkit.errors import BadParams, IrrationalSpectrum, PreconditionFailed
from weylkit.liestruct import CatalogTag, normalize_tag
from weylkit.linalg import Echelon, eigen_decomposition, kernel
from weylkit.scalars import ONE, ZERO


class ScalarStruct:
    """Structure constants c^k_{ij} over a finite basis, stored for i < j."""

    def __init__(self, dim, labels, c):
        if len(labels) != dim:
            raise BadParams(f"{dim} basis vectors need {dim} labels, got {len(labels)}")
        table = {}
        signed = {}
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

    def basis_bracket(self, i, j):
        return self._signed.get((i, j), {})

    def sparse_bracket(self, u, v):
        out = {}
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
                    total = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, s in self.basis_bracket(a, b).items():
                            for t, x in self.basis_bracket(m, c).items():
                                total[t] = total.get(t, ZERO) + s * x
                    if any(total.values()):
                        raise PreconditionFailed(
                            f"Jacobi identity fails on basis triple ({i}, {j}, {k})")


def _bracket_span(algebra, rows_a, rows_b):
    return Echelon(algebra.sparse_bracket(u, v) for u in rows_a for v in rows_b)


def _derived_span(algebra, rows):
    return Echelon(algebra.sparse_bracket(u, v) for u, v in combinations(rows, 2))


def _series(algebra, rows, first, derived):
    terms = [first]
    prev = len(rows)
    while terms[-1].dim not in (0, prev):
        prev = terms[-1].dim
        cur = terms[-1].rows
        terms.append(_derived_span(algebra, cur) if derived
                     else _bracket_span(algebra, rows, cur))
    return terms


class Invariants(NamedTuple):
    derived_series_dims: list
    lower_central_dims: list
    center_dim: int
    solvable: bool
    nilpotent: bool


def _center(algebra):
    n = algebra.dim
    columns = [{(j, k): s for j in range(n) for k, s in algebra.basis_bracket(i, j).items()}
               for i in range(n)]
    return Echelon(kernel(columns))


def _invariants(algebra):
    n = algebra.dim
    full = [{i: ONE} for i in range(n)]
    first = _derived_span(algebra, full)
    series = _series(algebra, full, first, derived=True)
    derived = [n] + [t.dim for t in series]
    lower = [n] + [t.dim for t in _series(algebra, full, first, derived=False)]
    center = _center(algebra)
    inv = Invariants(derived, lower, center.dim, derived[-1] == 0, lower[-1] == 0)
    return inv, series, center


def invariants(algebra):
    return _invariants(algebra)[0]


def quotient_by_center(algebra):
    center = _center(algebra)
    keep = [i for i in range(algebra.dim) if i not in center.pivots]
    basis = Echelon(center.rows + [{i: ONE} for i in keep])
    c = {(a, b): dict(enumerate(basis.express(algebra.basis_bracket(i, j))[center.dim:]))
         for (a, i), (b, j) in combinations(enumerate(keep), 2)}
    return ScalarStruct(len(keep), [algebra.labels[i] for i in keep], c)


def change_basis(algebra, matrix):
    n = algebra.dim
    if len(matrix) != n or any(len(r) != n for r in matrix):
        raise BadParams(f"basis-change matrix must be {n}x{n}")
    cols = [{i: matrix[i][j] for i in range(n) if matrix[i][j]} for j in range(n)]
    span = Echelon(cols)
    if span.dim != n:
        raise BadParams("basis-change matrix is singular")
    c = {(a, b): dict(enumerate(span.express(algebra.sparse_bracket(cols[a], cols[b]))))
         for a, b in combinations(range(n), 2)}
    return ScalarStruct(n, [f"f{k}" for k in range(n)], c)


def _filiform_parameter(lower_dims) -> Optional[int]:
    if len(lower_dims) < 2 or lower_dims[-1] != 0:
        return None
    n = lower_dims[0] - 1
    expected = [n + 1] + list(range(n - 1, -1, -1))
    return n if lower_dims == expected and n >= 2 else None


def _integer_profile(eigs):
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


def _model_filiform(algebra, rows, derived_rows) -> bool:
    columns = [{(r, k): s for r, d in enumerate(derived_rows)
                for k, s in algebra.sparse_bracket(u, d).items()} for u in rows]
    centraliser = [{k: x for k in {k for i in rel for k in rows[i]}
                    if (x := sum((c * rows[i].get(k, ZERO) for i, c in rel.items()), ZERO))}
                   for rel in kernel(columns)]
    return len(centraliser) == len(rows) - 1 and not any(
        algebra.sparse_bracket(u, v) for u, v in combinations(centraliser, 2))


def recognize(algebra) -> CatalogTag:
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
        ext = Echelon(derived.rows + center.rows)
        if n - ext.dim != 1:
            return CatalogTag("Unknown")
        h = next(e for e in full if not ext.contains(e))
        if inv.derived_series_dims[2] == 0:
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
        lower = _series(algebra, derived.rows, series[1], derived=False)
        m = _filiform_parameter([derived.dim] + [t.dim for t in lower])
        if m is None or (m >= 3 and not _model_filiform(algebra, derived.rows, series[1].rows)):
            return CatalogTag("Unknown")
        if center.dim == 1 and n == m + 2:
            return CatalogTag("LTilde", m)
        if center.dim == 0 and n == m + 2:
            return CatalogTag("LTildeModC", m + 1)
        return CatalogTag("Unknown")
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
