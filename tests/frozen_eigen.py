"""The eigen-problems as they were before a triangular spectrum was read off
its diagonal and the truncated window was built in one accumulation, frozen
(reference for the differential tests).

``eigenvalues`` always runs the charpoly and its root search,
``eigen_decomposition`` is the library's, on those eigenvalues, and
``eigenvectors_truncated`` makes one accumulator call per window monomial.
The helpers they call are the library's own, which neither change touched.
"""

from math import gcd

from weylkit.dixmier import _WINDOW_BUDGET
from weylkit.elements import _accumulate, _as_element, _coded, _make, _term_order
from weylkit.errors import BadParams, BudgetExceeded, _check_count, _is_count
from weylkit.linalg import (_charpoly, _deflate, _factor_roots, _gaussian_divisors, _root_free,
                            _root_scale, integer_kernel)
from weylkit.scalars import _divide, _norm, as_scalar


def eigenvalues(columns, den=1):
    """``linalg.eigenvalues`` as it was, the charpoly on every matrix (reference)."""
    n = len(columns)
    _check_count(den, 1, "a denominator is a positive int, got {!r}")
    if any(not isinstance(col, dict) or not all(_is_count(r) and r < n for r in col)
           for col in columns):
        raise BadParams(f"the {n} columns of a square matrix are dicts keyed by rows below {n}")
    g = gcd(den, *(t for col in columns for z in col.values() for t in z))
    columns, den = [{r: (x // g, y // g) for r, (x, y) in col.items()} for col in columns], den // g
    coeffs = _charpoly(columns)
    # det(tI - D·a) = Σ b_k / (den/D)^(n-k) t^k over Z[i], highest coefficient first
    s = den // (d := _root_scale(den, coeffs))
    poly = [(x // s ** (n - k), y // s ** (n - k)) for k, (x, y) in enumerate(coeffs)][::-1]
    roots: dict[tuple[int, int], int] = {}
    while poly[-1] == (0, 0):
        poly.pop()
        roots[(0, 0)] = roots.get((0, 0), 0) + 1
    if len(poly) > 1:
        candidates = _gaussian_divisors(poly[-1])
        if candidates is None:
            roots.update(_factor_roots(poly))
        else:
            for z in candidates:
                while len(poly) > 1 and (rest := _deflate(poly, z)) is not None:
                    poly = rest
                    roots[z] = roots.get(z, 0) + 1
            if len(poly) > 1:
                raise _root_free(len(poly) - 1)
    return [(_norm(x, y, d), m) for (x, y), m in sorted(roots.items())]


def eigen_decomposition(columns, den=1):
    """``linalg.eigen_decomposition`` on the frozen ``eigenvalues`` (reference)."""
    out = []
    for lam, _ in eigenvalues(columns, den):
        x, y = lam.a * (den // lam.d), lam.b * (den // lam.d)
        shifted = [dict(col) for col in columns]
        for c, col in enumerate(shifted):
            re, im = col.pop(c, (0, 0))
            if (re, im) != (x, y):
                col[c] = (re - x, im - y)
        out.append((lam, integer_kernel(shifted)))
    return out


def eigenvectors_truncated(x, lam, max_degree):
    """``dixmier.eigenvectors_truncated`` as it was, one accumulation per
    window monomial (reference)."""
    _check_count(max_degree, 0, "the truncation degree must be natural, got {!r}")
    x = _as_element(x, "eigenvectors_truncated")
    if (max_degree + 1) * (max_degree + 2) // 2 > _WINDOW_BUDGET:
        raise BudgetExceeded(f"degree {max_degree} has over {_WINDOW_BUDGET} unknowns")
    lam = as_scalar(lam)
    # in reverse printing order each relation is s·e_j minus independent columns
    # only, so, reversed and over s, the relations are already the canonical
    # echelon basis
    unknowns = sorted(((i, j) for i in range(max_degree + 1) for j in range(max_degree + 1 - i)),
                      key=_term_order, reverse=True)
    # the columns D·([x, m] − λm) over Z[i], D = D_x·λ.d, with p^i q^j coded in
    # printing order as −(w·(i + j) + i), w past its p-exponent, so that each
    # column's pivot, its least code, is its top-degree term
    w = 1 + max((i for i, _ in x.num), default=0) + max_degree
    u, v = -(w + 1), -w
    xs = [(i, j, code, re * lam.d, im * lam.d) for i, j, code, re, im in _coded(x.num, u, v)]
    columns = []
    for i, j in unknowns:
        code = u * i + v * j
        acc = {code: [-lam.a * x.den, -lam.b * x.den]}
        _accumulate(acc, xs, ((i, j, code, 1, 0),), -1, u + v)
        columns.append({k: cell for k, cell in acc.items() if cell[0] or cell[1]})
    return [_make(*_divide({unknowns[g]: x for g, x in rel.items()}, rel[max(rel)]))
            for rel in reversed(integer_kernel(columns))]
