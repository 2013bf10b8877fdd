"""The Scalar echelon engine as it was before ``linalg.Echelon`` moved onto
Gaussian integers, frozen (reference for the differential tests).

``ScalarEchelon`` keeps its rows as Scalars with pivot one and each row's
coordinates over the generators; ``echelon_kernel`` reads the relations among
columns off its insertion, each with coefficient one at its own column, and
``eigen_decomposition`` takes each eigenspace as the relations among the
columns of a - λI.  Only the eigenvalues come from the library
(``linalg.eigenvalues``), which its own tests check against sympy.  The
frozen references ``scalar_struct`` and ``scalar_element`` run on this engine.
"""

from weylkit.linalg import eigenvalues
from weylkit.scalars import ONE, ZERO


def _subtract(v, row, c):
    """v -= c·row in place, dropping entries that cancel."""
    for col, x in row.items():
        y = v.get(col, ZERO) - c * x
        if y:
            v[col] = y
        else:
            del v[col]


class ScalarEchelon:
    """``Echelon`` as it was, on Scalars with unit pivots, frozen (reference)."""

    def __init__(self, rows=(), key=None):
        self.key = key
        self.rows = []
        self.pivots = []
        self._row_of = {}
        self._coords = []
        self.ngens = 0
        for row in rows:
            self.insert(row)

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        v = dict(v)
        used = {}
        while v:
            lead = min(v, key=self.key)
            r = self._row_of.get(lead)
            if r is None:
                break
            c = v[lead]
            _subtract(v, self.rows[r], c)
            used[r] = c
        return v, used

    def insert(self, v):
        return self._append(*self.reduce(v))

    def insert_coordinates(self, v):
        rem, used = self.reduce(v)
        if self._append(rem, used) is None:
            return used
        return {**used, len(self.rows) - 1: rem[self.pivots[-1]]}

    def _append(self, rem, used):
        gen = self.ngens
        self.ngens += 1
        if not rem:
            return None
        pivot = min(rem, key=self.key)
        inv = rem[pivot].inverse()
        row = {col: x * inv for col, x in rem.items()}
        coords = {gen: inv}
        for r, c in used.items():
            _subtract(coords, self._coords[r], c * inv)
        self._coords.append(coords)
        self._row_of[pivot] = len(self.rows)
        self.rows.append(row)
        self.pivots.append(pivot)
        return row

    def contains(self, v):
        return not self.reduce(v)[0]

    def express(self, v):
        rem, used = self.reduce(v)
        if rem:
            return None
        out = [ZERO] * self.ngens
        for r, c in used.items():
            for g, x in self._coords[r].items():
                out[g] = out[g] + c * x
        return out

    def row_coordinates(self, v):
        rem, used = self.reduce(v)
        if rem:
            return None
        return [used.get(r, ZERO) for r in range(len(self.rows))]

    def reduced_rows(self):
        done = {}
        for pivot in sorted(self.pivots, key=self.key, reverse=True):
            row = dict(self.rows[self._row_of[pivot]])
            for col, c in [(col, c) for col, c in row.items() if col in done]:
                _subtract(row, done[col], c)
            done[pivot] = row
        return list(done.values())[::-1]


def echelon_kernel(columns):
    """``kernel`` as it was built on ``Echelon`` insertion, frozen (reference)."""
    span = ScalarEchelon()
    basis = []
    for j, col in enumerate(columns):
        rem, used = span.reduce(col)
        if span._append(rem, used) is None:
            relation = {j: ONE}
            for r, c in used.items():
                _subtract(relation, span._coords[r], c)
            basis.append(relation)
    return basis


def eigen_decomposition(a):
    """``eigen_decomposition`` as it was, on ``echelon_kernel``, frozen (reference)."""
    n = len(a)
    out = []
    for lam, _ in eigenvalues(a):
        shifted = [{r: x for r in range(n) if (x := a[r][c] - lam if r == c else a[r][c])}
                   for c in range(n)]
        out.append((lam, [[v.get(c, ZERO) for c in range(n)] for v in echelon_kernel(shifted)]))
    return out
