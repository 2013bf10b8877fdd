"""Symmetrisation, the W_n grading and the low-degree classifier as they were
before their closed forms, frozen (reference for the differential tests).

``symmetrize`` multiplies out every distinct ordering of the word, weighted
by the orderings each one stands for; ``wn_components`` takes δ of each
monomial from it; ``classify_low_degree`` reads the 2×2 matrix of ad(W₂)
on span{p, q} from brackets and coordinates.  Only the library's products,
sums, brackets and spans are used, none of the code these replace.
"""

import math
from fractions import Fraction
from functools import lru_cache, reduce

from weylkit.dixmier import DixmierClass
from weylkit.elements import (SymTensor, _sum, bracket, coordinates, linear_combination, one,
                              p, q, zero)
from weylkit.errors import DegreeTooHigh


def distinct_orderings(word):
    """Each distinct ordering of word exactly once, in lexicographic order."""
    if not word:
        yield ()
    for first in sorted(set(word)):
        rest = list(word)
        rest.remove(first)
        for tail in distinct_orderings(rest):
            yield (first,) + tail


def symmetrize(t):
    factors = t.factors if isinstance(t, SymTensor) else SymTensor(t).factors
    n = len(factors)
    index: dict = {}
    distinct = []
    word = []
    for f in factors:
        if f not in index:
            index[f] = len(distinct)
            distinct.append(_sum(((*f[0], p), (*f[1], q))))
        word.append(index[f])
    counts: dict = {}
    for k in word:
        counts[k] = counts.get(k, 0) + 1
    weight = Fraction(math.prod(math.factorial(c) for c in counts.values()), math.factorial(n))
    return linear_combination((weight, reduce(lambda acc, k: acc * distinct[k], perm[1:],
                                              distinct[perm[0]]))
                              for perm in distinct_orderings(word))


@lru_cache(maxsize=None)
def _delta_monomial(i: int, j: int):
    if i == 0 and j == 0:
        return one
    return symmetrize([(1, 0)] * i + [(0, 1)] * j)


def wn_components(x):
    out = {}
    rem = x
    while not rem.is_zero():
        d = rem.degree()
        comp = _sum([(a, b, rem.den, _delta_monomial(i, j))
                     for (i, j), (a, b) in rem.num.items() if i + j == d])
        out[d] = comp
        rem = rem - comp
    return out


def classify_low_degree(x):
    comps = wn_components(x)
    if any(n > 2 for n in comps):
        raise DegreeTooHigh("no decision procedure above total degree 2")
    if x.is_scalar():
        return DixmierClass("Scalar")
    w2 = comps.get(2, zero)
    col_p = coordinates(bracket(w2, p), [p, q])
    col_q = coordinates(bracket(w2, q), [p, q])
    matrix = [[col_p[0], col_q[0]], [col_p[1], col_q[1]]]
    det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    return DixmierClass("Delta1" if not det else "Delta3", {"matrix": matrix, "det": det})
