"""Independent normal-ordering oracles based on single-swap rewriting.

Both use the defining relation qp = pq - 1 only, and share no structure with
the library's closed-form product.  ``oracle_product`` normal-orders a whole
letter word by repeatedly replacing its leftmost "qp" with "pq" minus the word
with the pair deleted; its cost grows quickly with the degree, so it serves as
a cross-check on low degrees.  ``swap_product`` applies one swap at a time to
a left factor q, memoised on the monomial it meets:
q·p^a q^b = p·(q·p^(a-1) q^b) - p^(a-1) q^b.
"""

from fractions import Fraction
from functools import cache

from weylkit import Scalar, WeylElement
from weylkit.elements import zero

_CACHE: dict = {}


def normal_order_word(word: tuple) -> dict:
    """Map a letter word to {(i, j): coefficient} over normal monomials."""
    if word in _CACHE:
        return _CACHE[word]
    agenda = {word: Fraction(1)}
    out: dict = {}
    while agenda:
        w, c = agenda.popitem()
        if not c:
            continue
        k = next((t for t in range(len(w) - 1)
                  if w[t] == "q" and w[t + 1] == "p"), None)
        if k is None:
            i = sum(1 for ch in w if ch == "p")
            m = (i, len(w) - i)
            out[m] = out.get(m, Fraction(0)) + c
            continue
        swapped = w[:k] + ("p", "q") + w[k + 2:]
        dropped = w[:k] + w[k + 2:]
        agenda[swapped] = agenda.get(swapped, Fraction(0)) + c
        agenda[dropped] = agenda.get(dropped, Fraction(0)) - c
    table = {m: v for m, v in out.items() if v}
    _CACHE[word] = table
    return table


def oracle_product(i: int, j: int, k: int, l: int) -> WeylElement:
    """The product p^i q^j · p^k q^l rewritten letter by letter."""
    table = normal_order_word(("p",) * i + ("q",) * j + ("p",) * k + ("q",) * l)
    out = zero
    for (a, b), c in table.items():
        out = out + WeylElement.monomial(a, b, coeff=Scalar(c))
    return out


@cache
def _q_times(a: int, b: int) -> tuple:
    """q·p^a q^b as ((i, j), integer coefficient) pairs, by the single swap."""
    if a == 0:
        return (((0, b + 1), 1),)
    out = {(i + 1, j): c for (i, j), c in _q_times(a - 1, b)}
    out[(a - 1, b)] = out.get((a - 1, b), 0) - 1
    return tuple((m, c) for m, c in out.items() if c)


def swap_product(i: int, j: int, k: int, l: int) -> WeylElement:
    """The product p^i q^j · p^k q^l: q applied j times to p^k q^l, then p^i prepended."""
    terms = {(k, l): 1}
    for _ in range(j):
        nxt: dict = {}
        for (a, b), c in terms.items():
            for m, x in _q_times(a, b):
                nxt[m] = nxt.get(m, 0) + c * x
        terms = {m: c for m, c in nxt.items() if c}
    return WeylElement({(a + i, b): Scalar(c) for (a, b), c in terms.items()})
