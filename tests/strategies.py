"""Shared hypothesis strategies: Gaussian rationals and sparse elements."""

from fractions import Fraction

from hypothesis import strategies as st

from weylkit import Scalar, WeylElement
from weylkit.elements import zero

fraction_st = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                           max_denominator=6)
scalar_st = st.builds(Scalar, fraction_st, fraction_st)
nonzero_scalar_st = scalar_st.filter(bool)
# 30-digit numerators over small shared or unrelated large denominators
big_fraction_st = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                            st.one_of(st.sampled_from([1, 2, 3, 6, 35]),
                                      st.integers(1, 10 ** 30)))
big_scalar_st = st.builds(Scalar, big_fraction_st, st.one_of(st.just(0), big_fraction_st))


def _assemble(terms) -> WeylElement:
    x = zero
    for (i, j), c in terms:
        x = x + WeylElement.monomial(i, j, coeff=c)
    return x


def element_st(max_degree: int = 3, max_terms: int = 4):
    mono = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
    return st.lists(st.tuples(mono, nonzero_scalar_st),
                    max_size=max_terms).map(_assemble)


nonzero_element_st = element_st().filter(lambda x: not x.is_zero())
