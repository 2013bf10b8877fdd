"""Exact symbolic computation in the first Weyl algebra.

Normal-ordered arithmetic over Gaussian-rational coefficients, the standard
automorphism generators and explicit automorphism group families, partition
tests for elements (commutation behaviour of ad-actions), and construction,
closure and recognition of the finite-dimensional Lie subalgebras, including
the sl(2) realisations and their orbit structure.
"""

from .scalars import Scalar, parse_scalar, format_scalar
from .elements import (
    WeylElement, SymTensor, WeightComponent,
    bracket, anticommutator, ad_pow, symmetrize, weight_decompose, wn_components,
    parse_element, format_element,
)

__version__ = "0.1.0"

__all__ = [
    "Scalar", "parse_scalar", "format_scalar",
    "WeylElement", "SymTensor", "WeightComponent",
    "bracket", "anticommutator", "ad_pow", "symmetrize", "weight_decompose", "wn_components",
    "parse_element", "format_element",
    "__version__",
]
