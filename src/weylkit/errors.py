"""Exception taxonomy shared across the library.

Every failure a caller can act on gets its own class.  The CLI maps these to
exit codes (see cli.py and the README's table): the mathematical negatives —
a test that honestly answers "no": RelationFailed, NoProportionality,
NotNilpotent, NotInA1Form, NotDiagonalisable, IrrationalSpectrum and
NonScalarCasimir — exit 1; resource blow-ups (NotLocallyNilpotent,
DimensionExceeded, BudgetExceeded) exit 3; user/usage problems (bad literals,
out-of-range parameters, unsatisfied preconditions) and every other class
exit 2.
"""

from __future__ import annotations

__all__ = [
    "WeylError",
    "BadParams",
    "ZeroScale",
    "NotInvertible",
    "NotLocallyNilpotent",
    "IndexMismatch",
    "SizeMismatch",
    "NotUnimodular",
    "DegreeTooHigh",
    "ZeroElement",
    "PreconditionFailed",
    "NoProportionality",
    "DimensionExceeded",
    "BudgetExceeded",
    "NotInjective",
    "NotHomomorphism",
    "NotNilpotent",
    "NotInA1Form",
    "NotDiagonalisable",
    "IrrationalSpectrum",
    "RelationFailed",
    "NonScalarCasimir",
    "NotInBorel",
    "ExprSyntaxError",
]


class WeylError(Exception):
    """Base class for all library-specific failures."""


class BadParams(WeylError, ValueError):
    """Parameters outside the documented domain (wrong count, range, type)."""


def _check_count(n, least: int, message: str) -> None:
    """Raises BadParams(message.format(n)) unless n is an int, not a bool, and n >= least."""
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise BadParams(message.format(n))


class ZeroScale(BadParams):
    """A scaling unit of zero was supplied where a unit is required."""


class NotInvertible(WeylError):
    """Inversion requested for a map not represented by invertible data."""


class NotLocallyNilpotent(WeylError):
    """An adjoint exponential failed to terminate within the iteration cap."""

    def __init__(self, element_repr: str, max_iter: int):
        super().__init__(
            f"ad({element_repr}) did not nilpotize the argument within {max_iter} steps")
        self.max_iter = max_iter


class IndexMismatch(BadParams):
    """Two group elements with incompatible index data were combined."""


class SizeMismatch(BadParams):
    """Two group elements of different sizes were combined."""


class NotUnimodular(BadParams):
    """A 2x2 matrix parameter does not have determinant 1."""


class DegreeTooHigh(WeylError):
    """Input degree exceeds what the requested operation supports."""


class ZeroElement(BadParams):
    """The zero element was supplied where a nonzero one is required."""


class PreconditionFailed(WeylError):
    """A documented structural precondition does not hold for the input."""


class NoProportionality(WeylError):
    """The two sides of a tested power relation are not proportional."""


class DimensionExceeded(WeylError):
    """An iterated span passed the dimension cap without closing."""

    def __init__(self, max_dim: int):
        super().__init__(f"span exceeded {max_dim} dimensions without closing under brackets")
        self.max_dim = max_dim


class BudgetExceeded(WeylError):
    """The input asks for more work than a fixed budget allows; refused up front."""


class NotInjective(WeylError):
    """The supplied generators are linearly dependent."""


class NotHomomorphism(WeylError):
    """The supplied map fails the bracket-compatibility check."""


class NotNilpotent(PreconditionFailed):
    """A nilpotent Lie algebra was required and the input is not one."""


class NotInA1Form(PreconditionFailed):
    """The algebra is not presented in the expected normal form."""


class NotDiagonalisable(WeylError):
    """Eigenspaces of the tested operator do not span the whole space."""


class IrrationalSpectrum(WeylError):
    """The tested operator has eigenvalues outside Q(i)."""


class RelationFailed(WeylError):
    """A claimed algebraic relation does not hold for the given data."""


class NonScalarCasimir(WeylError):
    """The quadratic Casimir of a realisation failed to be a scalar."""


class NotInBorel(BadParams):
    """A matrix parameter required to be lower triangular (a₂ = 0) is not."""


class ExprSyntaxError(WeylError, ValueError):
    """An element or morphism literal failed to parse."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos
