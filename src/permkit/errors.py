"""Exception and warning types shared across the package, and the term budget and its check."""

import math

#: Terms a formula may sum before it raises `TooLarge`.
TERM_BUDGET = 10**7


class PermkitError(Exception):
    """Base class for all permkit errors."""


class DimensionMismatch(PermkitError):
    """Operands have incompatible shapes."""


class NormExceedsOne(PermkitError):
    """Matrix is not a contraction, so it cannot be dilated to a unitary."""


class NotUnitary(PermkitError):
    """Matrix fails the unitarity check U†U = I."""


class TooLarge(PermkitError):
    """Requested computation exceeds the term budget or a hard size guard."""


class WeightMismatch(PermkitError):
    """Row and column repetition weights |p| and |q| differ where equality is required."""


class WeightMismatchWarning(UserWarning):
    """Permanent formula evaluated with |p| != |q|; the result is 0 by convention."""

    def __init__(self, message: str = "|p| != |q|: permanent of a rectangular repetition is 0") -> None:
        super().__init__(message)


class CapMismatch(PermkitError):
    """Truncated series operands carry different degree caps."""


class RingMismatch(PermkitError):
    """Truncated series operands live over different coefficient rings."""


class NonInvertibleConstantTerm(PermkitError):
    """Series inversion requires an invertible constant term."""


class ConstantTermNotOne(PermkitError):
    """Series square root requires constant term exactly 1."""


class BadConstantTerm(PermkitError):
    """Series exp needs constant term 0; series log needs constant term 1."""


class ExceedsCap(PermkitError):
    """Requested coefficient lies outside the stored degree caps."""


class OddDimension(PermkitError):
    """Even-matrix identity applied to an odd-dimensional matrix."""


class AmplitudeOutOfRange(PermkitError):
    """Squeezing amplitude must satisfy |w| < 1 componentwise."""


class ZeroAmplitude(PermkitError):
    """Cat amplitude alpha = 0 leaves the state (and its normalization) undefined."""


class EmptyConditioning(PermkitError):
    """Rejection step conditions on an event of zero enumerated probability."""


def check_budget(what: str, count: int, budget: int = TERM_BUDGET, unit: str = "terms") -> None:
    """Raise TooLarge, stating the count and the budget, when count > budget."""
    if count > budget:
        shown = str(count) if count < 10**18 else f"about 10^{int(count.bit_length() * math.log10(2))}"
        raise TooLarge(f"{what} needs {shown} {unit}; the budget is {budget}")
