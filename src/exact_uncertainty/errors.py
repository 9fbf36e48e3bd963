"""Exception types and warning flags shared across the library."""


class ExactUncertaintyError(Exception):
    """Base class for all library errors."""


class ZeroNorm(ExactUncertaintyError):
    """State amplitudes or a density have vanishing norm; normalization is undefined."""


class UnsupportedObservable(ExactUncertaintyError):
    """Observable is not defined for this state family."""


class VanishingDensity(ExactUncertaintyError):
    """Too much probability mass sits on masked (near-zero density) labels."""


class CutoffTooSmall(ExactUncertaintyError):
    """Doubling the basis cutoff moved the result beyond tolerance."""


class SingularInformation(ExactUncertaintyError):
    """The information matrix is numerically singular and cannot be inverted."""


class GridResolution(ExactUncertaintyError):
    """Grid does not span or resolve the requested structure."""


class NotPrime(ExactUncertaintyError):
    """Dimension is not prime; the basis construction is out of scope."""


class NotComplementary(ExactUncertaintyError):
    """Basis set fails the mutual-complementarity overlap check."""


class UnstableStep(ExactUncertaintyError):
    """Diffusion step produced a decrease of entropy."""


class ParseError(ExactUncertaintyError):
    """Malformed state or signal input."""


class NonFiniteResult(ExactUncertaintyError):
    """A computed report field is NaN, which strict JSON cannot hold."""


BOX_TOO_SMALL = "BoxTooSmall"
"""Warning label attached to reports when a state does not decay at box edges."""
