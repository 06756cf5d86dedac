"""Exception types shared across the toolkit."""


class NckError(Exception):
    """Base class for all toolkit errors."""


class NonSquare(NckError, ValueError):
    """A square matrix was required."""


class NonFinite(NckError, ValueError):
    """Input contains NaN or Inf entries."""


class NonHermitian(NckError, ValueError):
    """A Hermitian matrix was required."""


class NonPositiveC(NckError, ValueError):
    """The clipping level must be strictly positive."""


class InvalidParameter(NckError, ValueError):
    """A count, order or family name lies outside what a function accepts."""


class DimensionMismatch(NckError, ValueError):
    """Tuple length, weight length or variable count do not agree."""


class SizeMismatch(NckError, ValueError):
    """Matrix size incompatible with the algebra dimension."""


class DegenerateWeight(NckError, ValueError):
    """Weighted dual norm requires all weights strictly inside (0, 1)."""


class ZeroWitness(NckError, ValueError):
    """A pairing certificate needs a witness tuple with nonzero norm."""


class DTooLarge(NckError, ValueError):
    """Requested dimension exceeds the configured cap."""


class SpaceTooLarge(NckError, ValueError):
    """Requested probability space exceeds the atom budget."""


class NotOrthonormal(NckError, ValueError):
    """Subspace basis is not orthonormal in the ambient inner product."""


class IdentityViolation(NckError, AssertionError):
    """An exact identity check exceeded its tolerance."""

    def __init__(self, message, max_deviation=None, report=None):
        super().__init__(message)
        self.max_deviation = max_deviation
        self.report = report


class StalledIteration(NckError, RuntimeError):
    """Lifting residual failed to contract at some step.

    Signals a corrector precondition violation, e.g. a sampled Gaussian
    space whose empirical moments are too noisy.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ParseError(NckError, ValueError):
    """A tuple file or report file violates the documented schema."""
