"""Exception types shared across the toolkit."""


class NckError(Exception):
    """Base class for all toolkit errors."""


class NonSquare(NckError, ValueError):
    """A square matrix was required."""


class NonFinite(NckError, ValueError):
    """Input contains NaN or Inf entries."""


class NormOverflow(NonFinite):
    """A finite input whose norm overflows to Inf, so no bound can be checked against it."""


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
    """An exact identity check exceeded its tolerance.

    ``report`` is always set: the :class:`nck.reports.CheckReport` of the
    check, whose worst deviation is over its tolerance.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report

    def __reduce__(self):
        # pickled with its report, e.g. to leave a worker process
        return type(self), (str(self), self.report)

    @property
    def max_deviation(self) -> float:
        return self.report.max_deviation


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
