"""Exception types raised by the nhpassage library."""


class PassageError(Exception):
    """Base class for all nhpassage errors."""


class DimensionMismatchError(PassageError):
    """Operator, state, or frame dimensions are incompatible."""


class GridError(PassageError):
    """A time grid is malformed (step does not divide the span, boundary off-grid, ...)."""


class NonFiniteSampleError(PassageError):
    """An operator or state sample contained NaN or Inf."""


class StepSizeError(PassageError):
    """The dt/2 convergence self-check failed; the step size is too coarse."""


class SingularDenominatorError(PassageError):
    """A drive-envelope denominator sin(varphi + phase(t)) fell below the guard."""


class PhaseConsistencyError(PassageError):
    """Supplied local-phase functions violate a phase-evolution constraint equation."""


class NonHermitianError(PassageError):
    """An operation requiring a Hermitian generator received a non-Hermitian one."""


class ConfigError(PassageError):
    """A scenario configuration or config file is invalid."""


class InvalidArgumentError(PassageError, ValueError):
    """An argument lies outside its domain (passage name, series order, ...)."""
