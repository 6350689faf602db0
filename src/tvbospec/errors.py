"""Exception types shared across the package."""


class TvbospecError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(TvbospecError):
    """A point's spatial dimension does not match the kernel's."""


class WrongClass(TvbospecError):
    """A kernel of the wrong spectral class was passed to an operation."""


class ConvergenceFailure(TvbospecError):
    """The eigensolver failed to converge."""


class SingularSystem(TvbospecError):
    """The regularized Gram matrix could not be factorized."""


class CapExceeded(TvbospecError):
    """A requested grid exceeds the configured sampling cap."""


class InvalidConfig(TvbospecError):
    """An experiment configuration is structurally invalid."""


class ConfigParseError(InvalidConfig):
    """A configuration file could not be parsed; carries location info."""
