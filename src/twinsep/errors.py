"""Shared exception types.

The CLI maps these onto process exit codes: validation failures exit 2,
numerical failures exit 3, OS-level I/O failures exit 4.
"""


class TwinsepError(Exception):
    """Base class for all twinsep errors."""


class ValidationError(TwinsepError, ValueError):
    """Bad configuration, malformed input data, or out-of-domain arguments."""


class NumericalError(TwinsepError, RuntimeError):
    """A solver could not produce a result at the requested accuracy."""


class ConvergenceError(NumericalError):
    """A fixed-point iteration did not settle within its cap or the float range."""
