"""Exception types shared across the package.

Plain ``ValueError``/``KeyError`` are used for ordinary argument mistakes;
the classes here exist where callers need to distinguish failure modes
(file parsing, training divergence, evaluation protocol violations).
"""


class FormatError(ValueError):
    """A file does not conform to its on-disk format (PGM, checkpoint, pairs CSV)."""


class CorruptionError(FormatError):
    """A file has the right framing but an inconsistent or truncated payload."""


class StateError(RuntimeError):
    """An operation was invoked out of order or on an empty/unusable state."""


class ProtocolError(ValueError):
    """An evaluation protocol precondition is violated (single-class input, k too small, ...)."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss or parameter value, or a model's
    outputs overflowed to NaN or Inf."""


class ConfigError(ValueError):
    """An experiment configuration is invalid or references missing inputs."""
