"""Exception taxonomy shared across the package.

Every error raised on a contract boundary derives from LoopseqError so
callers (and the CLI) can distinguish our failures from genuine bugs.
"""


class LoopseqError(Exception):
    """Base class for all package-level errors."""


class ShapeError(LoopseqError):
    """Array arguments have incompatible or unexpected shapes."""


class EmptySequenceError(LoopseqError):
    """An operation received a sequence with zero time steps."""


class DtypeError(LoopseqError):
    """An array has a dtype the real-substrate tape cannot store."""


class ConfigError(LoopseqError):
    """A configuration value violates its contract."""


class ContractError(LoopseqError):
    """A runtime contract was violated (e.g. tampered padding)."""


class DataError(LoopseqError):
    """A dataset is missing, malformed, or inconsistent."""


class ParseError(DataError):
    """A data file could not be parsed.

    Carries the offending line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(LoopseqError):
    """A numeric computation produced non-finite or unusable values."""


class AggregationError(LoopseqError):
    """A multi-run aggregate could not be formed (e.g. all runs diverged)."""
