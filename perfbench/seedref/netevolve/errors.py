"""Exception types shared across the package.

Plain `ValueError` is raised for invalid arguments and `KeyError` for unknown
actors; the classes below cover conditions that callers routinely want to
catch and downgrade (e.g. an undefined metric becomes a blank report cell).
"""


class NetevolveError(Exception):
    """Base class for package-specific errors."""


class UndefinedMetricError(NetevolveError):
    """The metric has no defined value on this input (too few actors, zero
    variance, no edges)."""


class InsufficientDataError(NetevolveError):
    """Not enough usable data points for a fit."""


class ParseError(NetevolveError):
    """Input file is malformed beyond the tolerated noise level."""


class PipelineError(NetevolveError):
    """Wraps an error raised inside a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
