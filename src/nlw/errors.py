"""Exception taxonomy for the wave lab.

Every failure mode that a caller might want to catch selectively gets its
own class.  The CLI maps ConfigError and InitialDataError to exit code 2
and every other NlwError to exit code 3; check failures (which are
results, not errors) map to exit code 1.
"""


class NlwError(Exception):
    """Base class for all package errors."""


class ConfigError(NlwError):
    """Malformed or inconsistent configuration input."""


class InitialDataError(NlwError, ValueError):
    """Sampled initial data do not fit their grid (shape, spacing, or the
    pinned origin value)."""


class OutOfRangeError(NlwError):
    """A model parameter lies outside its admissible range."""


class BoundaryLeakError(InitialDataError):
    """Initial data carries too much weight at the outer grid boundary."""


class DivergentIntegralError(NlwError):
    """A weighted integral grows decade over decade instead of settling."""


class BlowupError(NlwError):
    """The evolved field exceeded the runaway threshold, an energy
    overflowed, or the far-field profile's table stopped being finite."""


class NoContractionError(NlwError):
    """Picard iteration failed to reach tolerance within the sweep cap."""


class OffGridError(NlwError):
    """A requested time, radius, or characteristic label is not grid-aligned."""


class ShortSpanError(NlwError):
    """Too few dyadic samples fit inside the available time span."""
