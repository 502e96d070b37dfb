"""Exception types raised across the library."""


class SeriesMineError(Exception):
    """Base class for all library errors."""


class EmptySeriesError(SeriesMineError):
    """Raised when a series with zero points is ingested."""


class NonFiniteError(SeriesMineError):
    """Raised when a NaN or infinite value is found at ingestion.

    The offending 0-based position is available as ``.index``.
    """

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"non-finite value at position {self.index}")


class LengthExceedsSeriesError(SeriesMineError):
    """Query or window length is longer than the series."""


class OutOfRangeError(SeriesMineError):
    """A window extension would run past the end of the series."""


class SeriesTooShortError(SeriesMineError):
    """Series too short for the requested window length or length range."""


class AllConstantError(SeriesMineError):
    """Every window of the requested length has zero variance."""


class InvalidParametersError(SeriesMineError):
    """Parameter combination violates a documented constraint."""


class UnpopulatedError(SeriesMineError):
    """A variable-length profile holds no populated entries."""
