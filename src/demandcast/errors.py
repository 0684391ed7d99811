"""Exception types shared across the pipeline."""


class DemandcastError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(DemandcastError):
    """Input CSV is unusable: missing columns or too many malformed rows."""

    def __init__(self, message, malformed=()):
        super().__init__(message)
        self.malformed = list(malformed)


class EmptyInputError(DemandcastError):
    """Input contained a header but zero data rows."""


class DuplicateDateError(DemandcastError):
    """A (store, item) series has two records on the same day."""

    def __init__(self, store_id, item_id, date):
        super().__init__(f"duplicate date {date} in series ({store_id}, {item_id})")
        self.store_id = store_id
        self.item_id = item_id
        self.date = date


class EmptyPartitionError(DemandcastError):
    """A temporal split left no series with rows on both sides."""


class LagExceedsSeriesError(DemandcastError):
    """Every row of a series would be dropped because a lag is too long."""


class CalendarGapError(DemandcastError):
    """Holiday calendar does not cover a year present in the data."""


class SchemaMismatchError(DemandcastError):
    """Feature matrix columns do not match the columns a model was fit on."""


class SingularDesignError(DemandcastError):
    """Regression design matrix is rank-deficient."""


class NonPositiveDataError(DemandcastError):
    """Multiplicative seasonality requires the target to stay above -1."""


class SingularBasisError(DemandcastError):
    """Unpenalised basis is rank-deficient; the fit has no unique solution."""


class NoSplitsError(DemandcastError):
    """Feature importance requested from a tree ensemble with no splits."""


class MissingActualsError(DemandcastError):
    """One-step-ahead forecasting requires the actual test series."""


class FingerprintMismatchError(DemandcastError):
    """Reports being compared come from different data or splits."""


class MissingForecastsError(DemandcastError):
    """Simulation referenced a model absent from the evaluation artifacts."""
