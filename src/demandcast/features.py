"""Engineered feature columns and design-matrix assembly.

Features are computed as whole columns over the sorted table, and a row's
lags and deviation flag come from its own (store, item) series, so every
column value at a row depends only on that row's date and on its series'
quantities at or before it (strictly before it in the causal deviation
mode).  Scaling statistics always come from the training partition.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import SalesTable, SplitSpec, as_datetime64, utf8_text
from .errors import CalendarGapError, MalformedInputError

logger = logging.getLogger(__name__)


def weekdays_of_ordinals(ordinals: np.ndarray) -> np.ndarray:
    """Weekday index with Monday = 0 through Sunday = 6."""
    # Ordinal 1 (0001-01-01) was a Monday.
    return (np.asarray(ordinals, dtype=np.int64) - 1) % 7


def cyclical_columns(values: np.ndarray, period: int) -> np.ndarray:
    """Map periodic values onto the unit circle as (sin, cos) columns."""
    angle = 2.0 * np.pi * values / period
    return np.column_stack([np.sin(angle), np.cos(angle)])


def trailing_mean(values: np.ndarray, day: np.ndarray, window: int) -> np.ndarray:
    """Mean of the up-to-``window`` values ending at each row, within its series.

    ``day`` is each row's position within its own series, so a row's window
    never reaches into the series before it.  The zeros in front and in the
    slots before a series' first row add nothing, and numpy sums fewer than
    8 values in order, so each mean equals the mean of the row's own slice
    bit for bit.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.minimum(np.asarray(day) + 1, window)
    windows = sliding_window_view(np.concatenate([np.zeros(window), values]), window)[1:]
    inside = np.arange(window) >= window - counts[:, None]
    return np.where(inside, windows, 0.0).sum(axis=1) / counts


class DeviationMode(str, Enum):
    """SAME_DAY compares the current day's actual sales against the trailing
    mean ending the day before; the flag therefore encodes same-day
    information and is not a causal feature.  LAGGED re-uses the previous
    day's flag, making the feature a function of strictly earlier data.
    """

    SAME_DAY = "same-day"
    LAGGED = "lagged"


# The deviation rule: a day's sales below DEVIATION_RATIO of the trailing
# DEVIATION_WINDOW-day mean ending the day before, once that mean covers at
# least DEVIATION_MIN_PERIODS days.
DEVIATION_WINDOW = 7
DEVIATION_MIN_PERIODS = 3
DEVIATION_RATIO = 0.30


def deviation_flag(quantities: np.ndarray, day: np.ndarray, mode: DeviationMode) -> np.ndarray:
    """Binary vector marking abnormal drops in sales.

    ``day`` is each row's position within its own (store, item) series, so
    the whole sorted table is flagged at once.
    """
    quantities = np.asarray(quantities, dtype=np.float64)
    # The mean ending the day before, defined once it covers enough days.
    before = np.roll(trailing_mean(quantities, day, DEVIATION_WINDOW), 1)
    defined = day >= DEVIATION_MIN_PERIODS
    flags = (defined & (quantities < DEVIATION_RATIO * before)).astype(np.float64)
    if mode is DeviationMode.LAGGED:
        flags = np.where(day > 0, np.roll(flags, 1), 0.0)
    return flags


@dataclass(frozen=True)
class HolidayCalendar:
    """Explicit day-ordinal -> holiday-name map covering the dataset window.

    Keys are ``datetime.date.toordinal`` values, the same day numbers a
    :class:`SalesTable` holds.
    """

    entries: Mapping[int, str]

    @classmethod
    def from_csv(cls, path: str | Path) -> "HolidayCalendar":
        """Read a ``date,name`` CSV of ISO dates, one holiday a row.

        One leading UTF-8 byte order mark is skipped, as the sales CSV's is.
        A file that is not UTF-8 or lacks that header, or a row without a
        name, with a bad date or with a date seen before, raises
        :class:`MalformedInputError` naming the file and the line the row
        starts on.
        """
        try:
            reader = csv.reader(utf8_text(Path(path).read_bytes()))
        except MalformedInputError as exc:
            raise MalformedInputError(f"holiday calendar {path}: {exc}") from None
        entries: dict[int, str] = {}
        line = 1  # the line the row being read starts on
        try:
            header = next(reader, [])
            if [h.strip() for h in header[:2]] != ["date", "name"]:
                raise ValueError("header must be date,name")
            line = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) < 2 or not row[1].strip():
                        raise ValueError("a row needs a date and a name")
                    day = dt.date.fromisoformat(row[0].strip())
                    if day.toordinal() in entries:
                        raise ValueError(f"duplicate holiday date {day}")
                    entries[day.toordinal()] = row[1].strip()
                line = reader.line_num + 1
        except (ValueError, csv.Error) as exc:
            raise MalformedInputError(f"holiday calendar {path}, line {line}: {exc}") from None
        return cls(entries=entries)

    @classmethod
    def bundled(cls) -> "HolidayCalendar":
        ref = resources.files("demandcast.assets") / "holidays_IN_2013_2017.csv"
        with resources.as_file(ref) as path:
            return cls.from_csv(path)

    def years(self) -> set[int]:
        return _years(list(self.entries))


def _years(ordinals) -> set[int]:
    years = as_datetime64(ordinals).astype("datetime64[Y]").astype(np.int64) + 1970
    return set(years.tolist())


def holiday_flag(ordinals: np.ndarray, calendar: HolidayCalendar) -> np.ndarray:
    """1.0 where the day ordinal is a calendar holiday, else 0.0.

    A year present in ``ordinals`` but absent from the calendar raises,
    because an all-zero year would silently mean "no holidays" when it
    really means "calendar file too short".
    """
    missing = _years(ordinals) - calendar.years()
    if missing:
        raise CalendarGapError(
            f"calendar lacks entries for years {sorted(missing)}"
        )
    return np.isin(ordinals, list(calendar.entries)).astype(np.float64)


# S1, the history-only scenario: the lagged sales and the month on the unit
# circle.  S2 appends the external factors, weekday, holiday and sales
# deviation, in EXTERNAL_COLUMNS order.
LAGS = (1, 7, 14, 28)
S1_COLUMNS = (*(f"lag_{lag}" for lag in LAGS), "month_sin", "month_cos")
EXTERNAL_COLUMNS = ("weekday_sin", "weekday_cos", "weekday", "holiday", "deviation_flag")


@dataclass
class FeatureMatrix:
    """Named design matrix with aligned target, dates, and series keys."""

    columns: list[str]
    rows: np.ndarray
    target: np.ndarray
    dates: np.ndarray
    stores: np.ndarray
    items: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.target)
        if self.rows.shape != (n, len(self.columns)):
            raise ValueError("matrix shape does not match columns/target")
        if not (len(self.dates) == len(self.stores) == len(self.items) == n):
            raise ValueError("row metadata lengths differ")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        if n and not np.isfinite(self.rows).all():
            raise ValueError("matrix contains NaN or infinite entries")

    def __len__(self) -> int:
        return len(self.target)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def select_rows(self, rows: np.ndarray | slice) -> "FeatureMatrix":
        """The given rows; a slice keeps views of this matrix's arrays."""
        return FeatureMatrix(
            list(self.columns),
            self.rows[rows],
            self.target[rows],
            self.dates[rows],
            self.stores[rows],
            self.items[rows],
        )


# Binary flags keep their native values; every other column is scaled to
# [0, 1] with training statistics.
_FLAG_COLUMNS = ("holiday", "deviation_flag")


def _assemble_unscaled(
    table: SalesTable,
    external: bool,
    calendar: HolidayCalendar | None,
    deviation_mode: DeviationMode,
    ends: tuple[int, ...],
) -> list[FeatureMatrix]:
    """Unscaled matrices of consecutive date ranges, one per ascending day
    ordinal in ``ends``: the first holds the rows dated up to ``ends[0]``,
    the next those after it up to ``ends[1]``.  Later rows are dropped."""
    table._require_sorted()
    if external and calendar is None:
        raise ValueError("external features require a holiday calendar")

    columns = list(S1_COLUMNS + EXTERNAL_COLUMNS if external else S1_COLUMNS)
    runs = list(table.series_index.values())
    starts = np.array([a for a, _ in runs], dtype=np.int64)
    lengths = np.array([b - a for a, b in runs], dtype=np.int64)
    # Each row's day within its series.  A row is kept only once every lag
    # reaches back inside its own series, so no kept row reads np.roll's
    # wrap-around or the series before it.
    day = np.arange(len(table)) - np.repeat(starts, lengths)
    keep = day >= max(LAGS)
    short = [f"{s}|{i}" for (s, i), n in zip(table.series_index, lengths) if n <= max(LAGS)]
    if short:
        logger.warning("series of %d days or fewer have no rows with every lag: %s", max(LAGS), short)

    quantities, ordinals = table.quantities, table.dates
    dates = ordinals[keep]
    # Row j of masks marks the kept rows of range j; side="left" puts a row
    # dated ends[j] in range j.
    masks = np.arange(len(ends))[:, None] == np.searchsorted(
        np.asarray(ends, dtype=np.int64), dates
    )

    if external:
        # The flags' full-table transients peak before the output exists.
        holidays = holiday_flag(ordinals, calendar)[keep, None]
        flags = deviation_flag(quantities, day, deviation_mode)[keep, None]

    def blocks():
        # Each block of columns covers the kept rows only, and exists alone
        # beside the output matrices while its rows are copied into them.
        for lag in LAGS:
            yield np.roll(quantities, lag)[keep, None]
        months = as_datetime64(dates).astype("datetime64[M]").astype(np.int64) % 12
        yield cyclical_columns(months.astype(np.float64), 12)
        if external:
            dows = weekdays_of_ordinals(dates).astype(np.float64)
            yield cyclical_columns(dows, 7)
            yield dows[:, None]
            yield holidays
            yield flags

    matrices = [np.empty((int(np.count_nonzero(m)), len(columns))) for m in masks]
    j = 0
    for block in blocks():
        for rows, mask in zip(matrices, masks):
            rows[:, j : j + block.shape[1]] = block[mask]
        j += block.shape[1]

    target, stores, items = quantities[keep], table.store_ids[keep], table.item_ids[keep]
    return [
        FeatureMatrix(list(columns), rows, target[mask], dates[mask], stores[mask], items[mask])
        for rows, mask in zip(matrices, masks)
    ]


def _scale(train: FeatureMatrix, test: FeatureMatrix) -> None:
    """Min-max scale both sides in place with the training rows' statistics."""
    for j, name in enumerate(train.columns):
        if name in _FLAG_COLUMNS:
            continue
        col = train.rows[:, j]
        lo, hi = (float(col.min()), float(col.max())) if len(col) else (0.0, 1.0)
        for rows in (train.rows, test.rows):
            rows[:, j] = (rows[:, j] - lo) / (hi - lo) if hi > lo else 0.0


def build_train_test_matrices(
    table: SalesTable,
    split: SplitSpec,
    external: bool = False,
    calendar: HolidayCalendar | None = None,
    deviation_mode: DeviationMode = DeviationMode.SAME_DAY,
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Assemble leakage-safe train/test matrices: the program's one split.

    S1's columns, plus EXTERNAL_COLUMNS (S2) when ``external``.  Features are
    computed over each series' full timeline (test-row lags may reach back
    into training days).  Train holds the rows dated on or before train_end,
    test those after it up to test_end, and rows after test_end are ignored;
    both keep (store, item, date) order.  Min-max statistics are fit on the
    training rows only and applied to both sides.
    """
    train, test = _assemble_unscaled(
        table,
        external,
        calendar,
        deviation_mode,
        (split.train_end.toordinal(), split.test_end.toordinal()),
    )
    _scale(train, test)
    return train, test
