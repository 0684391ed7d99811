"""Engineered feature columns and design-matrix assembly.

Features are computed independently per (store, item) series over its full
timeline, so every column value at a row depends only on that row's date and
on quantities at or before it (strictly before it in the causal deviation
mode).  Scaling statistics always come from the training partition.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import SalesTable, SplitSpec
from .errors import CalendarGapError, LagExceedsSeriesError

def weekdays_of_ordinals(ordinals: np.ndarray) -> np.ndarray:
    """Weekday index with Monday = 0 through Sunday = 6."""
    # Ordinal 1 (0001-01-01) was a Monday.
    return (np.asarray(ordinals, dtype=np.int64) - 1) % 7


def cyclical_columns(values: np.ndarray, period: int) -> np.ndarray:
    """Map periodic values onto the unit circle as (sin, cos) columns."""
    angle = 2.0 * np.pi * values / period
    return np.column_stack([np.sin(angle), np.cos(angle)])


def lag_features(series: np.ndarray, lags: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Shift a gapless series by each lag.

    Returns (matrix, valid) where matrix[t, j] = series[t - lags[j]] and
    valid marks rows whose every lag is defined.  Raises when the longest
    lag leaves no valid row at all.
    """
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    if n <= max(lags):
        raise LagExceedsSeriesError(
            f"series length {n} cannot support lag {max(lags)}"
        )
    out = np.full((n, len(lags)), np.nan)
    for j, lag in enumerate(lags):
        out[lag:, j] = series[:-lag]
    valid = ~np.isnan(out).any(axis=1)
    return out, valid


def rolling_mean(series: np.ndarray, window: int, min_periods: int = 1) -> np.ndarray:
    """Trailing mean of the up-to-``window`` values ending at each position.

    Positions with fewer than ``min_periods`` values available are NaN.
    """
    if not (window >= min_periods >= 1):
        raise ValueError("need window >= min_periods >= 1")
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    csum = np.concatenate([[0.0], np.cumsum(series)])
    idx = np.arange(n)
    start = np.maximum(0, idx - window + 1)
    counts = idx - start + 1
    out = (csum[idx + 1] - csum[start]) / counts
    out[counts < min_periods] = np.nan
    return out


class DeviationMode(str, Enum):
    SAME_DAY = "same-day"
    LAGGED = "lagged"


@dataclass(frozen=True)
class DeviationConfig:
    """Rule flagging sales that collapse below a fraction of recent volume.

    SAME_DAY compares the current day's actual sales against the trailing
    mean ending the day before; the flag therefore encodes same-day
    information and is not a causal feature.  LAGGED re-uses the previous
    day's flag, making the feature a function of strictly earlier data.
    """

    window: int = 7
    min_periods: int = 3
    ratio: float = 0.30
    mode: DeviationMode = DeviationMode.SAME_DAY

    def __post_init__(self) -> None:
        if not (1 <= self.min_periods <= self.window):
            raise ValueError("need 1 <= min_periods <= window")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")


def deviation_flag(series: np.ndarray, cfg: DeviationConfig) -> np.ndarray:
    """Binary vector marking abnormal drops in sales."""
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    rm = rolling_mean(series, cfg.window, cfg.min_periods)
    trailing = np.concatenate([[np.nan], rm[:-1]])
    defined = ~np.isnan(trailing)
    flags = np.zeros(n, dtype=np.float64)
    drop = defined & (series < cfg.ratio * trailing)
    flags[drop] = 1.0
    if cfg.mode is DeviationMode.LAGGED:
        flags = np.concatenate([[0.0], flags[:-1]])
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
        entries: dict[int, str] = {}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if [h.strip() for h in header[:2]] != ["date", "name"]:
                raise ValueError(f"holiday calendar {path} must have header date,name")
            for row in reader:
                if not row:
                    continue
                day = dt.date.fromisoformat(row[0].strip())
                if day.toordinal() in entries:
                    raise ValueError(f"duplicate holiday date {day} in {path}")
                entries[day.toordinal()] = row[1].strip()
        return cls(entries=entries)

    @classmethod
    def bundled(cls) -> "HolidayCalendar":
        ref = resources.files("demandcast.assets") / "holidays_IN_2013_2017.csv"
        with resources.as_file(ref) as path:
            return cls.from_csv(path)

    def years(self) -> set[int]:
        return {dt.date.fromordinal(o).year for o in self.entries}


def holiday_flag(ordinals: np.ndarray, calendar: HolidayCalendar) -> np.ndarray:
    """1.0 where the day ordinal is a calendar holiday, else 0.0.

    A year present in ``ordinals`` but absent from the calendar raises,
    because an all-zero year would silently mean "no holidays" when it
    really means "calendar file too short".
    """
    missing = {dt.date.fromordinal(int(o)).year for o in ordinals} - calendar.years()
    if missing:
        raise CalendarGapError(
            f"calendar lacks entries for years {sorted(missing)}"
        )
    return np.isin(ordinals, list(calendar.entries)).astype(np.float64)


@dataclass(frozen=True)
class FeatureSpec:
    """Which engineered columns are active when assembling a design matrix."""

    lags: tuple[int, ...] = (1, 7, 14, 28)
    cyclical: frozenset[str] = frozenset({"month"})
    use_weekday_numeric: bool = False
    use_holiday: bool = False
    use_deviation_flag: bool = False
    deviation: DeviationConfig = field(default_factory=DeviationConfig)

    def __post_init__(self) -> None:
        if any(lag <= 0 for lag in self.lags):
            raise ValueError("lags must be strictly positive (lag 0 is the target)")
        unknown = set(self.cyclical) - {"month", "weekday"}
        if unknown:
            raise ValueError(f"unknown cyclical components: {sorted(unknown)}")
        active = (
            bool(self.lags)
            or bool(self.cyclical)
            or self.use_weekday_numeric
            or self.use_holiday
            or self.use_deviation_flag
        )
        if not active:
            raise ValueError("feature spec activates no features")


@dataclass
class FeatureMatrix:
    """Named design matrix with aligned target, dates, and series keys."""

    columns: list[str]
    rows: np.ndarray
    target: np.ndarray
    dates: np.ndarray
    stores: np.ndarray
    items: np.ndarray
    scaling: dict[str, tuple[float, float]] = field(default_factory=dict)

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
            dict(self.scaling),
        )


# Binary flags keep their native values; every other column is scaled to
# [0, 1] with training statistics.
_FLAG_COLUMNS = ("holiday", "deviation_flag")


def _assemble_unscaled(
    table: SalesTable,
    spec: FeatureSpec,
    calendar: HolidayCalendar | None,
) -> FeatureMatrix:
    table._require_sorted()
    if spec.use_holiday and calendar is None:
        raise ValueError("holiday features require a calendar")

    columns: list[str] = [f"lag_{lag}" for lag in spec.lags]
    if "month" in spec.cyclical:
        columns += ["month_sin", "month_cos"]
    if "weekday" in spec.cyclical:
        columns += ["weekday_sin", "weekday_cos"]
    if spec.use_weekday_numeric:
        columns.append("weekday")
    if spec.use_holiday:
        columns.append("holiday")
    if spec.use_deviation_flag:
        columns.append("deviation_flag")

    blocks: list[np.ndarray] = []
    keep_targets: list[np.ndarray] = []
    keep_dates: list[np.ndarray] = []
    keep_stores: list[np.ndarray] = []
    keep_items: list[np.ndarray] = []

    for key, (lo, hi) in table.series_index.items():
        ordinals = table.dates[lo:hi]
        values = table.quantities[lo:hi]
        parts: list[np.ndarray] = []

        if spec.lags:
            lagged, valid = lag_features(values, spec.lags)
            parts.append(lagged)
        else:
            valid = np.ones(len(values), dtype=bool)

        if "month" in spec.cyclical:
            months = np.array(
                [dt.date.fromordinal(int(o)).month - 1 for o in ordinals], dtype=np.float64
            )
            parts.append(cyclical_columns(months, 12))
        dows = weekdays_of_ordinals(ordinals).astype(np.float64)
        if "weekday" in spec.cyclical:
            parts.append(cyclical_columns(dows, 7))
        if spec.use_weekday_numeric:
            parts.append(dows[:, None])
        if spec.use_holiday:
            parts.append(holiday_flag(ordinals, calendar)[:, None])
        if spec.use_deviation_flag:
            parts.append(deviation_flag(values, spec.deviation)[:, None])

        block = np.column_stack(parts)
        blocks.append(block[valid])
        keep_targets.append(values[valid])
        keep_dates.append(ordinals[valid])
        keep_stores.append(np.full(int(valid.sum()), key[0], dtype=table.store_ids.dtype))
        keep_items.append(np.full(int(valid.sum()), key[1], dtype=table.item_ids.dtype))

    return FeatureMatrix(
        columns=columns,
        rows=np.concatenate(blocks) if blocks else np.empty((0, len(columns))),
        target=np.concatenate(keep_targets) if keep_targets else np.empty(0),
        dates=np.concatenate(keep_dates) if keep_dates else np.empty(0, dtype=np.int64),
        stores=np.concatenate(keep_stores) if keep_stores else np.array([], dtype=np.str_),
        items=np.concatenate(keep_items) if keep_items else np.array([], dtype=np.str_),
    )


def _fit_scaling(matrix: FeatureMatrix) -> dict[str, tuple[float, float]]:
    scaling: dict[str, tuple[float, float]] = {}
    for name in matrix.columns:
        if name in _FLAG_COLUMNS:
            continue
        col = matrix.column(name)
        scaling[name] = (float(col.min()), float(col.max())) if len(col) else (0.0, 1.0)
    return scaling


def _apply_scaling(matrix: FeatureMatrix, scaling: Mapping[str, tuple[float, float]]) -> FeatureMatrix:
    rows = matrix.rows.copy()
    for name, (lo, hi) in scaling.items():
        j = matrix.columns.index(name)
        span = hi - lo
        if span > 0:
            rows[:, j] = (rows[:, j] - lo) / span
        else:
            rows[:, j] = 0.0
    return FeatureMatrix(
        list(matrix.columns),
        rows,
        matrix.target,
        matrix.dates,
        matrix.stores,
        matrix.items,
        dict(scaling),
    )


def build_train_test_matrices(
    table: SalesTable,
    spec: FeatureSpec,
    calendar: HolidayCalendar | None,
    split: SplitSpec,
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Assemble leakage-safe train/test matrices: the program's one split.

    Features are computed over each series' full timeline (test-row lags may
    reach back into training days).  Train holds the rows dated on or before
    train_end, test those after it up to test_end, and rows after test_end
    are ignored; both keep (store, item, date) order.  Min-max statistics
    are fit on the training rows only and applied to both sides.
    """
    unscaled = _assemble_unscaled(table, spec, calendar)
    train_mask = unscaled.dates <= split.train_end.toordinal()
    test_mask = ~train_mask & (unscaled.dates <= split.test_end.toordinal())
    train = unscaled.select_rows(train_mask)
    test = unscaled.select_rows(test_mask)
    scaling = _fit_scaling(train)
    return _apply_scaling(train, scaling), _apply_scaling(test, scaling)
