"""Sales table ingestion, repair, aggregation, and the chronological split boundaries.

A :class:`SalesTable` is a column-oriented, immutable snapshot of daily
(store, item, quantity) records.  Every operation in this module is a pure
function returning a new table, so tables can be shared freely across
workers.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DuplicateDateError,
    EmptyInputError,
    MalformedInputError,
)

logger = logging.getLogger(__name__)

DEFAULT_SCHEMA: Mapping[str, str] = {
    "date": "date",
    "store": "store",
    "item": "item",
    "sales": "sales",
}

AGGREGATE_ID = "ALL"

# Abort ingestion when more than this fraction of data rows is malformed.
MALFORMED_ABORT_FRACTION = 0.01


class Granularity(str, Enum):
    PER_SERIES = "per-series"
    AGGREGATE = "aggregate"


@dataclass(frozen=True)
class MalformedRow:
    line: int
    reason: str


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split boundaries, both inclusive.

    The test window starts the day after train_end, so no day falls between
    the two sides and naive and arimax forecast from the last training day
    onwards.
    """

    train_end: dt.date
    test_end: dt.date

    def __post_init__(self) -> None:
        if self.test_end <= self.train_end:
            raise ValueError("test_end must fall after train_end")

    @property
    def test_start(self) -> dt.date:
        return self.train_end + dt.timedelta(days=1)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def as_datetime64(ordinals) -> np.ndarray:
    """Day ordinals (``datetime.date.toordinal``) as ``datetime64[D]`` days."""
    # Ordinal 719,163 is 1970-01-01, datetime64's day zero.
    return (np.asarray(ordinals, dtype=np.int64) - 719_163).astype("datetime64[D]")


def iso_dates(ordinals) -> list[str]:
    """Each day ordinal as YYYY-MM-DD text."""
    return np.datetime_as_string(as_datetime64(ordinals), unit="D").tolist()


def series_runs(stores: np.ndarray, items: np.ndarray) -> dict[tuple[str, str], tuple[int, int]]:
    """(store, item) -> (start, stop) row range of each run of equal keys, in row order."""
    if not len(stores):
        return {}
    change = (stores[1:] != stores[:-1]) | (items[1:] != items[:-1])
    bounds = [0, *(np.flatnonzero(change) + 1).tolist(), len(stores)]
    return {(str(stores[a]), str(items[a])): (a, b) for a, b in zip(bounds, bounds[1:])}


class SalesTable:
    """Immutable column store of daily sales records.

    ``dates`` holds proleptic-Gregorian day ordinals (``datetime.date.toordinal``)
    so calendar gaps reduce to integer arithmetic.  ``series_index`` maps each
    (store, item) key to its contiguous row range and exists only on sorted
    tables.
    """

    __slots__ = (
        "dates",
        "store_ids",
        "item_ids",
        "quantities",
        "imputed",
        "series_index",
        "coverage",
        "is_sorted",
    )

    def __init__(
        self,
        dates: np.ndarray,
        store_ids: np.ndarray,
        item_ids: np.ndarray,
        quantities: np.ndarray,
        imputed: np.ndarray | None = None,
        is_sorted: bool = False,
    ):
        n = len(dates)
        if not (len(store_ids) == len(item_ids) == len(quantities) == n):
            raise ValueError("column lengths differ")
        self.dates = _freeze(np.asarray(dates, dtype=np.int64))
        self.store_ids = _freeze(np.asarray(store_ids, dtype=np.str_))
        self.item_ids = _freeze(np.asarray(item_ids, dtype=np.str_))
        self.quantities = _freeze(np.asarray(quantities, dtype=np.float64))
        if imputed is None:
            imputed = np.zeros(n, dtype=bool)
        self.imputed = _freeze(np.asarray(imputed, dtype=bool))
        self.is_sorted = is_sorted
        if n:
            lo = int(self.dates.min())
            hi = int(self.dates.max())
            self.coverage = (dt.date.fromordinal(lo), dt.date.fromordinal(hi))
        else:
            self.coverage = None
        self.series_index = series_runs(self.store_ids, self.item_ids) if is_sorted else None

    def __len__(self) -> int:
        return len(self.dates)

    def _require_sorted(self) -> None:
        if not self.is_sorted:
            raise ValueError("table must be sorted; call sort_chronological first")


@dataclass
class IngestResult:
    table: SalesTable
    malformed: list[MalformedRow]
    rows_read: int


@dataclass
class GapReport:
    """What fill_gaps changed: imputed-row counts keyed by series."""

    imputed_per_series: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def total_imputed(self) -> int:
        return sum(self.imputed_per_series.values())


def _parse_date(text: str) -> int:
    return dt.date.fromisoformat(text.strip()).toordinal()


def parse_sales_csv(
    source,
    schema: Mapping[str, str] | None = None,
) -> IngestResult:
    """Parse a UTF-8 sales CSV, given as a path or a binary stream, into a :class:`SalesTable`.

    ``schema`` remaps the logical column names (date, store, item, sales) to
    the header names actually present.  Rows that fail to parse, or that
    violate the quantity invariant (finite, non-negative), are collected as
    :class:`MalformedRow` and skipped; ingestion aborts when more than 1% of
    data rows are malformed.  Header names the schema does not map to are
    ignored.
    """
    colmap = dict(DEFAULT_SCHEMA)
    if schema:
        colmap.update(schema)

    if isinstance(source, (str, Path)):
        stream = open(source, "r", encoding="utf-8", newline="")
    else:
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="")

    with stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError("input has no header row") from None
        header = [h.strip() for h in header]
        positions: dict[str, int] = {}
        for logical, name in colmap.items():
            if name not in header:
                raise MalformedInputError(f"missing required column {name!r} in header")
            positions[logical] = header.index(name)

        dates: list[int] = []
        stores: list[str] = []
        items: list[str] = []
        quantities: list[float] = []
        malformed: list[MalformedRow] = []
        rows_read = 0
        needed = max(positions.values(), default=0)

        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            rows_read += 1
            if len(row) <= needed:
                malformed.append(MalformedRow(lineno, "too few fields"))
                continue
            try:
                ordinal = _parse_date(row[positions["date"]])
            except ValueError:
                malformed.append(MalformedRow(lineno, "unparseable date"))
                continue
            store = row[positions["store"]].strip()
            item = row[positions["item"]].strip()
            if not store or not item:
                malformed.append(MalformedRow(lineno, "empty store or item id"))
                continue
            try:
                qty = float(row[positions["sales"]])
            except ValueError:
                malformed.append(MalformedRow(lineno, "unparseable quantity"))
                continue
            if not np.isfinite(qty):
                malformed.append(MalformedRow(lineno, "non-finite quantity"))
                continue
            if qty < 0:
                malformed.append(MalformedRow(lineno, "negative quantity"))
                continue
            dates.append(ordinal)
            stores.append(store)
            items.append(item)
            quantities.append(qty)

    if rows_read == 0:
        raise EmptyInputError("input has a header but zero data rows")
    if len(malformed) > MALFORMED_ABORT_FRACTION * rows_read:
        raise MalformedInputError(
            f"{len(malformed)} of {rows_read} rows malformed "
            f"(> {MALFORMED_ABORT_FRACTION:.0%} threshold)",
            malformed,
        )
    if malformed:
        logger.warning("skipped %d malformed rows of %d", len(malformed), rows_read)

    table = SalesTable(
        np.array(dates, dtype=np.int64),
        np.array(stores, dtype=np.str_),
        np.array(items, dtype=np.str_),
        np.array(quantities, dtype=np.float64),
    )
    return IngestResult(table=table, malformed=malformed, rows_read=rows_read)


def sort_chronological(table: SalesTable) -> SalesTable:
    """Stable sort by (store, item, date) and rebuild the series index.

    Raises :class:`DuplicateDateError` if any series has two records on the
    same day: silently averaging duplicates would hide ingestion bugs.
    """
    order = np.lexsort((table.dates, table.item_ids, table.store_ids))
    out = SalesTable(
        table.dates[order],
        table.store_ids[order],
        table.item_ids[order],
        table.quantities[order],
        table.imputed[order],
        is_sorted=True,
    )
    same_series = (out.store_ids[1:] == out.store_ids[:-1]) & (
        out.item_ids[1:] == out.item_ids[:-1]
    )
    dup = same_series & (out.dates[1:] == out.dates[:-1])
    if dup.any():
        i = int(np.argmax(dup)) + 1
        raise DuplicateDateError(
            str(out.store_ids[i]),
            str(out.item_ids[i]),
            dt.date.fromordinal(int(out.dates[i])),
        )
    return out


def fill_gaps(table: SalesTable) -> tuple[SalesTable, GapReport]:
    """Fill missing calendar days inside each series.

    A run of k missing days between observed quantities a and b is filled
    with a + j*(b-a)/(k+1) for j=1..k, and flagged imputed.  Each series
    keeps its own first and last observed day.
    """
    table._require_sorted()
    if not len(table):
        return table, GapReport()
    lo, hi = np.array(list(table.series_index.values()), dtype=np.int64).T
    first, last = table.dates[lo], table.dates[hi - 1]
    lengths = last - first + 1
    start = np.cumsum(lengths) - lengths  # each series' first output row
    series = np.repeat(np.arange(len(lo)), hi - lo)
    pos = start[series] + table.dates - first[series]  # output row of each observed row
    n_out = int(lengths.sum())
    missing = np.ones(n_out, dtype=bool)
    missing[pos] = False
    gaps = np.flatnonzero(missing)
    # Every gap lies between two observations of its own series, so the
    # interpolation never crosses series.

    def spread(observed: np.ndarray, gap_values) -> np.ndarray:
        col = np.empty(n_out, dtype=observed.dtype)
        col[pos] = observed
        col[gaps] = gap_values
        return col

    q = table.quantities
    filled = SalesTable(
        np.repeat(first - start, lengths) + np.arange(n_out),
        np.repeat(table.store_ids[lo], lengths),
        np.repeat(table.item_ids[lo], lengths),
        spread(q, np.interp(gaps, pos, q)),
        spread(table.imputed, True),
        is_sorted=True,
    )
    imputed = lengths - (hi - lo)
    return filled, GapReport(dict(zip(table.series_index, imputed.tolist())))


def aggregate(table: SalesTable, mode: Granularity) -> SalesTable:
    """Reduce to the chosen modeling granularity.

    AGGREGATE sums quantities across all series per date into one synthetic
    series with store and item ids "ALL"; a date is flagged imputed when any
    contributing row was.  PER_SERIES returns the table unchanged.
    """
    if mode is Granularity.PER_SERIES:
        return table
    table._require_sorted()
    if not len(table):
        return table
    lo = table.coverage[0].toordinal()
    hi = table.coverage[1].toordinal()
    n_days = hi - lo + 1
    offsets = table.dates - lo
    sums = np.bincount(offsets, weights=table.quantities, minlength=n_days)
    imputed_any = np.bincount(offsets, weights=table.imputed, minlength=n_days) > 0
    present = np.bincount(offsets, minlength=n_days) > 0
    dates = np.arange(lo, hi + 1, dtype=np.int64)[present]
    return SalesTable(
        dates,
        np.full(len(dates), AGGREGATE_ID),
        np.full(len(dates), AGGREGATE_ID),
        sums[present],
        imputed_any[present],
        is_sorted=True,
    )


def write_sales_csv(table: SalesTable, path: str | Path) -> None:
    """Export in the input schema plus an imputed (0/1) column."""
    columns = [
        iso_dates(table.dates),
        table.store_ids.tolist(),
        table.item_ids.tolist(),
        table.quantities.tolist(),
        table.imputed.astype(np.int64).tolist(),
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "store", "item", "sales", "imputed"])
        writer.writerows(zip(*columns))
