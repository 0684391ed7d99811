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
from typing import Mapping, Sequence

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


class FillMethod(str, Enum):
    LINEAR_INTERPOLATE = "linear-interpolate"
    FORWARD_FILL = "forward-fill"


@dataclass(frozen=True)
class MalformedRow:
    line: int
    reason: str


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split boundaries, all inclusive.

    The test window starts the day after train_end: a gap would leave days
    that neither side sees, and naive and arimax forecast from the last
    training day onwards.
    """

    train_end: dt.date
    test_start: dt.date
    test_end: dt.date

    def __post_init__(self) -> None:
        if self.test_start != self.train_end + dt.timedelta(days=1):
            raise ValueError("test_start must be the day after train_end")
        if self.test_end < self.test_start:
            raise ValueError("test_end must not precede test_start")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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
        "extras",
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
        extras: Mapping[str, np.ndarray] | None = None,
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
        self.extras = {
            name: _freeze(np.asarray(col, dtype=np.float64))
            for name, col in (extras or {}).items()
        }
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

    def take(self, mask_or_index: np.ndarray, is_sorted: bool | None = None) -> "SalesTable":
        keep = mask_or_index
        return SalesTable(
            self.dates[keep],
            self.store_ids[keep],
            self.item_ids[keep],
            self.quantities[keep],
            self.imputed[keep],
            {name: col[keep] for name, col in self.extras.items()},
            is_sorted=self.is_sorted if is_sorted is None else is_sorted,
        )

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
    extra_columns: Sequence[str] = (),
) -> IngestResult:
    """Parse a UTF-8 sales CSV, given as a path or a binary stream, into a :class:`SalesTable`.

    ``schema`` remaps the logical column names (date, store, item, sales) to
    the header names actually present.  Rows that fail to parse, or that
    violate the quantity invariant (finite, non-negative), are collected as
    :class:`MalformedRow` and skipped; ingestion aborts when more than 1% of
    data rows are malformed.

    ``extra_columns`` names additional numeric columns (e.g. locally recorded
    promotion or weather indices) to carry through unchanged.
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
        extra_pos = {}
        for name in extra_columns:
            if name not in header:
                raise MalformedInputError(f"missing extra column {name!r} in header")
            extra_pos[name] = header.index(name)

        dates: list[int] = []
        stores: list[str] = []
        items: list[str] = []
        quantities: list[float] = []
        extras: dict[str, list[float]] = {name: [] for name in extra_columns}
        malformed: list[MalformedRow] = []
        rows_read = 0
        needed = max(positions.values(), default=0)
        if extra_pos:
            needed = max(needed, max(extra_pos.values()))

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
            extra_vals = {}
            bad_extra = None
            for name, pos in extra_pos.items():
                try:
                    extra_vals[name] = float(row[pos])
                except ValueError:
                    bad_extra = name
                    break
            if bad_extra is not None:
                malformed.append(MalformedRow(lineno, f"unparseable {bad_extra}"))
                continue
            dates.append(ordinal)
            stores.append(store)
            items.append(item)
            quantities.append(qty)
            for name, val in extra_vals.items():
                extras[name].append(val)

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
        extras={name: np.array(vals, dtype=np.float64) for name, vals in extras.items()},
    )
    return IngestResult(table=table, malformed=malformed, rows_read=rows_read)


def sort_chronological(table: SalesTable) -> SalesTable:
    """Stable sort by (store, item, date) and rebuild the series index.

    Raises :class:`DuplicateDateError` if any series has two records on the
    same day: silently averaging duplicates would hide ingestion bugs.
    """
    order = np.lexsort((table.dates, table.item_ids, table.store_ids))
    out = table.take(order, is_sorted=True)
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


def fill_gaps(
    table: SalesTable,
    method: FillMethod = FillMethod.LINEAR_INTERPOLATE,
) -> tuple[SalesTable, GapReport]:
    """Fill missing calendar days inside each series.

    A run of k missing days between observed values a and b is filled with
    a + j*(b-a)/(k+1) for j=1..k under LINEAR_INTERPOLATE, or with a under
    FORWARD_FILL.  Filled rows are flagged imputed.  Each series keeps its
    own first and last observed day.
    """
    table._require_sorted()
    report = GapReport()

    out_dates: list[np.ndarray] = []
    out_stores: list[str] = []
    out_items: list[str] = []
    out_qty: list[np.ndarray] = []
    out_imputed: list[np.ndarray] = []
    out_extras: dict[str, list[np.ndarray]] = {name: [] for name in table.extras}
    counts: list[int] = []

    for key, (lo, hi) in table.series_index.items():
        d = table.dates[lo:hi]
        q = table.quantities[lo:hi]
        imp = table.imputed[lo:hi]
        first, last = int(d[0]), int(d[-1])
        span = np.arange(first, last + 1, dtype=np.int64)
        n_new = len(span)
        if n_new == len(d):
            out_dates.append(d)
            out_qty.append(q)
            out_imputed.append(imp)
            for name in table.extras:
                out_extras[name].append(table.extras[name][lo:hi])
            counts.append(len(d))
            report.imputed_per_series[key] = 0
            continue

        pos = d - first  # observed offsets, ascending; at least one gap remains
        missing = np.ones(n_new, dtype=bool)
        missing[pos] = False
        gap_idx = np.flatnonzero(missing)
        prev = np.searchsorted(pos, gap_idx, side="right") - 1  # last observation before
        qty_new = np.empty(n_new, dtype=np.float64)
        qty_new[pos] = q
        if method is FillMethod.LINEAR_INTERPOLATE:
            qty_new[gap_idx] = np.interp(gap_idx, pos, q)
        else:
            qty_new[gap_idx] = q[prev]
        imp_new = np.ones(n_new, dtype=bool)
        imp_new[pos] = imp
        for name in table.extras:
            observed_extra = table.extras[name][lo:hi]
            col = np.empty(n_new, dtype=np.float64)
            col[pos] = observed_extra
            col[gap_idx] = observed_extra[prev]
            out_extras[name].append(col)

        out_dates.append(span)
        out_qty.append(qty_new)
        out_imputed.append(imp_new)
        counts.append(n_new)
        report.imputed_per_series[key] = len(gap_idx)

    keys = list(table.series_index)
    stores = np.concatenate(
        [np.full(c, k[0], dtype=table.store_ids.dtype) for k, c in zip(keys, counts)]
    ) if keys else np.array([], dtype=np.str_)
    items = np.concatenate(
        [np.full(c, k[1], dtype=table.item_ids.dtype) for k, c in zip(keys, counts)]
    ) if keys else np.array([], dtype=np.str_)

    filled = SalesTable(
        np.concatenate(out_dates) if out_dates else np.array([], dtype=np.int64),
        stores,
        items,
        np.concatenate(out_qty) if out_qty else np.array([], dtype=np.float64),
        np.concatenate(out_imputed) if out_imputed else np.array([], dtype=bool),
        {name: np.concatenate(cols) for name, cols in out_extras.items()},
        is_sorted=True,
    )
    return filled, report


def aggregate(table: SalesTable, mode: Granularity) -> SalesTable:
    """Reduce to the chosen modeling granularity.

    AGGREGATE sums quantities across all series per date into one synthetic
    series with store and item ids "ALL"; a date is flagged imputed when any
    contributing row was.  Extra passthrough columns have no meaningful sum
    across items and are dropped with a warning.  PER_SERIES returns the
    table unchanged.
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
    imputed_any = np.zeros(n_days, dtype=bool)
    np.logical_or.at(imputed_any, offsets, table.imputed)
    present = np.bincount(offsets, minlength=n_days) > 0
    if table.extras:
        logger.warning("aggregate drops extra columns: %s", sorted(table.extras))
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        extra_names = sorted(table.extras)
        writer.writerow(["date", "store", "item", "sales", "imputed"] + extra_names)
        for i in range(len(table)):
            row = [
                dt.date.fromordinal(int(table.dates[i])).isoformat(),
                str(table.store_ids[i]),
                str(table.item_ids[i]),
                repr(float(table.quantities[i])),
                int(table.imputed[i]),
            ]
            row.extend(repr(float(table.extras[name][i])) for name in extra_names)
            writer.writerow(row)
