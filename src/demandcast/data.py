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
import itertools
import logging
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
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


# Each row's reason code: 0 keeps it, any other names why it is malformed.
# An id holding "|" is malformed because series are keyed "store|item".
_TOO_FEW, _BAD_DATE, _BAR_ID, _EMPTY_ID, _BAD_QUANTITY, _NON_FINITE, _NEGATIVE = range(1, 8)
_REASONS = {
    _TOO_FEW: "too few fields",
    _BAD_DATE: "unparseable date",
    _BAR_ID: "store or item id holding '|'",
    _EMPTY_ID: "empty store or item id",
    _BAD_QUANTITY: "unparseable quantity",
    _NON_FINITE: "non-finite quantity",
    _NEGATIVE: "negative quantity",
}

# Records read and converted at a time, which bounds the cell text held.
# A block's csv records and their strings are the parse's largest
# temporaries, and the heap they free stays resident in the process and
# in every worker forked from it.  On the bundled sample, 2,048 records
# leave the evaluate parent 2.7 MB less resident than 8,192, for about
# 7 ms more parse: the rules run once per distinct text of a block, and
# smaller blocks share fewer texts.
_BLOCK_RECORDS = 2048


class _Distinct(dict):
    """Each distinct text -> its number, in order of first appearance."""

    def __missing__(self, text: str) -> int:
        self[text] = number = len(self)
        return number


def _distinct(block: list[list[str]], p: int) -> tuple[list[str], np.ndarray]:
    """The distinct texts of field ``p`` in ``block``, and each record's index into them."""
    numbering = _Distinct()
    cells = map(numbering.__getitem__, map(itemgetter(p), block))
    number = np.fromiter(cells, np.intp, len(block))
    return list(numbering), number


def _positions(header: list[str], colmap: Mapping[str, str]) -> dict[str, int]:
    header = [h.strip() for h in header]
    positions: dict[str, int] = {}
    for logical, name in colmap.items():
        if name not in header:
            raise MalformedInputError(f"missing required column {name!r} in header")
        positions[logical] = header.index(name)
    return positions


def _line_of(data: bytes, offset: int) -> int:
    """The line that byte ``offset`` of ``data`` is on; LF, CR and CRLF each end a line."""
    return data.count(b"\n", 0, offset) + data.count(b"\r", 0, offset) - data.count(b"\r\n", 0, offset) + 1


def utf8_text(data: bytes) -> io.TextIOWrapper:
    """``data`` as text for csv.reader, after one leading BOM; raise, naming the first bad byte, unless UTF-8.

    The stream decodes a block at a time, which holds no second copy of the file.
    """
    try:
        str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(
            f"input is not UTF-8: {exc.reason} at byte offset {exc.start} (line {_line_of(data, exc.start)})"
        ) from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def _start_lines(data: bytes) -> np.ndarray:
    """The line each csv record of ``data`` starts on, the header's first."""
    reader = csv.reader(utf8_text(data))
    ends = [reader.line_num for _ in reader]
    return np.array([0, *ends[:-1]], dtype=np.int64) + 1


def _ordinal(text: str) -> int:
    """The cell's day ordinal, or 0 (no day has it) when it is no date."""
    try:
        return _parse_date(text)
    except ValueError:
        return 0


def _quantity(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _id_array(texts: list[str], index: np.ndarray) -> np.ndarray:
    """``texts[index]`` as a str array as wide as its longest entry."""
    used = np.zeros(len(texts), dtype=bool)
    used[index] = True
    width = max((len(texts[k]) for k in np.flatnonzero(used).tolist()), default=1)
    return np.array(texts, dtype=f"<U{width}")[index]


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
    ignored.  One leading UTF-8 byte order mark is skipped.

    Each cell is read as the per-row rules read it: dates by
    ``date.fromisoformat`` after ``strip``, ids by ``strip``, quantities by
    ``float``.  Records are read in blocks, and the rules run once per
    distinct text of a column in a block.
    """
    colmap = dict(DEFAULT_SCHEMA)
    if schema:
        colmap.update(schema)
    data = Path(source).read_bytes() if isinstance(source, (str, Path)) else source.read()
    reader = csv.reader(utf8_text(data))
    header = next(reader, None)
    if header is None:
        raise EmptyInputError("input has no header row")
    positions = _positions(header, colmap)
    needed = max(positions.values(), default=0)  # a record needs more fields than this
    ids = {"store": _Distinct(), "item": _Distinct()}  # each stripped id -> its number
    blocks: dict[str, list[np.ndarray]] = {
        name: [] for name in ("width", "date", "store", "item", "unparsed", "sales")
    }
    filler = [""] * (needed + 1)
    for block in iter(lambda: list(itertools.islice(reader, _BLOCK_RECORDS)), []):
        width = np.fromiter(map(len, block), np.int32, len(block))
        for k in np.flatnonzero(width <= needed).tolist():
            block[k] = filler  # a blank or short record, whose cells are not read
        blocks["width"].append(width)
        texts, number = _distinct(block, positions["date"])
        blocks["date"].append(np.array([_ordinal(t) for t in texts], dtype=np.int64)[number])
        for name, numbering in ids.items():
            texts, number = _distinct(block, positions[name])
            numbers = np.array([numbering[t.strip()] for t in texts], dtype=np.int32)
            blocks[name].append(numbers[number])
        texts, number = _distinct(block, positions["sales"])
        parsed = [_quantity(t) for t in texts]
        blocks["unparsed"].append(np.array([q is None for q in parsed], dtype=bool)[number])
        blocks["sales"].append(np.array([0.0 if q is None else q for q in parsed])[number])

    # csv.reader yields a blank line as a record of no fields, which is skipped.
    records = np.flatnonzero(np.concatenate([np.zeros(0, np.int32), *blocks["width"]]))
    rows_read = len(records)
    if rows_read == 0:
        raise EmptyInputError("input has a header but zero data rows")
    width, dates, stores, items, unparsed, quantities = (
        np.concatenate(arrays)[records] for arrays in blocks.values()
    )
    # Each distinct id's code; a row takes the higher of its store's and
    # item's, so an empty id outranks one holding "|".
    store_code, item_code = (
        np.array([_EMPTY_ID if not t else _BAR_ID if "|" in t else 0 for t in numbering], np.int8)
        for numbering in ids.values()
    )
    id_code = np.maximum(store_code[stores], item_code[items])
    reason = np.where(
        width > needed, np.where(dates == 0, _BAD_DATE, id_code), _TOO_FEW
    ).astype(np.int8)
    for code, bad in (
        (_BAD_QUANTITY, unparsed),
        (_NON_FINITE, ~np.isfinite(quantities)),
        (_NEGATIVE, quantities < 0),
    ):
        reason[(reason == 0) & bad] = code

    bad = np.flatnonzero(reason)
    # A row's line is the line it starts on.  Only a quoted cell spans
    # lines, so without a quote that is its record number, the header's 1.
    linenos = _start_lines(data)[records[bad] + 1] if len(bad) and b'"' in data else records[bad] + 2
    malformed = [
        MalformedRow(line, _REASONS[code])
        for line, code in zip(linenos.tolist(), reason[bad].tolist())
    ]
    if len(malformed) > MALFORMED_ABORT_FRACTION * rows_read:
        # One clause per reason, in the order of the line each first occurs on.
        codes, first, counts = np.unique(reason[bad], return_index=True, return_counts=True)
        clauses = (
            f"{n} {_REASONS[c]} (first at line {linenos[i]})"
            for i, c, n in sorted(zip(first.tolist(), codes.tolist(), counts.tolist()))
        )
        raise MalformedInputError(
            f"{len(malformed)} of {rows_read} rows malformed "
            f"(> {MALFORMED_ABORT_FRACTION:.0%} threshold): {'; '.join(clauses)}",
            malformed,
        )
    if malformed:
        logger.warning("skipped %d malformed rows of %d", len(malformed), rows_read)

    kept = np.flatnonzero(reason == 0)
    table = SalesTable(
        dates[kept],
        _id_array(list(ids["store"]), stores[kept]),
        _id_array(list(ids["item"]), items[kept]),
        quantities[kept],
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

