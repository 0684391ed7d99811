"""Writers and readers for the files an evaluation run leaves behind.

Every numeric output is written with repr() round-trip formatting in a
fixed row order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import SalesTable, as_datetime64, utf8_text
from .errors import MalformedInputError, MissingForecastsError
from .evaluate import EvaluationReport
from .features import FeatureMatrix
from .inventory import InventoryOutcome


# Rows formatted and written at a time, which bounds the text held in memory.
BLOCK_ROWS = 8192


def _write_csv(
    path: Path, header: Sequence[str], columns: Sequence[Sequence], lineterminator: str = "\n"
) -> None:
    """Write two or more equal-length columns under ``header``.

    A float64 array's cells are the repr() of its values, formatted once per
    distinct bit pattern across all of a block's float64 columns, and a
    datetime64[D] array's are its ISO dates.  Every other cell, the header's
    too, is ``_csv_text`` of its value; an integer, bool or str array's are
    formatted once per distinct value.
    """
    floats = [isinstance(column, np.ndarray) and column.dtype == np.float64 for column in columns]
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_text, header)) + lineterminator)
        for start in range(0, rows, BLOCK_ROWS):
            block = [column[start : start + BLOCK_ROWS] for column in columns]
            float_cells = iter(_float_cells([part for part, is_float in zip(block, floats) if is_float]))
            cells = [next(float_cells) if is_float else _cells(part) for part, is_float in zip(block, floats)]
            fh.write(lineterminator.join(map(",".join, zip(*cells))) + lineterminator)


def _float_cells(parts: Sequence[np.ndarray]) -> list[list[str]]:
    """The repr() of each value of equal-length float64 arrays, one list per array.

    Keyed on the bits, so that 0.0 and -0.0 keep their own texts; each
    distinct bit pattern is formatted once across the arrays.
    """
    if not parts:
        return []
    bits, codes = np.unique(np.concatenate(parts).view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return [texts[part].tolist() for part in np.split(codes, len(parts))]


def _cells(values: Sequence) -> list[str]:
    """The text of each value; an array's formatted once per distinct value."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "M":
        # ISO dates need no quoting.
        distinct, codes = np.unique(values, return_inverse=True)
        texts = np.datetime_as_string(distinct, unit="D").tolist()
    elif isinstance(values, np.ndarray) and values.dtype.kind in "biuU":
        # Values of these dtypes that compare equal print alike.
        distinct, codes = np.unique(values, return_inverse=True)
        texts = [_csv_text(v) for v in distinct.tolist()]
    else:
        values = values.tolist() if isinstance(values, np.ndarray) else values
        return [_csv_text(value) for value in values]
    return np.array(texts, dtype=object)[codes].tolist()


def _csv_text(value) -> str:
    """The cell of ``value``: csv.writer's quoting for CRLF files, whatever the line end.

    Empty for None, else str(value), quoted with each quote doubled when it
    holds a comma, a quote, a CR or an LF.
    """
    if value is None:
        return ""
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _columns(rows: Sequence[Sequence], width: int) -> list:
    """The columns of equal-length ``rows``; ``width`` empty ones without rows."""
    return list(zip(*rows)) or [()] * width


def write_sales_csv(table: SalesTable, path: str | Path, raw: bool = False) -> None:
    """Export a sales table with csv.writer's CRLF line ends.

    The cleaned form has the input schema plus an imputed (0/1) column, with
    float quantities.  The raw form is the input schema with integer
    quantities, as an extract looks.
    """
    header = ["date", "store", "item", "sales"]
    columns = [as_datetime64(table.dates), table.store_ids, table.item_ids]
    if raw:
        columns.append(table.quantities.astype(np.int64))
    else:
        header.append("imputed")
        columns += [table.quantities, table.imputed.astype(np.int64)]
    _write_csv(Path(path), header, columns, lineterminator="\r\n")


def slug(model: str, scenario: str) -> str:
    return f"{model}_{scenario}"


def write_metrics_csv(path: Path, reports: Sequence[EvaluationReport]) -> None:
    rows = []
    for report in reports:
        for model, entry in report.doc["models"].items():
            m = entry["metrics"] or {"mae": None, "rmse": None, "r2": None, "n": 0}
            rows.append(
                [
                    model,
                    report.doc["id"],
                    report.doc["deviation_mode"],
                    entry["forecast_mode"],
                    m["mae"],
                    m["rmse"],
                    m["r2"],
                    m["n"],
                    entry["error"] or "",
                ]
            )
    header = ["model", "scenario", "deviation_mode", "forecast_mode", "mae", "rmse", "r2", "n", "error"]
    _write_csv(path, header, _columns(rows, len(header)))


def write_runtimes_csv(path: Path, reports: Sequence[EvaluationReport]) -> None:
    rows = [
        [model, report.doc["id"], seconds]
        for report in reports
        for model, seconds in report.runtimes.items()
    ]
    _write_csv(path, ["model", "scenario", "runtime_s"], _columns(rows, 3))


def write_residuals_csv(path: Path, test: FeatureMatrix, predictions: np.ndarray) -> None:
    _write_csv(
        path,
        ["store", "item", "date", "actual", "predicted", "residual"],
        [test.stores, test.items, as_datetime64(test.dates), test.target, predictions, test.target - predictions],
    )


def read_residuals_csv(path: Path) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray, np.ndarray]:
    """Each series' (store, item) and row count, in file order, and the actual and predicted columns.

    Only those four columns are read.  One leading UTF-8 byte order mark is
    skipped.  Bytes that are not UTF-8, a row whose cell count differs from
    the header's, an ``actual`` or ``predicted`` that is not a finite
    number, or a series whose rows come in two runs raise
    MissingForecastsError naming the line.  A row's line is the first it
    starts on; LF, CR and CRLF each end a line.
    """
    try:
        reader = csv.reader(utf8_text(path.read_bytes()), strict=True)
    except MalformedInputError as exc:
        raise MissingForecastsError(f"forecast file {path}: {exc}") from None
    # The cells, row after row, and each row's comma count (its cell count less one) and line.
    cells, commas, lines, line = [], [], [], 1
    try:
        for row in reader:
            cells += row
            commas.append(len(row) - 1)
            lines.append(line)
            line = reader.line_num + 1
    except csv.Error as exc:
        raise MissingForecastsError(f"forecast file {path} line {line}: malformed quoting ({exc})") from None
    if len(commas) < 2:
        raise MissingForecastsError(f"forecast file {path} has no rows")
    if commas.count(commas[0]) != len(commas):
        row = next(row for row, count in enumerate(commas) if count != commas[0])
        raise MissingForecastsError(
            f"forecast file {path} line {lines[row]}: {commas[row] + 1} fields, "
            f"the header has {commas[0] + 1}"
        )
    width = commas[0] + 1
    header = cells[:width]
    column = {}
    for name in ("store", "item", "actual", "predicted"):
        if name not in header:
            raise MissingForecastsError(f"forecast file {path} lacks column {name!r}")
        column[name] = cells[width + header.index(name) :: width]
    actual, predicted = (_numbers(column, name, path, lines) for name in ("actual", "predicted"))
    stores, items = np.array(column["store"]), np.array(column["item"])
    # The first row of each run of equal keys.
    starts = np.flatnonzero(np.concatenate([[True], (stores[1:] != stores[:-1]) | (items[1:] != items[:-1])]))
    keys = list(zip(stores[starts].tolist(), items[starts].tolist()))
    first_row: dict[tuple[str, str], int] = {}
    for key, row in zip(keys, starts.tolist()):
        if first_row.setdefault(key, row) != row:
            raise MissingForecastsError(
                f"forecast file {path} line {lines[row + 1]}: series {key!r} appears again after other series"
            )
    return keys, np.diff(starts, append=len(stores)), actual, predicted


def _numbers(column: Mapping[str, list[str]], name: str, path: Path, lines: Sequence[int]) -> np.ndarray:
    """The named column as float64; its first cell that is not a finite number raises."""
    try:
        values = np.array(column[name], dtype=np.float64)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for row, cell in enumerate(column[name]):
        try:
            if np.isfinite(np.array([cell], dtype=np.float64)).all():
                continue
            problem = "is not a finite number"
        except ValueError:
            problem = "is not a number"
        raise MissingForecastsError(f"forecast file {path} line {lines[row + 1]}: {name} {cell!r} {problem}")
    raise AssertionError(f"{name} does not read as float64, yet each of its cells does")


def write_importance_csv(path: Path, reports: Sequence[EvaluationReport]) -> None:
    rows = []
    for report in reports:
        importance = report.doc["models"].get("gbdt", {}).get("importance") or []
        for rank, (feature, gain) in enumerate(importance, start=1):
            rows.append([report.doc["id"], rank, feature, gain])
    _write_csv(path, ["scenario", "rank", "feature", "normalized_gain"], _columns(rows, 4))


def write_histogram_csv(path: Path, rows: Sequence[Sequence]) -> None:
    """rows: error_histogram's (bin_lo, bin_hi, count) bins."""
    _write_csv(path, ["bin_lo", "bin_hi", "count"], _columns(rows, 3))


def write_actual_vs_predicted_csv(path: Path, test: FeatureMatrix, predictions: np.ndarray) -> None:
    """Per-date totals across series: the single-curve view of the test window.

    ``bincount`` adds each date's values in row order, as a running sum would.
    """
    days, slot = np.unique(test.dates, return_inverse=True)
    actual = np.bincount(slot, weights=test.target)
    predicted = np.bincount(slot, weights=predictions)
    _write_csv(path, ["date", "actual", "predicted"], [as_datetime64(days), actual, predicted])


def write_json(path: Path, doc: Mapping) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


LEDGER_COLUMNS = ("opening", "ordered", "received", "demand", "sold", "lost_sales", "closing")


def write_ledger_csv(path: Path, keys: Sequence[tuple[str, str]], outcome: InventoryOutcome) -> None:
    """One row per series day; ``keys`` names the outcome's series in order."""
    stores = np.repeat(np.array([store for store, _ in keys], dtype=np.str_), outcome.lengths)
    items = np.repeat(np.array([item for _, item in keys], dtype=np.str_), outcome.lengths)
    starts = np.cumsum(outcome.lengths) - outcome.lengths
    days = np.arange(outcome.days) - np.repeat(starts, outcome.lengths)
    ledger = [getattr(outcome, name) for name in LEDGER_COLUMNS]
    _write_csv(path, ["store", "item", "day", *LEDGER_COLUMNS], [stores, items, days, *ledger])


def write_impact_csv(path: Path, rows: Sequence[Sequence]) -> None:
    """rows: impact_table's [model, metric, before, after, improvement_pct, direction]."""
    _write_csv(
        path,
        ["model", "metric", "before", "after", "improvement_pct", "direction"],
        _columns(rows, 6),
    )
