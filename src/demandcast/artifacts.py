"""Writers and readers for the files an evaluation run leaves behind.

Every numeric output is written with repr() round-trip formatting in a
fixed row order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import SalesTable, as_datetime64, series_runs
from .errors import MissingForecastsError
from .evaluate import EvaluationReport
from .features import FeatureMatrix
from .inventory import InventoryOutcome


# Rows formatted and written at a time, which bounds the text held in memory.
BLOCK_ROWS = 8192


def _write_csv(
    path: Path, header: Sequence[str], columns: Sequence[Sequence], lineterminator: str = "\n"
) -> None:
    """Write equal-length columns under ``header``, as csv.writer writes rows.

    A float64 array's cells are the repr() of its values, formatted once per
    distinct bit pattern across all of a block's float64 columns, and a
    datetime64[D] array's are its ISO dates.  Every other cell is the text
    csv.writer gives its value (an empty cell for None), so that quoting
    follows csv; an integer, bool or str array's are formatted once per
    distinct value.
    """
    csv_text = _csv_formatter(len(columns) == 1, lineterminator)
    floats = [isinstance(column, np.ndarray) and column.dtype == np.float64 for column in columns]
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator=lineterminator).writerow(header)
        for start in range(0, rows, BLOCK_ROWS):
            block = [column[start : start + BLOCK_ROWS] for column in columns]
            float_cells = iter(_float_cells([part for part, is_float in zip(block, floats) if is_float]))
            cells = [
                next(float_cells) if is_float else _cells(part, csv_text)
                for part, is_float in zip(block, floats)
            ]
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


def _cells(values: Sequence, csv_text) -> list[str]:
    """The text of each value; an array's formatted once per distinct value."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "M":
        # ISO dates need no quoting.
        distinct, codes = np.unique(values, return_inverse=True)
        texts = np.datetime_as_string(distinct, unit="D").tolist()
    elif isinstance(values, np.ndarray) and values.dtype.kind in "biuU":
        # Values of these dtypes that compare equal print alike.
        distinct, codes = np.unique(values, return_inverse=True)
        texts = [csv_text(v) for v in distinct.tolist()]
    else:
        values = values.tolist() if isinstance(values, np.ndarray) else values
        return [csv_text(value) for value in values]
    return np.array(texts, dtype=object)[codes].tolist()


def _csv_formatter(one_column: bool, lineterminator: str):
    """A function giving the text csv.writer writes for a value as a cell.

    csv quotes a cell that holds a character of the line terminator, so the
    writer ends its rows as the file does.
    """
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator=lineterminator)
    # csv quotes a row's only cell when it is empty, and leaves it bare
    # beside a second cell, which is then cut off with its comma.
    cut = len(lineterminator) + (0 if one_column else 1)

    def csv_text(value) -> str:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([value] if one_column else [value, None])
        return buffer.getvalue()[:-cut]

    return csv_text


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


# A quoted cell, with "" for each quote inside it, or an unquoted one.
_CELL = re.compile(r'"((?:[^"]|"")*)"|[^,"\n]*')


def _plain_cells(text: str) -> tuple[list[str], list[int], Sequence[int]]:
    """The cells, row after row, of CSV text that holds no quote.

    Without quotes no cell holds a comma or a line end, so rows split on
    "\n" and cells on ",".  Returns the cells, each row's comma count (its
    cell count less one) and each row's line number.
    """
    rows = text.split("\n")
    if rows[-1] == "":
        rows.pop()
        text = text[:-1]
    commas = list(map(str.count, rows, itertools.repeat(",")))
    return text.replace("\n", ",").split(","), commas, range(1, len(rows) + 1)


def _quoted_cells(text: str, path: Path) -> tuple[list[str], list[int], Sequence[int]]:
    """As ``_plain_cells``, for cells that may be quoted as csv.writer quotes them.

    Rows end at a "\n" outside quotes; a lone "\r" belongs to its cell, as
    a writer ending rows with "\n" leaves it unquoted.
    """
    cells, commas, lines = [], [], []
    pos, line = 0, 1
    while pos < len(text):
        start, count = pos, 0
        while True:
            match = _CELL.match(text, pos)
            quoted = match.group(1)
            cells.append(match.group(0) if quoted is None else quoted.replace('""', '"'))
            pos = match.end()
            if not text.startswith(",", pos):
                break
            count, pos = count + 1, pos + 1
        if pos < len(text) and text[pos] != "\n":
            raise MissingForecastsError(f"forecast file {path} line {line}: malformed quoting")
        commas.append(count)
        lines.append(line)
        line += text.count("\n", start, pos + 1)
        pos += 1
    return cells, commas, lines


def read_residuals_csv(path: Path) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    """(store, item) -> (actual, predicted), in the file's (store, item, date) order.

    Only those four columns are read.  Bytes that are not UTF-8, a row whose
    cell count differs from the header's, or an ``actual`` or ``predicted``
    that is not a number raise MissingForecastsError naming the line.
    """
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise MissingForecastsError(f"forecast file {path} line {line}: not UTF-8") from None
    cells, commas, lines = _quoted_cells(text, path) if '"' in text else _plain_cells(text)
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
    runs = series_runs(np.array(column["store"]), np.array(column["item"]))
    return {key: (actual[a:b], predicted[a:b]) for key, (a, b) in runs.items()}


def _numbers(column: Mapping[str, list[str]], name: str, path: Path, lines: Sequence[int]) -> np.ndarray:
    """The named column as float64; its first cell that is not a number raises."""
    try:
        return np.array(column[name], dtype=np.float64)
    except ValueError:
        for row, cell in enumerate(column[name]):
            try:
                np.array([cell], dtype=np.float64)
            except ValueError:
                raise MissingForecastsError(
                    f"forecast file {path} line {lines[row + 1]}: {name} {cell!r} is not a number"
                ) from None
        raise


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
