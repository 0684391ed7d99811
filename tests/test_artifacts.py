import csv
import datetime as dt
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandcast import artifacts
from demandcast.data import SalesTable, parse_sales_csv
from demandcast.features import FeatureMatrix


def fmt(value) -> str:
    """The cell formatting _write_csv once applied before csv saw a value."""
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 too, whose repr is np.float64(...)
        return repr(float(value))
    if isinstance(value, np.datetime64):
        return value.item().isoformat()
    return str(value)


CELLS = st.one_of(
    st.none(),
    st.text(max_size=5),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, float("inf"), float("-inf"), float("nan")]),
)


FLOAT64 = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(),
)
# Values that compare equal but print apart.
ZEROS = st.sampled_from([0, 0.0, -0.0, False, np.float64(-0.0), np.float64(0.0), None, ""])
QUOTED = st.text(alphabet=st.sampled_from(list('ab ,"\n\r')), max_size=4)
DATES = st.one_of(
    st.sampled_from([dt.date.min, dt.date(1969, 12, 31), dt.date(1970, 1, 1), dt.date(2016, 2, 29), dt.date.max]),
    st.dates(),
)

# (elements, dtype): lists of cells where the dtype is None, else arrays.
COLUMN_KINDS = [
    (CELLS, None),
    (ZEROS, None),
    (QUOTED, None),
    (FLOAT64, np.float64),
    (QUOTED, np.str_),
    (st.integers(-3, 3), np.int64),
    (DATES, "datetime64[D]"),
]


@st.composite
def tables(draw):
    """Tables of 1-5 columns and 0-5 rows.

    A column is a list of CELLS, of ZEROS or of QUOTED text, or a float64,
    str, int64 or datetime64[D] array; the small pools make repeats, which
    the writer formats once.
    """
    height = draw(st.integers(0, 5))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        elements, dtype = draw(st.sampled_from(COLUMN_KINDS))
        values = st.lists(elements, min_size=height, max_size=height)
        columns.append(draw(values) if dtype is None else np.array(draw(values), dtype=dtype))
    return columns


@settings(max_examples=300, deadline=None)
@given(tables(), st.integers(1, 6), st.sampled_from(["\n", "\r\n"]))
def test_csv_formats_cells_as_fmt_did(tmp_path_factory, columns, block_rows, lineterminator):
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    header = [f"c{j}" for j in range(len(columns))]
    with mock.patch.object(artifacts, "BLOCK_ROWS", block_rows):
        artifacts._write_csv(path, header, columns, lineterminator)
    with open(path.with_suffix(".expected"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([fmt(v) for v in row])
    assert path.read_bytes() == path.with_suffix(".expected").read_bytes()


def test_csv_quotes_the_only_cell_when_empty(tmp_path):
    path = tmp_path / "one.csv"
    artifacts._write_csv(path, ["a"], [["", None, "x", ","]])
    assert path.read_text(encoding="utf-8") == 'a\n""\n""\nx\n","\n'


def test_csv_keeps_equal_values_apart(tmp_path):
    path = tmp_path / "zeros.csv"
    floats = np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0])
    artifacts._write_csv(path, ["a", "b"], [[0, 0.0, -0.0, False, np.float64(-0.0), 0], floats])
    assert path.read_text(encoding="utf-8") == "a,b\n0,0.0\n0.0,-0.0\n-0.0,0.0\nFalse,-0.0\n-0.0,0.0\n0,-0.0\n"


def test_sales_csv_quotes_ids_as_csv_writer_does(tmp_path):
    # csv.writer's default line end is CRLF, so it quotes a lone CR as well as LF.
    ids = ["1", "a,b", 'a"b', "a\rb", "a\nb", "a\r\nb", " 7 "]
    n = len(ids)
    table = SalesTable(
        np.arange(n) + dt.date(2016, 1, 1).toordinal(),
        np.array(ids),
        np.array(ids[::-1]),
        np.arange(n, dtype=np.float64),
        np.arange(n) % 2 == 0,
    )
    for raw in (False, True):
        path = tmp_path / f"sales_{raw}.csv"
        artifacts.write_sales_csv(table, path, raw=raw)
        rows = [
            [day, store, item, int(q) if raw else repr(q), *([] if raw else [int(imputed)])]
            for day, store, item, q, imputed in zip(
                [dt.date.fromordinal(o).isoformat() for o in table.dates.tolist()],
                ids,
                ids[::-1],
                table.quantities.tolist(),
                table.imputed,
            )
        ]
        with open(tmp_path / "expected.csv", "w", encoding="utf-8", newline="") as fh:
            header = ["date", "store", "item", "sales", *([] if raw else ["imputed"])]
            csv.writer(fh).writerows([header, *rows])
        assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()
        parsed = parse_sales_csv(path).table
        assert parsed.store_ids.tolist() == [i.strip() for i in ids]
        assert parsed.item_ids.tolist() == [i.strip() for i in ids[::-1]]


RESIDUAL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, float("inf"), float("-inf")]),
    st.floats(allow_nan=False, allow_subnormal=True),
)


@st.composite
def residual_series(draw):
    """1-5 series of different lengths, keyed by ids that need quoting or not."""
    keys = draw(st.lists(st.tuples(QUOTED, QUOTED), min_size=1, max_size=5, unique=True))
    lengths = draw(st.lists(st.integers(1, 6), min_size=len(keys), max_size=len(keys)))
    floats = st.lists(RESIDUAL_FLOATS, min_size=sum(lengths), max_size=sum(lengths))
    return keys, lengths, np.array(draw(floats)), np.array(draw(floats))


@settings(max_examples=200, deadline=None)
@given(residual_series())
@example(([("1", "1"), ("1", "2")], [2, 1], np.array([1.0, -0.0, 5e-324]), np.array([np.inf, 2.5, -np.inf])))
@example(([('a,"', "\r"), ("\n", "")], [1, 2], np.array([0.0, 1.5, -2.0]), np.array([3.0, -0.0, 4.0])))
def test_residuals_round_trip(tmp_path_factory, series):
    # A file with no quote is split on commas and line ends; one with a
    # quoted id is tokenized: both paths must give back what was written.
    keys, lengths, actual, predicted = series
    stores = np.repeat(np.array([store for store, _ in keys], dtype=object), lengths)
    items = np.repeat(np.array([item for _, item in keys], dtype=object), lengths)
    n = len(actual)
    test = FeatureMatrix(
        ["x"], np.zeros((n, 1)), actual, np.arange(n) + dt.date(2017, 8, 1).toordinal(), stores, items
    )
    path = tmp_path_factory.getbasetemp() / "residuals.csv"
    with np.errstate(all="ignore"):
        artifacts.write_residuals_csv(path, test, predicted)
    back = artifacts.read_residuals_csv(path)
    assert list(back) == keys
    starts = np.cumsum(lengths) - lengths
    for (got_actual, got_predicted), start, length in zip(back.values(), starts.tolist(), lengths):
        assert got_actual.tobytes() == actual[start : start + length].tobytes()
        assert got_predicted.tobytes() == predicted[start : start + length].tobytes()
