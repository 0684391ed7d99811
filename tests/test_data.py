import codecs
import csv
import datetime as dt
import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandcast import data as data_module
from demandcast.artifacts import write_sales_csv
from demandcast.data import (
    DEFAULT_SCHEMA,
    MALFORMED_ABORT_FRACTION,
    Granularity,
    IngestResult,
    MalformedRow,
    SalesTable,
    SplitSpec,
    aggregate,
    as_datetime64,
    fill_gaps,
    parse_sales_csv,
    series_runs,
    sort_chronological,
)
from demandcast.errors import (
    DuplicateDateError,
    EmptyInputError,
    EmptyPartitionError,
    MalformedInputError,
)
from demandcast.evaluate import ScenarioSpec, run_scenario
from demandcast.features import (
    LAGS,
    DeviationMode,
    HolidayCalendar,
    _assemble_unscaled,
    build_train_test_matrices,
)

from conftest import BASE, gap_filled_tables, make_table, table_rows, unsorted_table


def parse_bytes(data: bytes, **kwargs):
    return parse_sales_csv(io.BytesIO(data), **kwargs)


def test_parse_single_row():
    res = parse_bytes(b"date,store,item,sales\n2013-01-01,1,1,13\n")
    assert len(res.table) == 1
    assert res.table.coverage == (dt.date(2013, 1, 1), dt.date(2013, 1, 1))
    assert table_rows(res.table) == [(dt.date(2013, 1, 1), "1", "1", 13.0)]
    assert res.malformed == []


def test_parse_rejects_negative_quantity_row():
    good_days = [
        (dt.date(2013, 1, 3) + dt.timedelta(days=k)).isoformat() for k in range(100)
    ]
    res = parse_bytes(
        b"date,store,item,sales\n"
        b"2013-01-01,1,1,5\n"
        b"2013-01-02,1,1,-3\n"
        + b"".join(f"{d},1,1,4\n".encode() for d in good_days)
    )
    assert len(res.table) == 101
    assert len(res.malformed) == 1
    assert res.malformed[0].line == 3
    assert "negative" in res.malformed[0].reason


def test_parse_aborts_when_malformed_fraction_exceeds_threshold():
    with pytest.raises(MalformedInputError) as exc:
        parse_bytes(
            b"date,store,item,sales\n"
            b"2013-01-01,1,1,5\n"
            b"not-a-date,1,1,5\n"
        )
    assert len(exc.value.malformed) == 1


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_malformed_row_names_the_line_it_starts_on(end):
    # Before, a row was numbered by csv record, so after a quoted id on two
    # lines the bad date on line 5 was "first at line 4".
    lines = ["date,store,item,sales", '2013-01-01,"a', 'b",1,5', "2013-01-02,1,1,5", "x,1,1,5", "2013-01-03,1,1,-2"]
    data = end.join(lines).encode() + end.encode()
    with pytest.raises(MalformedInputError) as exc:
        parse_bytes(data)
    assert [row.line for row in exc.value.malformed] == [5, 6]
    assert str(exc.value).endswith("1 unparseable date (first at line 5); 1 negative quantity (first at line 6)")
    # Under the 1% threshold the rows are skipped, numbered alike.
    good = [f"{dt.date(2014, 1, 1) + dt.timedelta(days=k)},1,1,5" for k in range(300)]
    res = parse_bytes(end.join(lines + good).encode())
    assert [row.line for row in res.malformed] == [5, 6]


def test_parse_empty_input():
    with pytest.raises(EmptyInputError):
        parse_bytes(b"date,store,item,sales\n")


def test_parse_missing_column():
    with pytest.raises(MalformedInputError):
        parse_bytes(b"date,shop,item,sales\n2013-01-01,1,1,5\n")


def test_parse_schema_remap_ignores_unnamed_columns():
    res = parse_bytes(
        b"day,s,i,qty,promo\n2013-01-01,1,1,5,0.5\n",
        schema={"date": "day", "store": "s", "item": "i", "sales": "qty"},
    )
    assert len(res.table) == 1
    assert res.table.quantities[0] == 5.0


# --- the columnar parser against the per-row loop it replaced ----------------


def reference_parse(source, schema=None) -> IngestResult:
    """The per-row loop parse_sales_csv replaced, kept as its reference."""
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

        line = reader.line_num + 1  # the line the next row starts on
        for row in reader:
            lineno, line = line, reader.line_num + 1
            if not row:
                continue
            rows_read += 1
            if len(row) <= needed:
                malformed.append(MalformedRow(lineno, "too few fields"))
                continue
            try:
                ordinal = dt.date.fromisoformat(row[positions["date"]].strip()).toordinal()
            except ValueError:
                malformed.append(MalformedRow(lineno, "unparseable date"))
                continue
            store = row[positions["store"]].strip()
            item = row[positions["item"]].strip()
            if not store or not item:
                malformed.append(MalformedRow(lineno, "empty store or item id"))
                continue
            if "|" in store or "|" in item:
                malformed.append(MalformedRow(lineno, "store or item id holding '|'"))
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
        first_line: dict[str, int] = {}
        count: dict[str, int] = {}
        for row in malformed:
            first_line.setdefault(row.reason, row.line)
            count[row.reason] = count.get(row.reason, 0) + 1
        clauses = [f"{count[r]} {r} (first at line {line})" for r, line in first_line.items()]
        raise MalformedInputError(
            f"{len(malformed)} of {rows_read} rows malformed "
            f"(> {MALFORMED_ABORT_FRACTION:.0%} threshold): " + "; ".join(clauses),
            malformed,
        )

    table = SalesTable(
        np.array(dates, dtype=np.int64),
        np.array(stores, dtype=np.str_),
        np.array(items, dtype=np.str_),
        np.array(quantities, dtype=np.float64),
    )
    return IngestResult(table=table, malformed=malformed, rows_read=rows_read)


def parse_outcome(parse, data: bytes, schema=None):
    """What a parser makes of ``data``: the table's bytes, malformed rows and count, or its exception."""
    try:
        res = parse(io.BytesIO(data), schema=schema)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "malformed", None)
    t = res.table
    columns = [(a.dtype.str, a.tobytes()) for a in (t.dates, t.store_ids, t.item_ids, t.quantities)]
    return columns, res.malformed, res.rows_read


# Cells that float, date.fromisoformat and str.strip accept or reject in
# ways a shortcut could get wrong.
DATE_CELLS = [
    "2016-01-05", "2016-02-29", "2000-02-29", "0001-01-01", "9999-12-31", " 2016-01-05",
    "2016-01-05\t", "20160520", "2016-W01-1", "0000-01-01", "2016-02-30", "1900-02-29",
    "2015-02-29", "2016-13-01", "2016-00-10", "2016-01-00", "2016-1-05", "2016/01/05",
    "2016-01-05T00", "", "x", "٢٠١٦-٠١-٠٥", "2016-01-0５",
]
QUANTITY_CELLS = [
    "5", "0", "007", "123456789012345", "1234567890123456", "99999999999999999999", "1_000",
    " 5", "5 ", "+3", "-0", "-3", "1e3", "1.5", ".5", "5.", "nan", "NaN", "inf", "-inf",
    "1e400", "١٢", "0x10", "", "n/a", "\x0b5",
]
ID_CELLS = [
    "1", "12", "A7", "store-100", " 1", "1 ", "\t2\t", " ", "", "\x0b", "\x1c", "\xa0",
    "　", "é", "商店", "ab,c", 'a"b', "a\nb", "a\rb", "long-store-identifier-0001", "a|b", " | ",
]
EXTRA_CELLS = ["", "0.5", "x,y", 'q"', "promo", " "]
GOOD_ROW = ["2016-01-05", "1", "1", "5"]


def csv_line(cells: list[str], quote_all: bool) -> str:
    """The cells as csv.writer would write them, or with every cell quoted."""
    quoted = (
        '"' + c.replace('"', '""') + '"'
        if quote_all or any(ch in c for ch in ',"\r\n') else c
        for c in cells
    )
    return ",".join(quoted)


@st.composite
def sales_files(draw):
    """A sales CSV as bytes, with the schema to read it by.

    About half are plain (ASCII, no quotes, LF or CRLF), as the program's own
    cleaned_sales.csv is; the rest hold quotes, non-ASCII text and lone CRs.
    """
    plain = draw(st.booleans())

    def one_in(n):
        return draw(st.sampled_from([False] * (n - 1) + [True]))

    def pool(cells):
        if plain:
            cells = [c for c in cells if c.isascii() and not any(ch in c for ch in ',"\r\n')]
        return st.sampled_from(cells)

    logical = ["date", "store", "item", "sales"]
    names = draw(st.sampled_from([logical, ["day", "s", "i", "qty"]]))
    schema = dict(zip(logical, names)) if names != logical else None
    extras = draw(st.lists(st.sampled_from(["promo", "price", "s", " note"]), max_size=2))
    header = draw(st.permutations(names + extras))
    if one_in(10):  # a missing column
        header = [h for h in header if h != draw(st.sampled_from(names))]
    padded = [draw(st.sampled_from(["", " ", "\t"])) + h for h in header]
    pools = dict(zip(names, map(pool, (DATE_CELLS, ID_CELLS, ID_CELLS, QUANTITY_CELLS))))
    text = st.text(
        alphabet=st.characters(
            codec="ascii" if plain else "utf-8", exclude_characters='",\r\n' if plain else ""
        ),
        max_size=6,
    )

    def cell(name):
        return draw(text if one_in(4) else pools.get(name, pool(EXTRA_CELLS)))

    good = dict(zip(names, GOOD_ROW))
    good_row = [good.get(h, "0") for h in header]

    def row():
        # A good row with one or two cells drawn, so each rule is met alone.
        cells = list(good_row)
        # The header may have lost every column (each is dropped by its own draw).
        for _ in range(draw(st.integers(1, 2)) if cells else 0):
            k = draw(st.integers(0, len(cells) - 1))
            cells[k] = cell(header[k])
        if one_in(8):
            cells = cells[: draw(st.integers(0, len(cells)))]
        return cells

    # Enough good rows, now and then, that a few malformed rows stay under 1%.
    rows = [good_row] * draw(st.sampled_from([0, 1, 600]))
    for _ in range(draw(st.integers(1, 6))):
        rows.insert(draw(st.integers(0, len(rows))), [] if one_in(5) else row())
    quote_all = not plain and draw(st.booleans())
    lines = [csv_line(padded, quote_all)] + [csv_line(r, quote_all) if r else "" for r in rows]
    # One line end for the file, and a few lines that end otherwise.
    ends = st.sampled_from(["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"])
    line_ends = [draw(ends)] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        line_ends[draw(st.integers(0, len(lines) - 1))] = draw(ends)
    body = "".join(map(str.__add__, lines, line_ends))
    if draw(st.booleans()):
        body = body.rstrip("\r\n")  # no final line end
    return body.encode("utf-8"), schema


@settings(max_examples=300, deadline=None)
@given(sales_files())
@example((b"", None))
@example((b"date,store,item,sales", None))
@example((b"date,store,item,sales\n\n\r\n", None))
@example((b"\n2016-01-05,1,1,5\n", None))
@example((b"date,store,item,sales\r\n\r\n2016-01-05,1,1,5", None))
@example((b"date,store,item,sales\r2016-01-05,1,1,5\r", None))
# A malformed row after a quoted id on two lines, numbered by its first line.
@example((b'date,store,item,sales\r2016-01-05,"a\rb",1,5\r2016-01-06,1,1,x\r', None))
# Rows that break two rules each, which the first rule checked must name.
@example((
    b"date,store,item,sales\n" + b"2016-01-05,1,1,5\n" * 600
    + b"x, ,1,5\nx,1,1,y\n2016-01-05,1, ,y\n2016-01-05, ,1,nan\n2016-01-05,1,,-3\n",
    None,
))
@example((
    b"date,store,item,sales\n" + b"2016-01-05,1,1,5\n" * 600
    + b"x,a|b,1,5\n2016-01-05,a|b, ,5\n2016-01-05, ,|,5\n2016-01-05,1,|,y\n",
    None,
))
def test_parse_matches_reference(drawn):
    data, schema = drawn
    assert parse_outcome(parse_sales_csv, data, schema) == parse_outcome(reference_parse, data, schema)


@settings(max_examples=100, deadline=None)
@given(sales_files(), st.booleans())
@example((
    b"date,store,item,sales\n\n2016-01-05, 1,1,5\n2016-01-05,1,1,-3\n\n2016-01-06,1 ,1,x\n2016-01-06,1,1,4",
    None,
), True)
def test_parse_is_the_same_for_any_block_size(drawn, bom):
    # Ids numbered in one block are met again in the next, and a record's
    # line counts the blank and malformed lines of the blocks before it.
    data, schema = drawn
    data = codecs.BOM_UTF8 + data if bom else data
    expected = parse_outcome(parse_sales_csv, data, schema)
    for block_records in (1, 2, 3, 7):
        with mock.patch.object(data_module, "_BLOCK_RECORDS", block_records):
            assert parse_outcome(parse_sales_csv, data, schema) == expected, block_records


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize(
    "column, cell",
    [(3, c) for c in QUANTITY_CELLS] + [(0, c) for c in DATE_CELLS] + [(1, c) for c in ID_CELLS],
)
def test_each_listed_cell_reads_as_the_reference_reads_it(column, cell, end):
    row = list(GOOD_ROW)
    row[column] = cell
    lines = ["date,store,item,sales", *[",".join(GOOD_ROW)] * 120, csv_line(row, False)]
    data = end.join(lines).encode("utf-8") + end.encode()
    assert parse_outcome(parse_sales_csv, data) == parse_outcome(reference_parse, data)


def test_parse_skips_one_leading_byte_order_mark():
    plain = b"date,store,item,sales\r\n2013-01-01,1,1,5\r\n"
    quoted = b'date,store,item,sales\n"2013-01-01",1,1,5\n'
    for data in (plain, quoted):
        with_bom = parse_outcome(parse_sales_csv, codecs.BOM_UTF8 + data)
        assert with_bom == parse_outcome(reference_parse, data)
    with pytest.raises(MalformedInputError, match="missing required column 'date'"):
        parse_bytes(codecs.BOM_UTF8 * 2 + b"date,store,item,sales\n2013-01-01,1,1,5\n")


def test_parse_names_the_first_byte_that_is_not_utf8():
    # LF, CR and CRLF each end a line, as for every other parse error;
    # before, the line counted LF alone, so a CR file named line 1.
    for line_end, offset in ((b"\n", 54), (b"\r\n", 56), (b"\r", 54)):
        data = b"date,store,item,sales\n2013-01-01,1,1,5\n2013-01-02,1,1,\xff\n".replace(b"\n", line_end)
        with pytest.raises(MalformedInputError, match=rf"not UTF-8: .* byte offset {offset} \(line 3\)"):
            parse_bytes(data)
        # The offset counts the byte order mark's three bytes.
        with pytest.raises(MalformedInputError, match=rf"not UTF-8: .* byte offset {offset + 3} \(line 3\)"):
            parse_bytes(codecs.BOM_UTF8 + data)


def test_sort_orders_by_date():
    t = unsorted_table([(dt.date(2013, 1, 2), "1", "1", 2.0), (dt.date(2013, 1, 1), "1", "1", 1.0)])
    out = sort_chronological(t)
    assert list(out.quantities) == [1.0, 2.0]


def test_sort_idempotent():
    t = make_table([(dt.date(2013, 1, 1 + i), "1", "1", i) for i in range(5)])
    again = sort_chronological(t)
    assert np.array_equal(again.dates, t.dates)
    assert np.array_equal(again.quantities, t.quantities)


def test_sort_groups_interleaved_series_matches_reference_sort():
    rng = np.random.default_rng(7)
    rows = []
    for store in ("1", "2"):
        for item in ("1", "2"):
            for d in range(10):
                rows.append((dt.date(2013, 1, 1 + d), store, item, float(rng.integers(0, 50))))
    rng.shuffle(rows)
    t = sort_chronological(unsorted_table(rows))
    expected = sorted(rows, key=lambda r: (r[1], r[2], r[0]))
    assert table_rows(t) == expected


def per_row_runs(stores, items):
    """The per-row loop series_runs replaced, kept as its reference."""
    index, start = {}, 0
    for i in range(1, len(stores) + 1):
        if i == len(stores) or stores[i] != stores[start] or items[i] != items[start]:
            index[(str(stores[start]), str(items[start]))] = (start, i)
            start = i
    return index


@given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from(["1", "22"])), max_size=30))
def test_series_runs_match_per_row_loop(keys):
    stores = np.array([s for s, _ in keys], dtype=np.str_)
    items = np.array([i for _, i in keys], dtype=np.str_)
    got = series_runs(stores, items)
    expected = per_row_runs(stores, items)
    assert got == expected and list(got) == list(expected)


def test_sort_raises_on_duplicate_date():
    t = unsorted_table([(dt.date(2013, 1, 1), "1", "1", 1.0), (dt.date(2013, 1, 1), "1", "1", 2.0)])
    with pytest.raises(DuplicateDateError):
        sort_chronological(t)


def test_fill_gaps_linear_interpolation():
    t = make_table(
        [(dt.date(2013, 1, 1), "1", "1", 10.0), (dt.date(2013, 1, 3), "1", "1", 20.0)]
    )
    filled, report = fill_gaps(t)
    assert list(filled.quantities) == [10.0, 15.0, 20.0]
    assert list(filled.imputed) == [False, True, False]
    assert report.total_imputed == 1


def test_fill_gaps_linear_run_formula():
    # k missing days between a and b get a + j*(b-a)/(k+1)
    t = make_table(
        [(dt.date(2013, 1, 1), "1", "1", 10.0), (dt.date(2013, 1, 5), "1", "1", 22.0)]
    )
    filled, _ = fill_gaps(t)
    assert np.allclose(filled.quantities, [10.0, 13.0, 16.0, 19.0, 22.0])


def test_fill_gaps_gapless_unchanged_and_idempotent():
    t = make_table([(dt.date(2013, 1, 1 + i), "1", "1", float(i)) for i in range(6)])
    filled, report = fill_gaps(t)
    assert report.total_imputed == 0
    assert np.array_equal(filled.quantities, t.quantities)
    twice, report2 = fill_gaps(filled)
    assert report2.total_imputed == 0
    assert np.array_equal(twice.quantities, filled.quantities)
    assert np.array_equal(twice.imputed, filled.imputed)


def test_fill_gaps_interpolation_bounded_by_anchors():
    rng = np.random.default_rng(3)
    days = sorted(rng.choice(60, size=12, replace=False))
    vals = rng.uniform(0, 100, size=12)
    t = make_table(
        [(dt.date(2013, 1, 1) + dt.timedelta(days=int(d)), "1", "1", v) for d, v in zip(days, vals)]
    )
    filled, _ = fill_gaps(t)
    anchors = dict(zip(days, vals))
    day_list = sorted(anchors)
    for date, _, _, quantity in table_rows(filled):
        off = (date - dt.date(2013, 1, 1)).days
        if off in anchors:
            continue
        prev = max(d for d in day_list if d < off)
        nxt = min(d for d in day_list if d > off)
        lo, hi = sorted((anchors[prev], anchors[nxt]))
        assert lo - 1e-9 <= quantity <= hi + 1e-9


@st.composite
def gappy_tables(draw):
    """Up to five series in shuffled row order, each with its own first day,
    length and missing days, and some rows already flagged imputed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for k in range(draw(st.integers(0, 5))):  # no series at all is a case too
        first = draw(st.integers(0, 30))
        length = draw(st.integers(1, 40))
        kept = rng.random(length) < 0.6
        kept[0] = kept[-1] = True
        rows += [(first + int(j), str(k % 2), str(k // 2)) for j in np.flatnonzero(kept)]
    order = rng.permutation(len(rows))
    n = len(rows)
    return sort_chronological(
        SalesTable(
            np.array([BASE.toordinal() + rows[i][0] for i in order], dtype=np.int64),
            np.array([rows[i][1] for i in order]),
            np.array([rows[i][2] for i in order]),
            rng.poisson(20.0, n).astype(float),
            rng.random(n) < 0.1,
        )
    )


@settings(max_examples=200, deadline=None)
@given(gappy_tables())
def test_fill_gaps_property(table):
    filled, report = fill_gaps(table)
    assert list(filled.series_index) == list(table.series_index)
    assert report.total_imputed == len(filled) - len(table)
    for key, (lo, hi) in table.series_index.items():
        observed = table.dates[lo:hi] - table.dates[lo]
        q = table.quantities[lo:hi]
        flo, fhi = filled.series_index[key]
        # Daily-contiguous from the series' first to its last observed day.
        assert np.array_equal(filled.dates[flo:fhi], np.arange(table.dates[lo], table.dates[hi - 1] + 1))
        # Observed rows keep their values and flags.
        assert np.array_equal(filled.quantities[flo:fhi][observed], q)
        assert np.array_equal(filled.imputed[flo:fhi][observed], table.imputed[lo:hi])
        # Every gap day is counted, flagged, and filled from its own series.
        gaps = np.setdiff1d(np.arange(fhi - flo), observed)
        assert report.imputed_per_series[key] == len(gaps)
        assert filled.imputed[flo:fhi][gaps].all()
        assert np.array_equal(filled.quantities[flo:fhi][gaps], np.interp(gaps, observed, q))


def test_aggregate_sums_across_series():
    t = make_table(
        [
            (dt.date(2013, 1, 1), "1", "1", 5.0),
            (dt.date(2013, 1, 2), "1", "1", 7.0),
            (dt.date(2013, 1, 1), "1", "2", 3.0),
            (dt.date(2013, 1, 2), "1", "2", 1.0),
        ]
    )
    agg = aggregate(t, Granularity.AGGREGATE)
    assert list(agg.quantities) == [8.0, 8.0]
    assert set(agg.store_ids) == {"ALL"}


def test_aggregate_per_series_is_identity():
    t = make_table([(dt.date(2013, 1, 1 + i), "1", "1", float(i)) for i in range(4)])
    assert aggregate(t, Granularity.PER_SERIES) is t


def test_aggregate_preserves_total_mass_and_day_count():
    rng = np.random.default_rng(11)
    rows = []
    for store in ("1", "2", "3"):
        for d in range(40):
            rows.append((dt.date(2013, 1, 1) + dt.timedelta(days=d), store, "1", float(rng.uniform(0, 20))))
    t = make_table(rows)
    agg = aggregate(t, Granularity.AGGREGATE)
    assert len(agg) == 40
    assert np.isclose(agg.quantities.sum(), t.quantities.sum())


# --- the one split: features.build_train_test_matrices -----------------------

MAX_LAG = max(LAGS)


def matrix_rows(fm):
    return list(zip(fm.stores.tolist(), fm.items.tolist(), fm.dates.tolist(), fm.target.tolist()))


@settings(max_examples=150, deadline=None)
@given(
    gap_filled_tables(),
    st.integers(20, 90),
    st.integers(0, 30),
    st.sampled_from(DeviationMode),
    st.integers(0, 2**32 - 1),
)
def test_split_partition_property(table, train_days, test_days, mode, seed):
    train_end = BASE + dt.timedelta(days=train_days)
    split = SplitSpec(train_end, train_end + dt.timedelta(days=1 + test_days))
    cal = HolidayCalendar.bundled()
    train, test = build_train_test_matrices(table, split, True, cal, mode)

    lag_valid = sorted(
        (store, item, d, q)
        for (store, item), (lo, hi) in table.series_index.items()
        for d, q in zip(table.dates[lo + MAX_LAG : hi].tolist(), table.quantities[lo + MAX_LAG : hi])
    )
    end, last = train_end.toordinal(), split.test_end.toordinal()
    assert matrix_rows(train) == [r for r in lag_valid if r[2] <= end]
    assert matrix_rows(test) == [r for r in lag_valid if end < r[2] <= last]
    # Each side's unscaled rows are bit for bit those of one matrix over
    # both date ranges.
    (whole,) = _assemble_unscaled(table, True, cal, mode, (last,))
    sides = _assemble_unscaled(table, True, cal, mode, (end, last))
    for side, mask in zip(sides, (whole.dates <= end, whole.dates > end)):
        assert side.rows.tobytes() == whole.rows[mask].tobytes()

    # Quantities dated after test_end reach no feature on either side.
    later = table.dates > last
    noise = np.random.default_rng(seed).uniform(1.0, 1000.0, len(table))
    perturbed = SalesTable(
        table.dates,
        table.store_ids,
        table.item_ids,
        np.where(later, table.quantities + noise, table.quantities),
        is_sorted=True,
    )
    train2, test2 = build_train_test_matrices(perturbed, split, True, cal, mode)
    assert np.array_equal(train2.rows, train.rows)
    assert np.array_equal(test2.rows, test.rows)


def test_split_last_day_only():
    days = [dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(40)]
    t = make_table([(d, "1", "1", float(i)) for i, d in enumerate(days)])
    train, test = build_train_test_matrices(t, SplitSpec(days[38], days[39]))
    assert len(train) == 39 - MAX_LAG  # the first 28 days have no lag_28
    assert test.dates.tolist() == [days[39].toordinal()]


def test_split_empty_partition_raises():
    days = [dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(100)]
    spec = SplitSpec(dt.date(2013, 2, 14), dt.date(2013, 4, 10))
    scenario = ScenarioSpec("S1", spec, models=("naive",))
    cal = HolidayCalendar.bundled()
    # Every row precedes the test window.
    before = make_table([(d, "1", "1", 5.0) for d in days[:40]])
    # Store 1 has only training rows and store 2 only test rows.
    apart = make_table(
        [(d, "1", "1", 5.0) for d in days[:40]] + [(d, "2", "1", 5.0) for d in days[50:]]
    )
    for table in (before, apart):
        with pytest.raises(EmptyPartitionError):
            run_scenario(table, scenario, cal)


def test_split_spec_validates_ordering():
    # test_end falls before test_start, the day after train_end.
    with pytest.raises(ValueError, match="after train_end"):
        SplitSpec(dt.date(2013, 1, 5), dt.date(2013, 1, 5))


def test_cleaned_csv_roundtrip(tmp_path):
    t = make_table(
        [(dt.date(2013, 1, 1), "1", "1", 10.0), (dt.date(2013, 1, 3), "1", "1", 20.0)]
    )
    filled, _ = fill_gaps(t)
    path = tmp_path / "cleaned.csv"
    write_sales_csv(filled, path)
    text = path.read_text()
    assert text.splitlines()[0] == "date,store,item,sales,imputed"
    res = parse_sales_csv(path)
    assert len(res.table) == 3
    assert np.allclose(sort_chronological(res.table).quantities, filled.quantities)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, dt.date.max.toordinal()), max_size=20))
@example([1, 719_162, 719_163, dt.date(2016, 2, 29).toordinal(), dt.date.max.toordinal()])
def test_day_ordinal_decoder_matches_datetime(ordinals):
    days = as_datetime64(ordinals)
    expected = [dt.date.fromordinal(o) for o in ordinals]
    years = days.astype("datetime64[Y]")
    assert (years.astype(np.int64) + 1970).tolist() == [d.year for d in expected]
    assert (days.astype("datetime64[M]").astype(np.int64) % 12 + 1).tolist() == [
        d.month for d in expected
    ]
    assert ((days - years).astype(np.int64) + 1).tolist() == [d.timetuple().tm_yday for d in expected]
    assert np.datetime_as_string(days, unit="D").tolist() == [d.isoformat() for d in expected]
    calendar = HolidayCalendar(entries=dict.fromkeys(ordinals, "h"))
    assert calendar.years() == {d.year for d in expected}
