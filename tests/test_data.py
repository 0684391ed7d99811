import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandcast.data import (
    FillMethod,
    Granularity,
    SalesTable,
    SplitSpec,
    aggregate,
    fill_gaps,
    parse_sales_csv,
    series_runs,
    sort_chronological,
    write_sales_csv,
)
from demandcast.errors import (
    DuplicateDateError,
    EmptyInputError,
    EmptyPartitionError,
    MalformedInputError,
)
from demandcast.evaluate import make_scenario, run_scenario
from demandcast.features import (
    DeviationConfig,
    DeviationMode,
    FeatureSpec,
    HolidayCalendar,
    build_train_test_matrices,
)

from conftest import make_table, table_rows, unsorted_table


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


def test_parse_empty_input():
    with pytest.raises(EmptyInputError):
        parse_bytes(b"date,store,item,sales\n")


def test_parse_missing_column():
    with pytest.raises(MalformedInputError):
        parse_bytes(b"date,shop,item,sales\n2013-01-01,1,1,5\n")


def test_parse_schema_remap_and_extras():
    res = parse_bytes(
        b"day,s,i,qty,promo\n2013-01-01,1,1,5,0.5\n",
        schema={"date": "day", "store": "s", "item": "i", "sales": "qty"},
        extra_columns=("promo",),
    )
    assert len(res.table) == 1
    assert res.table.extras["promo"][0] == 0.5


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
    filled, report = fill_gaps(t, FillMethod.LINEAR_INTERPOLATE)
    assert list(filled.quantities) == [10.0, 15.0, 20.0]
    assert list(filled.imputed) == [False, True, False]
    assert report.total_imputed == 1


def test_fill_gaps_forward_fill():
    t = make_table(
        [
            (dt.date(2013, 1, 1), "1", "1", 10.0),
            (dt.date(2013, 1, 3), "1", "1", 20.0),
            (dt.date(2013, 1, 2), "1", "2", 7.0),
        ]
    )
    filled, report = fill_gaps(t, FillMethod.FORWARD_FILL)
    lo, hi = filled.series_index[("1", "1")]
    assert list(filled.quantities[lo:hi]) == [10.0, 10.0, 20.0]
    # each series keeps its own first and last day: no back-fill, no extension
    lo, hi = filled.series_index[("1", "2")]
    assert list(filled.quantities[lo:hi]) == [7.0]
    assert report.imputed_per_series == {("1", "1"): 1, ("1", "2"): 0}


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

def split_features(mode: DeviationMode) -> FeatureSpec:
    return FeatureSpec(
        lags=(1, 3),
        cyclical=frozenset({"month", "weekday"}),
        use_weekday_numeric=True,
        use_holiday=True,
        use_deviation_flag=True,
        deviation=DeviationConfig(mode=mode),
    )


MAX_LAG = 3
BASE = dt.date(2015, 1, 1)


@st.composite
def gap_filled_tables(draw):
    """Up to four series, each with its own first day, length and missing days.

    Quantities are Poisson draws with about one outage day in six, so the
    deviation flag fires.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for k in range(draw(st.integers(1, 4))):
        first = draw(st.integers(0, 20))
        length = draw(st.integers(MAX_LAG + 1, 40))
        inner = draw(st.lists(st.booleans(), min_size=length - 2, max_size=length - 2))
        qty = rng.poisson(np.where(rng.random(length) < 0.15, 2.0, 20.0)).tolist()
        for j, kept in enumerate([True, *inner, True]):
            if kept:
                day = BASE + dt.timedelta(days=first + j)
                rows.append((day, str(k % 2 + 1), str(k // 2 + 1), qty[j]))
    return fill_gaps(make_table(rows))[0]


def matrix_rows(fm):
    return list(zip(fm.stores.tolist(), fm.items.tolist(), fm.dates.tolist(), fm.target.tolist()))


@settings(max_examples=150, deadline=None)
@given(
    gap_filled_tables(),
    st.integers(-1, 60),
    st.integers(0, 30),
    st.sampled_from(DeviationMode),
    st.integers(0, 2**32 - 1),
)
def test_split_partition_property(table, train_days, test_days, mode, seed):
    train_end = BASE + dt.timedelta(days=train_days)
    split = SplitSpec(
        train_end, train_end + dt.timedelta(days=1), train_end + dt.timedelta(days=1 + test_days)
    )
    features, cal = split_features(mode), HolidayCalendar.bundled()
    train, test = build_train_test_matrices(table, features, cal, split)

    lag_valid = sorted(
        (store, item, d, q)
        for (store, item), (lo, hi) in table.series_index.items()
        for d, q in zip(table.dates[lo + MAX_LAG : hi].tolist(), table.quantities[lo + MAX_LAG : hi])
    )
    end, last = train_end.toordinal(), split.test_end.toordinal()
    assert matrix_rows(train) == [r for r in lag_valid if r[2] <= end]
    assert matrix_rows(test) == [r for r in lag_valid if end < r[2] <= last]

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
    train2, test2 = build_train_test_matrices(perturbed, features, cal, split)
    assert np.array_equal(train2.rows, train.rows)
    assert np.array_equal(test2.rows, test.rows)


def test_split_last_day_only():
    t = make_table([(dt.date(2013, 1, 1 + i), "1", "1", float(i)) for i in range(10)])
    spec = SplitSpec(dt.date(2013, 1, 9), dt.date(2013, 1, 10), dt.date(2013, 1, 10))
    features = FeatureSpec(lags=(1,), cyclical=frozenset())
    train, test = build_train_test_matrices(t, features, None, spec)
    assert len(train) == 8  # the first day has no lag
    assert test.dates.tolist() == [dt.date(2013, 1, 10).toordinal()]


def test_split_empty_partition_raises():
    days = [dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(100)]
    spec = SplitSpec(dt.date(2013, 2, 14), dt.date(2013, 2, 15), dt.date(2013, 4, 10))
    scenario = make_scenario("S1", spec, models=("naive",))
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
    with pytest.raises(ValueError):
        SplitSpec(dt.date(2013, 1, 5), dt.date(2013, 1, 5), dt.date(2013, 1, 7))
    with pytest.raises(ValueError, match="day after train_end"):  # a gap
        SplitSpec(dt.date(2013, 1, 5), dt.date(2013, 1, 8), dt.date(2013, 1, 9))
    with pytest.raises(ValueError):
        SplitSpec(dt.date(2013, 1, 5), dt.date(2013, 1, 6), dt.date(2013, 1, 5))


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
