import codecs
import datetime as dt
import logging
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandcast.data import SalesTable, SplitSpec
from demandcast.errors import CalendarGapError
from demandcast.features import (
    _assemble_unscaled,
    DEVIATION_MIN_PERIODS,
    DEVIATION_RATIO,
    DEVIATION_WINDOW,
    EXTERNAL_COLUMNS,
    LAGS,
    S1_COLUMNS,
    DeviationMode,
    HolidayCalendar,
    build_train_test_matrices,
    cyclical_columns,
    deviation_flag,
    holiday_flag,
    trailing_mean,
    weekdays_of_ordinals,
)

from conftest import BASE, gap_filled_tables, make_table


def series_table(values, start=dt.date(2015, 1, 1), store="1", item="1"):
    return make_table(
        [(start + dt.timedelta(days=i), store, item, float(v)) for i, v in enumerate(values)]
    )


def train_matrix(table, external=False, calendar=None):
    """Training side of a split whose training window holds every row."""
    last = table.coverage[1]
    day = dt.timedelta(days=1)
    split = SplitSpec(last, last + day)
    return build_train_test_matrices(table, split, external, calendar)[0]


def weekday(date):
    return int(weekdays_of_ordinals(np.array([date.toordinal()]))[0])


# --- weekday ---------------------------------------------------------------

def test_weekday_known_dates():
    assert weekday(dt.date(2013, 1, 1)) == 1  # Tuesday
    assert weekday(dt.date(2017, 12, 31)) == 6  # Sunday


def test_weekday_matches_civil_calendar_library():
    days = [dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(400)]
    got = weekdays_of_ordinals(np.array([d.toordinal() for d in days]))
    assert got.tolist() == [d.weekday() for d in days]


def test_weekday_periodicity():
    for offset in range(30):
        d = dt.date(2016, 2, 1) + dt.timedelta(days=offset)
        assert weekday(d) == weekday(d + dt.timedelta(days=7))


# --- cyclical encoding -----------------------------------------------------

def test_cyclical_zero_angle():
    assert cyclical_columns(np.array([0.0]), 7).tolist() == [[0.0, 1.0]]


def test_cyclical_quarter_turn():
    (s, c), = cyclical_columns(np.array([3.0]), 12)
    assert abs(s - 1.0) < 1e-12 and abs(c) < 1e-12


def test_cyclical_unit_circle_identity():
    sc = cyclical_columns(np.arange(12.0), 12)
    assert np.abs((sc * sc).sum(axis=1) - 1.0).max() < 1e-12


# --- lags ------------------------------------------------------------------

def two_level_table(lengths=(40, 35)):
    """Two gapless series of very different levels, so a lag read across
    series would show."""
    rows = [(BASE + dt.timedelta(days=d), "1", "1", 10.0 + d) for d in range(lengths[0])]
    rows += [(BASE + dt.timedelta(days=d), "1", "2", 1000.0 + 3 * d) for d in range(lengths[1])]
    return make_table(rows)


def unscaled_matrix(table):
    last = int(table.dates.max())
    (matrix,) = _assemble_unscaled(table, False, None, DeviationMode.SAME_DAY, (last,))
    return matrix


def test_lag_single_shift():
    m = unscaled_matrix(two_level_table())
    # Each series keeps its rows from day 28 on, and lag_1 is the day before.
    assert m.items.tolist() == ["1"] * 12 + ["2"] * 7
    assert m.column("lag_1").tolist() == [10.0 + d for d in range(27, 39)] + [
        1000.0 + 3 * d for d in range(27, 34)
    ]


def test_lag_two_offsets():
    table = two_level_table()
    m = unscaled_matrix(table)
    for (store, item), (lo, hi) in table.series_index.items():
        values = table.quantities[lo:hi]
        rows = m.rows[(m.stores == store) & (m.items == item)]
        assert len(rows) == len(values) - max(LAGS)
        for j, lag in enumerate(LAGS):
            # Row t of the series reads its own value at t - lag.
            assert rows[:, j].tolist() == values[max(LAGS) - lag : len(values) - lag].tolist()


def test_series_shorter_than_longest_lag_has_no_rows(caplog):
    table = two_level_table(lengths=(40, 20))
    with caplog.at_level(logging.WARNING, logger="demandcast.features"):
        m = unscaled_matrix(table)
    assert set(m.items.tolist()) == {"1"} and len(m) == 40 - max(LAGS)
    assert "1|2" in caplog.text and "1|1" not in caplog.text


# --- trailing mean -----------------------------------------------------------

def test_trailing_mean_example():
    out = trailing_mean(np.array([10.0, 20.0, 30.0]), np.arange(3), window=2)
    assert np.allclose(out, [10.0, 15.0, 25.0])


def test_trailing_mean_constant_series():
    out = trailing_mean(np.full(10, 4.2), np.arange(10), window=3)
    assert np.allclose(out, 4.2)


def test_trailing_mean_window_one_is_identity():
    x = np.array([3.0, 1.0, 7.0])
    assert np.allclose(trailing_mean(x, np.arange(3), window=1), x)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 20), min_size=1, max_size=5),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
)
def test_trailing_mean_equals_slice_mean(lengths, window, seed):
    # Fractional values, as gap filling makes them, so a sum taken in
    # another order would show in the last bits.
    values = np.random.default_rng(seed).uniform(0.0, 50.0, sum(lengths))
    day = np.concatenate([np.arange(n) for n in lengths])
    expected = [values[t - min(d, window - 1) : t + 1].mean() for t, d in enumerate(day.tolist())]
    assert trailing_mean(values, day, window).tobytes() == np.array(expected).tobytes()


# --- deviation flag ----------------------------------------------------------

def flags_of(values, mode):
    return deviation_flag(np.array(values), np.arange(len(values)), mode)


def test_deviation_flag_same_day_example():
    # Three days make the first defined trailing mean; 20 < 0.30 * 100.
    flags = flags_of([100.0, 100.0, 100.0, 20.0], DeviationMode.SAME_DAY)
    assert flags.tolist() == [0.0, 0.0, 0.0, 1.0]
    flags = flags_of([100.0, 100.0, 20.0], DeviationMode.SAME_DAY)
    assert flags.tolist() == [0.0, 0.0, 0.0]


def test_deviation_flag_constant_series_all_zero():
    for mode in DeviationMode:
        assert flags_of(np.full(10, 55.0), mode).sum() == 0.0


def test_deviation_flag_lagged_shifts_trigger():
    lagged = DeviationMode.LAGGED
    flags = flags_of([100.0, 100.0, 100.0, 20.0], lagged)
    assert flags.tolist() == [0.0, 0.0, 0.0, 0.0]
    flags5 = flags_of([100.0, 100.0, 100.0, 20.0, 100.0], lagged)
    assert flags5.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_deviation_flag_lagged_is_causal():
    rng = np.random.default_rng(5)
    base = rng.uniform(50, 100, size=30)
    flags = flags_of(base, DeviationMode.LAGGED)
    for t in range(len(base)):
        mutated = base.copy()
        mutated[t] = 1.0
        assert flags_of(mutated, DeviationMode.LAGGED)[t] == flags[t]


def same_day_flag(q, t, d):
    """The rule at one row: sales below the ratio of the mean of the up-to-7
    days before it in its series, once that mean covers enough days."""
    if d < DEVIATION_MIN_PERIODS:
        return 0.0
    before = q[t - min(d, DEVIATION_WINDOW) : t].mean()
    return float(q[t] < DEVIATION_RATIO * before)


@settings(max_examples=100, deadline=None)
@given(gap_filled_tables())
def test_whole_table_deviation_flag_matches_per_row_rule(table):
    q = table.quantities
    day = np.concatenate([np.arange(b - a) for a, b in table.series_index.values()])
    same_day = [same_day_flag(q, t, d) for t, d in enumerate(day.tolist())]
    lagged = [same_day[t - 1] if d > 0 else 0.0 for t, d in enumerate(day.tolist())]
    assert deviation_flag(q, day, DeviationMode.SAME_DAY).tolist() == same_day
    assert deviation_flag(q, day, DeviationMode.LAGGED).tolist() == lagged


# --- holiday flag ------------------------------------------------------------

def test_bundled_calendar_republic_day():
    cal = HolidayCalendar.bundled()
    days = np.array([dt.date(2017, 1, 26).toordinal(), dt.date(2017, 3, 14).toordinal()])
    flags = holiday_flag(days, cal)
    assert flags.tolist() == [1.0, 0.0]


def test_bundled_calendar_covers_dataset_window():
    cal = HolidayCalendar.bundled()
    assert cal.years() == {2013, 2014, 2015, 2016, 2017}


def test_calendar_with_byte_order_mark_reads_the_same(tmp_path):
    ref = resources.files("demandcast.assets") / "holidays_IN_2013_2017.csv"
    path = tmp_path / "bom.csv"
    path.write_bytes(codecs.BOM_UTF8 + ref.read_bytes())
    assert HolidayCalendar.from_csv(path).entries == HolidayCalendar.bundled().entries


def test_holiday_calendar_gap_raises():
    cal = HolidayCalendar(entries={dt.date(2015, 1, 26).toordinal(): "x"})
    with pytest.raises(CalendarGapError):
        holiday_flag(np.array([dt.date(2016, 5, 1).toordinal()]), cal)


# --- design matrix -----------------------------------------------------------

def test_design_matrix_s1_column_count():
    table = series_table(np.arange(40.0) + 10.0)
    m = train_matrix(table)
    assert len(m.columns) == 6
    assert m.columns[:4] == ["lag_1", "lag_7", "lag_14", "lag_28"]


def test_design_matrix_with_flags_column_count():
    table = series_table(np.arange(40.0) + 10.0, start=dt.date(2015, 1, 1))
    cal = HolidayCalendar(entries={dt.date(2015, 1, 26).toordinal(): "republic_day"})
    m = train_matrix(table, True, cal)
    assert len(m.columns) == 11
    assert m.columns[6:] == list(EXTERNAL_COLUMNS)


def test_min_max_scaling_endpoints():
    table = series_table(2.0 * np.arange(1, 33))
    m = train_matrix(table)
    # lag_1 over the four rows after the 28-day lag is [56, 58, 60, 62] unscaled
    col = m.column("lag_1")
    assert np.allclose(col, [0.0, 1 / 3, 2 / 3, 1.0])


def test_dropped_rows_equal_series_times_max_lag():
    rows = []
    for store in ("1", "2"):
        for item in ("1", "2", "3"):
            rows.append((store, item))
    table = make_table(
        [
            (dt.date(2015, 1, 1) + dt.timedelta(days=d), s, i, float(d + 1))
            for s, i in rows
            for d in range(50)
        ]
    )
    m = train_matrix(table)
    assert len(m) == 6 * (50 - 28)


def test_test_matrix_uses_training_scaling_stats():
    table = series_table(np.concatenate([np.linspace(10, 20, 40), np.linspace(40, 60, 10)]))
    split = SplitSpec(dt.date(2015, 1, 1) + dt.timedelta(days=39), dt.date(2015, 1, 1) + dt.timedelta(days=49))
    train, test = build_train_test_matrices(table, split)
    # Each row's unscaled lag_1: the series' value the day before.
    train_raw, test_raw = (
        table.quantities[np.searchsorted(table.dates, m.dates - 1)] for m in (train, test)
    )
    lo, hi = train_raw.min(), train_raw.max()
    assert np.array_equal(test.column("lag_1"), (test_raw - lo) / (hi - lo))
    assert train.column("lag_1").max() <= 1.0
    assert test.column("lag_1").max() > 1.0  # test extremes map outside [0, 1]


def test_calendar_features_ignore_quantities():
    calendar_columns = ["month_sin", "month_cos", *EXTERNAL_COLUMNS[:4]]
    cal = HolidayCalendar(entries={dt.date(2015, 2, 5).toordinal(): "h"})
    m1 = train_matrix(series_table([5.0] * 40), True, cal)
    m2 = train_matrix(series_table(np.arange(40.0) * 3 + 1), True, cal)
    for name in calendar_columns:
        assert np.array_equal(m1.column(name), m2.column(name))
    assert m1.column("holiday").sum() == 1.0


# --- the two feature sets ------------------------------------------------------

def random_split(train_days, test_days):
    train_end = BASE + dt.timedelta(days=train_days)
    day = dt.timedelta(days=1)
    return SplitSpec(train_end, train_end + day + dt.timedelta(days=test_days))


@settings(max_examples=100, deadline=None)
@given(
    gap_filled_tables(),
    st.integers(20, 90),
    st.integers(0, 30),
    st.sampled_from(DeviationMode),
)
def test_s2_is_s1_with_external_columns_appended(table, train_days, test_days, mode):
    split = random_split(train_days, test_days)
    s1 = build_train_test_matrices(table, split)
    s2 = build_train_test_matrices(table, split, True, HolidayCalendar.bundled(), mode)
    k = len(S1_COLUMNS)
    for a, b in zip(s1, s2):
        assert a.columns == list(S1_COLUMNS)
        assert b.columns == list(S1_COLUMNS + EXTERNAL_COLUMNS)
        assert a.rows.tobytes() == np.ascontiguousarray(b.rows[:, :k]).tobytes()
        for name in ("target", "dates", "stores", "items"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


@settings(max_examples=100, deadline=None)
@given(
    gap_filled_tables(),
    st.integers(20, 90),
    st.integers(0, 30),
    st.data(),
)
def test_lagged_matrices_are_causal(table, train_days, test_days, data):
    split = random_split(train_days, test_days)
    first, last = split.test_start.toordinal(), split.test_end.toordinal()
    t = data.draw(st.integers(first, last))
    cal = HolidayCalendar.bundled()
    train, test = build_train_test_matrices(table, split, True, cal, DeviationMode.LAGGED)

    noise = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(
        -20.0, 1000.0, len(table)
    )
    moved = (table.dates >= t) & (table.dates <= last)
    perturbed = SalesTable(
        table.dates,
        table.store_ids,
        table.item_ids,
        np.where(moved, np.maximum(table.quantities + noise, 0.0), table.quantities),
        is_sorted=True,
    )
    train2, test2 = build_train_test_matrices(perturbed, split, True, cal, DeviationMode.LAGGED)
    assert train2.rows.tobytes() == train.rows.tobytes()
    assert train2.target.tobytes() == train.target.tobytes()
    upto = test.dates <= t
    assert test2.rows[upto].tobytes() == test.rows[upto].tobytes()
