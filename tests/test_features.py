import datetime as dt

import numpy as np
import pytest

from demandcast.data import SplitSpec
from demandcast.errors import CalendarGapError, LagExceedsSeriesError
from demandcast.features import (
    DeviationConfig,
    DeviationMode,
    FeatureSpec,
    HolidayCalendar,
    build_train_test_matrices,
    cyclical_columns,
    deviation_flag,
    holiday_flag,
    lag_features,
    rolling_mean,
    weekdays_of_ordinals,
)

from conftest import make_table


def series_table(values, start=dt.date(2015, 1, 1), store="1", item="1"):
    return make_table(
        [(start + dt.timedelta(days=i), store, item, float(v)) for i, v in enumerate(values)]
    )


def train_matrix(table, spec, calendar=None):
    """Training side of a split whose training window holds every row."""
    last = table.coverage[1]
    day = dt.timedelta(days=1)
    split = SplitSpec(last, last + day, last + day)
    return build_train_test_matrices(table, spec, calendar, split)[0]


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

def test_lag_single_shift():
    mat, valid = lag_features(np.array([1.0, 2.0, 3.0, 4.0]), [1])
    assert not valid[0] and valid[1:].all()
    assert list(mat[1:, 0]) == [1.0, 2.0, 3.0]


def test_lag_two_offsets():
    mat, valid = lag_features(np.array([1.0, 2.0, 3.0, 4.0]), [1, 2])
    assert list(np.flatnonzero(valid)) == [2, 3]
    assert mat[2].tolist() == [2.0, 1.0]
    assert mat[3].tolist() == [3.0, 2.0]


def test_lag_exceeding_series_raises():
    with pytest.raises(LagExceedsSeriesError):
        lag_features(np.arange(5.0), [7])


# --- rolling mean ----------------------------------------------------------

def test_rolling_mean_example():
    out = rolling_mean(np.array([10.0, 20.0, 30.0]), window=2, min_periods=1)
    assert np.allclose(out, [10.0, 15.0, 25.0])


def test_rolling_mean_constant_series():
    out = rolling_mean(np.full(10, 4.2), window=3, min_periods=1)
    assert np.allclose(out, 4.2)


def test_rolling_mean_window_one_is_identity():
    x = np.array([3.0, 1.0, 7.0])
    assert np.allclose(rolling_mean(x, window=1, min_periods=1), x)


def test_rolling_mean_min_periods_marks_undefined():
    out = rolling_mean(np.arange(5.0), window=3, min_periods=3)
    assert np.isnan(out[:2]).all() and not np.isnan(out[2:]).any()


# --- deviation flag ----------------------------------------------------------

def test_deviation_flag_same_day_example():
    cfg = DeviationConfig(window=3, min_periods=3, ratio=0.30)
    flags = deviation_flag(np.array([100.0, 100.0, 100.0, 20.0]), cfg)
    assert flags.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_deviation_flag_constant_series_all_zero():
    cfg = DeviationConfig(window=3, min_periods=1, ratio=0.30)
    assert deviation_flag(np.full(10, 55.0), cfg).sum() == 0.0


def test_deviation_flag_lagged_shifts_trigger():
    cfg = DeviationConfig(window=3, min_periods=3, ratio=0.30, mode=DeviationMode.LAGGED)
    flags = deviation_flag(np.array([100.0, 100.0, 100.0, 20.0]), cfg)
    assert flags.tolist() == [0.0, 0.0, 0.0, 0.0]
    flags5 = deviation_flag(np.array([100.0, 100.0, 100.0, 20.0, 100.0]), cfg)
    assert flags5.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_deviation_flag_lagged_is_causal():
    rng = np.random.default_rng(5)
    base = rng.uniform(50, 100, size=30)
    cfg = DeviationConfig(window=7, min_periods=3, ratio=0.30, mode=DeviationMode.LAGGED)
    flags = deviation_flag(base, cfg)
    for t in range(len(base)):
        mutated = base.copy()
        mutated[t] = 1.0
        assert deviation_flag(mutated, cfg)[t] == flags[t]


# --- holiday flag ------------------------------------------------------------

def test_bundled_calendar_republic_day():
    cal = HolidayCalendar.bundled()
    days = np.array([dt.date(2017, 1, 26).toordinal(), dt.date(2017, 3, 14).toordinal()])
    flags = holiday_flag(days, cal)
    assert flags.tolist() == [1.0, 0.0]


def test_bundled_calendar_covers_dataset_window():
    cal = HolidayCalendar.bundled()
    assert cal.years() == {2013, 2014, 2015, 2016, 2017}


def test_holiday_calendar_gap_raises():
    cal = HolidayCalendar(entries={dt.date(2015, 1, 26).toordinal(): "x"})
    with pytest.raises(CalendarGapError):
        holiday_flag(np.array([dt.date(2016, 5, 1).toordinal()]), cal)


# --- design matrix -----------------------------------------------------------

S1_SPEC = FeatureSpec(lags=(1, 7, 14, 28), cyclical=frozenset({"month"}))


def test_design_matrix_s1_column_count():
    table = series_table(np.arange(40.0) + 10.0)
    m = train_matrix(table, S1_SPEC)
    assert len(m.columns) == 6
    assert m.columns[:4] == ["lag_1", "lag_7", "lag_14", "lag_28"]


def test_design_matrix_with_flags_column_count():
    spec = FeatureSpec(
        lags=(1, 7, 14, 28),
        cyclical=frozenset({"month"}),
        use_weekday_numeric=True,
        use_holiday=True,
        use_deviation_flag=True,
    )
    table = series_table(np.arange(40.0) + 10.0, start=dt.date(2015, 1, 1))
    cal = HolidayCalendar(entries={dt.date(2015, 1, 26).toordinal(): "republic_day"})
    m = train_matrix(table, spec, cal)
    assert len(m.columns) == 9


def test_min_max_scaling_endpoints():
    spec = FeatureSpec(lags=(1,), cyclical=frozenset())
    table = series_table([2.0, 4.0, 6.0, 8.0])
    m = train_matrix(table, spec)
    # lag column over the three valid rows is [2, 4, 6] before scaling
    col = m.column("lag_1")
    assert np.allclose(col, [0.0, 0.5, 1.0])
    assert m.scaling["lag_1"] == (2.0, 6.0)


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
    m = train_matrix(table, S1_SPEC)
    assert len(m) == 6 * (50 - 28)


def test_test_matrix_uses_training_scaling_stats():
    table = series_table(np.concatenate([np.linspace(10, 20, 40), np.linspace(40, 60, 10)]))
    split = SplitSpec(
        dt.date(2015, 1, 1) + dt.timedelta(days=39),
        dt.date(2015, 1, 1) + dt.timedelta(days=40),
        dt.date(2015, 1, 1) + dt.timedelta(days=49),
    )
    spec = FeatureSpec(lags=(1,), cyclical=frozenset())
    train, test = build_train_test_matrices(table, spec, None, split)
    assert train.scaling == test.scaling
    assert train.column("lag_1").max() <= 1.0
    assert test.column("lag_1").max() > 1.0  # test extremes map outside [0, 1]


def test_calendar_features_ignore_quantities():
    spec = FeatureSpec(
        lags=(), cyclical=frozenset({"weekday"}), use_weekday_numeric=True, use_holiday=True
    )
    cal = HolidayCalendar(entries={dt.date(2015, 1, 5).toordinal(): "h"})
    t1 = series_table([5.0] * 10)
    t2 = series_table(np.arange(10.0) * 3 + 1)
    m1 = train_matrix(t1, spec, cal)
    m2 = train_matrix(t2, spec, cal)
    assert np.array_equal(m1.rows, m2.rows)


def test_feature_spec_rejects_lag_zero_and_empty():
    with pytest.raises(ValueError):
        FeatureSpec(lags=(0, 1))
    with pytest.raises(ValueError):
        FeatureSpec(lags=(), cyclical=frozenset())


def test_deviation_config_validation():
    with pytest.raises(ValueError):
        DeviationConfig(window=2, min_periods=3)
    with pytest.raises(ValueError):
        DeviationConfig(ratio=1.5)
