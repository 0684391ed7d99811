import datetime as dt

import numpy as np
import pytest

import demandcast.evaluate as ev
from demandcast.data import Granularity, SplitSpec
from demandcast.errors import FingerprintMismatchError
from demandcast.evaluate import (
    Metrics,
    ScenarioSpec,
    compare,
    error_histogram,
    improvement_percent,
    make_scenario,
    run_scenario,
    score,
)
from demandcast.features import DeviationMode, HolidayCalendar
from demandcast.models.gbdt import GbdtConfig
from demandcast.models.naive import seasonal_naive_forecast

from conftest import make_table, table_rows


def brute_force_metrics(actual, predicted):
    n = len(actual)
    abs_sum = 0.0
    sq_sum = 0.0
    for a, p in zip(actual, predicted):
        abs_sum += abs(a - p)
        sq_sum += (a - p) ** 2
    mean = sum(actual) / n
    ss_tot = sum((a - mean) ** 2 for a in actual)
    mae = abs_sum / n
    rmse = (sq_sum / n) ** 0.5
    r2 = None if ss_tot == 0 else 1.0 - sq_sum / ss_tot
    return mae, rmse, r2


def test_score_identity():
    y = np.array([2.0, 4.0, 8.0])
    m = score(y, y)
    assert (m.mae, m.rmse, m.r2) == (0.0, 0.0, 1.0)


def test_score_hand_fixture():
    m = score(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 5.0]))
    assert m.mae == 1.0
    assert abs(m.rmse - np.sqrt(5.0 / 3.0)) < 1e-12
    assert abs(m.r2 - (-1.5)) < 1e-12


def test_score_mean_predictor_r2_zero():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    m = score(y, np.full(4, y.mean()))
    assert abs(m.r2) < 1e-12


def test_score_constant_actuals_r2_undefined():
    m = score(np.full(5, 3.0), np.arange(5.0))
    assert m.r2 is None
    assert m.mae > 0


def test_score_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        y = rng.normal(size=n) * 50
        p = rng.normal(size=n) * 50
        m = score(y, p)
        mae, rmse, r2 = brute_force_metrics(y.tolist(), p.tolist())
        assert abs(m.mae - mae) < 1e-9
        assert abs(m.rmse - rmse) < 1e-9
        if r2 is None:
            assert m.r2 is None
        else:
            assert abs(m.r2 - r2) < 1e-9


def test_rmse_at_least_mae():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 100))
        y = rng.normal(size=n)
        p = rng.normal(size=n)
        m = score(y, p)
        assert m.rmse >= m.mae - 1e-12


def test_score_is_permutation_invariant():
    rng = np.random.default_rng(2)
    y = rng.normal(size=40)
    p = rng.normal(size=40)
    perm = rng.permutation(40)
    a, b = score(y, p), score(y[perm], p[perm])
    assert np.isclose(a.mae, b.mae) and np.isclose(a.rmse, b.rmse) and np.isclose(a.r2, b.r2)


def test_histogram_degenerate_single_bin():
    out = error_histogram(np.zeros(7), 5)
    assert out == [(0.0, 0.0, 7)]


def test_histogram_half_open_convention():
    out = error_histogram(np.array([-1.0, 0.0, 1.0]), 2)
    assert [c for _, _, c in out] == [1, 2]
    assert out[0][:2] == (-1.0, 0.0)
    assert out[1][:2] == (0.0, 1.0)


def test_histogram_conserves_count():
    rng = np.random.default_rng(3)
    res = rng.normal(size=500)
    out = error_histogram(res, 13)
    assert sum(c for _, _, c in out) == 500
    edges = [lo for lo, _, _ in out]
    assert edges == sorted(edges)


def test_naive_constant_series():
    out = seasonal_naive_forecast(np.full(30, 4.0), 10)
    assert np.allclose(out, 4.0)


def test_naive_weekly_periodic_zero_error():
    week = np.array([1.0, 2, 3, 4, 5, 6, 7])
    train = np.tile(week, 10)
    test = np.tile(week, 3)
    out = seasonal_naive_forecast(train, 21)
    assert np.array_equal(out, test)


def test_naive_short_series_falls_back_to_last_value():
    out = seasonal_naive_forecast(np.array([1.0, 2.0, 3.0]), 5)
    # the weekly lag is unavailable for the first days (fallback to the last
    # value) but reaches back into the 3-day history from day 4 on
    assert np.array_equal(out, [3.0, 3.0, 3.0, 3.0, 1.0])


def test_improvement_percent_fixture():
    assert round(improvement_percent(46.13, 22.7), 1) == 50.8
    assert improvement_percent(10.0, 10.0) == 0.0


SPLIT = SplitSpec(dt.date(2015, 12, 31), dt.date(2016, 1, 1), dt.date(2016, 3, 10))


def toy_table(n_days=435, start=dt.date(2015, 1, 1), scale=1.0):
    # 435 days from 2015-01-01 end exactly at the SPLIT test_end (2016-03-10)
    rng = np.random.default_rng(5)
    vals = 20 + 5 * np.sin(np.arange(n_days) / 9.0) + rng.normal(scale=1.0, size=n_days)
    return make_table(
        [
            (start + dt.timedelta(days=i), "1", "1", float(max(v, 0)) * scale)
            for i, v in enumerate(vals)
        ]
    )


def test_run_scenario_smoke_naive_only():
    table = toy_table()
    spec = make_scenario("S1", SPLIT, models=("naive",))
    report = run_scenario(table, spec, HolidayCalendar.bundled())
    assert list(report.entries) == ["naive"]
    entry = report.entries["naive"]
    assert entry.metrics.n == 70
    assert np.isfinite(entry.metrics.mae)
    assert entry.error is None


def two_series_table():
    """Store 1 sells about 20 a day, store 2 about 2,000."""
    small, large = toy_table(), toy_table(scale=100.0)
    return make_table(
        [
            (d, store, "1", q)
            for store, t in (("1", small), ("2", large))
            for d, _, _, q in table_rows(t)
        ]
    )


def test_run_scenario_records_per_model_failure(monkeypatch):
    fit_arimax = ev.fit_arimax

    def fails_on_store_2(y, *args, **kwargs):
        if y.mean() > 1000.0:
            raise RuntimeError(f"synthetic failure at mean {y.mean():.3f}")
        return fit_arimax(y, *args, **kwargs)

    monkeypatch.setattr(ev, "fit_arimax", fails_on_store_2)
    table = two_series_table()
    spec = make_scenario("S2", SPLIT)
    cal = HolidayCalendar.bundled()
    serial = run_scenario(table, spec, cal, workers=1)
    for workers in (1, 2):
        report = serial if workers == 1 else run_scenario(table, spec, cal, workers=workers)
        failed = report.entries["arimax"]
        assert failed.error.startswith("RuntimeError: synthetic failure at mean")
        assert failed.error == serial.entries["arimax"].error
        assert failed.metrics is None
        for name in ("gbdt", "trend_seasonal", "svr", "naive"):
            entry = report.entries[name]
            assert entry.error is None and entry.metrics.n == 2 * 70
            assert np.array_equal(entry.predictions, serial.entries[name].predictions)


def test_run_scenario_starts_one_pool(monkeypatch):
    pools = []

    class CountingPool(ev.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ev, "ProcessPoolExecutor", CountingPool)
    spec = make_scenario("S1", SPLIT, models=("naive", "arimax"))
    report = run_scenario(two_series_table(), spec, HolidayCalendar.bundled(), workers=2)
    assert pools == [{"max_workers": 2}]
    assert all(e.error is None for e in report.entries.values())


def test_run_scenario_deterministic_across_worker_counts():
    table = toy_table()
    spec = make_scenario("S1", SPLIT, models=("naive", "arimax"))
    cal = HolidayCalendar.bundled()
    r1 = run_scenario(table, spec, cal, workers=1)
    r2 = run_scenario(table, spec, cal, workers=2)
    for name in ("naive", "arimax"):
        assert r1.entries[name].metrics == r2.entries[name].metrics
        assert np.array_equal(r1.entries[name].predictions, r2.entries[name].predictions)


def test_arimax_drops_exogenous_columns_constant_over_training():
    # Summed over two steady series the deviation flag never fires, so it is
    # a constant column that arimax cannot separate from its intercept.
    one = toy_table()
    table = make_table(
        [(d, store, "1", q) for store in ("1", "2") for d, _, _, q in table_rows(one)]
    )
    spec = make_scenario(
        "S2", SPLIT, granularity=Granularity.AGGREGATE, models=("arimax", "naive")
    )
    report = run_scenario(table, spec, HolidayCalendar.bundled())
    entry = report.entries["arimax"]
    assert entry.error is None
    assert np.isfinite(entry.metrics.mae)
    (artifact,) = entry.artifacts.values()
    assert "deviation_flag" not in artifact["beta"]
    assert "holiday" in artifact["beta"]


def test_s2_beats_s1_for_tree_model_on_planted_exogenous_structure():
    # Planted weekday profile plus outage days.  The weekday pattern alone is
    # partly recoverable from same-weekday lags, so the decisive planted
    # signal for the scenario-2 feature set is the outage structure the
    # deviation flag encodes.
    rng = np.random.default_rng(11)
    n = 700
    start = dt.date(2014, 1, 1)
    profile = np.array([0.5, 0.7, 1.0, 1.0, 1.3, 1.8, 1.6])
    rows = []
    for i in range(n):
        day = start + dt.timedelta(days=i)
        mu = 50.0 * profile[day.weekday()]
        if rng.random() < 0.08:
            mu *= 0.1
        rows.append((day, "1", "1", float(rng.poisson(mu))))
    table = make_table(rows)
    split = SplitSpec(
        start + dt.timedelta(days=n - 101),
        start + dt.timedelta(days=n - 100),
        start + dt.timedelta(days=n - 1),
    )
    cal = HolidayCalendar.bundled()
    cfg = GbdtConfig(n_trees=60, max_depth=4)
    r1 = run_scenario(table, make_scenario("S1", split, models=("gbdt",), gbdt_config=cfg), cal)
    r2 = run_scenario(table, make_scenario("S2", split, models=("gbdt",), gbdt_config=cfg), cal)
    mae1 = r1.entries["gbdt"].metrics.mae
    mae2 = r2.entries["gbdt"].metrics.mae
    assert improvement_percent(mae1, mae2) >= 20.0


def test_scenario_spec_validates_feature_sets():
    with pytest.raises(ValueError):
        ScenarioSpec(id="S1", feature_spec=ev.s2_features(), split=SPLIT)
    with pytest.raises(ValueError):
        ScenarioSpec(id="S2", feature_spec=ev.S1_FEATURES, split=SPLIT)
    with pytest.raises(ValueError):
        make_scenario("S1", SPLIT, models=("nope",))


def test_compare_improvement_column():
    table = toy_table()
    cal = HolidayCalendar.bundled()
    r1 = run_scenario(table, make_scenario("S1", SPLIT, models=("naive",)), cal)
    r2 = run_scenario(table, make_scenario("S2", SPLIT, models=("naive",)), cal)
    # synthesize distinct MAE values to pin the improvement arithmetic
    r1.entries["naive"].metrics = Metrics(mae=46.13, rmse=50.0, r2=0.5, n=70)
    r2.entries["naive"].metrics = Metrics(mae=22.7, rmse=30.0, r2=0.7, n=70)
    table_ = compare([r1, r2])
    assert round(table_.improvement_pct["naive"], 1) == 50.8
    assert table_.best_by_metric[("mae", "S2")] == "naive"


def test_compare_identical_reports_zero_improvement():
    table = toy_table()
    cal = HolidayCalendar.bundled()
    r1 = run_scenario(table, make_scenario("S1", SPLIT, models=("naive",)), cal)
    r2 = run_scenario(table, make_scenario("S2", SPLIT, models=("naive",)), cal)
    table_ = compare([r1, r2])
    assert table_.improvement_pct["naive"] == 0.0


def test_compare_single_report_degenerate():
    table = toy_table()
    cal = HolidayCalendar.bundled()
    r1 = run_scenario(table, make_scenario("S1", SPLIT, models=("naive",)), cal)
    table_ = compare([r1])
    assert table_.scenarios == ["S1"]
    assert table_.improvement_pct == {}
    assert table_.to_text()


def test_compare_rejects_mismatched_data():
    cal = HolidayCalendar.bundled()
    r1 = run_scenario(toy_table(), make_scenario("S1", SPLIT, models=("naive",)), cal)
    other = toy_table(scale=2.0)
    r2 = run_scenario(other, make_scenario("S2", SPLIT, models=("naive",)), cal)
    with pytest.raises(FingerprintMismatchError):
        compare([r1, r2])
