import csv
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demandcast.evaluate as ev
from demandcast.artifacts import write_metrics_csv
from demandcast.cli import _comparison_section
from demandcast.data import Granularity, SplitSpec
from demandcast.evaluate import (
    ScenarioSpec,
    compare,
    error_histogram,
    improvement_percent,
    run_scenario,
    score,
)
from demandcast.features import HolidayCalendar
from demandcast.models.gbdt import GbdtConfig, feature_importance
from demandcast.models.naive import seasonal_naive_forecast, seasonal_naive_insample

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
    assert (m["mae"], m["rmse"], m["r2"]) == (0.0, 0.0, 1.0)


def test_score_hand_fixture():
    m = score(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 5.0]))
    assert m["mae"] == 1.0
    assert abs(m["rmse"] - np.sqrt(5.0 / 3.0)) < 1e-12
    assert abs(m["r2"] - (-1.5)) < 1e-12


def test_score_mean_predictor_r2_zero():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    m = score(y, np.full(4, y.mean()))
    assert abs(m["r2"]) < 1e-12


def test_score_constant_actuals_r2_undefined():
    m = score(np.full(5, 3.0), np.arange(5.0))
    assert m["r2"] is None
    assert m["mae"] > 0


def test_score_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        y = rng.normal(size=n) * 50
        p = rng.normal(size=n) * 50
        m = score(y, p)
        mae, rmse, r2 = brute_force_metrics(y.tolist(), p.tolist())
        assert abs(m["mae"] - mae) < 1e-9
        assert abs(m["rmse"] - rmse) < 1e-9
        if r2 is None:
            assert m["r2"] is None
        else:
            assert abs(m["r2"] - r2) < 1e-9


def test_rmse_at_least_mae():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 100))
        y = rng.normal(size=n)
        p = rng.normal(size=n)
        m = score(y, p)
        assert m["rmse"] >= m["mae"] - 1e-12


def test_score_is_permutation_invariant():
    rng = np.random.default_rng(2)
    y = rng.normal(size=40)
    p = rng.normal(size=40)
    perm = rng.permutation(40)
    a, b = score(y, p), score(y[perm], p[perm])
    assert all(np.isclose(a[k], b[k]) for k in ("mae", "rmse", "r2"))


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), max_size=30), st.integers(1, 10), st.integers(0, 40))
def test_naive_matches_per_day_loops(values, period, horizon):
    train = np.array(values, dtype=np.float64)
    expected = np.empty(len(train))
    for t in range(len(train)):
        expected[t] = train[t - period] if t >= period else train[max(t - 1, 0)]
    insample = seasonal_naive_insample(train, period)
    assert insample.tobytes() == expected.tobytes()
    # One value per training day; day 0 has no history and is its own value.
    assert len(insample) == len(train)
    assert insample[:1].tobytes() == train[:1].tobytes()
    if not len(train):
        return
    expected = np.empty(horizon)
    for j in range(horizon):
        back = j - period
        if back >= 0:
            expected[j] = expected[back]
        elif len(train) + back >= 0:
            expected[j] = train[len(train) + back]
        else:
            expected[j] = train[-1]
    assert seasonal_naive_forecast(train, horizon, period).tobytes() == expected.tobytes()


def test_improvement_percent_fixture():
    assert round(improvement_percent(46.13, 22.7), 1) == 50.8
    assert improvement_percent(10.0, 10.0) == 0.0


SPLIT = SplitSpec(dt.date(2015, 12, 31), dt.date(2016, 3, 10))


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
    spec = ScenarioSpec("S1", SPLIT, models=("naive",))
    report = run_scenario(table, spec, HolidayCalendar.bundled())
    assert list(report.doc["models"]) == ["naive"]
    entry = report.doc["models"]["naive"]
    assert entry["metrics"]["n"] == 70
    assert np.isfinite(entry["metrics"]["mae"])
    assert entry["error"] is None


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


def test_run_scenario_records_per_model_failure(monkeypatch, tmp_path):
    fit_arimax = ev.fit_arimax

    def fails_on_store_2(y, *args, **kwargs):
        if y.mean() > 1000.0:
            raise RuntimeError(f"synthetic failure at mean {y.mean():.3f}")
        return fit_arimax(y, *args, **kwargs)

    monkeypatch.setattr(ev, "fit_arimax", fails_on_store_2)
    table = two_series_table()
    spec = ScenarioSpec("S2", SPLIT)
    cal = HolidayCalendar.bundled()
    serial = run_scenario(table, spec, cal, workers=1)
    for workers in (1, 2):
        report = serial if workers == 1 else run_scenario(table, spec, cal, workers=workers)
        failed = report.doc["models"]["arimax"]
        assert failed["error"].startswith("RuntimeError: synthetic failure at mean")
        assert failed["error"] == serial.doc["models"]["arimax"]["error"]
        assert failed["metrics"] is None
        assert "arimax" not in report.predictions
        # The row of a failed model keeps its fixed forecast_mode label.
        write_metrics_csv(tmp_path / "metrics.csv", [report])
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = {row["model"]: row for row in csv.DictReader(fh)}
        assert rows["arimax"]["forecast_mode"] == "recursive"
        assert rows["arimax"]["error"] == failed["error"]
        for name in ("gbdt", "trend_seasonal", "svr", "naive"):
            entry = report.doc["models"][name]
            assert entry["error"] is None and entry["metrics"]["n"] == 2 * 70
            assert np.array_equal(report.predictions[name], serial.predictions[name])


def test_run_scenario_fails_a_model_on_non_finite_predictions(monkeypatch):
    # Infinite test forecasts on store 2, then NaN in-sample values there:
    # either fails arimax alone, where it would crash scoring or give inf/NaN.
    forecast_arimax, in_sample = ev.forecast_arimax, ev.in_sample_predictions

    def infinite_forecast(model, X):
        predictions = forecast_arimax(model, X)
        return predictions * np.inf if predictions.mean() > 1000.0 else predictions

    def nan_in_sample(model, y, X):
        fitted = in_sample(model, y, X)
        return fitted * np.nan if y.mean() > 1000.0 else fitted

    table = two_series_table()
    spec = ScenarioSpec("S2", SPLIT, models=("arimax", "naive"))
    cal = HolidayCalendar.bundled()
    for name, patch in (
        ("forecast_arimax", infinite_forecast),
        ("in_sample_predictions", nan_in_sample),
    ):
        with monkeypatch.context() as m:
            m.setattr(ev, name, patch)
            serial = run_scenario(table, spec, cal, workers=1)
            parallel = run_scenario(table, spec, cal, workers=2)
        for report in (serial, parallel):
            failed = report.doc["models"]["arimax"]
            assert failed["error"] == "ValueError: the predictions are not all finite"
            assert failed["metrics"] is None
            naive = report.doc["models"]["naive"]
            assert naive["error"] is None and naive["metrics"]["n"] == 2 * 70
            assert np.array_equal(report.predictions["naive"], serial.predictions["naive"])


def test_run_scenario_starts_one_pool(monkeypatch):
    pools = []

    class CountingPool(ev.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ev, "ProcessPoolExecutor", CountingPool)
    spec = ScenarioSpec("S1", SPLIT, models=("naive", "arimax"))
    report = run_scenario(two_series_table(), spec, HolidayCalendar.bundled(), workers=2)
    assert pools == [{"max_workers": 2}]
    assert all(e["error"] is None for e in report.doc["models"].values())
    # Never more workers than tasks: two models of two series are four tasks.
    pools.clear()
    report = run_scenario(two_series_table(), spec, HolidayCalendar.bundled(), workers=8)
    assert pools == [{"max_workers": 4}]
    assert all(e["error"] is None for e in report.doc["models"].values())


def test_run_scenario_deterministic_across_worker_counts():
    table = toy_table()
    spec = ScenarioSpec("S1", SPLIT, models=("naive", "arimax"))
    cal = HolidayCalendar.bundled()
    r1 = run_scenario(table, spec, cal, workers=1)
    r2 = run_scenario(table, spec, cal, workers=2)
    for name in ("naive", "arimax"):
        assert r1.doc["models"][name]["metrics"] == r2.doc["models"][name]["metrics"]
        assert np.array_equal(r1.predictions[name], r2.predictions[name])


def test_model_documents_only_when_saving_models():
    # Workers return each series' model document only for save_models; gbdt's
    # importance comes from the gain totals either way.
    table = two_series_table()
    spec = ScenarioSpec(
        "S2", SPLIT, models=("gbdt", "naive"), gbdt_config=GbdtConfig(n_trees=20, max_depth=3)
    )
    cal = HolidayCalendar.bundled()
    saved = run_scenario(table, spec, cal, save_models=True)
    assert saved.model_documents["naive"] == {
        "1|1": {"kind": "naive", "period": 7},
        "2|1": {"kind": "naive", "period": 7},
    }
    docs = saved.model_documents["gbdt"]
    assert list(docs) == ["1|1", "2|1"]
    totals = {
        name: sum(doc["gain_totals"][name] for doc in docs.values())
        for name in docs["1|1"]["gain_totals"]
    }
    assert saved.doc["models"]["gbdt"]["importance"] == feature_importance(totals)
    for workers in (1, 2):
        report = run_scenario(table, spec, cal, workers=workers)
        assert report.model_documents == {}
        assert report.doc == saved.doc
        for name, predictions in report.predictions.items():
            assert np.array_equal(predictions, saved.predictions[name])


def test_arimax_drops_exogenous_columns_constant_over_training():
    # Summed over two steady series the deviation flag never fires, so it is
    # a constant column that arimax cannot separate from its intercept.
    one = toy_table()
    table = make_table(
        [(d, store, "1", q) for store in ("1", "2") for d, _, _, q in table_rows(one)]
    )
    spec = ScenarioSpec(
        "S2", SPLIT, granularity=Granularity.AGGREGATE, models=("arimax", "naive")
    )
    report = run_scenario(table, spec, HolidayCalendar.bundled(), save_models=True)
    entry = report.doc["models"]["arimax"]
    assert entry["error"] is None
    assert np.isfinite(entry["metrics"]["mae"])
    (artifact,) = report.model_documents["arimax"].values()
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
    split = SplitSpec(start + dt.timedelta(days=n - 101), start + dt.timedelta(days=n - 1))
    cal = HolidayCalendar.bundled()
    cfg = GbdtConfig(n_trees=60, max_depth=4)
    r1 = run_scenario(table, ScenarioSpec("S1", split, models=("gbdt",), gbdt_config=cfg), cal)
    r2 = run_scenario(table, ScenarioSpec("S2", split, models=("gbdt",), gbdt_config=cfg), cal)
    mae1 = r1.doc["models"]["gbdt"]["metrics"]["mae"]
    mae2 = r2.doc["models"]["gbdt"]["metrics"]["mae"]
    assert improvement_percent(mae1, mae2) >= 20.0


def test_scenario_spec_validates_feature_sets():
    for bad in (
        {"id": "S3"},
        {"id": "s2"},
        {"id": "S1", "models": ("nope",)},
        {"id": "S1", "models": ()},
        {"id": "S2", "models": ("naive", "gbdt", "naive")},
    ):
        with pytest.raises(ValueError):
            ScenarioSpec(split=SPLIT, **bad)
    assert not ScenarioSpec("S1", SPLIT).external
    assert ScenarioSpec("S2", SPLIT).external


def test_compare_improvement_column():
    table = toy_table()
    cal = HolidayCalendar.bundled()
    r1 = run_scenario(table, ScenarioSpec("S1", SPLIT, models=("naive",)), cal)
    r2 = run_scenario(table, ScenarioSpec("S2", SPLIT, models=("naive",)), cal)
    # synthesize distinct MAE values to pin the improvement arithmetic
    r1.doc["models"]["naive"]["metrics"] = {"mae": 46.13, "rmse": 50.0, "r2": 0.5, "n": 70}
    r2.doc["models"]["naive"]["metrics"] = {"mae": 22.7, "rmse": 30.0, "r2": 0.7, "n": 70}
    table_ = compare([r1, r2])
    assert round(table_["improvement_pct"]["naive"], 1) == 50.8
    assert table_["best_by_metric"]["mae|S2"] == "naive"
    # The gain runs from S1 to S2 whatever order the scenarios ran in.
    assert compare([r2, r1])["improvement_pct"] == table_["improvement_pct"]


def test_compare_identical_reports_zero_improvement():
    table = toy_table()
    cal = HolidayCalendar.bundled()
    r1 = run_scenario(table, ScenarioSpec("S1", SPLIT, models=("naive",)), cal)
    r2 = run_scenario(table, ScenarioSpec("S2", SPLIT, models=("naive",)), cal)
    table_ = compare([r1, r2])
    assert table_["improvement_pct"]["naive"] == 0.0


def test_compare_single_report_degenerate():
    table = toy_table()
    cal = HolidayCalendar.bundled()
    r1 = run_scenario(table, ScenarioSpec("S1", SPLIT, models=("naive",)), cal)
    table_ = compare([r1])
    assert table_["scenarios"] == ["S1"]
    assert table_["improvement_pct"] == {}
    # One scenario: the printed table has no improvement column.
    lines = _comparison_section(table_)
    assert lines[2:4] == ["| model | S1 MAE |", "|---|---|"]
    assert lines[4].startswith("| naive | ")

