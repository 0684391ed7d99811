"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``).  The
bundled-sample evaluation runs once per session and is shared by the
criteria that need it; the worker-count determinism criterion adds one
more full run.
"""

import csv
import datetime as dt
import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from demandcast.cli import main
from demandcast.data import SplitSpec, fill_gaps, parse_sales_csv, sort_chronological
from demandcast.config import bundled_sample_stream
from demandcast.evaluate import improvement_percent
from demandcast.features import DeviationMode, HolidayCalendar, build_train_test_matrices
from demandcast.inventory import ReplenishmentPolicy, simulate
from demandcast.models.arimax import fit_arimax
from demandcast.models.gbdt import GbdtConfig, fit_gbdt
from demandcast.models.svr import SvrConfig, fit_svr
from demandcast.models.trend_seasonal import (
    TrendSeasonalConfig,
    fit_trend_seasonal,
    forecast_trend_seasonal,
)
from demandcast.synthetic import generate_sales_table

from conftest import bundled_series, make_matrix, make_table
from test_gbdt import assert_same_tree, oracle_tree
from test_svr import brute_force_dual, kkt_violation
from test_trend_seasonal import base_slope


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({time.perf_counter() - started:.1f}s)")


# --- shared full-sample evaluation runs --------------------------------------

@pytest.fixture(scope="session")
def bundled_run(tmp_path_factory):
    """Full evaluation of the bundled sample, paper-faithful settings, 1 worker."""
    out = tmp_path_factory.mktemp("accept_run_w1")
    cfg = tmp_path_factory.mktemp("accept_cfg") / "config.json"
    cfg.write_text(json.dumps({"output_dir": str(out), "workers": 1}))
    assert main(["evaluate", "--config", str(cfg)]) == 0
    return cfg, out


@pytest.fixture(scope="session")
def bundled_run_two_workers(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_run_w2")
    cfg = tmp_path_factory.mktemp("accept_cfg2") / "config.json"
    cfg.write_text(json.dumps({"output_dir": str(out), "workers": 2}))
    assert main(["evaluate", "--config", str(cfg)]) == 0
    return cfg, out


def load_report(out):
    return json.loads((out / "report.json").read_text())


# --- 1. metric oracle equivalence ---------------------------------------------

def test_metric_oracle_equivalence():
    from demandcast.evaluate import score

    def brute(actual, predicted):
        n = len(actual)
        abs_sum = sq_sum = 0.0
        for a, p in zip(actual, predicted):
            abs_sum += abs(a - p)
            sq_sum += (a - p) * (a - p)
        mean = sum(actual) / n
        ss_tot = sum((a - mean) ** 2 for a in actual)
        r2 = None if ss_tot == 0 else 1.0 - sq_sum / ss_tot
        return abs_sum / n, (sq_sum / n) ** 0.5, r2

    with criterion("metric_oracle_equivalence"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            y = (rng.normal(size=n) * rng.uniform(1, 100)).tolist()
            p = (rng.normal(size=n) * rng.uniform(1, 100)).tolist()
            m = score(np.array(y), np.array(p))
            mae, rmse, r2 = brute(y, p)
            assert abs(m["mae"] - mae) <= 1e-9
            assert abs(m["rmse"] - rmse) <= 1e-9
            if r2 is None:
                assert m["r2"] is None
            else:
                assert abs(m["r2"] - r2) <= 1e-9


# --- 2. gbdt small-instance oracle ---------------------------------------------

def test_gbdt_small_instance_oracle():
    with criterion("gbdt_small_instance_oracle"):
        rng = np.random.default_rng(202)
        for _ in range(40):
            n = int(rng.integers(4, 33))
            k = int(rng.integers(1, 3))
            depth = int(rng.integers(1, 3))
            lam = float(rng.choice([0.0, 0.1, 1.0]))
            X = np.round(rng.uniform(0, 10, size=(n, k)), 1)
            y = np.round(rng.uniform(-5, 5, size=n), 2)
            cfg = GbdtConfig(n_trees=1, learning_rate=1.0, l2_lambda=lam, max_depth=depth)
            model = fit_gbdt(make_matrix(X, y), cfg)
            scale = float(np.var(np.sort(y)))
            expected = oracle_tree(X, y - y.mean(), lam, depth, cfg.min_child_rows, scale)
            assert_same_tree(model.trees[0], 0, expected)

        # leaf-weight regularisation fixture: +-20/4.1
        m = make_matrix(np.array([0.0] * 4 + [1.0] * 4), np.array([0.0] * 4 + [10.0] * 4))
        model = fit_gbdt(m, GbdtConfig(n_trees=1, learning_rate=1.0, l2_lambda=0.1, max_depth=1))
        tree = model.trees[0]
        leaves = sorted(tree.value[i] for i in (tree.left[0], tree.right[0]))
        assert abs(leaves[0] + 20.0 / 4.1) <= 1e-9
        assert abs(leaves[1] - 20.0 / 4.1) <= 1e-9


# --- 3. arimax ols equivalence ---------------------------------------------------

def test_arimax_ols_equivalence():
    with criterion("arimax_ols_equivalence"):
        rng = np.random.default_rng(303)
        for _ in range(50):
            n = int(rng.integers(40, 150))
            k = int(rng.integers(0, 3))
            c = float(rng.uniform(-2, 2))
            phi = float(rng.uniform(-0.8, 0.8))
            beta = rng.uniform(-1, 1, size=k)
            exog = rng.normal(size=(n, k))
            y = np.empty(n)
            y[0] = rng.normal()
            noise = rng.normal(scale=0.5, size=n)
            for t in range(1, n):
                y[t] = c + phi * y[t - 1] + noise[t]
                y[t] += exog[t] @ beta
            model = fit_arimax(y, exog, [f"x{j}" for j in range(k)])
            design = np.column_stack([np.ones(n - 1), y[:-1], exog[1:]])
            expected = np.linalg.solve(design.T @ design, design.T @ y[1:])
            got = np.concatenate([[model.intercept, model.phi], model.beta])
            assert np.abs(got - expected).max() <= 1e-8

        # noiseless recovery fixtures
        y = np.empty(80)
        y[0] = 1.0
        for t in range(1, 80):
            y[t] = 2.0 + 0.5 * y[t - 1]
        model = fit_arimax(y, np.empty((80, 0)), [])
        assert abs(model.intercept - 2.0) <= 1e-6
        assert abs(model.phi - 0.5) <= 1e-6


# --- 4. trend-seasonal recovery and interval coverage -----------------------------

def test_trend_seasonal_recovery_and_coverage():
    with criterion("trend_seasonal_recovery_and_coverage"):
        start = dt.date(2013, 1, 1).toordinal()

        cfg = TrendSeasonalConfig(n_changepoints=0, weekly_fourier_order=0, yearly_fourier_order=0)
        n = 300
        y = np.expm1(0.9 * np.arange(n) / (n - 1))
        model = fit_trend_seasonal(y, np.arange(n) + start, cfg)
        assert abs(base_slope(model) - 0.9) < 1e-6

        cfg = TrendSeasonalConfig(n_changepoints=0, yearly_fourier_order=0)
        dow = (np.arange(n) + start - 1) % 7
        y = np.expm1(0.2 * np.sin(2 * np.pi * dow / 7))
        model = fit_trend_seasonal(y, np.arange(n) + start, cfg)
        point, _, _ = forecast_trend_seasonal(model, np.arange(n) + start)
        rel = np.abs(point - y) / np.maximum(np.abs(y), 1e-9)
        assert rel.max() < 0.01

        rng = np.random.default_rng(404)
        n_train, n_test = 1500, 1000
        total = n_train + n_test
        dow = (np.arange(total) + start - 1) % 7
        log_level = 0.8 + 0.4 * np.arange(total) / n_train + 0.25 * np.sin(2 * np.pi * dow / 7)
        y = np.expm1(log_level + rng.normal(scale=0.2, size=total))
        cfg = TrendSeasonalConfig(n_changepoints=5, yearly_fourier_order=3, changepoint_penalty=1.0)
        model = fit_trend_seasonal(y[:n_train], np.arange(n_train) + start, cfg)
        _, lo, hi = forecast_trend_seasonal(model, np.arange(n_train, total) + start)
        covered = ((y[n_train:] >= lo) & (y[n_train:] <= hi)).mean()
        assert abs(covered - 0.95) <= 0.05


# --- 5. svr optimality --------------------------------------------------------------

def test_svr_optimality():
    with criterion("svr_optimality"):
        rng = np.random.default_rng(505)

        X = rng.uniform(size=(80, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.05 * rng.normal(size=80)
        m = make_matrix(X, y)
        model = fit_svr(m, SvrConfig(max_passes=500))
        assert model.converged
        assert kkt_violation(model, m) <= 1e-3
        trace = model.dual_objective_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

        for _ in range(6):
            n = int(rng.integers(3, 7))
            X = rng.normal(size=(n, 2))
            y = rng.normal(size=n)
            cfg = SvrConfig(
                rbf_gamma=0.8, max_passes=3000, smo_tolerance=1e-6, standardize_target=False
            )
            small = fit_svr(make_matrix(X, y), cfg)
            Xz = (X - small.feature_means) / small.feature_stds
            expected = brute_force_dual(Xz, y.astype(float), cfg.C, cfg.epsilon, 0.8)
            assert abs(small.dual_objective_trace[-1] - expected) <= 1e-4


# --- 6 & 7. directional scenario gains and importance ranking ------------------------

EXOGENOUS_FEATURES = {"weekday", "weekday_sin", "weekday_cos", "holiday", "deviation_flag"}


def test_directional_scenario_gains(bundled_run):
    with criterion("directional_scenario_gains"):
        _, out = bundled_run
        report = load_report(out)
        mae = report["comparison"]["mae"]
        improvements = {
            model: improvement_percent(mae[f"{model}|S1"], mae[f"{model}|S2"])
            for model in ("gbdt", "arimax", "trend_seasonal", "svr")
        }
        print(f"\n  scenario gains (MAE % improvement S1->S2): "
              + ", ".join(f"{m}={v:.1f}%" for m, v in improvements.items()))
        assert improvements["gbdt"] >= 20.0
        assert improvements["arimax"] >= 10.0
        # trend_seasonal and svr gains are reported but unconstrained
        assert np.isfinite(improvements["trend_seasonal"])
        assert np.isfinite(improvements["svr"])


def test_deviation_flag_tops_exogenous_importance(bundled_run):
    with criterion("deviation_flag_tops_exogenous_importance"):
        _, out = bundled_run
        report = load_report(out)
        importance = report["scenarios"]["S2"]["models"]["gbdt"]["importance"]
        exogenous = [(f, v) for f, v in importance if f in EXOGENOUS_FEATURES]
        assert exogenous, "no exogenous features in the importance ranking"
        assert exogenous[0][0] == "deviation_flag"


# --- 8. leakage property ----------------------------------------------------------

def test_leakage_sentinel_perturbation():
    with criterion("leakage_sentinel_perturbation"):
        rng = np.random.default_rng(808)
        start = dt.date(2015, 1, 1)
        n = 300
        rows = []
        for store, item in (("1", "1"), ("1", "2")):
            for i in range(n):
                rows.append(
                    (start + dt.timedelta(days=i), store, item, float(rng.poisson(40)))
                )
        base_table = make_table(rows)
        split = SplitSpec(start + dt.timedelta(days=n - 51), start + dt.timedelta(days=n - 1))
        cal = HolidayCalendar.bundled()
        lagged = DeviationMode.LAGGED
        train0, test0 = build_train_test_matrices(base_table, split, True, cal, lagged)

        test_offsets = [0, 1, 7, 25, 49]
        for off in test_offsets:
            perturb_date = (start + dt.timedelta(days=n - 50 + off)).toordinal()
            qty = base_table.quantities.copy()
            mask = (base_table.dates == perturb_date) & (base_table.store_ids == "1") & (
                base_table.item_ids == "1"
            )
            assert mask.sum() == 1
            qty[mask] += 1000.0
            mutated = make_table(
                [
                    (dt.date.fromordinal(int(d)), str(s), str(i), float(q))
                    for d, s, i, q in zip(
                        base_table.dates, base_table.store_ids, base_table.item_ids, qty
                    )
                ]
            )
            train1, test1 = build_train_test_matrices(mutated, split, True, cal, lagged)
            # training matrices are bit-identical under any test-window edit
            assert train0.rows.tobytes() == train1.rows.tobytes()
            assert train0.target.tobytes() == train1.target.tobytes()
            # test features at date t use only data dated <= t-1
            upto = test0.dates <= perturb_date
            assert np.array_equal(test0.rows[upto], test1.rows[upto])

        # contrast: the paper-faithful same-day flag does leak the same-day value
        leaky = DeviationMode.SAME_DAY
        _, test_leaky0 = build_train_test_matrices(base_table, split, True, cal, leaky)
        perturb_date = (start + dt.timedelta(days=n - 50 + 25)).toordinal()
        qty = base_table.quantities.copy()
        mask = (base_table.dates == perturb_date) & (base_table.store_ids == "1") & (
            base_table.item_ids == "1"
        )
        qty[mask] = 0.0
        mutated = make_table(
            [
                (dt.date.fromordinal(int(d)), str(s), str(i), float(q))
                for d, s, i, q in zip(
                    base_table.dates, base_table.store_ids, base_table.item_ids, qty
                )
            ]
        )
        _, test_leaky1 = build_train_test_matrices(mutated, split, True, cal, leaky)
        same_day_rows = test_leaky0.dates == perturb_date
        flag_col = test_leaky0.columns.index("deviation_flag")
        assert not np.array_equal(
            test_leaky0.rows[same_day_rows][:, flag_col],
            test_leaky1.rows[same_day_rows][:, flag_col],
        )


# --- 9. inventory directional claim ------------------------------------------------

def test_inventory_directional_claim(bundled_run):
    with criterion("inventory_directional_claim"):
        policy = ReplenishmentPolicy(review_period=1, safety_factor=0.5, lead_time=1)
        demands, forecasts = [], {"good": [], "bad": []}
        for seed in range(24):
            rng = np.random.default_rng(seed)
            base = 30 + 10 * np.sin(np.arange(153) / 7.0) + 5 * ((np.arange(153) % 7) == 5)
            demands.append(rng.poisson(np.maximum(base, 1.0)).astype(float))
            forecasts["good"].append(np.maximum(demands[-1] + rng.normal(scale=2.0, size=153), 0.0))
            forecasts["bad"].append(np.maximum(demands[-1] + rng.normal(scale=12.0, size=153), 0.0))
        lengths = np.full(24, 153)
        good = simulate(np.concatenate(demands), np.concatenate(forecasts["good"]), lengths, policy, [2.0] * 24)
        bad = simulate(np.concatenate(demands), np.concatenate(forecasts["bad"]), lengths, policy, [12.0] * 24)
        assert np.mean(good.forecast_mae) < np.mean(bad.forecast_mae)
        assert np.mean(good.stockout_rate) <= np.mean(bad.stockout_rate)
        assert np.mean(good.cost_index) <= np.mean(bad.cost_index)

        # End-to-end on the bundled run.  With safety stock sized in each
        # model's own residual std, stockout rate is a calibration artifact
        # (the baseline's inflated sigma buys service by overstocking), so
        # accuracy must show up in overstock and total cost; under a matched
        # safety calibration the better forecast also stocks out less.
        cfg, out = bundled_run
        assert main(["simulate", "--config", str(cfg)]) == 0
        impact = json.loads((out / "impact.json").read_text())
        assert impact["models"]["gbdt"]["cost_index"] <= impact["baseline_rates"]["cost_index"]
        assert (
            impact["models"]["gbdt"]["overstock_rate"]
            <= impact["baseline_rates"]["overstock_rate"]
        )

        from demandcast.artifacts import read_residuals_csv
        from demandcast.inventory import pool_outcomes

        report = json.loads((out / "report.json").read_text())
        naive_stds = report["scenarios"]["S2"]["models"]["naive"][
            "per_series_train_residual_std"
        ]

        def pooled_with_matched_sigma(model):
            keys, lengths, actual, predicted = read_residuals_csv(out / f"residuals_{model}_S2.csv")
            outcome = simulate(
                actual, predicted, lengths, policy, [naive_stds[f"{store}|{item}"] for store, item in keys]
            )
            return pool_outcomes(outcome)

        tree = pooled_with_matched_sigma("gbdt")
        base = pooled_with_matched_sigma("naive")
        assert tree["stockout_rate"] <= base["stockout_rate"]
        assert tree["cost_index"] <= base["cost_index"]


# --- 10. determinism across worker counts -------------------------------------------

# Everything evaluate writes except runtimes.csv and manifest.json, which
# record timings.
DETERMINISTIC_ARTIFACTS = (
    "metrics.csv",
    "importance.csv",
    "report.json",
    "residuals_*.csv",
    "histogram_*.csv",
    "actual_vs_predicted_*.csv",
)


def test_worker_count_determinism(bundled_run, bundled_run_two_workers):
    with criterion("worker_count_determinism"):
        _, out1 = bundled_run
        _, out2 = bundled_run_two_workers

        def artifacts(out):
            return sorted(p.name for pattern in DETERMINISTIC_ARTIFACTS for p in out.glob(pattern))

        names = artifacts(out2)
        assert len(names) == 3 + 3 * 5 * 2  # three per (model, scenario)
        assert artifacts(out1) == names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# --- 11. split-count check ------------------------------------------------------------

def test_split_count_check():
    with criterion("split_count_check"):
        train_days = (dt.date(2017, 7, 31) - dt.date(2013, 1, 1)).days + 1
        test_days = (dt.date(2017, 12, 31) - dt.date(2017, 8, 1)).days + 1
        assert train_days == 1673
        assert test_days == 153
        full_series = 500  # 10 stores x 50 items in the full public dataset
        train_rows = full_series * train_days
        test_rows = full_series * test_days
        assert train_rows == 836_500
        assert test_rows == 76_500
        total = train_rows + test_rows
        assert total == 913_000

        # externally quoted approximate split sizes for this dataset
        quoted_train, quoted_test = 845_000, 68_000
        assert abs(train_rows - quoted_train) / total < 0.05
        assert abs(test_rows - quoted_test) / total < 0.05

        # The bundled sample splits per the same calendar arithmetic on the
        # path evaluate runs, less the 28 leading days each series' lag-28
        # column leaves undefined.
        with bundled_sample_stream() as stream:
            table, _ = fill_gaps(sort_chronological(parse_sales_csv(stream).table))
        split = SplitSpec(dt.date(2017, 7, 31), dt.date(2017, 12, 31))
        cal = HolidayCalendar.bundled()
        for external in (False, True):
            train, test = build_train_test_matrices(table, split, external, cal)
            assert len(train) == 20 * (1673 - 28) == 32_900
            assert len(test) == 20 * 153 == 3_060


# --- 12. plain numbers in every CSV artifact ---------------------------------------------

TEXT_COLUMNS = {
    "model", "scenario", "deviation_mode", "forecast_mode", "error",
    "store", "item", "date", "feature", "metric", "direction",
}


def test_csv_artifacts_hold_plain_numbers(bundled_run):
    with criterion("csv_artifacts_hold_plain_numbers"):
        _, out = bundled_run
        paths = sorted(out.glob("*.csv"))
        assert len(paths) >= 3 + 3 * 5 * 2
        for path in paths:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                numeric = [c for c in reader.fieldnames if c not in TEXT_COLUMNS]
                assert numeric, path.name
                for row in reader:
                    for column in numeric:
                        if row[column]:  # an empty cell stands for an undefined value
                            float(row[column])


# --- 13. the bundled run's bytes, pinned ---------------------------------------------

# The default bundled run on numpy 2.4.  A change that moves any number
# updates these pins and says why.
BUNDLED_METRICS_SHA256 = "1f6428e23510d8d2288c21dbb0d3e4dbfa503ce2d7028cad0eed265a9be175e8"
BUNDLED_REPORT_SHA256 = "4369c869cc6c3da92ba481b188ab20db37622ad4853001efc3bf82f3a1db1422"
# One digest over the name and bytes of each of these files, in name order.
BUNDLED_OTHERS_SHA256 = "e916148130695c506c9a1d89d02b5e84ba4b1063348a1198e118a93923d87860"
PINNED_OTHERS = (
    "residuals_*.csv",
    "histogram_*.csv",
    "actual_vs_predicted_*.csv",
    "importance.csv",
    "ledger_*.csv",
    "impact.json",
    "impact_table.csv",
    "report.md",
)


def test_bundled_bytes_pinned(bundled_run):
    with criterion("bundled_bytes_pinned"):
        cfg, out = bundled_run
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["report", "--config", str(cfg)]) == 0
        assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == BUNDLED_METRICS_SHA256
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == BUNDLED_REPORT_SHA256
        paths = sorted({p for pattern in PINNED_OTHERS for p in out.glob(pattern)}, key=lambda p: p.name)
        # Three per (model, scenario), importance.csv, five ledgers, two impact files, report.md.
        assert len(paths) == 3 * 5 * 2 + 1 + 5 + 2 + 1
        digest = hashlib.sha256()
        for path in paths:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == BUNDLED_OTHERS_SHA256


# The default run saves no models, so the pins above see a model's internals
# only through its forecasts.  These pin the saved artifact of one S1 and
# one S2 series of the bundled sample: a change to any tree, leaf value,
# support vector or trend_seasonal coefficient, changepoint or holiday day
# fails here at once.  S2's trend_seasonal fit takes the bundled calendar.
# On numpy 2.4.
MODEL_SHA256 = {
    # (external features, store, item): (gbdt, svr, trend_seasonal)
    (False, "2", "5"): (
        "62340bb89d79523ef58d6b75aeb8141c4684436b22c703932f5bcea96d0d1d9f",
        "3dcf72127eaeb905b8a18eacb0a85bbfe4fbb718b14188ceadf0a3c7ea956c79",
        "9b46925a5982b04f2de85f27d88d62a52ddddca8404b338f7448a3b7ae83ed3d",
    ),
    (True, "1", "1"): (
        "d402688481498b0a260a2ec2b1c98cce5e754877236e61bd3fdd4fd0f1032b07",
        "5e022c08b7c34e80ff3815566c97fe1c7211e3a29fd64a601c782b6f7f761b94",
        "409d2dd1587f761b6121d2a40e962010f7394af2df6b1dc9537aea736ece359e",
    ),
}


def test_model_artifacts_pinned():
    with criterion("model_artifacts_pinned"):
        for series, expected in MODEL_SHA256.items():
            train, _ = bundled_series(*series)
            calendar = HolidayCalendar.bundled() if series[0] else None
            models = (
                fit_gbdt(train),
                fit_svr(train),
                fit_trend_seasonal(train.target, train.dates, TrendSeasonalConfig(), calendar),
            )
            docs = (json.dumps(model.to_dict()) for model in models)
            assert tuple(hashlib.sha256(d.encode()).hexdigest() for d in docs) == expected, series


# --- 14. a gappy run's bytes, pinned -------------------------------------------------

# The bundled run has integer demand, no gaps and no malformed lines.  This
# run has shuffled rows, missing interior days filled with fractional values
# and one corrupt line.  One digest over the name and bytes of every file the
# four commands write except the two that hold timings, on numpy 2.4, once
# per deviation mode.
GAPPY_SHA256 = "a7b376ef8ec2fe6ace2e699c6623c6e5626aa8f52e35b4c07be2092c54380478"
GAPPY_LAGGED_SHA256 = "af417d9c8d567f716fd4a4cb135f79a7ecf131305738e72824925b21d2de3f44"


def write_gappy_csv(tmp_path):
    table = generate_sales_table(n_stores=1, n_items=3, start=dt.date(2017, 1, 1))
    rng = np.random.default_rng(11)
    interior = (table.dates > table.dates.min()) & (table.dates < table.dates.max())
    kept = ~(interior & (rng.random(len(table)) < 0.04))
    lines = [
        f"{dt.date.fromordinal(d)},{s},{i},{int(q)}"
        for d, s, i, q in zip(
            table.dates[kept].tolist(),
            table.store_ids[kept].tolist(),
            table.item_ids[kept].tolist(),
            table.quantities[kept].tolist(),
        )
    ]
    rng.shuffle(lines)
    lines.insert(100, "2017-13-01,1,2,5")
    data = tmp_path / "sales.csv"
    data.write_text("date,store,item,sales\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return data


def gappy_run_digest(tmp_path, deviation_mode):
    data = write_gappy_csv(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    models = ["arimax", "trend_seasonal", "naive"]
    doc = {"data_path": str(data), "output_dir": str(out), "models": models}
    cfg.write_text(json.dumps({**doc, "deviation_mode": deviation_mode}))
    for command in ("ingest", "evaluate", "simulate", "report"):
        assert main([command, "--config", str(cfg)]) == 0, command
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary["malformed_count"] == 1 and summary["total_imputed"] > 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name not in ("runtimes.csv", "manifest.json"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_gappy_bytes_pinned(tmp_path):
    with criterion("gappy_bytes_pinned"):
        assert gappy_run_digest(tmp_path, "same-day") == GAPPY_SHA256


def test_gappy_lagged_bytes_pinned(tmp_path):
    with criterion("gappy_lagged_bytes_pinned"):
        assert gappy_run_digest(tmp_path, "lagged") == GAPPY_LAGGED_SHA256


# --- 15. ingest's bytes, pinned ----------------------------------------------------

# cleaned_sales.csv and ingest_summary.json on the bundled sample (CRLF, no
# gaps) and on the gappy CSV above (LF, shuffled, one corrupt line).
INGEST_SHA256 = {
    "bundled": (
        "b3fa9d7f952a92962cb57bd275a6b6cc525b686ec6ead9d27d2e6ba3a1dd2d57",
        "e6e5f221d3519c9ef2fb7f0abfbe12286efdd7e80f2c5184cbf51d250e6e605d",
    ),
    "gappy": (
        "fc667f5d2df5ad011c93059960b83d48a118339288d39dae02c4ec5f46a3806f",
        "47a6cf181ceff3fbbca34160527d5141020917dbcb7146af362198de2620078d",
    ),
}


def test_ingest_bytes_pinned(tmp_path):
    with criterion("ingest_bytes_pinned"):
        for name, data_args in (("bundled", []), ("gappy", ["--data", str(write_gappy_csv(tmp_path))])):
            out = tmp_path / name
            assert main(["ingest", "--out", str(out), *data_args]) == 0
            digests = tuple(
                hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("cleaned_sales.csv", "ingest_summary.json")
            )
            assert digests == INGEST_SHA256[name], name
