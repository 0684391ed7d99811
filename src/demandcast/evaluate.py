"""Metrics, scenario orchestration, pooled evaluation, and model comparison.

A scenario fixes the feature set, split, granularity, and model list, fits
every model per series on training rows only, forecasts the test window,
and pools residuals across series (ordered by store, item, date) into one
set of headline metrics per model.  Failures are recorded per model without
aborting the others.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import Granularity, SalesTable, SplitSpec, aggregate, series_runs
from .errors import EmptyPartitionError, FingerprintMismatchError, NoSplitsError
from .features import (
    DeviationConfig,
    DeviationMode,
    FeatureMatrix,
    FeatureSpec,
    HolidayCalendar,
    build_train_test_matrices,
)
from .models.arimax import (
    ForecastMode,
    fit_arimax,
    forecast_arimax,
    in_sample_predictions,
)
from .models.gbdt import GbdtConfig, feature_importance, fit_gbdt, predict_gbdt
from .models.naive import seasonal_naive_forecast, seasonal_naive_insample
from .models.svr import SvrConfig, fit_svr, predict_svr
from .models.trend_seasonal import (
    TrendSeasonalConfig,
    fit_trend_seasonal,
    forecast_trend_seasonal,
)

logger = logging.getLogger(__name__)

MODEL_NAMES = ("gbdt", "arimax", "trend_seasonal", "svr", "naive")

# Exogenous regressors handed to the AR(1) model: calendar/anomaly flags
# only, never lag columns (the autoregressive term already covers lag 1).
ARIMAX_EXOG_COLUMNS = ("weekday_sin", "weekday_cos", "weekday", "holiday", "deviation_flag")

HISTOGRAM_BINS = 30


# --- metrics -----------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    mae: float
    rmse: float
    r2: float | None  # None when the actuals are constant (undefined)
    n: int


def score(actual: np.ndarray, predicted: np.ndarray) -> Metrics:
    """MAE, RMSE, and R^2 about the actuals' mean."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if len(actual) == 0 or len(actual) != len(predicted):
        raise ValueError("need equal, non-zero-length vectors")
    err = actual - predicted
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = None
    else:
        r2 = 1.0 - float(np.sum(err * err)) / ss_tot
    return Metrics(mae=mae, rmse=rmse, r2=r2, n=len(actual))


def error_histogram(residuals: np.ndarray, n_bins: int) -> list[tuple[float, float, int]]:
    """Equal-width bins spanning [min, max]; half-open low edges, last bin closed."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    residuals = np.asarray(residuals, dtype=np.float64)
    if len(residuals) == 0:
        return []
    lo, hi = float(residuals.min()), float(residuals.max())
    if lo == hi:
        return [(lo, hi, len(residuals))]
    counts, edges = np.histogram(residuals, bins=n_bins, range=(lo, hi))
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(n_bins)
    ]


# --- scenario specification ---------------------------------------------------

S1_FEATURES = FeatureSpec(lags=(1, 7, 14, 28), cyclical=frozenset({"month"}))


def s2_features(deviation_mode: DeviationMode = DeviationMode.SAME_DAY) -> FeatureSpec:
    return FeatureSpec(
        lags=(1, 7, 14, 28),
        cyclical=frozenset({"month", "weekday"}),
        use_weekday_numeric=True,
        use_holiday=True,
        use_deviation_flag=True,
        deviation=DeviationConfig(mode=deviation_mode),
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation condition: feature set, split, granularity, models."""

    id: str
    feature_spec: FeatureSpec
    split: SplitSpec
    granularity: Granularity = Granularity.PER_SERIES
    models: tuple[str, ...] = MODEL_NAMES
    arimax_mode: ForecastMode = ForecastMode.RECURSIVE
    gbdt_config: GbdtConfig = field(default_factory=GbdtConfig)
    svr_config: SvrConfig = field(default_factory=SvrConfig)
    trend_config: TrendSeasonalConfig = field(default_factory=TrendSeasonalConfig)

    def __post_init__(self) -> None:
        unknown = set(self.models) - set(MODEL_NAMES)
        if unknown:
            raise ValueError(f"unknown models: {sorted(unknown)}")
        fs = self.feature_spec
        has_exog = (
            fs.use_weekday_numeric
            or fs.use_holiday
            or fs.use_deviation_flag
            or "weekday" in fs.cyclical
        )
        if self.id == "S1" and has_exog:
            raise ValueError("S1 must exclude weekday/holiday/deviation columns")
        if self.id == "S2" and not has_exog:
            raise ValueError("S2 must include the exogenous flag columns")

    def fingerprint_payload(self) -> dict:
        return {
            "id": self.id,
            "split": [
                self.split.train_end.isoformat(),
                self.split.test_start.isoformat(),
                self.split.test_end.isoformat(),
            ],
            "granularity": self.granularity.value,
        }


def make_scenario(
    scenario_id: str,
    split: SplitSpec,
    granularity: Granularity = Granularity.PER_SERIES,
    deviation_mode: DeviationMode = DeviationMode.SAME_DAY,
    models: tuple[str, ...] = MODEL_NAMES,
    **overrides,
) -> ScenarioSpec:
    feature_spec = S1_FEATURES if scenario_id == "S1" else s2_features(deviation_mode)
    return ScenarioSpec(
        id=scenario_id,
        feature_spec=feature_spec,
        split=split,
        granularity=granularity,
        models=models,
        **overrides,
    )


# --- per-series model tasks ---------------------------------------------------

def _exog_columns(train: FeatureMatrix) -> list[str]:
    """Exogenous columns that vary over the rows arimax regresses on (t >= 2).

    A column constant there, such as a deviation flag that never fires on an
    aggregated series, cannot be told apart from the intercept.
    """
    return [
        c
        for c in train.columns
        if c in ARIMAX_EXOG_COLUMNS and len(np.unique(train.column(c)[1:])) > 1
    ]


def _fit_and_forecast(payload: dict) -> tuple[np.ndarray, np.ndarray, dict, str]:
    """Fit one model on one series and forecast its test window.

    Returns the test predictions, the in-sample predictions, the serialized
    model artifact and the forecast mode.
    """
    model_name = payload["model"]
    train: FeatureMatrix = payload["train"]
    test: FeatureMatrix = payload["test"]
    spec: ScenarioSpec = payload["spec"]

    if model_name in ("gbdt", "svr"):
        if model_name == "gbdt":
            fit, predict, cfg = fit_gbdt, predict_gbdt, spec.gbdt_config
        else:
            fit, predict, cfg = fit_svr, predict_svr, spec.svr_config
        model = fit(train, cfg)
        predictions = predict(model, test)
        train_pred = model.train_prediction if model_name == "gbdt" else predict(model, train)
        return predictions, train_pred, model.to_dict(), "one-step-features"
    if model_name == "arimax":
        exog_names = _exog_columns(train)
        X_train = (
            np.column_stack([train.column(c) for c in exog_names]) if exog_names else None
        )
        X_test = (
            np.column_stack([test.column(c) for c in exog_names]) if exog_names else None
        )
        model = fit_arimax(train.target, X_train, exog_names=exog_names)
        predictions = forecast_arimax(
            model,
            X_test,
            len(test),
            spec.arimax_mode,
            actuals_for_onestep=test.target if spec.arimax_mode is ForecastMode.ONE_STEP else None,
        )
        fitted = in_sample_predictions(model, train.target, X_train)
        train_pred = np.concatenate([[train.target[0]], fitted])
        return predictions, train_pred, model.to_dict(), spec.arimax_mode.value
    if model_name == "trend_seasonal":
        calendar = payload["calendar"]
        model = fit_trend_seasonal(train.target, train.dates, spec.trend_config, calendar)
        predictions, _, _ = forecast_trend_seasonal(model, test.dates)
        train_pred, _, _ = forecast_trend_seasonal(model, train.dates)
        return predictions, train_pred, model.to_dict(), "multi-step"
    if model_name == "naive":
        predictions = seasonal_naive_forecast(train.target, len(test))
        insample = seasonal_naive_insample(train.target)
        train_pred = np.concatenate([[train.target[0]], insample])
        return predictions, train_pred, {"kind": "naive", "period": 7}, "seasonal-naive"
    raise ValueError(f"unknown model {model_name!r}")


def _run_series_task(payload: dict) -> dict:
    """Run one (model, series) task and time it.

    Top-level function so worker processes can unpickle it.  Returns the
    test predictions, in-sample training residual std, serialized model
    artifact and task seconds; a failure returns its error text instead, so
    the other tasks in the pool keep running.
    """
    started = time.perf_counter()
    try:
        predictions, train_pred, artifact, mode = _fit_and_forecast(payload)
    except Exception as exc:
        logger.exception("model %s failed on series %s", payload["model"], payload["key"])
        result = {"error": f"{type(exc).__name__}: {exc}"}
    else:
        train_residuals = payload["train"].target - train_pred
        result = {
            "predictions": predictions,
            "train_residual_std": float(train_residuals.std()),
            "artifact": artifact,
            "mode": mode,
        }
    result["task_seconds"] = time.perf_counter() - started
    return result


def _execute_tasks(tasks: list[dict], workers: int) -> list[dict]:
    if workers <= 1 or len(tasks) <= 1:
        return [_run_series_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_series_task, tasks, chunksize=1))


# --- evaluation report ---------------------------------------------------------

@dataclass
class ModelEvaluation:
    model: str
    scenario: str
    forecast_mode: str
    metrics: Metrics | None
    stores: np.ndarray
    items: np.ndarray
    dates: np.ndarray
    actuals: np.ndarray
    predictions: np.ndarray
    histogram: list[tuple[float, float, int]]
    importance: list[tuple[str, float]] | None
    train_residual_std: float
    per_series_train_residual_std: dict[tuple[str, str], float]
    artifacts: dict[tuple[str, str], dict]
    runtime_s: float
    error: str | None = None


@dataclass
class EvaluationReport:
    scenario: ScenarioSpec
    deviation_mode: str
    entries: dict[str, ModelEvaluation]
    config_fingerprint: str
    data_fingerprint: str


def data_fingerprint(table: SalesTable) -> str:
    digest = hashlib.sha256()
    digest.update(table.dates.tobytes())
    digest.update("\x00".join(table.store_ids.tolist()).encode())
    digest.update("\x00".join(table.item_ids.tolist()).encode())
    digest.update(table.quantities.tobytes())
    return digest.hexdigest()


def config_fingerprint(payload: Mapping) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def run_scenario(
    table: SalesTable,
    spec: ScenarioSpec,
    calendar: HolidayCalendar,
    workers: int = 1,
) -> EvaluationReport:
    """Fit every model of the scenario and evaluate on the test window.

    The holiday calendar reaches the design matrix and the trend model only
    when the feature spec uses holidays, as S2 does: S1 is the history-only
    condition.  Raises :class:`EmptyPartitionError` when no series has rows
    on both sides of the split.
    """
    calendar = calendar if spec.feature_spec.use_holiday else None
    working = aggregate(table, spec.granularity)
    train_fm, test_fm = build_train_test_matrices(working, spec.feature_spec, calendar, spec.split)
    train_runs, test_runs = (
        {k: slice(*r) for k, r in series_runs(fm.stores, fm.items).items()}
        for fm in (train_fm, test_fm)
    )
    keys = [k for k in train_runs if k in test_runs]
    if not keys:
        raise EmptyPartitionError(
            f"no series has rows both up to {spec.split.train_end} and "
            f"from {spec.split.test_start} to {spec.split.test_end}"
        )

    # Every (model, series) task of the scenario goes through one pool, in
    # model-major order, so each model's results are a contiguous run.  The
    # pool is per scenario, not per run, so workers forked inside a traced
    # scenario book their time under it.  The models share each series'
    # matrices, which are views of the scenario's.
    series = {
        k: (train_fm.select_rows(train_runs[k]), test_fm.select_rows(test_runs[k])) for k in keys
    }
    tasks = [
        {
            "model": model_name,
            "key": key,
            "train": series[key][0],
            "test": series[key][1],
            "spec": spec,
            "calendar": calendar,
        }
        for model_name in spec.models
        for key in keys
    ]
    all_results = _execute_tasks(tasks, workers)

    entries: dict[str, ModelEvaluation] = {}
    for m, model_name in enumerate(spec.models):
        results = all_results[m * len(keys) : (m + 1) * len(keys)]
        runtime = sum(r["task_seconds"] for r in results)
        # The first failing series, in series order, fails the whole model.
        error = next((r["error"] for r in results if "error" in r), None)
        if error is not None:
            entries[model_name] = ModelEvaluation(
                model=model_name,
                scenario=spec.id,
                forecast_mode="",
                metrics=None,
                stores=np.array([], dtype=np.str_),
                items=np.array([], dtype=np.str_),
                dates=np.empty(0, dtype=np.int64),
                actuals=np.empty(0),
                predictions=np.empty(0),
                histogram=[],
                importance=None,
                train_residual_std=float("nan"),
                per_series_train_residual_std={},
                artifacts={},
                runtime_s=runtime,
                error=error,
            )
            continue

        predictions = np.concatenate([r["predictions"] for r in results])
        actuals = np.concatenate([test_fm.target[test_runs[k]] for k in keys])
        stores = np.concatenate([test_fm.stores[test_runs[k]] for k in keys])
        items = np.concatenate([test_fm.items[test_runs[k]] for k in keys])
        dates = np.concatenate([test_fm.dates[test_runs[k]] for k in keys])
        metrics = score(actuals, predictions)

        importance = None
        if model_name == "gbdt":
            totals: dict[str, float] = {}
            for r in results:
                for feat, gain in r["artifact"]["gain_totals"].items():
                    totals[feat] = totals.get(feat, 0.0) + gain
            try:
                importance = feature_importance(totals)
            except NoSplitsError:
                pass

        per_series_std = {k: r["train_residual_std"] for k, r in zip(keys, results)}
        pooled_std = float(
            np.sqrt(np.mean([s * s for s in per_series_std.values()]))
        )
        entries[model_name] = ModelEvaluation(
            model=model_name,
            scenario=spec.id,
            forecast_mode=results[0]["mode"] if results else "",
            metrics=metrics,
            stores=stores,
            items=items,
            dates=dates,
            actuals=actuals,
            predictions=predictions,
            histogram=error_histogram(actuals - predictions, HISTOGRAM_BINS),
            importance=importance,
            train_residual_std=pooled_std,
            per_series_train_residual_std=per_series_std,
            artifacts={k: r["artifact"] for k, r in zip(keys, results)},
            runtime_s=runtime,
        )

    return EvaluationReport(
        scenario=spec,
        deviation_mode=spec.feature_spec.deviation.mode.value
        if spec.feature_spec.use_deviation_flag
        else "",
        entries=entries,
        config_fingerprint=config_fingerprint(spec.fingerprint_payload()),
        data_fingerprint=data_fingerprint(table),
    )


# --- comparison -----------------------------------------------------------------

@dataclass
class ComparisonTable:
    scenarios: list[str]
    models: list[str]
    mae: dict[tuple[str, str], float | None]
    rmse: dict[tuple[str, str], float | None]
    r2: dict[tuple[str, str], float | None]
    improvement_pct: dict[str, float | None]
    best_by_metric: dict[tuple[str, str], str]

    def to_text(self) -> str:
        lines = []
        header = ["model"] + [f"mae[{s}]" for s in self.scenarios]
        if len(self.scenarios) > 1:
            header.append("improvement%")
        lines.append("  ".join(f"{h:>16}" for h in header))
        for m in self.models:
            row = [f"{m:>16}"]
            for s in self.scenarios:
                v = self.mae.get((m, s))
                row.append(f"{v:16.4f}" if v is not None else f"{'-':>16}")
            if len(self.scenarios) > 1:
                imp = self.improvement_pct.get(m)
                row.append(f"{imp:16.1f}" if imp is not None else f"{'-':>16}")
            lines.append("  ".join(row))
        return "\n".join(lines)


def improvement_percent(before: float, after: float) -> float:
    """Percent reduction from before to after (positive = improvement)."""
    if before == 0.0:
        return 0.0
    return 100.0 * (before - after) / before


def compare(reports: Sequence[EvaluationReport]) -> ComparisonTable:
    """Side-by-side metric matrix across scenario reports.

    All reports must come from the same data, split, and granularity;
    comparing numbers from different runs would be meaningless.
    """
    if not reports:
        raise ValueError("nothing to compare")
    datas = {r.data_fingerprint for r in reports}
    splits = {
        (
            r.scenario.split.train_end,
            r.scenario.split.test_start,
            r.scenario.split.test_end,
            r.scenario.granularity,
        )
        for r in reports
    }
    if len(datas) > 1 or len(splits) > 1:
        raise FingerprintMismatchError(
            "reports span different data or splits and cannot be compared"
        )
    scenarios = [r.scenario.id for r in reports]
    models: list[str] = []
    for r in reports:
        for m in r.entries:
            if m not in models:
                models.append(m)
    mae: dict[tuple[str, str], float | None] = {}
    rmse: dict[tuple[str, str], float | None] = {}
    r2: dict[tuple[str, str], float | None] = {}
    for r in reports:
        for m, entry in r.entries.items():
            key = (m, r.scenario.id)
            mae[key] = entry.metrics.mae if entry.metrics else None
            rmse[key] = entry.metrics.rmse if entry.metrics else None
            r2[key] = entry.metrics.r2 if entry.metrics else None

    improvement: dict[str, float | None] = {}
    if len(scenarios) > 1:
        first, last = scenarios[0], scenarios[-1]
        for m in models:
            a, b = mae.get((m, first)), mae.get((m, last))
            improvement[m] = improvement_percent(a, b) if a is not None and b is not None else None

    best: dict[tuple[str, str], str] = {}
    for s in scenarios:
        for metric_name, table_ in (("mae", mae), ("rmse", rmse)):
            candidates = [(v, m) for (m, sc), v in table_.items() if sc == s and v is not None]
            if candidates:
                best[(metric_name, s)] = min(candidates)[1]
        candidates = [(v, m) for (m, sc), v in r2.items() if sc == s and v is not None]
        if candidates:
            best[("r2", s)] = max(candidates)[1]
    return ComparisonTable(
        scenarios=scenarios,
        models=models,
        mae=mae,
        rmse=rmse,
        r2=r2,
        improvement_pct=improvement,
        best_by_metric=best,
    )
